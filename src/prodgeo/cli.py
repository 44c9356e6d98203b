"""Command-line interface.

Subcommands:

    eval        value, gradient, Hessian and curvature at one point
    grid        sweep a grid and emit a CSV or JSON report
    classify    returns-to-scale / developability verdict for a parameter set
    specialize  which classical family a Kadiyala parameter set reduces to
    verify-t1   randomized verification of the VES curvature-sign theorem
    verify-t2   randomized verification of the Kadiyala developability theorem

Exit codes: 0 success / all checks passed, 1 verification failure,
2 bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import harness, surface
from .errors import ProdGeoError


def _load_params(args):
    text = args.params
    if text is None:
        raise ProdGeoError("--params is required for this command")
    candidate = Path(text)
    if candidate.is_file():
        text = candidate.read_text()
    return harness.FAMILIES[args.model].params_from_json(text)


def _parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ProdGeoError(f"--point must be 'u,v', got {text!r}")
    return float(parts[0]), float(parts[1])


def _cmd_eval(args) -> int:
    family = harness.FAMILIES[args.model]
    p = _load_params(args)
    u, v = _parse_point(args.point)
    jet = family.jet(p, u, v)
    K, H = surface.curvature_from_jet(jet)
    valid = family.domain_valid(p, u, v, args.strict_domain)
    print(json.dumps({
        "u": u, "v": v, "f": jet.val,
        "grad": [jet.d1, jet.d2],
        "hess": [[jet.d11, jet.d12], [jet.d12, jet.d22]],
        "K": K, "H": H, "valid": valid,
    }, indent=2, sort_keys=True))
    return 0


def _cmd_grid(args) -> int:
    p = _load_params(args)
    spec = harness.parse_grid_spec(args.grid)
    report = harness.build_grid_report(p, spec, strict_domain=args.strict_domain,
                                       tol_K=args.tol)
    sys.stdout.write(harness.emit_grid_report(report, args.format))
    return 0


def _cmd_classify(args) -> int:
    p = _load_params(args)
    payload = harness.FAMILIES[args.model].verdict(p).payload
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_specialize(args) -> int:
    specialize = harness.FAMILIES[args.model].specialize
    if specialize is None:
        names = [name for name, family in harness.FAMILIES.items() if family.specialize]
        raise ProdGeoError(f"specialize applies to --model {' or '.join(names)}")
    tag = specialize(_load_params(args))
    payload = {"family": tag.tag.value}
    if tag.detail:
        payload["detail"] = tag.detail
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    spec = harness.parse_grid_spec(args.grid)
    summary = args.run(args.trials, args.seed, spec, tol_K=args.tol)
    print(summary.describe(), file=sys.stderr)
    return 0 if summary.ok else 1


DEFAULT_GRID_TEXT = "0.1,10,20,0.1,10,20,log"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodgeo",
        description="Curvature analysis of two-input production surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, params=True):
        sp.add_argument("--model", choices=tuple(harness.FAMILIES), default="ves")
        if params:
            sp.add_argument("--params",
                            help="JSON object (inline or a file path) with the "
                                 "model's parameter fields")
        sp.add_argument("--grid", default=DEFAULT_GRID_TEXT,
                        help="u_min,u_max,n_u,v_min,v_max,n_v[,linear|log]")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--trials", type=int, default=100)
        sp.add_argument("--strict-domain", action="store_true",
                        help="use the strict (positive-elasticity) VES domain")
        sp.add_argument("--tol", type=float,
                        default=surface.DEFAULT_CURVATURE_TOL,
                        help="zero-curvature tolerance")

    sp = sub.add_parser("eval", help="evaluate one point")
    common(sp)
    sp.add_argument("--point", required=True, help="u,v")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("grid", help="sweep a grid, emit CSV/JSON")
    common(sp)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_grid)

    sp = sub.add_parser("classify", help="theorem verdict for a parameter set")
    common(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("specialize", help="classical family of a Kadiyala set")
    common(sp)
    sp.set_defaults(func=_cmd_specialize)

    sp = sub.add_parser("verify-t1", help="randomized VES theorem check")
    common(sp, params=False)
    sp.set_defaults(func=_cmd_verify, run=harness.run_verify_theorem1, trials=300)

    sp = sub.add_parser("verify-t2", help="randomized Kadiyala theorem check")
    common(sp, params=False)
    sp.set_defaults(func=_cmd_verify, run=harness.run_verify_theorem2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.trials < 1:
            raise ProdGeoError(f"--trials must be >= 1, got {args.trials}")
        if not 0.0 < args.tol < math.inf:
            raise ProdGeoError(f"--tol must be finite and > 0, got {args.tol}")
        return args.func(args)
    except (ProdGeoError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
