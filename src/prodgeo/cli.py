"""Command-line interface.  Each subcommand takes only the options it reads:

    eval        one point's f, gradient, Hessian, K and H:
                --model --params --point --strict-domain
    grid        a CSV or JSON report over a grid:
                --model --params --grid --strict-domain --tol --format
    classify    the theorem's verdict for a parameter set: --model --params
    specialize  the classical family a Kadiyala set reduces to: --model --params
    verify-t1   randomized check of the VES curvature-sign theorem:
                --grid --seed --trials --tol
    verify-t2   randomized check of the Kadiyala developability theorem:
                --grid --seed --trials --tol

``--strict-domain`` (the strict VES domain) is refused for a family
without one.  Exit codes: 0 success / all checks passed, 1 verification
failure, 2 bad input, an unknown option and a grid too large for memory
included.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import harness, models, surface
from .errors import ProdGeoError


def _load_params(args):
    """--params as a JSON object inline, its first non-space character
    ``{``, or else the path of a file that holds one."""
    text = args.params
    if text is None:
        raise ProdGeoError("--params is required for this command")
    if not text.lstrip().startswith("{"):
        try:
            with open(text) as file:
                text = file.read()
        except OSError as exc:
            raise ProdGeoError(f"--params file cannot be read: {exc}") from None
    try:
        return models.params_from_json(harness.FAMILIES[args.model].params_type, text)
    except RecursionError:  # json's reader and writer recurse per level of nesting
        raise ProdGeoError("--params is nested too deeply to read") from None
    except json.JSONDecodeError as exc:
        raise ProdGeoError(f"--params is not valid JSON: {exc}") from None


def _parse_point(text: str) -> tuple[float, float]:
    try:
        u, v = map(float, text.split(","))
    except ValueError:  # not two parts, or a part that is not a number
        raise ProdGeoError(f"--point must be 'u,v', got {text!r}") from None
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ProdGeoError(f"--point must be finite, got {text!r}")
    return u, v


def _checked_tol(args) -> float:
    if not 0.0 < args.tol < math.inf:
        raise ProdGeoError(f"--tol must be finite and > 0, got {args.tol}")
    return args.tol


def _cmd_eval(args) -> int:
    family = harness.FAMILIES[args.model]
    in_domain = family.domain(args.strict_domain)
    p = _load_params(args)
    u, v = _parse_point(args.point)
    try:
        jet = family.jet(p, u, v)
        K, H = surface.curvature_from_jet(jet)
    except (ProdGeoError, ArithmeticError) as exc:
        raise harness.name_point(exc, u, v)
    valid = in_domain(p, u, v)
    print(json.dumps({
        "u": u, "v": v, "f": jet.val,
        "grad": [jet.d1, jet.d2],
        "hess": [[jet.d11, jet.d12], [jet.d12, jet.d22]],
        "K": K, "H": H, "valid": valid,
    }, indent=2, sort_keys=True))
    return 0


def _cmd_grid(args) -> int:
    tol = _checked_tol(args)
    p = _load_params(args)
    spec = harness.parse_grid_spec(args.grid)
    report = harness.build_grid_report(p, spec, strict_domain=args.strict_domain, tol_K=tol)
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
    if args.trials < 1:
        raise ProdGeoError(f"--trials must be >= 1, got {args.trials}")
    tol = _checked_tol(args)
    spec = harness.parse_grid_spec(args.grid)
    summary = args.run(args.trials, args.seed, spec, tol_K=tol)
    print(summary.describe(), file=sys.stderr)
    return 0 if summary.ok else 1


#: Every option by flag; each subcommand takes only the ones its handler reads.
OPTIONS = {
    "--model": dict(choices=tuple(harness.FAMILIES), default="ves"),
    "--params": dict(help="the model's parameters: a JSON object or a file path"),
    "--point": dict(required=True, help="u,v"),
    "--grid": dict(default=str(harness.DEFAULT_GRID),
                   help="u_min,u_max,n_u,v_min,v_max,n_v[,linear|log]"),
    "--strict-domain": dict(action="store_true",
                            help="use the strict (positive-elasticity) VES domain"),
    "--tol": dict(type=float, default=surface.DEFAULT_CURVATURE_TOL,
                  help="zero-curvature tolerance"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--seed": dict(type=int, default=0),
    "--trials": dict(type=int, default=100),
}
MODEL = ("--model", "--params")
VERIFY = ("--grid", "--seed", "--trials", "--tol")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodgeo",
        description="Curvature analysis of two-input production surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, flags, defaults in (
        ("eval", "evaluate one point", _cmd_eval,
         MODEL + ("--point", "--strict-domain"), {}),
        ("grid", "sweep a grid, emit CSV/JSON", _cmd_grid,
         MODEL + ("--grid", "--strict-domain", "--tol", "--format"), {}),
        ("classify", "theorem verdict for a parameter set", _cmd_classify, MODEL, {}),
        ("specialize", "classical family of a Kadiyala set", _cmd_specialize, MODEL, {}),
        ("verify-t1", "randomized VES theorem check", _cmd_verify, VERIFY,
         {"run": harness.run_verify_theorem1, "trials": 300}),
        ("verify-t2", "randomized Kadiyala theorem check", _cmd_verify, VERIFY,
         {"run": harness.run_verify_theorem2}),
    ):
        sp = sub.add_parser(name, help=help_text)
        for flag in flags:
            sp.add_argument(flag, **OPTIONS[flag])
        sp.set_defaults(func=func, **defaults)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProdGeoError, ArithmeticError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a grid too large to hold: bad input, not a failed check
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
