"""The table of model families, grid sweeps, seeded parameter sampling,
the finite-difference oracle, and the randomized verification runs for
the two curvature theorems.

Verification runs aggregate every violation into the returned summary
instead of raising, so one bad draw cannot mask the rest.
"""

from __future__ import annotations

import enum
import json
import math
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import curvature, jets, models, surface
from .curvature import DevelopabilityReason
from .errors import DomainError, InvalidSpecError, ProdGeoError, StencilOutOfDomainError
from .models import KadiyalaParams, VesParams
from .surface import SignClass

CLOSED_VS_AUTODIFF_RTOL = 1e-7
DUAL_FORM_RTOL = 1e-10


class Spacing(enum.Enum):
    LINEAR = "linear"
    LOGARITHMIC = "log"


@dataclass(frozen=True)
class GridSpec:
    u_min: float
    u_max: float
    v_min: float
    v_max: float
    n_u: int
    n_v: int
    spacing: Spacing = Spacing.LOGARITHMIC

    def __post_init__(self):
        if self.n_u < 1 or self.n_v < 1:
            raise InvalidSpecError("grid counts must be >= 1")
        # a degenerate axis (min == max) is allowed only with a single sample
        u_ok = 0 < self.u_min < self.u_max or (self.n_u == 1 and 0 < self.u_min == self.u_max)
        v_ok = 0 < self.v_min < self.v_max or (self.n_v == 1 and 0 < self.v_min == self.v_max)
        if not (u_ok and v_ok):
            raise InvalidSpecError(
                "grid bounds must satisfy 0 < min < max in both axes")


#: Two decades of capital-labor ratio around 1, away from float extremes.
DEFAULT_GRID = GridSpec(0.1, 10.0, 0.1, 10.0, 20, 20)


def _axis(lo: float, hi: float, n: int, spacing: Spacing) -> list[float]:
    if n == 1:
        return [lo]
    if spacing is Spacing.LOGARITHMIC:
        return [float(x) for x in np.geomspace(lo, hi, n)]
    return [float(x) for x in np.linspace(lo, hi, n)]


def sample_grid(spec: GridSpec) -> list[tuple[float, float]]:
    """All n_u*n_v sample points, ordered lexicographically by (u, v)."""
    us = _axis(spec.u_min, spec.u_max, spec.n_u, spec.spacing)
    vs = _axis(spec.v_min, spec.v_max, spec.n_v, spec.spacing)
    return [(u, v) for u in us for v in vs]


def parse_grid_spec(text: str) -> GridSpec:
    """Parse 'u_min,u_max,n_u,v_min,v_max,n_v[,linear|log]'."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (6, 7):
        raise InvalidSpecError(
            f"expected 'u_min,u_max,n_u,v_min,v_max,n_v[,spacing]', got {text!r}")
    try:
        u_min, u_max, v_min, v_max = (float(parts[0]), float(parts[1]),
                                      float(parts[3]), float(parts[4]))
        n_u, n_v = int(parts[2]), int(parts[5])
    except ValueError as exc:
        raise InvalidSpecError(f"bad grid spec {text!r}: {exc}") from exc
    spacing = Spacing.LOGARITHMIC
    if len(parts) == 7:
        try:
            spacing = Spacing(parts[6])
        except ValueError as exc:
            raise InvalidSpecError(
                f"spacing must be 'linear' or 'log', got {parts[6]!r}") from exc
    return GridSpec(u_min, u_max, v_min, v_max, n_u, n_v, spacing)


# --- Seeded parameter sampling --------------------------------------------

DELTA_STRATA = ("decreasing", "constant", "increasing")


def _draw_delta(rng: random.Random, stratum: str | None) -> float:
    if stratum is None:
        stratum = rng.choice(DELTA_STRATA)
    if stratum == "constant":
        return 1.0
    if stratum == "decreasing":
        return rng.uniform(0.25, 0.9)
    if stratum == "increasing":
        return rng.uniform(1.1, 4.0)
    raise ValueError(f"unknown delta stratum {stratum!r}")


def random_ves_params(seed: int, stratum: str | None = None) -> VesParams:
    """Deterministic constraint-satisfying VES draw.

    beta in (0.05, 0.95); rho in (0.1, min(0.95/beta, 5)) so that
    beta*rho stays below 1 and both rho regimes are covered; delta by
    returns-to-scale stratum; k in (0.1, 10).
    """
    rng = random.Random(seed)
    beta = rng.uniform(0.05, 0.95)
    rho = rng.uniform(0.1, min(0.95 / beta, 5.0))
    delta = _draw_delta(rng, stratum)
    k = rng.uniform(0.1, 10.0)
    return models.ves_validate(k, beta, rho, delta)


def random_kadiyala_params(
        seed: int,
        force_condition: DevelopabilityReason | str | None = None,
) -> KadiyalaParams:
    """Deterministic constraint-satisfying Kadiyala draw.

    ``force_condition`` pins the draw onto one of the three
    developability conditions; ``NOT_DEVELOPABLE`` (or None with
    margins) produces a generic draw kept away from all three condition
    manifolds so converse tests have curvature to find.
    """
    if isinstance(force_condition, str):
        force_condition = DevelopabilityReason(force_condition)
    rng = random.Random(seed)

    def simplex_weights():
        w1 = rng.uniform(0.05, 1.0)
        w2 = rng.uniform(0.05, 1.0)
        w3 = rng.uniform(0.05, 1.0)
        s = w1 + w2 + w3
        return w1 / s, w2 / (2.0 * s), w3 / s  # k1 + 2*k2 + k3 = 1

    if force_condition is DevelopabilityReason.CONSTANT_RETURNS:
        k1, k2, k3 = simplex_weights()
        b1, b2 = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
        return models.kadiyala_validate(k1, k2, k3, b1, b2, 1.0)

    if force_condition is DevelopabilityReason.K2_ZERO_UNIT_SUM:
        k1 = rng.uniform(0.05, 0.95)
        b1 = rng.uniform(0.1, 0.9)
        delta = _draw_delta(rng, rng.choice(("decreasing", "increasing")))
        return models.kadiyala_validate(k1, 0.0, 1.0 - k1, b1, 1.0 - b1, delta)

    if force_condition is DevelopabilityReason.BETA_ONE_RANK_ONE:
        w1, w3 = rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)
        w2 = math.sqrt(w1 * w3)  # k2^2 = k1*k3, preserved by uniform rescale
        s = w1 + 2.0 * w2 + w3
        delta = _draw_delta(rng, rng.choice(("decreasing", "increasing")))
        return models.kadiyala_validate(w1 / s, w2 / s, w3 / s, 1.0, 1.0, delta)

    # Generic draw, bounded away from every developability condition.
    while True:
        k1, k2, k3 = simplex_weights()
        b1, b2 = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
        delta = _draw_delta(rng, rng.choice(("decreasing", "increasing")))
        if abs(delta - 1.0) < 0.1 or k2 < 0.02:
            continue
        near_rank_one = (abs(b1 - 1.0) < 0.1 and abs(b2 - 1.0) < 0.1
                         and abs(k2 * k2 - k1 * k3) < 0.005)
        if near_rank_one:
            continue
        return models.kadiyala_validate(k1, k2, k3, b1, b2, delta)


# --- Finite-difference oracle ---------------------------------------------

FD_H_SCALE = 1e-5


def fd_oracle(f, u: float, v: float) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient and Hessian of a scalar field f(u, v).

    Steps scale with the point magnitude: h_i = FD_H_SCALE * max(1, |x_i|).
    The mixed partial uses the 4-point stencil.  Raises
    StencilOutOfDomainError if any stencil point leaves the field's
    domain.
    """
    hu = FD_H_SCALE * max(1.0, abs(u))
    hv = FD_H_SCALE * max(1.0, abs(v))

    def ev(uu, vv):
        try:
            return f(uu, vv)
        except DomainError as exc:
            raise StencilOutOfDomainError(
                f"stencil point ({uu}, {vv}) left the domain: {exc}") from exc

    f00 = ev(u, v)
    fp0, fm0 = ev(u + hu, v), ev(u - hu, v)
    f0p, f0m = ev(u, v + hv), ev(u, v - hv)
    fpp, fpm = ev(u + hu, v + hv), ev(u + hu, v - hv)
    fmp, fmm = ev(u - hu, v + hv), ev(u - hu, v - hv)

    grad = np.array([(fp0 - fm0) / (2.0 * hu), (f0p - f0m) / (2.0 * hv)])
    d11 = (fp0 - 2.0 * f00 + fm0) / (hu * hu)
    d22 = (f0p - 2.0 * f00 + f0m) / (hv * hv)
    d12 = (fpp - fpm - fmp + fmm) / (4.0 * hu * hv)
    hess = np.array([[d11, d12], [d12, d22]])
    return grad, hess


# --- Model families ----------------------------------------------------------
#
# Everything that differs between VES and Kadiyala is one record below;
# grid reports, the CLI and the verify engine dispatch through FAMILIES
# and nowhere else.  Entries call models, curvature, jets and the
# samplers by module attribute at call time, so rebinding one of those
# (to trace it, or to corrupt a verdict in a test) reaches every caller.

class Verdict(NamedTuple):
    """What a theorem says about one parameter set."""
    summary: str              # the grid report's "verdict" field
    payload: dict             # the `classify` command's JSON object
    expect: SignClass | None  # sign of K at every point; None: curved somewhere


@dataclass(frozen=True)
class ModelFamily:
    name: str
    params_type: type
    theorem: str
    params_from_json: Callable[[str], object]
    jet: Callable[[object, float, float], jets.Jet2]
    domain_valid: Callable[[object, float, float], bool]
    closed_K: Callable[[object, float, float], float]
    #: problems with the closed form's side conditions at one point
    side_checks: Callable[[object, float, float], Iterator[str]]
    verdict: Callable[[object], Verdict]
    #: (label, params) per trial, each drawn as the engine asks for it
    trials: Callable[[int, int], Iterator[tuple[str, object]]]
    #: the narrower domain a strict sweep uses; None: the family has none
    strict_domain_valid: Callable[[object, float, float], bool] | None = None
    specialize: Callable[[object], models.FamilyTag] | None = None

    def domain(self, strict: bool) -> Callable[[object, float, float], bool]:
        """The domain test; a strict one the family lacks is an error."""
        test = self.strict_domain_valid if strict else self.domain_valid
        if test is None:
            names = [name for name, f in FAMILIES.items() if f.strict_domain_valid]
            raise ProdGeoError(f"--strict-domain applies to --model {' or '.join(names)}")
        return test


def _rel_dev(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + abs(b))


def _subseed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def _ves_side_checks(p: VesParams, u: float, v: float) -> Iterator[str]:
    den_a = curvature.ves_denf(p, u, v)
    den_b = curvature.ves_denf(p, u, v, grouped=True)
    if den_a <= 0.0:
        yield f"Den_F={den_a} not positive at ({u:.4g}, {v:.4g})"
    if _rel_dev(den_a, den_b) > DUAL_FORM_RTOL:
        yield (f"Den_F groupings disagree at ({u:.4g}, {v:.4g}): "
               f"{den_a!r} vs {den_b!r}")


def _ves_verdict(p: VesParams) -> Verdict:
    regime, sign = curvature.ves_theorem_verdict(p)
    return Verdict(f"{regime.value}-returns:{sign.value}-curvature",
                   {"model": "ves", "returns_to_scale": regime.value,
                    "predicted_curvature_sign": sign.value,
                    "developable": sign is SignClass.ZERO},
                   sign)


def _ves_trials(trials: int, seed: int):
    """Returns-to-scale strata cycled trial by trial."""
    for t in range(trials):
        yield f"trial {t}", random_ves_params(
            _subseed(seed, t), stratum=DELTA_STRATA[t % len(DELTA_STRATA)])


def _kadiyala_side_checks(p: KadiyalaParams, u: float, v: float) -> Iterator[str]:
    if min(curvature.kadiyala_deng_terms(p, u, v)) < 0.0:
        yield f"negative Den_G summand at ({u:.4g}, {v:.4g})"
    t2a = curvature.kadiyala_T2(p, u, v)
    t2b = curvature.kadiyala_T2(p, u, v, collected=True)
    if _rel_dev(t2a, t2b) > DUAL_FORM_RTOL:
        yield (f"T2 groupings disagree at ({u:.4g}, {v:.4g}): "
               f"{t2a!r} vs {t2b!r}")


def _kadiyala_verdict(p: KadiyalaParams) -> Verdict:
    verdict = curvature.kadiyala_is_developable(p)
    return Verdict(verdict.reason.value,
                   {"model": "kadiyala",
                    "returns_to_scale": curvature.returns_to_scale(p.delta).value,
                    "developable": verdict.developable,
                    "reason": verdict.reason.value},
                   SignClass.ZERO if verdict.developable else None)


FORWARD_CONDITIONS = (
    DevelopabilityReason.CONSTANT_RETURNS,
    DevelopabilityReason.K2_ZERO_UNIT_SUM,
    DevelopabilityReason.BETA_ONE_RANK_ONE,
)


def _kadiyala_trials(trials: int, seed: int):
    """``trials`` draws per developability condition, then ``trials``
    generic draws that violate all three."""
    blocks = [(f"forward trial ({c.value})", c) for c in FORWARD_CONDITIONS]
    blocks.append(("converse trial", None))
    for index in range(len(blocks) * trials):
        label, condition = blocks[index // trials]
        yield label, random_kadiyala_params(_subseed(seed, index), condition)


VES = ModelFamily(
    name="ves",
    params_type=VesParams,
    theorem="theorem-1 (VES returns to scale vs curvature sign)",
    params_from_json=lambda text: models.ves_params_from_json(text),
    jet=lambda p, u, v: models.ves_eval(p, *jets.seed(u, v)),
    domain_valid=lambda p, u, v: models.ves_domain_valid(p, u, v, strict=False),
    strict_domain_valid=lambda p, u, v: models.ves_domain_valid(p, u, v, strict=True),
    closed_K=lambda p, u, v: curvature.ves_curvature_closed(p, u, v),
    side_checks=_ves_side_checks,
    verdict=_ves_verdict,
    trials=_ves_trials,
)

KADIYALA = ModelFamily(
    name="kadiyala",
    params_type=KadiyalaParams,
    theorem="theorem-2 (Kadiyala developability)",
    params_from_json=lambda text: models.kadiyala_params_from_json(text),
    jet=lambda p, u, v: models.kadiyala_eval(p, *jets.seed(u, v)),
    domain_valid=lambda p, u, v: u > 0 and v > 0,
    closed_K=lambda p, u, v: curvature.kadiyala_curvature_closed(p, u, v),
    side_checks=_kadiyala_side_checks,
    verdict=_kadiyala_verdict,
    trials=_kadiyala_trials,
    specialize=lambda p: models.kadiyala_specialize(p),
)

FAMILIES = {family.name: family for family in (VES, KADIYALA)}
_FAMILY_OF_TYPE = {family.params_type: family for family in FAMILIES.values()}


# --- Grid reports ----------------------------------------------------------

@dataclass(frozen=True)
class GridRow:
    u: float
    v: float
    f: float | None
    K: float | None
    H: float | None
    valid: bool
    sign: str


@dataclass(frozen=True)
class GridReport:
    model: str
    rows: tuple[GridRow, ...]
    summary: dict


def build_grid_report(params, spec: GridSpec = DEFAULT_GRID,
                      strict_domain: bool = False,
                      tol_K: float = surface.DEFAULT_CURVATURE_TOL) -> GridReport:
    """Evaluate height and curvature over a grid.

    Rows at domain-invalid points carry None for f, K, H and an empty sign;
    ``strict_domain`` raises ProdGeoError for a family without a strict
    domain.  Sign classification uses the grid's max |K| as its local
    scale, so the zero band adapts to how curved the surface is.
    """
    family = _FAMILY_OF_TYPE[type(params)]
    in_domain = family.domain(strict_domain)
    points = sorted(sample_grid(spec))
    evaluated: list[tuple[float, float, float | None, float | None, float | None, bool]] = []
    for u, v in points:
        if not in_domain(params, u, v):
            evaluated.append((u, v, None, None, None, False))
            continue
        jet = family.jet(params, u, v)
        K, H = surface.curvature_from_jet(jet)
        evaluated.append((u, v, jet.val, K, H, True))

    max_abs_k = max((abs(K) for *_, K, _H, ok in evaluated if ok), default=0.0)
    rows = []
    for u, v, f, K, H, ok in evaluated:
        sign = "" if not ok else surface.classify_sign(K, max_abs_k, tol_K).value
        rows.append(GridRow(u, v, f, K, H, ok, sign))

    f_vals = [r.f for r in rows if r.valid]
    summary = {
        "max_abs_k": max_abs_k,
        "f_min": min(f_vals) if f_vals else None,
        "f_max": max(f_vals) if f_vals else None,
        "invalid_points": sum(1 for r in rows if not r.valid),
        "verdict": family.verdict(params).summary,
    }
    return GridReport(model=f"{family.name}:{models.params_to_json(params)}",
                      rows=tuple(rows), summary=summary)


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)  # shortest round-trip decimal
    return str(x)


def emit_grid_report(report: GridReport, fmt: str = "csv") -> str:
    if fmt == "csv":
        lines = ["u,v,f,K,H,valid,sign"]
        for r in report.rows:
            lines.append(",".join(_cell(x) for x in
                                  (r.u, r.v, r.f, r.K, r.H, r.valid, r.sign)))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "model": report.model,
            "rows": [{"u": r.u, "v": r.v, "f": r.f, "K": r.K, "H": r.H,
                      "valid": r.valid, "sign": r.sign} for r in report.rows],
            "summary": report.summary,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def grid_report_from_json(text: str) -> GridReport:
    data = json.loads(text)
    rows = tuple(GridRow(r["u"], r["v"], r["f"], r["K"], r["H"],
                         r["valid"], r["sign"]) for r in data["rows"])
    return GridReport(model=data["model"], rows=rows, summary=data["summary"])


# --- Theorem verification runs --------------------------------------------

@dataclass
class VerifySummary:
    theorem: str
    trials: int = 0
    passes: int = 0
    failures: list[str] = field(default_factory=list)
    worst_closed_vs_autodiff: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"{self.theorem}: {status} "
                 f"({self.passes}/{self.trials} trials passed; "
                 f"worst closed-vs-autodiff relative deviation "
                 f"{self.worst_closed_vs_autodiff:.3e})"]
        lines.extend(f"  {msg}" for msg in self.failures[:20])
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more failures")
        return "\n".join(lines)


def _run_verify(family: ModelFamily, trials: int, seed: int, grid: GridSpec,
                tol_K: float) -> VerifySummary:
    """Randomized check of a family's theorem.  Each trial sweeps the grid
    points inside the domain, compares closed-form K with autodiff K, runs
    the family's side checks and holds the sweep to the theorem's verdict
    for the drawn parameters."""
    out = VerifySummary(theorem=family.theorem)
    points = sample_grid(grid)
    for label, p in family.trials(trials, seed):
        out.trials += 1
        problems = []
        ks = []
        for u, v in points:
            if not family.domain_valid(p, u, v):
                continue
            jet = family.jet(p, u, v)
            k_ad = surface.gaussian_curvature(surface.fundamental_forms(jet))
            ks.append((u, v, k_ad))
            k_closed = family.closed_K(p, u, v)
            dev = _rel_dev(k_closed, k_ad)
            out.worst_closed_vs_autodiff = max(out.worst_closed_vs_autodiff, dev)
            if dev > CLOSED_VS_AUTODIFF_RTOL:
                problems.append(
                    f"closed-form K={k_closed:.6e} vs autodiff K={k_ad:.6e} "
                    f"at ({u:.4g}, {v:.4g})")
            problems.extend(family.side_checks(p, u, v))
        expect = family.verdict(p).expect
        max_k = max((abs(k) for *_, k in ks), default=0.0)
        threshold = tol_K * (1.0 + max_k)
        if expect is SignClass.ZERO:  # flat within the scale-aware zero band
            if not all(abs(k) <= threshold for *_, k in ks):
                problems.append(f"expected flat: max|K|={max_k:.3e} "
                                f"vs threshold {threshold:.3e}")
        elif expect is None:
            # no sign predicted: curved at sampling resolution is the claim
            if not any(abs(k) > 10.0 * threshold for *_, k in ks):
                problems.append(f"expected curvature above {10.0 * threshold:.3e}, "
                                f"max|K|={max_k:.3e}")
        else:
            # |K| spans many decades across the grid, so a scale-aware zero
            # band would hide the sign of small K: check it strictly.
            for u, v, k in ks:
                got = (SignClass.POSITIVE if k > 0.0 else
                       SignClass.NEGATIVE if k < 0.0 else SignClass.ZERO)
                if got is not expect:
                    problems.append(
                        f"sign {got.value} != predicted {expect.value} "
                        f"at ({u:.4g}, {v:.4g}) with K={k:.3e}")
        if problems:
            out.failures.append(
                f"{label} params={models.params_to_json(p)}: " + problems[0]
                + (f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""))
        else:
            out.passes += 1
    return out


def run_verify_theorem1(trials: int, seed: int,
                        grid: GridSpec = DEFAULT_GRID,
                        tol_K: float = surface.DEFAULT_CURVATURE_TOL) -> VerifySummary:
    """Randomized check of the VES curvature-sign theorem.

    Trials are stratified across the three returns-to-scale regimes.
    Besides closed form against autodiff, each point checks that Den_F
    is positive and that its two algebraic groupings agree; the sign of
    K must be the one predicted from delta alone, strictly at every
    point, or flat for constant returns.
    """
    return _run_verify(VES, trials, seed, grid, tol_K)


def run_verify_theorem2(trials: int, seed: int,
                        grid: GridSpec = DEFAULT_GRID,
                        tol_K: float = surface.DEFAULT_CURVATURE_TOL) -> VerifySummary:
    """Randomized check of the Kadiyala developability theorem.

    Forward direction: ``trials`` draws per developability condition
    must give |K| within the zero band at every grid point.  Converse
    (at sampling resolution): ``trials`` generic draws violating all
    conditions must each show at least one grid point with |K| more
    than 10x the zero threshold.  Each point also checks that the Den_G
    summands are non-negative and that T2's two groupings agree.
    """
    return _run_verify(KADIYALA, trials, seed, grid, tol_K)
