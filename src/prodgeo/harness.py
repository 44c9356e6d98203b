"""The table of model families, grid sweeps, seeded parameter sampling,
and the randomized verification runs for the two curvature theorems.

Verification runs aggregate every violation into the returned summary
instead of raising, so one bad draw cannot mask the rest.
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
import math
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

from . import curvature, jets, models, surface
from .curvature import DevelopabilityReason
from .errors import InvalidSpecError, ProdGeoError
from .jets import Slot, np
from .models import KadiyalaParams, VesParams
from .surface import SignClass

CLOSED_VS_AUTODIFF_RTOL = 1e-7


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
        bounds = {name: getattr(self, name) for name in ("u_min", "u_max", "v_min", "v_max")}
        if bad := [f"{name}={x}" for name, x in bounds.items() if not math.isfinite(x)]:
            raise InvalidSpecError(f"grid bounds must be finite, got {', '.join(bad)}")
        # a degenerate axis (min == max) is allowed only with a single sample
        u_ok = 0 < self.u_min < self.u_max or (self.n_u == 1 and 0 < self.u_min == self.u_max)
        v_ok = 0 < self.v_min < self.v_max or (self.n_v == 1 and 0 < self.v_min == self.v_max)
        if not (u_ok and v_ok):
            raise InvalidSpecError(
                "grid bounds must satisfy 0 < min < max in both axes")

    def __str__(self) -> str:
        """The spec as ``parse_grid_spec`` reads it."""
        return (f"{self.u_min},{self.u_max},{self.n_u},"
                f"{self.v_min},{self.v_max},{self.n_v},{self.spacing.value}")


#: Two decades of capital-labor ratio around 1, away from float extremes.
DEFAULT_GRID = GridSpec(0.1, 10.0, 0.1, 10.0, 20, 20)


def _axis(lo: float, hi: float, n: int, spacing: Spacing) -> np.ndarray:
    if n == 1:
        return np.array([lo], dtype=float)
    if spacing is Spacing.LOGARITHMIC:
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _grid_axes(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The grid's n_u values of u and n_v values of v, each increasing."""
    return (_axis(spec.u_min, spec.u_max, spec.n_u, spec.spacing),
            _axis(spec.v_min, spec.v_max, spec.n_v, spec.spacing))


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
        force_condition: DevelopabilityReason | None = None,
) -> KadiyalaParams:
    """Deterministic constraint-satisfying Kadiyala draw.

    ``force_condition`` pins the draw onto one of the three
    developability conditions; ``NOT_DEVELOPABLE`` (or None with
    margins) produces a generic draw kept away from all three condition
    manifolds so converse tests have curvature to find.
    """
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


# --- Model families ----------------------------------------------------------
#
# Everything that differs between VES and Kadiyala is one record below;
# grid reports, the CLI and the verify engine dispatch through FAMILIES
# and nowhere else.  Entries call models, curvature, jets and the
# samplers by module attribute at call time, so rebinding one of those
# (to trace it, or to corrupt a verdict in a test) reaches every caller.

class Verdict(NamedTuple):
    """What a theorem says about one parameter set."""
    expect: SignClass | None  # sign of K at every point; None: curved somewhere
    #: the summary and payload below, written when one is read: a verify
    #: run reads ``expect`` alone
    texts: Callable[[], tuple[str, dict]]

    @property
    def summary(self) -> str:
        """The grid report's "verdict" field."""
        return self.texts()[0]

    @property
    def payload(self) -> dict:
        """The `classify` command's JSON object."""
        return self.texts()[1]


@dataclass(frozen=True)
class ModelFamily:
    name: str
    params_type: type
    theorem: str
    #: the jet and the domain tests take one point's floats or a batch's
    #: arrays, which broadcast (see ``_sweep``)
    jet: Callable[[object, Slot, Slot], jets.Jet2]
    domain_valid: Callable[[object, Slot, Slot], bool | np.ndarray]
    #: closed-form K at a point or over a batch, whose K is not finite
    #: where the point path raises
    closed_K: Callable[[object, np.ndarray, np.ndarray], np.ndarray]
    verdict: Callable[[object], Verdict]
    #: (label, params) per trial, each drawn as the engine asks for it
    trials: Callable[[int, int], Iterator[tuple[str, object]]]
    #: the narrower domain a strict sweep uses; None: the family has none
    strict_domain_valid: Callable[[object, Slot, Slot], bool | np.ndarray] | None = None
    specialize: Callable[[object], models.FamilyTag] | None = None

    def domain(self, strict: bool) -> Callable[[object, Slot, Slot], bool | np.ndarray]:
        """The domain test; a strict one the family lacks is an error."""
        test = self.strict_domain_valid if strict else self.domain_valid
        if test is None:
            names = [name for name, f in FAMILIES.items() if f.strict_domain_valid]
            raise ProdGeoError(f"--strict-domain applies to --model {' or '.join(names)}")
        return test


def _rel_dev(a: Slot, b: Slot) -> Slot:
    return abs(a - b) / (1.0 + abs(b))


def _subseed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def _ves_verdict(p: VesParams) -> Verdict:
    regime, sign = curvature.ves_theorem_verdict(p)
    return Verdict(sign, lambda: (f"{regime.value}-returns:{sign.value}-curvature",
                                  {"model": "ves", "returns_to_scale": regime.value,
                                   "predicted_curvature_sign": sign.value,
                                   "developable": sign is SignClass.ZERO}))


def _ves_trials(trials: int, seed: int):
    """Returns-to-scale strata cycled trial by trial."""
    for t in range(trials):
        yield f"trial {t}", random_ves_params(
            _subseed(seed, t), stratum=DELTA_STRATA[t % len(DELTA_STRATA)])


def _kadiyala_verdict(p: KadiyalaParams) -> Verdict:
    verdict = curvature.kadiyala_is_developable(p)
    return Verdict(SignClass.ZERO if verdict.developable else None,
                   lambda: (verdict.reason.value,
                            {"model": "kadiyala",
                             "returns_to_scale": curvature.returns_to_scale(p.delta).value,
                             "developable": verdict.developable,
                             "reason": verdict.reason.value}))


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
    jet=lambda p, u, v: models.ves_eval(p, *jets.seed(u, v)),
    domain_valid=lambda p, u, v: models.ves_domain_valid(p, u, v, strict=False),
    strict_domain_valid=lambda p, u, v: models.ves_domain_valid(p, u, v, strict=True),
    closed_K=lambda p, u, v: curvature.ves_curvature_closed(p, u, v),
    verdict=_ves_verdict,
    trials=_ves_trials,
)

KADIYALA = ModelFamily(
    name="kadiyala",
    params_type=KadiyalaParams,
    theorem="theorem-2 (Kadiyala developability)",
    jet=lambda p, u, v: models.kadiyala_eval(p, *jets.seed(u, v)),
    domain_valid=lambda p, u, v: (u > 0) & (v > 0),
    closed_K=lambda p, u, v: curvature.kadiyala_curvature_closed(p, u, v),
    verdict=_kadiyala_verdict,
    trials=_kadiyala_trials,
    specialize=lambda p: models.kadiyala_specialize(p),
)

FAMILIES = {family.name: family for family in (VES, KADIYALA)}
_FAMILY_OF_TYPE = {family.params_type: family for family in FAMILIES.values()}


# --- Grid reports ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GridReport:
    """A grid sweep in the grid's shape: the axes ``us`` and ``vs``, the
    (n_u, n_v) mask ``in_domain`` of the cells in the domain, and f, K, H
    (``values``) and the sign code (``signs``, see
    ``surface.classify_sign``) at those cells, 1-d in (u, v) order."""
    model: str
    us: np.ndarray
    vs: np.ndarray
    in_domain: np.ndarray
    values: tuple[np.ndarray, np.ndarray, np.ndarray]
    signs: np.ndarray
    summary: dict

    @functools.cached_property
    def _reprs(self) -> tuple[list[str], ...]:
        """repr of f, K and H at each cell in the domain, formatted once
        for both of emit_grid_report's formats."""
        return tuple(list(map(repr, x.tolist())) for x in self.values)


def _filled(mask: np.ndarray, cells: list, fill: str) -> list:
    """A list over the cells of ``mask`` in order: ``cells`` in turn where
    the mask is set, ``fill`` elsewhere."""
    out = np.full(mask.size, fill, dtype=object)
    out[mask.reshape(-1)] = cells
    return out.tolist()


def name_point(exc: Exception, u: float, v: float) -> Exception:
    """``exc``, its message ending in the point (u, v) unless it names it
    already.  The domain checks name the point they fail at; the jets and
    the forms see only slots, and a batch's slots hold many points."""
    point = f"({u}, {v})"
    if point not in str(exc):
        exc.args = (f"{exc} at {point}",)
    return exc


def _trial_columns(records: list) -> SimpleNamespace:
    """One parameter record whose fields are (trial, 1, 1) columns, row t
    holding record t's value.  Against a (1, n_u, 1) u and a (1, 1, n_v)
    v, numpy's broadcasting computes what depends on the parameters alone
    once per trial, and a power of u or of v alone once per trial and
    value, with the bits that one value per point gives."""
    names = list(vars(records[0]))
    values = np.array([[getattr(r, name) for name in names] for r in records]).T.copy()
    return SimpleNamespace(**{name: row.reshape(-1, 1, 1) for name, row in zip(names, values)})


def _sweep(in_domain: Callable, evaluate: Callable, records: list,
           us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Which cells of the grid us × vs lie in the domain (``in_domain``)
    of each parameter set of ``records``, as a (trial, u, v) mask, and the
    values ``evaluate`` reports, laid out as the mask.  ``evaluate(p, u,
    v)`` returns the values that the point path checks and the values to
    report.  It sees the grid's axes, a (1, n_u, 1) u and a (1, 1, n_v) v,
    and ``_trial_columns``; one record keeps its floats.  It runs at every
    cell, so a value off the domain is unspecified: each reader takes the
    values under the mask.

    A batch raises nothing: it leaves a checked value not finite at each
    cell where the point path would raise.  One sum per checked value over
    the cells in the domain clears a batch with no such cell.  Otherwise
    each flagged cell in the domain, in (trial, u, v) order, runs again on
    the point path, with floats and its trial's record: the first that
    raises raises its error, naming its point, and one that passes reports
    the point path's values."""
    u, v = us[None, :, None], vs[None, None, :]
    p = _trial_columns(records) if len(records) > 1 else records[0]
    mask = np.broadcast_to(in_domain(p, u, v), (len(records), len(us), len(vs)))
    where = True if mask.all() else mask
    checked, values = evaluate(p, u, v)
    if not math.isfinite(sum(np.sum(np.broadcast_to(x, mask.shape), where=where)
                             for x in checked)):
        finite = functools.reduce(np.logical_and, map(np.isfinite, checked))
        for t, i, j in zip(*np.nonzero(mask & ~finite)):
            point = us.item(i), vs.item(j)
            try:
                _, at = evaluate(records[t], *point)
            except (ProdGeoError, ArithmeticError) as exc:
                raise name_point(exc, *point)
            for x, y in zip(values, at):
                x[t, i, j] = y
    return mask, values


def build_grid_report(params, spec: GridSpec = DEFAULT_GRID,
                      strict_domain: bool = False,
                      tol_K: float = surface.DEFAULT_CURVATURE_TOL) -> GridReport:
    """Evaluate height and curvature over a grid, all points in one batch.

    The report holds f, K, H and a sign at the cells in the domain alone;
    ``strict_domain`` raises ProdGeoError for a family without a strict
    domain.  Sign classification uses the grid's max |K| as its local
    scale, so the zero band adapts to how curved the surface is.  A grid
    that fails raises the error its first failing cell raises on its own,
    naming the cell's point.
    """
    family = _FAMILY_OF_TYPE[type(params)]
    in_domain = family.domain(strict_domain)

    def evaluate(p, u, v):
        jet = family.jet(p, u, v)
        K, H, w2 = surface.curvatures(jet)
        return (*jet, w2), (jet.val, K, H)

    us, vs = _grid_axes(spec)
    # Overflow to inf or NaN is what the program's checks report, cell by cell.
    with np.errstate(all="ignore"):
        mask, values = _sweep(in_domain, evaluate, [params], us, vs)
        values = tuple(x[mask] for x in values)
        max_abs_k = max(np.abs(values[1]).tolist(), default=0.0)
        signs = surface.classify_sign(values[1], max_abs_k, tol_K)
    f_valid = values[0].tolist()
    summary = {
        "max_abs_k": max_abs_k,
        "f_min": min(f_valid, default=None),
        "f_max": max(f_valid, default=None),
        "invalid_points": mask.size - len(f_valid),
        "verdict": family.verdict(params).summary,
    }
    return GridReport(f"{family.name}:{models.params_to_json(params)}",
                      us, vs, mask[0], values, signs, summary)


#: json's spelling of the floats that are not finite; the CSV writes repr.
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _respelled(texts: list[str], x: np.ndarray, fmt: str) -> list[str]:
    """texts, the reprs of x, as format ``fmt`` spells them: respelled
    for json, in a copy, where some value of x is not finite."""
    if fmt == "json" and not np.isfinite(x).all():
        return [_JSON_SPELLING.get(t, t) for t in texts]
    return texts


def emit_grid_report(report: GridReport, fmt: str = "csv") -> str:
    """The report as CSV, or as the JSON that json.dumps(..., indent=2,
    sort_keys=True) gives for {"model", "rows", "summary"}.

    Each format is one str.join over the rows' items.  Each distinct text
    is made once: one per axis value, one per kind of row (a sign class,
    or off the domain), and the reprs of f, K and H, which the report
    keeps for both formats.  A column of one text per row is a list
    repeated or a lookup by index in numpy: no row becomes a string of
    its own, and the document is not copied after the join."""
    if fmt == "csv":
        u_end, v_end, fill = ",", ",", ""
    elif fmt == "json":
        u_end, v_end, fill = ',\n      "v": ', ',\n      "valid": ', "null"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    n_u, n_v = report.in_domain.shape
    n = n_u * n_v
    # each row's kind: its sign code, or last off the domain
    kinds = [(c.value, "true") for c in SignClass] + [("", "false")]
    kind = np.full(n, len(SignClass))
    kind[report.in_domain.reshape(-1)] = report.signs

    def by_kind(texts: list[str]) -> list[str]:
        return np.array(texts, dtype=object)[kind].tolist()

    def axis(x: np.ndarray, end: str) -> list[str]:
        return [t + end for t in _respelled(list(map(repr, x.tolist())), x, fmt)]

    u = np.repeat(np.array(axis(report.us, u_end), dtype=object), n_v).tolist()
    v = axis(report.vs, v_end) * n_u
    f, K, H = (texts if len(texts) == n else _filled(report.in_domain, texts, fill)
               for texts in map(_respelled, report._reprs, report.values, [fmt] * 3))
    if fmt == "csv":
        head, end, opener = "u,v,f,K,H,valid,sign\n", "", ""
        row = [u, v, f, ",", K, ",", H, by_kind([f",{ok},{sign}\n" for sign, ok in kinds])]
    else:
        # A row's last item opens the next row; the last row's opens none.
        opener = ',\n    {\n      "H": '
        head = '{\n  "model": %s,\n  "rows": [%s' % (json.dumps(report.model),
                                                    opener[1:] if n else "")
        summary = json.dumps(report.summary, indent=2, sort_keys=True).replace("\n", "\n  ")
        end = '%s],\n  "summary": %s\n}\n' % ("\n  " if n else "", summary)
        row = [H, ',\n      "K": ', K, ',\n      "f": ', f,
               by_kind([f',\n      "sign": "{sign}",\n      "u": ' for sign, _ in kinds]), u, v,
               by_kind([f"{ok}\n    }}{opener}" for _, ok in kinds])]
    items = [end] * (len(row) * n + 2)
    items[0] = head
    for j, part in enumerate(row):
        items[1 + j:-1:len(row)] = [part] * n if isinstance(part, str) else part
    items[-2] = items[-2].removesuffix(opener)
    return "".join(items)


# --- Theorem verification runs --------------------------------------------

@dataclass
class VerifySummary:
    theorem: str
    trials: int = 0
    passes: int = 0
    failures: list[str] = field(default_factory=list)
    worst_closed_vs_autodiff: float = 0.0
    #: trials with no grid point in their domain: neither passed nor failed
    no_domain: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        no_domain = f", {self.no_domain} with no point in the domain" if self.no_domain else ""
        lines = [f"{self.theorem}: {status} "
                 f"({self.passes}/{self.trials} trials passed{no_domain}; "
                 f"worst closed-vs-autodiff relative deviation "
                 f"{self.worst_closed_vs_autodiff:.3e})"]
        lines.extend(f"  {msg}" for msg in self.failures[:20])
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more failures")
        return "\n".join(lines)


#: Verify trials per batch: 6 400 points on the default grid.  Larger
#: batches run faster, but a run's peak memory grows with them: by
#: tracemalloc, a default-grid batch of 16, which keeps u and v as axes,
#: evaluates every cell and drops H at once, peaks at about 176 bytes a
#: point for Kadiyala and 130 for VES (1.1 and 0.83 MB); the same trials
#: stacked point by point over the cells in their domains take 345 and 186.
VERIFY_BATCH_TRIALS = 16


def _curvatures(family: ModelFamily, p, u: np.ndarray, v: np.ndarray):
    """The values the point path checks (the jet's slots, W^2 and the
    closed-form K), and K by autodiff and by the closed form, over a batch
    or at a point."""
    jet = family.jet(p, u, v)
    K, w2 = surface.curvatures(jet)[::2]  # H dropped before the closed form, where memory peaks
    K_closed = family.closed_K(p, u, v)
    return (*jet, w2, K_closed), (K, K_closed)


def _run_verify(family: ModelFamily, trials: int, seed: int, grid: GridSpec,
                tol_K: float) -> VerifySummary:
    """Randomized check of a family's theorem.  Each trial compares
    closed-form K with autodiff K at the grid points inside its domain and
    holds them to the theorem's verdict for its parameters.  A trial with
    no grid point in its domain is counted apart, and a run where every
    trial has none raises ProdGeoError naming the grid.

    Trials are drawn one at a time and run VERIFY_BATCH_TRIALS at a time
    as one ``_sweep`` of the grid, and ``_judge`` judges a batch's trials
    together, with K laid out as (trial, u, v) and read under the domain
    mask, since K off the domain is unspecified.  A batch that fails
    raises the error its first failing point raises on its own, a closed
    form's denominator check among them: ``_sweep`` replays the cells in
    (trial, u, v) order, so that point is the first failing trial's
    first."""
    out = VerifySummary(theorem=family.theorem)
    us, vs = _grid_axes(grid)
    draws = family.trials(trials, seed)
    while batch := list(itertools.islice(draws, VERIFY_BATCH_TRIALS)):
        out.trials += len(batch)
        # Overflow to inf or NaN is what the program's checks report.
        with np.errstate(all="ignore"):
            mask, (K, K_closed) = _sweep(family.domain_valid,
                                         functools.partial(_curvatures, family),
                                         [p for _, p in batch], us, vs)
            dev = _rel_dev(K_closed, K)
            out.worst_closed_vs_autodiff = float(np.fmax.reduce(
                dev, axis=None, initial=out.worst_closed_vs_autodiff, where=mask))
            failures = _judge(batch, [family.verdict(p).expect for _, p in batch],
                              us, vs, mask, K, K_closed, dev, tol_K)
        judged = [f for f, some in zip(failures, mask.any(axis=(1, 2)).tolist()) if some]
        out.no_domain += len(batch) - len(judged)
        out.failures.extend(filter(None, judged))
        out.passes += judged.count(None)
    if out.trials and out.no_domain == out.trials:
        raise ProdGeoError(f"no trial has a point of the grid {grid} in its domain")
    return out


def _judge(batch: list[tuple[str, object]], expects: list[SignClass | None],
           us: np.ndarray, vs: np.ndarray, mask: np.ndarray, K: np.ndarray,
           K_closed: np.ndarray, dev: np.ndarray, tol_K: float) -> list[str | None]:
    """The failure text of each trial of a batch laid out as (trial, u,
    v), or None where the trial passes.  At each point in the trial's
    domain (``mask``) the closed form must match autodiff, and K must
    hold to the theorem's verdict ``expect``: within the zero band
    tol_K*(1 + max|K|) at every point (ZERO), beyond 10 times it at some
    point (None), or of the predicted sign, strictly, at every point.
    Each check is a reduction over the layout; texts are built for the
    trials that fail alone."""
    closed = (dev > CLOSED_VS_AUTODIFF_RTOL) & mask
    abs_K = np.abs(K)
    max_k = np.max(abs_K, axis=(1, 2), initial=0.0, where=mask)
    threshold = tol_K * (1.0 + max_k)
    verdict = np.zeros(len(batch), dtype=int)       # each trial's verdict problems
    wrong_sign = np.zeros(mask.shape, dtype=bool)  # the cells of a sign problem
    for expect in set(expects):
        of = np.array([e is expect for e in expects])
        band = threshold[of, None, None]
        if expect is SignClass.ZERO:  # flat within the scale-aware zero band
            verdict[of] = np.any(~(abs_K[of] <= band) & mask[of], axis=(1, 2))
        elif expect is None:  # no sign predicted: curved at sampling resolution
            verdict[of] = ~np.any((abs_K[of] > 10.0 * band) & mask[of], axis=(1, 2))
        else:
            # |K| spans many decades across the grid, so a scale-aware zero
            # band would hide the sign of small K: check it strictly.
            k = K[of]
            wrong_sign[of] = ~(k > 0.0 if expect is SignClass.POSITIVE else k < 0.0) & mask[of]
            verdict[of] = np.count_nonzero(wrong_sign[of], axis=(1, 2))
    counts = (np.count_nonzero(closed, axis=(1, 2)) + verdict).tolist()
    failures = []
    for t, ((label, p), expect, count) in enumerate(zip(batch, expects, counts)):
        if not count:
            failures.append(None)
            continue
        if closed[t].any():
            i, j = divmod(int(closed[t].argmax()), len(vs))
            first = (f"closed-form K={K_closed.item(t, i, j):.6e} vs "
                     f"autodiff K={K.item(t, i, j):.6e} at ({us[i]:.4g}, {vs[j]:.4g})")
        elif expect is SignClass.ZERO:
            first = (f"expected flat: max|K|={max_k.item(t):.3e} "
                     f"vs threshold {threshold.item(t):.3e}")
        elif expect is None:
            first = (f"expected curvature above {10.0 * threshold.item(t):.3e}, "
                     f"max|K|={max_k.item(t):.3e}")
        else:
            i, j = divmod(int(wrong_sign[t].argmax()), len(vs))
            k = K.item(t, i, j)
            got = (SignClass.POSITIVE if k > 0.0 else
                   SignClass.NEGATIVE if k < 0.0 else SignClass.ZERO)
            first = (f"sign {got.value} != predicted {expect.value} "
                     f"at ({us[i]:.4g}, {vs[j]:.4g}) with K={k:.3e}")
        failures.append(f"{label} params={models.params_to_json(p)}: {first}"
                        + (f" (+{count - 1} more)" if count > 1 else ""))
    return failures


def run_verify_theorem1(trials: int, seed: int,
                        grid: GridSpec = DEFAULT_GRID,
                        tol_K: float = surface.DEFAULT_CURVATURE_TOL) -> VerifySummary:
    """Randomized check of the VES curvature-sign theorem.

    Trials are stratified across the three returns-to-scale regimes.
    Each point's closed-form K must match autodiff, and the sign of K
    must be the one predicted from delta alone, strictly at every point,
    or flat for constant returns.  A point where Den_F is not positive
    raises SingularPointError from the closed form.
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
    than 10x the zero threshold.  A point where Den_G is not positive or
    one of its summands is negative raises SingularPointError from the
    closed form.
    """
    return _run_verify(KADIYALA, trials, seed, grid, tol_K)
