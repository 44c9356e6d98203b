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
from .curvature import DevelopabilityReason, ReturnsToScale
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
    if spacing is Spacing.LOGARITHMIC:
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _grid_axes(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The grid's n_u values of u and n_v values of v, each increasing and
    finite: near the largest double, numpy overflows only in intermediates."""
    with np.errstate(all="ignore"):
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

#: delta's range in each returns-to-scale regime; constant returns draw nothing
_DELTA_RANGES = {ReturnsToScale.DECREASING: (0.25, 0.9), ReturnsToScale.CONSTANT: (1.0, 1.0),
                 ReturnsToScale.INCREASING: (1.1, 4.0)}
DELTA_STRATA = tuple(regime.value for regime in _DELTA_RANGES)
_CURVED = tuple(regime for regime in _DELTA_RANGES if regime is not ReturnsToScale.CONSTANT)


def _draw_delta(rng: random.Random, stratum: str | ReturnsToScale | None) -> float:
    if stratum is None:
        stratum = rng.choice(DELTA_STRATA)
    lo, hi = _DELTA_RANGES[ReturnsToScale(stratum)]
    return lo if lo == hi else rng.uniform(lo, hi)


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
        delta = _draw_delta(rng, rng.choice(_CURVED))
        return models.kadiyala_validate(k1, 0.0, 1.0 - k1, b1, 1.0 - b1, delta)

    if force_condition is DevelopabilityReason.BETA_ONE_RANK_ONE:
        w1, w3 = rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)
        w2 = math.sqrt(w1 * w3)  # k2^2 = k1*k3, preserved by uniform rescale
        s = w1 + 2.0 * w2 + w3
        delta = _draw_delta(rng, rng.choice(_CURVED))
        return models.kadiyala_validate(w1 / s, w2 / s, w3 / s, 1.0, 1.0, delta)

    # Generic draw, bounded away from every developability condition.
    while True:
        k1, k2, k3 = simplex_weights()
        b1, b2 = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
        delta = _draw_delta(rng, rng.choice(_CURVED))
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
# grid reports, the CLI and the verify engine dispatch through FAMILIES and
# nowhere else.  Entries call models, curvature, jets and the samplers by
# module attribute at call time, so rebinding one of those (to trace it, or
# to corrupt a verdict in a test) reaches every caller, but a jets op rebound
# after a family's first seeded point or batch reaches only the points that
# ``jets._point_jet`` runs on the ops.

class Verdict(NamedTuple):
    """What a theorem says about one parameter set."""
    expect: SignClass | None  # sign of K at every point; None: curved somewhere
    summary: str  # the grid report's "verdict" field
    payload: dict  # the `classify` command's JSON object


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
        return (self.offered("strict_domain_valid", "--strict-domain") if strict
                else self.domain_valid)

    def offered(self, part: str, asked_by: str):
        """The family's optional ``part``, which ``asked_by`` needs; where the
        family has none, an error naming the families that have one."""
        if (value := getattr(self, part)) is None:
            names = [name for name, f in FAMILIES.items() if getattr(f, part) is not None]
            raise ProdGeoError(f"{asked_by} applies to --model {' or '.join(names)}")
        return value


def _rel_dev(a: Slot, b: Slot) -> Slot:
    return abs(a - b) / (1.0 + abs(b))


def _subseed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def _ves_verdict(p: VesParams) -> Verdict:
    regime, sign = curvature.ves_theorem_verdict(p)
    return Verdict(sign, f"{regime.value}-returns:{sign.value}-curvature",
                   {"model": "ves", "returns_to_scale": regime.value,
                    "predicted_curvature_sign": sign.value,
                    "developable": sign is SignClass.ZERO})


def _ves_trials(trials: int, seed: int):
    """Returns-to-scale strata cycled trial by trial."""
    for t in range(trials):
        yield f"trial {t}", random_ves_params(
            _subseed(seed, t), stratum=DELTA_STRATA[t % len(DELTA_STRATA)])


def _kadiyala_verdict(p: KadiyalaParams) -> Verdict:
    reason = curvature.kadiyala_is_developable(p)
    return Verdict(SignClass.ZERO if reason.developable else None, reason.value,
                   {"model": "kadiyala",
                    "returns_to_scale": curvature.returns_to_scale(p.delta).value,
                    "developable": reason.developable, "reason": reason.value})


FORWARD_CONDITIONS = tuple(reason for reason in DevelopabilityReason if reason.developable)


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
        """The reprs of f, K and H at each cell of the grid, in (u, v)
        order, and "" off the domain: formatted and laid out over the grid
        once for both of emit_grid_report's formats."""
        texts = [_float_texts(x) for x in self.values]
        in_domain = self.in_domain.reshape(-1)
        if in_domain.all():
            return tuple(texts)
        # the runs [start, end) of cells in the domain, about one a row of the grid
        edges = np.flatnonzero(np.diff(in_domain, prepend=False, append=False)).tolist()
        laid_out = tuple([""] * in_domain.size for _ in texts)
        for row, text in zip(laid_out, texts):
            at = 0
            for start, end in zip(edges[::2], edges[1::2]):
                row[start:end] = text[at:at + end - start]
                at += end - start
        return laid_out


def _float_texts(x: np.ndarray) -> list[str]:
    """``list(map(repr, x.tolist()))`` for a 1-d C-contiguous float64 x,
    about six times faster.  orjson's shortest round-trip writer gives
    repr's digits, and spells them as repr does except where |x| lies in
    [1e-9, 1e-4) (``0.00001`` for ``1e-05``, ``1e-9`` for ``1e-09``),
    where |x| >= 1e16 (``1e16`` for ``1e+16``) and where x is not finite
    (``null``): repr formats those cells."""
    import orjson   # a grid's dependency, loaded by the first one like numpy

    if not x.size:
        return []
    texts = orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    a = np.abs(x)
    by_repr = np.flatnonzero(~((a < 1e16) & ((a >= 1e-4) | (a < 1e-9))))
    for i, text in zip(by_repr.tolist(), map(repr, x[by_repr].tolist())):
        texts[i] = text
    return texts


def name_point(exc: Exception, u: float, v: float) -> Exception:
    """``exc``, its message ending in the point (u, v) unless it names it
    already.  The domain checks name the point they fail at; the jets and
    the forms see only slots, and a batch's slots hold many points."""
    point = f"({u}, {v})"
    if point not in str(exc):
        exc.args = (f"{exc} at {point}",)
    return exc


def _trial_columns(records: list) -> SimpleNamespace:
    """A batch's parameters, a grid's one record too, as a record whose
    fields are (trial, 1, 1) columns, row t holding record t's value: with
    a (1, n_u, 1) u and a (1, 1, n_v) v, numpy computes what depends on them
    alone once per trial, and a power of u or of v once per trial and value."""
    names = list(vars(records[0]))
    values = np.array([[getattr(r, name) for name in names] for r in records]).T.copy()
    return SimpleNamespace(**{name: row.reshape(-1, 1, 1) for name, row in zip(names, values)})


def _sweep(in_domain: Callable, evaluate: Callable, records: list,
           us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The (trial, u, v) mask of the cells of the grid us × vs in the
    domain (``in_domain``) of each parameter set of ``records``, and the
    values ``evaluate`` reports, laid out as the mask.  Both take
    ``_trial_columns(records)``, a (1, n_u, 1) u and a (1, 1, n_v) v, and
    ``evaluate`` returns the values the point path checks and the values
    to report at every cell: one off the domain is unspecified, and each
    reader takes the values under the mask.

    A batch raises nothing: it leaves a checked value not finite at each
    cell where the point path would raise.  One sum over the domain of the
    checked values' sum clears a batch with no such cell.  Otherwise each
    cell in the domain with a checked value not finite (none, where finite
    values overflow the sum) runs again on the point path in (trial, u, v)
    order, with its trial's record: the first to raise raises its error,
    naming its point; one that passes reports the point path's values."""
    u, v = us[None, :, None], vs[None, None, :]
    p = _trial_columns(records)
    mask = np.broadcast_to(in_domain(p, u, v), (len(records), len(us), len(vs)))
    checked, values = evaluate(p, u, v)
    if not math.isfinite(np.sum(np.broadcast_to(sum(checked), mask.shape), where=mask)):
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
        f, K = values[:2]
        max_abs_k = float(np.abs(K).max(initial=0.0))  # NaN where some K is NaN
        signs = surface.classify_sign(K, max_abs_k, tol_K)
    # f is finite in the domain: the sweep checks the jet's value
    summary = {
        "max_abs_k": max_abs_k,
        "f_min": float(f.min()) if f.size else None,
        "f_max": float(f.max()) if f.size else None,
        "invalid_points": mask.size - f.size,
        "verdict": family.verdict(params).summary,
    }
    return GridReport(f"{family.name}:{models.params_to_json(params)}",
                      us, vs, mask[0], values, signs, summary)


#: json's spelling of the floats that are not finite; the CSV writes repr.
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _respelled(texts: list[str], x: np.ndarray, fmt: str) -> list[str]:
    """texts, the reprs of x (or of x laid out over a grid, "" off the
    domain), as format ``fmt`` spells them: respelled for json, in a copy,
    where some value of x is not finite."""
    if fmt == "json" and not np.isfinite(x).all():
        return [_JSON_SPELLING.get(t, t) for t in texts]
    return texts


def emit_grid_report(report: GridReport, fmt: str = "csv") -> str:
    """The report as CSV, or as the JSON that json.dumps(..., indent=2,
    sort_keys=True) gives for {"model", "rows", "summary"}.

    Each format is one str.join over the rows' items: the CSV a ",".join
    of 5 a row, the JSON a "".join of 7.  Only f, K and H are a cell's
    own texts, which the report lays out over the grid once for both
    formats.  Every other piece of a row depends on the row's kind (a
    sign class, or off the domain) and on one axis value at most, so it
    comes from a table of kind by axis value, made once per call and
    indexed with numpy.  No row becomes a string of its own, and the
    document is not copied after the join."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    n_u, n_v = report.in_domain.shape
    n = n_u * n_v
    # each row's kind: its sign code, or last off the domain, where json
    # writes null for f, K and H
    kinds = [(c.value, "true", "") for c in SignClass] + [("", "false", "null")]
    kind = np.full((n_u, n_v), len(SignClass))
    kind[report.in_domain] = report.signs

    def looked_up(table: list[list[str]], index: np.ndarray | int) -> list[str]:
        """table[kind][index] at each row, in (u, v) order, with index an
        axis's index that broadcasts over the (n_u, n_v) grid."""
        return np.array(table, dtype=object)[kind, index].reshape(-1).tolist()

    u, v = _float_texts(report.us), _float_texts(report.vs)
    f, K, H = map(_respelled, report._reprs, report.values, [fmt] * 3)
    if fmt == "csv":
        if not n:
            return "u,v,f,K,H,valid,sign\n"
        # A row's last piece ends it and starts the next row with that
        # row's u; the last row's starts none.
        ends = looked_up([[f"{ok},{sign}\n{x}" for x in u + [""]] for sign, ok, _ in kinds],
                         np.arange(n_u)[:, None] + (np.arange(n_v) == n_v - 1))
        return ",".join(_interleaved("u,v,f,K,H,valid,sign\n" + u[0],
                                     [v * n_u, f, K, H, ends], n))

    def after_value(text: str) -> str | list[str]:
        """text, the key after H or K, after json's null in a row off the
        domain, where the report's text is ""."""
        if report.in_domain.all():
            return text
        return looked_up([[null + text] for _, _, null in kinds], 0)

    # A row's last piece opens the next row; the last row's opens none.
    opener = ',\n    {\n      "H": '
    head = '{\n  "model": %s,\n  "rows": [%s' % (json.dumps(report.model),
                                                opener[1:] if n else "")
    summary = json.dumps(report.summary, indent=2, sort_keys=True).replace("\n", "\n  ")
    end = '%s],\n  "summary": %s\n}\n' % ("\n  " if n else "", summary)
    sign_u = looked_up([[f'{null},\n      "sign": "{sign}",\n      "u": {x},\n      "v": '
                         for x in u] for sign, _, null in kinds], np.arange(n_u)[:, None])
    v_close = looked_up([[f'{x},\n      "valid": {ok}\n    }}{opener}' for x in v]
                         for _, ok, _ in kinds], np.arange(n_v))
    items = _interleaved(head, [H, after_value(',\n      "K": '), K,
                                after_value(',\n      "f": '), f, sign_u, v_close], n, end)
    items[-2] = items[-2].removesuffix(opener)
    return "".join(items)


def _interleaved(head: str, columns: list, n: int, end: str | None = None) -> list[str]:
    """head, then for each of n rows one item of each column (a str is
    the same item in every row), then end where one is given."""
    k = len(columns)
    items = [end] * (1 + k * n + (end is not None))
    items[0] = head
    for j, column in enumerate(columns):
        items[1 + j:1 + k * n:k] = [column] * n if isinstance(column, str) else column
    return items


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
#: evaluates every cell and drops H at once, peaks at about 173 bytes a
#: point for Kadiyala and 130 for VES (1.11 and 0.83 MB); the same trials
#: stacked point by point over the cells in their domains took 345 and 186.
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
    first.  Raises ValueError for fewer than one trial, a negative seed
    (``random.Random`` seeds with its absolute value, so it would rerun
    another seed's draws) or a tol_K that is not finite and positive."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    surface.check_tol(tol_K)
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
    if out.no_domain == out.trials:
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
