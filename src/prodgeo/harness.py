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


def _grid_points(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """u and v of all n_u*n_v sample points, ordered lexicographically by
    (u, v): both axes increase, so u-major order is that order."""
    us, vs = _grid_axes(spec)
    return np.repeat(us, len(vs)), np.tile(vs, len(us))


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
    summary: str              # the grid report's "verdict" field
    payload: dict             # the `classify` command's JSON object
    expect: SignClass | None  # sign of K at every point; None: curved somewhere


@dataclass(frozen=True)
class ModelFamily:
    name: str
    params_type: type
    theorem: str
    params_from_json: Callable[[str], object]
    #: the jet and the domain tests take one point's floats or a batch's
    #: arrays, which broadcast (see ``_sweep``)
    jet: Callable[[object, Slot, Slot], jets.Jet2]
    domain_valid: Callable[[object, Slot, Slot], bool | np.ndarray]
    #: closed-form K over a batch; raises where its denominator fails
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
    verdict=_ves_verdict,
    trials=_ves_trials,
)

KADIYALA = ModelFamily(
    name="kadiyala",
    params_type=KadiyalaParams,
    theorem="theorem-2 (Kadiyala developability)",
    params_from_json=lambda text: models.kadiyala_params_from_json(text),
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

@dataclass(frozen=True)
class GridReport:
    """A grid sweep column by column: row i is (u[i], v[i], f[i], K[i],
    H[i], valid[i], sign[i]), with f, K, H None and sign "" where the
    point is outside the domain."""
    model: str
    u: tuple[float, ...]
    v: tuple[float, ...]
    f: tuple[float | None, ...]
    K: tuple[float | None, ...]
    H: tuple[float | None, ...]
    valid: tuple[bool, ...]
    sign: tuple[str, ...]
    summary: dict

    @functools.cached_property
    def _reprs(self) -> dict[str, list[str]]:
        """repr of every cell of u, v, f, K, H and valid, formatted once
        for both of emit_grid_report's formats."""
        return {"u": _repr_each_value(self.u), "v": _repr_each_value(self.v),
                "f": list(map(repr, self.f)), "K": list(map(repr, self.K)),
                "H": list(map(repr, self.H)), "valid": _repr_each_value(self.valid)}


def _repr_each_value(column: tuple) -> list[str]:
    """repr of each cell of a column of one type, called once per distinct
    value.  0.0 and -0.0 are one dict key but two texts, so falsy cells
    are formatted directly."""
    text = {x: repr(x) for x in dict.fromkeys(column)}
    return [text[x] if x else repr(x) for x in column]


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
    arrays ``evaluate(p, u, v)`` gives at those cells, 1-d in (trial, u,
    v) order.

    Where every cell is in its trial's domain, ``evaluate`` sees the grid's
    axes and ``_trial_columns``.  Otherwise it sees the cells in the
    domain alone, gathered in (trial, u, v) order into 1-d u, v and
    parameter columns; numpy's power gives a gathered cell the bits it
    has on the layout.  One record keeps its floats as parameters.

    Where the cells fail, this raises what the first failing cell raises
    on its own, naming its point.  Cells are evaluated independently, so
    the first n of them fail exactly when they hold a failing cell, and
    the shortest such run, which a bisection finds, ends at the first
    failing cell: where a sweep cell by cell would stop, and the only cell
    that can fail in it."""
    u, v = us[None, :, None], vs[None, None, :]
    p = _trial_columns(records) if len(records) > 1 else records[0]
    mask = np.broadcast_to(in_domain(p, u, v), (len(records), len(us), len(vs)))
    if mask.all():
        try:
            return mask, tuple(x.reshape(-1) for x in evaluate(p, u, v))
        except (ProdGeoError, ArithmeticError):
            pass  # the gathered cells below find the first failing one

    def each(take, p, u, v):
        """take(x) for the parameter columns, u and v; a record of floats as it is."""
        if len(records) > 1:
            p = SimpleNamespace(**{name: take(x) for name, x in vars(p).items()})
        return p, take(u), take(v)

    cells = each(lambda x: np.broadcast_to(x, mask.shape)[mask], p, u, v)
    try:
        return mask, evaluate(*cells)
    except (ProdGeoError, ArithmeticError) as exc:
        error = exc
    passes, fails = 0, len(cells[1])
    while fails - passes > 1:
        mid = (passes + fails) // 2
        try:
            evaluate(*each(lambda x: x[:mid], *cells))
        except (ProdGeoError, ArithmeticError) as exc:
            fails, error = mid, exc
        else:
            passes = mid
    raise name_point(error, cells[1].item(fails - 1), cells[2].item(fails - 1))


def build_grid_report(params, spec: GridSpec = DEFAULT_GRID,
                      strict_domain: bool = False,
                      tol_K: float = surface.DEFAULT_CURVATURE_TOL) -> GridReport:
    """Evaluate height and curvature over a grid, all points in one batch.

    Rows at domain-invalid points carry None for f, K, H and an empty sign;
    ``strict_domain`` raises ProdGeoError for a family without a strict
    domain.  Sign classification uses the grid's max |K| as its local
    scale, so the zero band adapts to how curved the surface is.  A grid
    that fails raises the error its first failing row raises on its own,
    naming the row's point.
    """
    family = _FAMILY_OF_TYPE[type(params)]
    in_domain = family.domain(strict_domain)

    def evaluate(p, u, v):
        jet = family.jet(p, u, v)
        return (jet.val, *surface.curvature_from_jet(jet))

    # Overflow to inf or NaN is what the program's checks report, cell by cell.
    with np.errstate(all="ignore"):
        mask, (f, K, H) = _sweep(in_domain, evaluate, [params], *_grid_axes(spec))
        max_abs_k = max(np.abs(K).tolist(), default=0.0)
        classes = surface.classify_sign(K, max_abs_k, tol_K)
    signs = np.empty(len(K), dtype=object)
    for cls in SignClass:  # by identity, a whole class at a time
        signs[classes == cls] = cls.value
    us, vs = _grid_points(spec)
    valid = mask.reshape(-1)

    def column(values, fill) -> tuple:
        out = np.full(len(us), fill, dtype=object)
        out[valid] = values
        return tuple(out.tolist())

    f_valid = f.tolist()
    summary = {
        "max_abs_k": max_abs_k,
        "f_min": min(f_valid, default=None),
        "f_max": max(f_valid, default=None),
        "invalid_points": len(us) - len(f_valid),
        "verdict": family.verdict(params).summary,
    }
    return GridReport(f"{family.name}:{models.params_to_json(params)}",
                      tuple(us.tolist()), tuple(vs.tolist()),
                      column(f, None), column(K, None), column(H, None),
                      tuple(valid.tolist()), column(signs, ""), summary)


#: How json and the CSV spell a cell where that differs from repr, which
#: both use for a finite float (json via float.__repr__).
_JSON_SPELLING = {"None": "null", "True": "true", "False": "false",
                  "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CSV_SPELLING = {"None": "", "True": "true", "False": "false"}


def _spelled(report: GridReport, spelling: dict, *names: str) -> list[Iterator[str]]:
    """The report's columns ``names`` in one format's spelling."""
    return [map(spelling.get, report._reprs[name], report._reprs[name]) for name in names]


def _shared(text_of: Callable[..., str], *columns) -> Iterator[str]:
    """``text_of(*cells)`` for each row's cells of ``columns``: one text
    per distinct tuple of cells, which every row that has it shares."""
    text = {key: text_of(*key) for key in set(zip(*columns))}
    return map(text.__getitem__, zip(*columns))


def _items(head: str, row: list, end: str, n: int) -> list[str]:
    """head, then n rows, each the items of ``row`` in turn, then end: the
    items of one str.join.  An item of ``row`` is a text that every row
    shares or an iterable of one text per row."""
    items = [end] * (len(row) * n + 2)
    items[0] = head
    for j, part in enumerate(row):
        items[1 + j:-1:len(row)] = [part] * n if isinstance(part, str) else part
    return items


def emit_grid_report(report: GridReport, fmt: str = "csv") -> str:
    """The report as CSV, or as the JSON that json.dumps(..., indent=2,
    sort_keys=True) gives for {"model", "rows", "summary"}.

    Each format is one str.join over the cells' texts, one repr of each
    cell kept on the report, and the fixed texts between them, which the
    rows share: no row becomes a string of its own, and the document is
    not copied after the join."""
    n = len(report.u)
    if fmt == "csv":
        # The CSV respells only None and bools, which u and v never hold.
        u, v = report._reprs["u"], report._reprs["v"]
        f, K, H = _spelled(report, _CSV_SPELLING, "f", "K", "H")
        tail = _shared(lambda valid, sign: f",{_CSV_SPELLING.get(valid, valid)},{sign}\n",
                       report._reprs["valid"], report.sign)
        return "".join(_items("u,v,f,K,H,valid,sign\n",
                              [u, ",", v, ",", f, ",", K, ",", H, tail], "", n))
    if fmt == "json":
        H, K, f, u, v, valid = _spelled(report, _JSON_SPELLING,
                                        "H", "K", "f", "u", "v", "valid")
        sign = _shared(lambda sign: f',\n      "sign": "{sign}",\n      "u": ', report.sign)
        summary = json.dumps(report.summary, indent=2, sort_keys=True)
        items = _items('{\n  "model": %s,\n  "rows": [' % json.dumps(report.model),
                       [',\n    {\n      "H": ', H, ',\n      "K": ', K, ',\n      "f": ', f,
                        sign, u, ',\n      "v": ', v, ',\n      "valid": ', valid, "\n    }"],
                       '%s],\n  "summary": %s\n}\n' % ("\n  " if n else "",
                                                       summary.replace("\n", "\n  ")), n)
        if n:  # the first row opens the list: no comma before it
            items[1] = items[1][1:]
        return "".join(items)
    raise ValueError(f"unknown format {fmt!r}")


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


#: Verify trials per batch: 6 400 points on the default grid.  Larger
#: batches run faster, but a run's peak memory grows with them: by
#: tracemalloc, a default-grid batch of 16 peaks at about 130 bytes a
#: point for Kadiyala, which keeps u and v as axes, and 188 for VES,
#: which gathers the cells in its trials' domains (0.8 and 1.2 MB); the
#: same trials stacked point by point take 281 and 186.
VERIFY_BATCH_TRIALS = 16


def _curvatures(family: ModelFamily, p, u: np.ndarray, v: np.ndarray):
    """K by autodiff and by the closed form over a batch."""
    K = surface.gaussian_curvature(surface.fundamental_forms(family.jet(p, u, v)))
    return K, family.closed_K(p, u, v)


def _laid_out(mask: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The values ``cells`` at mask's cells, in order, laid out as mask
    is, with 0.0 at the other cells."""
    out = np.zeros(mask.shape)
    out[mask] = cells
    return out


def _run_verify(family: ModelFamily, trials: int, seed: int, grid: GridSpec,
                tol_K: float) -> VerifySummary:
    """Randomized check of a family's theorem.  Each trial compares
    closed-form K with autodiff K at the grid points inside its domain and
    holds them to the theorem's verdict for its parameters.

    Trials are drawn one at a time and run VERIFY_BATCH_TRIALS at a time
    as one ``_sweep`` of the grid, and ``_judge`` judges a batch's trials
    together, with K laid out as (trial, u, v).  A batch that fails
    raises the error its first failing point raises on its own, a closed
    form's denominator check among them: ``_sweep`` takes the cells trial
    by trial, so that point is the first failing trial's first."""
    out = VerifySummary(theorem=family.theorem)
    us, vs = _grid_axes(grid)
    draws = family.trials(trials, seed)
    while batch := list(itertools.islice(draws, VERIFY_BATCH_TRIALS)):
        out.trials += len(batch)
        # Overflow to inf or NaN is what the program's checks report.
        with np.errstate(all="ignore"):
            mask, cells = _sweep(family.domain_valid, functools.partial(_curvatures, family),
                                 [p for _, p in batch], us, vs)
            K, K_closed = (_laid_out(mask, x) for x in cells)
            dev = _rel_dev(K_closed, K)
            out.worst_closed_vs_autodiff = float(np.fmax.reduce(
                dev, axis=None, initial=out.worst_closed_vs_autodiff, where=mask))
            failures = _judge(batch, [family.verdict(p).expect for _, p in batch],
                              us, vs, mask, K, K_closed, dev, tol_K)
        out.failures.extend(filter(None, failures))
        out.passes += failures.count(None)
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
