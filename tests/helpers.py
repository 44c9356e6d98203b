"""Shared test utilities: tolerance asserts, a generator of random
positive-valued composite expressions for oracle comparisons, the
finite-difference oracle, the rounding bound that judges a batch against
the one-point path, and helpers that only tests call."""

import json
import math
import random
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from prodgeo import curvature, harness, jets, models
from prodgeo.errors import ConstraintViolation, DomainError, SingularPointError
from prodgeo.harness import GridReport, GridSpec
from prodgeo.jets import Jet2
from prodgeo.models import KadiyalaParams, VesParams


def assert_close(actual, expected, rtol, label=""):
    err = abs(actual - expected)
    bound = rtol * (1.0 + abs(expected))
    assert err <= bound, (
        f"{label}: {actual!r} vs {expected!r} (err {err:.3e} > bound {bound:.3e})")


def random_expression(rng: random.Random, max_depth: int = 4):
    """A random composite expression over the jet operation set.

    Quotients, square roots and shifted powers are built from ``mul`` and
    ``powr`` (a / b as a * b**-1, sqrt a as a**0.5), and every
    subexpression stays strictly positive on the positive quadrant,
    keeping each power's base inside its domain.  Returns a callable
    (Jet2, Jet2) -> Jet2.
    """

    def build(depth):
        if depth >= max_depth or rng.random() < 0.25:
            leaf = rng.choice(("u", "v", "c"))
            if leaf == "u":
                return lambda u, v: u
            if leaf == "v":
                return lambda u, v: v
            c = rng.uniform(0.5, 2.0)
            return lambda u, v: jets.constant(c)
        op = rng.choice(("add", "mul", "div", "powr", "sqrt", "pow1p", "pow1p-neg"))
        a = build(depth + 1)
        if op in ("add", "mul", "div"):
            b = build(depth + 1)
            fn = {"add": jets.add, "mul": jets.mul,
                  "div": lambda x, y: jets.mul(x, jets.powr(y, -1.0))}[op]
            return lambda u, v: fn(a(u, v), b(u, v))
        if op == "powr":
            p = rng.uniform(-1.5, 2.5)
            return lambda u, v: jets.powr(a(u, v), p)
        if op == "sqrt":
            return lambda u, v: jets.powr(a(u, v), 0.5)
        c = rng.uniform(0.1, 0.5) * (1.0 if op == "pow1p" else -1.0)
        return lambda u, v: jets.powr(jets.add(a(u, v), jets.constant(1.0)), c)

    return build(0)


def tame_expression(rng: random.Random, u0: float, v0: float,
                    val_cap: float = 50.0, deriv_cap: float = 1e3):
    """A random expression whose value and derivatives are moderate at
    (u0, v0), so finite differences are trustworthy there."""
    while True:
        expr = random_expression(rng)
        jet = expr(*jets.seed(u0, v0))
        if abs(jet.val) <= val_cap and all(abs(s) <= deriv_cap for s in jet):
            return expr


def as_scalar_field(expr):
    """Adapt a jet expression to a plain (float, float) -> float field."""
    return lambda u, v: expr(jets.constant(u), jets.constant(v)).val


def ves_value(p: VesParams, u: float, v: float) -> float:
    return models.ves_eval(p, jets.constant(u), jets.constant(v)).val


def kadiyala_value(p: KadiyalaParams, u: float, v: float) -> float:
    return models.kadiyala_eval(p, jets.constant(u), jets.constant(v)).val


def denominators(monkeypatch, corrupt=None, check=True) -> dict:
    """Puts a recorder at ``curvature._positive``, which receives each
    closed form's denominator, and Den_G's summands, and checks them.  The
    dict returned then maps a denominator's name to the (den, summands) of
    its last check, den as the check returns it.  ``corrupt(den, summands,
    u, v)``, where given, returns the (den, summands) to check in place of
    those received.  With ``check`` false, den is returned unchecked, as
    symbolic slots need."""
    seen = {}
    positive = curvature._positive

    def receive(name, den, u, v, summands=()):
        if corrupt is not None:
            den, summands = corrupt(den, list(summands), u, v)
        if check:
            den = positive(name, den, u, v, summands)
        seen[name] = den, list(summands)
        return den

    monkeypatch.setattr(curvature, "_positive", receive)
    return seen


def ves_denf(p: VesParams, u, v):
    """Den_F, the denominator base of curvature.ves_curvature_closed at
    (u, v), as its check returns it."""
    with pytest.MonkeyPatch.context() as mp:
        seen = denominators(mp)
        curvature.ves_curvature_closed(p, u, v)
    return seen["Den_F"][0]


def ves_elasticity(p: VesParams, u: float, v: float) -> float:
    """Revankar's closed form: sigma = 1 + (rho-1)/(1-beta*rho) * u/v.

    Linear in the capital-labor ratio u/v, hence scale-invariant.
    """
    models._check_positive(u, v)
    return 1.0 + (p.rho - 1.0) / (1.0 - p.beta * p.rho) * (u / v)


# --- Finite-difference oracle ---------------------------------------------

FD_H_SCALE = 1e-5


class StencilOutOfDomainError(DomainError):
    """A finite-difference stencil point falls outside the model domain."""


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


def kadiyala_normalized(k1, k2, k3, beta1, beta2, delta) -> KadiyalaParams:
    """Kadiyala parameters with the weights rescaled explicitly so that
    k1 + 2*k2 + k3 = 1 before validating."""
    s = k1 + 2 * k2 + k3
    if s <= 0:
        raise ConstraintViolation("k1+2*k2+k3>0", "weights sum to a non-positive value")
    return models.kadiyala_validate(k1 / s, k2 / s, k3 / s, beta1, beta2, delta)


def elasticity_oracle(jet: Jet2, u: float, v: float) -> float:
    """Two-input Hicks elasticity of substitution from derivatives:

        sigma = - f_u f_v (u f_u + v f_v)
                / (u v (f_uu f_v^2 - 2 f_uv f_u f_v + f_vv f_u^2))

    Independent of any closed form; used to cross-check ves_elasticity.
    """
    fu, fv = jet.d1, jet.d2
    den = u * v * (jet.d11 * fv * fv - 2.0 * jet.d12 * fu * fv
                   + jet.d22 * fu * fu)
    if den == 0.0:
        raise SingularPointError(
            f"elasticity denominator vanishes at ({u}, {v})")
    return -fu * fv * (u * fu + v * fv) / den


@dataclass(frozen=True)
class GridRow:
    u: float
    v: float
    f: float | None
    K: float | None
    H: float | None
    valid: bool
    sign: str


def report_rows(report: GridReport) -> tuple[GridRow, ...]:
    """The report row by row, as its JSON writes it."""
    return grid_rows_from_json(harness.emit_grid_report(report, "json"))[1]


def grid_rows_from_json(text: str) -> tuple[str, tuple[GridRow, ...], dict]:
    """The model, rows and summary that emit_grid_report(report, "json") wrote."""
    data = json.loads(text)
    return data["model"], tuple(GridRow(**row) for row in data["rows"]), data["summary"]


def grid_points(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """u and v of all n_u*n_v sample points, ordered lexicographically by
    (u, v): both axes increase, so u-major order is that order."""
    us, vs = harness._grid_axes(spec)
    return np.repeat(us, len(vs)), np.tile(vs, len(us))


def sample_grid(spec: GridSpec) -> list[tuple[float, float]]:
    """All n_u*n_v sample points, ordered lexicographically by (u, v)."""
    us, vs = grid_points(spec)
    return list(zip(us.tolist(), vs.tolist()))


def param_columns(records: list, counts: list[int]) -> SimpleNamespace:
    """One parameter record whose fields are 1-d columns: each record's
    values repeated as often as its count says, so that a batch of
    several parameter sets, stacked point by point, runs as one."""
    names = list(vars(records[0]))
    values = np.array([[getattr(r, name) for name in names] for r in records])
    return SimpleNamespace(**dict(zip(names, np.repeat(values.T, counts, axis=1))))


# --- The rounding bound: batch values against one-point values ---------------
#
# A batch computes its powers with numpy, a point with a float's ``**``
# (libm's pow); the two may round the last bit differently, so a batch
# value x is held to |x - x*| <= LIMIT * EPS * scale of the point's x*.
# The scale is a first-order running error analysis (Higham, *Accuracy
# and Stability of Numerical Algorithms*, sec. 1.7 and ch. 3), the same
# one the benchmark's oracle uses.

EPS = sys.float_info.epsilon
LIMIT = 16.0


def _pow(x: float, p: float) -> float:
    try:
        return x ** p
    except OverflowError:
        return math.inf


class Magnitude:
    """A value x with scales for the rounding error of x and of its first
    and second derivatives: a first-order running error analysis along
    the expression tree of f, in units of EPS.

    Each scale sums the terms that make up its quantity in absolute value,
    so cancellation between terms shows.  A power also counts the error of
    its base, scaled by how much the base cancelled, and the rounding of
    its exponent, which the program forms from the parameters in double
    precision.
    """

    def __init__(self, val, m0, m1=0.0, m2=0.0, m11=0.0, m12=0.0, m22=0.0):
        self.val, self.m = val, (m0, m1, m2, m11, m12, m22)

    def __add__(self, other):
        return Magnitude(self.val + other.val, *(a + b for a, b in zip(self.m, other.m)))

    def scale(self, c):
        return Magnitude(c * self.val, *(abs(c) * a for a in self.m))

    def __mul__(self, other):
        x, a1, a2, a11, a12, a22 = self.m
        y, b1, b2, b11, b12, b22 = other.m
        return Magnitude(self.val * other.val, x * y, a1 * y + x * b1, a2 * y + x * b2,
                         a11 * y + 2 * a1 * b1 + x * b11,
                         a12 * y + a1 * b2 + a2 * b1 + x * b12,
                         a22 * y + 2 * a2 * b2 + x * b22)

    def __pow__(self, p):
        x = self.val                 # a positive base
        r, ln = self.m[0] / x, math.log(x)   # r: how much the base cancelled
        q = abs(p)
        g = _pow(x, p) * (1 + q * (r + abs(ln)))
        dg = q * _pow(x, p - 1) * (1 + abs(p - 1) * r + abs(1 + p * ln))
        ddg = (abs(p * (p - 1)) * _pow(x, p - 2) * (1 + abs(p - 2) * r)
               + q * _pow(x, p - 2) * abs(2 * p - 1 + p * (p - 1) * ln))
        _, a1, a2, a11, a12, a22 = self.m
        return Magnitude(_pow(x, p), g, dg * a1, dg * a2, ddg * a1 * a1 + dg * a11,
                         ddg * a1 * a2 + dg * a12, ddg * a2 * a2 + dg * a22)


class RunningError:
    """A value with a bound on its rounding error in units of EPS, carried
    through the operations of a closed form (Higham, sec. 3.3): each
    rounded operation adds its result's magnitude, and an error already in
    an operand propagates through it.  Inputs and the parameters' floats
    are exact, and a batch and a point form the exponents alike, so a
    power adds only its own rounding.  A closed form runs on it as it is
    written: ``form(p, RunningError(u), RunningError(v)).err``."""

    def __init__(self, val: float, err: float = 0.0):
        self.val, self.err = val, err

    @staticmethod
    def _of(x) -> "RunningError":
        return x if isinstance(x, RunningError) else RunningError(x)

    def __add__(self, other):
        other = self._of(other)
        total = self.val + other.val
        return RunningError(total, self.err + other.err + abs(total))

    __radd__ = __add__

    def __neg__(self):
        return RunningError(-self.val, self.err)

    def __sub__(self, other):
        return self + -self._of(other)

    def __rsub__(self, other):
        return self._of(other) - self

    def __mul__(self, other):
        other = self._of(other)
        product = self.val * other.val
        return RunningError(product, abs(self.val) * other.err + abs(other.val) * self.err
                            + abs(product))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._of(other)
        q = self.val / other.val
        return RunningError(q, (self.err + abs(q) * other.err) / abs(other.val) + abs(q))

    def __pow__(self, p):
        g = _pow(self.val, p)
        if not self.val:  # a 0.0 that carries an error: the power of the error
            return RunningError(g, _pow(self.err, p))
        return RunningError(g, abs(g) * (1.0 + abs(p) * self.err / abs(self.val)))

    def __lt__(self, other):
        return self.val < self._of(other).val

    def __le__(self, other):
        return self.val <= self._of(other).val

    def __ne__(self, other):
        return self.val != self._of(other).val

    def __repr__(self):
        return repr(self.val)


def _ves_magnitude(p, u, v):
    return ((u ** (p.delta * (1 - p.beta * p.rho)))
            * (u.scale(p.rho - 1) + v) ** (p.beta * p.delta * p.rho)).scale(p.k)


def _kadiyala_magnitude(p, u, v):
    s = p.beta1 + p.beta2
    return ((u ** s).scale(p.k1) + (u ** p.beta1 * v ** p.beta2).scale(2 * p.k2)
            + (v ** s).scale(p.k3)) ** (p.delta / s)


def surface_scales(params, u: float, v: float, fu: float, fv: float,
                   K: float, H: float) -> dict:
    """Scales of f, K and H at (u, v), from the running error of f and
    its derivatives along the model's expression tree; fu, fv, K and H
    are the point's values.  The closed-form K is judged on K's scale."""
    height = _ves_magnitude if isinstance(params, VesParams) else _kadiyala_magnitude
    m0, m1, m2, m11, m12, m22 = height(params, Magnitude(u, u, 1.0),
                                       Magnitude(v, v, 0.0, 1.0)).m
    w2 = 1 + fu * fu + fv * fv   # divided by one factor at a time: W^4 can overflow
    c = (1 + m1 * m1) / w2 * (1 + m2 * m2)
    return {"f": m0,
            "K": (m11 * m22 + m12 * m12) / w2 / w2 + abs(K) * c,
            "H": ((1 + m1 * m1) * m22 + 2 * m1 * m2 * m12 + (1 + m2 * m2) * m11)
                 / (2 * w2) / math.sqrt(w2) + abs(H) * c}


def within_bound(x, x_ref, scale) -> bool:
    """|x - x_ref| <= LIMIT * EPS * scale, element by element; where the
    scale is 0 (an operation that rounds as the one-point path does, or an
    exact 0), the same bits.  A scale that is NaN, where the running error
    itself overflowed at an extreme point, bounds nothing."""
    x, x_ref, scale = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (x, x_ref, scale)))
    exact = x.view(np.int64) == x_ref.view(np.int64)
    with np.errstate(all="ignore"):
        return bool((exact | np.isnan(scale) | (np.abs(x - x_ref) <= LIMIT * EPS * scale)).all())
