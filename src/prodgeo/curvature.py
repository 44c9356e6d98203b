"""Closed-form Gaussian curvature of the VES and Kadiyala surfaces.

These are the explicit factorizations behind the two developability
results: for VES the curvature is a single signed product over the
square of a strictly positive denominator, so its sign is decided by
the returns-to-scale parameter alone; for Kadiyala the curvature splits
as T1*T2/Den_G^2, and developability is equivalent to one of the two
factors vanishing identically.

Long hand-derived expressions are the primary transcription risk, so
the tests prove each form once against the Monge curvature of the model
at 60 digits (``tests/test_identities.py``).

Everything here is an independent route to the same K the autodiff
pipeline produces; the two routes are cross-checked, never merged.

u and v are both floats (one point) or both 1-d float ndarrays (a
batch).  One formula text serves both: a batch runs on ``_Batch`` views,
whose ``**`` is libm's ``pow`` element by element (``jets._libm_pow``),
so every element gets the bits of the float form.  Where some point of
a batch fails, the call raises the error the first failing point raises
on its own.  A power that overflows a float, and a closed-form K that
comes out inf or NaN, raise NonFiniteError naming the function and the
point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ProdGeoError
from .jets import Slot, _at_first, _libm_pow
from .models import PARAM_EQ_TOL, KadiyalaParams, VesParams, _check_positive, _ves_aggregate
from .surface import SignClass

_ndarray = np.ndarray


class ReturnsToScale(enum.Enum):
    CONSTANT = "constant"
    INCREASING = "increasing"
    DECREASING = "decreasing"


def returns_to_scale(delta: float) -> ReturnsToScale:
    if abs(delta - 1.0) <= PARAM_EQ_TOL:
        return ReturnsToScale.CONSTANT
    return ReturnsToScale.INCREASING if delta > 1.0 else ReturnsToScale.DECREASING


def _overflow(name: str, u: float, v: float) -> NonFiniteError:
    return NonFiniteError(f"{name} overflows a float at ({u}, {v})")


class _Batch(np.ndarray):
    """Float slots of a batch whose ``**`` is libm's ``pow`` element by
    element, as a float's is; numpy's other arithmetic rounds as Python's
    does.  Results of arithmetic on a _Batch are _Batch views, so a
    formula written for floats runs on a batch unchanged."""

    def __pow__(self, p):
        return _libm_pow(self.view(_ndarray), p).view(_Batch)


def _batch(name: str, p, u: np.ndarray, v: np.ndarray):
    """The closed form ``name`` at each point of a batch, as plain ndarrays
    (a list of them for a list of slots).  Where some point fails, the
    error that the first failing point raises on its own."""
    form = _AS_DEFINED[name]
    try:
        with np.errstate(all="ignore"):  # the forms' own checks report overflow
            out = form(p, u.view(_Batch), v.view(_Batch))
    except (ProdGeoError, ArithmeticError):
        for point in zip(u.tolist(), v.tolist()):
            form(p, *point)
        raise
    if isinstance(out, list):
        return [slot.view(_ndarray) for slot in out]
    return out.view(_ndarray)


def _finite_K(name: str, K: Slot, u: Slot, v: Slot) -> Slot:
    """K, unless it is inf or NaN somewhere, as an overflow in a product or
    quotient of finite terms leaves it."""
    bad = K - K != 0.0  # only inf and NaN give NaN
    if bad is not False and (at := _at_first(bad, u, v)):
        raise _overflow(name, *at)
    return K


# --- VES -------------------------------------------------------------------

def ves_denf(p: VesParams, u: Slot, v: Slot) -> Slot:
    """The strictly positive denominator base of the VES curvature."""
    if type(u) is _ndarray:
        return _batch("ves_denf", p, u, v)
    agg = _ves_aggregate(p, u, v)
    k, b, r, d = p.k, p.beta, p.rho, p.delta
    try:
        quad = (u * u * (r * (b * b * r + r - 2.0) + 1.0)
                - 2.0 * (r - 1.0) * u * v * (b * r - 1.0)
                + v * v * (b * r - 1.0) ** 2)
        return (d * d * k * k * u ** (2.0 * d) * quad * agg ** (2.0 * b * d * r)
                + agg ** 2 * u ** (2.0 * b * d * r + 2.0))
    except OverflowError:
        raise _overflow("ves_denf", u, v) from None


def ves_curvature_closed(p: VesParams, u: Slot, v: Slot) -> Slot:
    """Gaussian curvature of the VES surface, closed form:

        K = beta*(delta-1)*delta^2*k^2*rho*(beta*rho-1)
            * u^(2*(beta*delta*rho + delta + 1))
            * ((rho-1)*u + v)^(2*beta*delta*rho + 2)  /  Den_F^2
    """
    if type(u) is _ndarray:
        return _batch("ves_curvature_closed", p, u, v)
    agg = _ves_aggregate(p, u, v)
    k, b, r, d = p.k, p.beta, p.rho, p.delta
    try:
        num = (b * (d - 1.0) * d * d * k * k * r * (b * r - 1.0)
               * u ** (2.0 * (b * d * r + d + 1.0))
               * agg ** (2.0 * b * d * r + 2.0))
    except OverflowError:
        raise _overflow("ves_curvature_closed", u, v) from None
    den = ves_denf(p, u, v)
    # Divide twice rather than squaring den, which can overflow first.
    return _finite_K("ves_curvature_closed", num / den / den, u, v)


def ves_theorem_verdict(p: VesParams) -> tuple[ReturnsToScale, SignClass]:
    """Predicted curvature sign from the returns-to-scale regime alone:
    constant -> zero everywhere (developable), decreasing -> positive,
    increasing -> negative."""
    regime = returns_to_scale(p.delta)
    sign = {
        ReturnsToScale.CONSTANT: SignClass.ZERO,
        ReturnsToScale.DECREASING: SignClass.POSITIVE,
        ReturnsToScale.INCREASING: SignClass.NEGATIVE,
    }[regime]
    return regime, sign


# --- Kadiyala --------------------------------------------------------------

def _kad_inner(p: KadiyalaParams, u: Slot, v: Slot) -> Slot:
    b1, b2 = p.beta1, p.beta2
    return (p.k1 * u ** (b1 + b2) + 2.0 * p.k2 * u ** b1 * v ** b2
            + p.k3 * v ** (b1 + b2))


def kadiyala_T1(p: KadiyalaParams, u: Slot, v: Slot) -> Slot:
    """First curvature factor; vanishes identically iff delta = 1."""
    if type(u) is _ndarray:
        return _batch("kadiyala_T1", p, u, v)
    _check_positive(u, v)
    b1, b2, d = p.beta1, p.beta2, p.delta
    bsum = b1 + b2
    try:
        inner = _kad_inner(p, u, v)
        return (bsum * bsum * (d - 1.0) * d * d * u ** (b1 + 2.0) * v ** (b2 + 2.0)
                * inner ** (2.0 * d / bsum + 2.0))
    except OverflowError:
        raise _overflow("kadiyala_T1", u, v) from None


def kadiyala_T2(p: KadiyalaParams, u: Slot, v: Slot) -> Slot:
    """Second curvature factor; vanishes identically iff the parameters
    describe a perfect-substitutes function."""
    if type(u) is _ndarray:
        return _batch("kadiyala_T2", p, u, v)
    _check_positive(u, v)
    k1, k2, k3 = p.k1, p.k2, p.k3
    b1, b2 = p.beta1, p.beta2
    bsum = b1 + b2
    try:
        return (bsum * k1 * u ** b2
                * (2.0 * (b2 - 1.0) * b2 * k2 * u ** b1
                   + (b1 * b1 + (2.0 * b2 - 1.0) * b1 + (b2 - 1.0) * b2)
                   * k3 * v ** b1)
                - 2.0 * b1 * k2 * v ** b2
                * (2.0 * b2 * k2 * u ** b1
                   - (b1 - 1.0) * bsum * k3 * v ** b1))
    except OverflowError:
        raise _overflow("kadiyala_T2", u, v) from None


def _kad_deng_terms(p: KadiyalaParams, u: Slot, v: Slot) -> list[Slot]:
    k1, k2, k3 = p.k1, p.k2, p.k3
    b1, b2, d = p.beta1, p.beta2, p.delta
    bsum = b1 + b2
    try:
        inner = _kad_inner(p, u, v)
        e = d * d * inner ** (2.0 * d / bsum)
        return [
            bsum * bsum * k1 * k1 * v * v * u ** (2.0 * bsum) * (e + u * u),
            bsum * bsum * k3 * k3 * u * u * v ** (2.0 * bsum) * (e + v * v),
            4.0 * bsum * k2 * k3 * u ** (b1 + 2.0) * v ** (b1 + 2.0 * b2)
            * (b2 * (e + v * v) + b1 * v * v),
            4.0 * k2 * k2 * u ** (2.0 * b1) * v ** (2.0 * b2)
            * (b1 * b1 * v * v * (e + u * u) + b2 * b2 * u * u * (e + v * v)
               + 2.0 * b1 * b2 * u * u * v * v),
            2.0 * bsum * k1 * u ** bsum * v ** (b2 + 2.0)
            * (bsum * k3 * u * u * v ** b1
               + 2.0 * k2 * u ** b1 * (b1 * (e + u * u) + b2 * u * u)),
        ]
    except OverflowError:
        raise _overflow("kadiyala_deng", u, v) from None


def kadiyala_deng(p: KadiyalaParams, u: Slot, v: Slot) -> Slot:
    """Curvature denominator base Den_G = A1+A2+A3+A4+A5, each A_i a
    product of non-negative factors under the parameter constraints, so
    the sum is strictly positive on the open first quadrant."""
    if type(u) is _ndarray:
        return _batch("kadiyala_deng", p, u, v)
    _check_positive(u, v)
    # sum() adds left to right, as a1 + a2 + ... + a5 would; fsum would not
    total = sum(_kad_deng_terms(p, u, v))
    bad = total <= 0.0
    if bad is not False and (at := _at_first(bad, total, u, v)):
        raise ProdGeoError(
            "Den_G = {} <= 0 at ({}, {}): implementation bug".format(*at))
    return total


def kadiyala_deng_terms(p: KadiyalaParams, u: Slot, v: Slot) -> list[Slot]:
    """The five summands of Den_G individually (each must be >= 0)."""
    if type(u) is _ndarray:
        return _batch("kadiyala_deng_terms", p, u, v)
    _check_positive(u, v)
    return _kad_deng_terms(p, u, v)


def kadiyala_curvature_closed(p: KadiyalaParams, u: Slot, v: Slot) -> Slot:
    """Gaussian curvature of the Kadiyala surface: K = T1*T2/Den_G^2."""
    if type(u) is _ndarray:
        return _batch("kadiyala_curvature_closed", p, u, v)
    den = kadiyala_deng(p, u, v)
    # T1/den * T2/den keeps intermediates in range; den^2 can overflow.
    return _finite_K("kadiyala_curvature_closed",
                     (kadiyala_T1(p, u, v) / den) * (kadiyala_T2(p, u, v) / den), u, v)


#: The closed forms as defined, which _batch calls with _Batch views: a
#: wrapper bound to a public name (a tracer, a test's monkeypatch) is then
#: entered once for a batch, as for a point, not a second time.
_AS_DEFINED = {form.__name__: form for form in (
    ves_denf, ves_curvature_closed, kadiyala_T1, kadiyala_T2, kadiyala_deng,
    kadiyala_deng_terms, kadiyala_curvature_closed)}


class DevelopabilityReason(enum.Enum):
    CONSTANT_RETURNS = "constant-returns"
    K2_ZERO_UNIT_SUM = "k2-zero-unit-exponent-sum"
    BETA_ONE_RANK_ONE = "beta-one-rank-one-weights"
    NOT_DEVELOPABLE = "not-developable"


@dataclass(frozen=True)
class DevelopabilityVerdict:
    developable: bool
    reason: DevelopabilityReason


def kadiyala_is_developable(p: KadiyalaParams) -> DevelopabilityVerdict:
    """The Kadiyala surface has identically zero Gaussian curvature
    exactly when delta = 1, or k2 = 0 with beta1+beta2 = 1, or
    beta1 = beta2 = 1 with k2^2 = k1*k3 (the last two being the
    perfect-substitutes reductions)."""
    if abs(p.delta - 1.0) <= PARAM_EQ_TOL:
        return DevelopabilityVerdict(True, DevelopabilityReason.CONSTANT_RETURNS)
    if abs(p.k2) <= PARAM_EQ_TOL and abs(p.beta1 + p.beta2 - 1.0) <= PARAM_EQ_TOL:
        return DevelopabilityVerdict(True, DevelopabilityReason.K2_ZERO_UNIT_SUM)
    if (abs(p.beta1 - 1.0) <= PARAM_EQ_TOL and abs(p.beta2 - 1.0) <= PARAM_EQ_TOL
            and abs(p.k2 * p.k2 - p.k1 * p.k3) <= PARAM_EQ_TOL):
        return DevelopabilityVerdict(True, DevelopabilityReason.BETA_ONE_RANK_ONE)
    return DevelopabilityVerdict(False, DevelopabilityReason.NOT_DEVELOPABLE)
