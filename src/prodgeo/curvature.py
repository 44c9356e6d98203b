"""Closed-form Gaussian curvature of the VES and Kadiyala surfaces.

These are the explicit factorizations behind the two developability
results: for VES the curvature is a single signed product over the
square of a strictly positive denominator, so its sign is decided by
the returns-to-scale parameter alone; for Kadiyala the curvature splits
as T1*T2/Den_G^2, and developability is equivalent to one of the two
factors vanishing identically.

Where the source expressions admit two algebraic groupings (Den_F, T2)
both are implemented; they are asserted equal at run time in the tests,
since long hand-collected expressions are the primary transcription
risk.

Everything here is an independent route to the same K the autodiff
pipeline produces; the two routes are cross-checked, never merged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import ProdGeoError
from .models import PARAM_EQ_TOL, KadiyalaParams, VesParams, _check_positive, _ves_aggregate
from .surface import SignClass


class ReturnsToScale(enum.Enum):
    CONSTANT = "constant"
    INCREASING = "increasing"
    DECREASING = "decreasing"


def returns_to_scale(delta: float) -> ReturnsToScale:
    if abs(delta - 1.0) <= PARAM_EQ_TOL:
        return ReturnsToScale.CONSTANT
    return ReturnsToScale.INCREASING if delta > 1.0 else ReturnsToScale.DECREASING


# --- VES -------------------------------------------------------------------

def ves_denf(p: VesParams, u: float, v: float,
             grouped: bool = False) -> float:
    """The strictly positive denominator base of the VES curvature.

    ``grouped=True`` evaluates the sum-of-squares regrouping
    (beta*rho*u)^2 + ((rho-1)*u - v*(rho*beta-1))^2 instead of the
    expanded quadratic; the two must agree to rounding.
    """
    agg = _ves_aggregate(p, u, v)
    k, b, r, d = p.k, p.beta, p.rho, p.delta
    if grouped:
        quad = (b * r * u) ** 2 + ((r - 1.0) * u - v * (r * b - 1.0)) ** 2
    else:
        quad = (u * u * (r * (b * b * r + r - 2.0) + 1.0)
                - 2.0 * (r - 1.0) * u * v * (b * r - 1.0)
                + v * v * (b * r - 1.0) ** 2)
    return (d * d * k * k * u ** (2.0 * d) * quad * agg ** (2.0 * b * d * r)
            + agg ** 2 * u ** (2.0 * b * d * r + 2.0))


def ves_curvature_closed(p: VesParams, u: float, v: float) -> float:
    """Gaussian curvature of the VES surface, closed form:

        K = beta*(delta-1)*delta^2*k^2*rho*(beta*rho-1)
            * u^(2*(beta*delta*rho + delta + 1))
            * ((rho-1)*u + v)^(2*beta*delta*rho + 2)  /  Den_F^2
    """
    agg = _ves_aggregate(p, u, v)
    k, b, r, d = p.k, p.beta, p.rho, p.delta
    num = (b * (d - 1.0) * d * d * k * k * r * (b * r - 1.0)
           * u ** (2.0 * (b * d * r + d + 1.0))
           * agg ** (2.0 * b * d * r + 2.0))
    den = ves_denf(p, u, v)
    # Divide twice rather than squaring den, which can overflow first.
    return num / den / den


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

def _kad_inner(p: KadiyalaParams, u: float, v: float) -> float:
    b1, b2 = p.beta1, p.beta2
    return (p.k1 * u ** (b1 + b2) + 2.0 * p.k2 * u ** b1 * v ** b2
            + p.k3 * v ** (b1 + b2))


def kadiyala_T1(p: KadiyalaParams, u: float, v: float) -> float:
    """First curvature factor; vanishes identically iff delta = 1."""
    _check_positive(u, v)
    b1, b2, d = p.beta1, p.beta2, p.delta
    bsum = b1 + b2
    inner = _kad_inner(p, u, v)
    return (bsum * bsum * (d - 1.0) * d * d * u ** (b1 + 2.0) * v ** (b2 + 2.0)
            * inner ** (2.0 * d / bsum + 2.0))


def kadiyala_T2(p: KadiyalaParams, u: float, v: float,
                collected: bool = False) -> float:
    """Second curvature factor; vanishes identically iff the parameters
    describe a perfect-substitutes function.

    ``collected=True`` evaluates the four-term form with powers of u and
    v collected; the default is the original two-term product grouping.
    The two must agree to rounding.
    """
    _check_positive(u, v)
    k1, k2, k3 = p.k1, p.k2, p.k3
    b1, b2 = p.beta1, p.beta2
    bsum = b1 + b2
    if collected:
        return ((2.0 * b2 ** 3 + 2.0 * b1 * b2 ** 2 - 2.0 * b2 ** 2
                 - 2.0 * b1 * b2) * k1 * k2 * u ** bsum
                - 4.0 * b1 * b2 * k2 * k2 * u ** b1 * v ** b2
                + (b1 ** 3 + 3.0 * b2 * b1 ** 2 - b1 ** 2 + 3.0 * b2 ** 2 * b1
                   - 2.0 * b2 * b1 + b2 ** 3 - b2 ** 2) * k1 * k3
                * u ** b2 * v ** b1
                + (2.0 * b1 ** 3 + 2.0 * b2 * b1 ** 2 - 2.0 * b1 ** 2
                   - 2.0 * b2 * b1) * k2 * k3 * v ** bsum)
    return (bsum * k1 * u ** b2
            * (2.0 * (b2 - 1.0) * b2 * k2 * u ** b1
               + (b1 * b1 + (2.0 * b2 - 1.0) * b1 + (b2 - 1.0) * b2)
               * k3 * v ** b1)
            - 2.0 * b1 * k2 * v ** b2
            * (2.0 * b2 * k2 * u ** b1
               - (b1 - 1.0) * bsum * k3 * v ** b1))


def _kad_deng_terms(p: KadiyalaParams, u: float, v: float) -> list[float]:
    k1, k2, k3 = p.k1, p.k2, p.k3
    b1, b2, d = p.beta1, p.beta2, p.delta
    bsum = b1 + b2
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


def kadiyala_deng(p: KadiyalaParams, u: float, v: float) -> float:
    """Curvature denominator base Den_G = A1+A2+A3+A4+A5, each A_i a
    product of non-negative factors under the parameter constraints, so
    the sum is strictly positive on the open first quadrant."""
    _check_positive(u, v)
    # sum() adds left to right, as a1 + a2 + ... + a5 would; fsum would not
    total = sum(_kad_deng_terms(p, u, v))
    if total <= 0.0:
        raise ProdGeoError(
            f"Den_G = {total} <= 0 at ({u}, {v}): implementation bug")
    return total


def kadiyala_deng_terms(p: KadiyalaParams, u: float, v: float) -> list[float]:
    """The five summands of Den_G individually (each must be >= 0)."""
    return _kad_deng_terms(p, u, v)


def kadiyala_curvature_closed(p: KadiyalaParams, u: float, v: float) -> float:
    """Gaussian curvature of the Kadiyala surface: K = T1*T2/Den_G^2."""
    den = kadiyala_deng(p, u, v)
    # T1/den * T2/den keeps intermediates in range; den^2 can overflow.
    return (kadiyala_T1(p, u, v) / den) * (kadiyala_T2(p, u, v) / den)


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
