"""Closed-form Gaussian curvature of the VES and Kadiyala surfaces.

These are the explicit factorizations behind the two developability
results: for VES the curvature is a single signed product over the
square of a strictly positive denominator Den_F, so its sign is decided
by the returns-to-scale parameter alone; for Kadiyala the curvature
splits as T1*T2/Den_G^2, and developability is equivalent to one of the
two factors vanishing identically.  Each family has one public closed
form, ``ves_curvature_closed`` and ``kadiyala_curvature_closed``, one
body each: Den_F is computed in the first, and T1, T2 and Den_G in
``_kad_factors``, each power they share taken once.

Long hand-derived expressions are the primary transcription risk, so
the tests prove each form once against the Monge curvature of the model
at 60 digits (``tests/test_identities.py``).

Everything here is an independent route to the same K the autodiff
pipeline produces; the two routes are cross-checked, never merged.

u and v are both floats (one point) or both float ndarrays that
broadcast to a batch's shape (a batch).  Each closed form is a formula
for a point under ``_closed_form``, which runs it on a batch as it is,
in numpy, so a batch agrees with the float form to within the rounding
of numpy's power.  On a batch, each parameter may be a float or an
array that broadcasts to the batch's shape (a record whose fields are
columns): a verify batch's parameters vary along its first axis, u
along its second and v along its third, so a power of u alone is taken
once per trial and value of u.

On a point, a power that overflows a float, and a K that comes out inf
or NaN, raise one NonFiniteError naming the form and the point.  Each
denominator, with Den_G's summands, is checked in one place,
``_positive``, as it is computed: on a point, Den_F <= 0, Den_G <= 0 and
a negative Den_G summand raise SingularPointError naming the quantity
and the point.  A batch raises nothing: Den_F and Den_G are NaN wherever
they are not in (0, inf) or a Den_G summand is negative, so that K is
not finite at each point in the domain that would raise, for
``harness._sweep`` to replay on the point path.  A denominator is also
NaN where it overflows, since numpy's power gives inf where a float's
raises and K = num/inf would read 0.
"""

from __future__ import annotations

import enum
import functools
import math

from .errors import NonFiniteError, SingularPointError
from .jets import POINT, Slot, np
from .models import (PARAM_EQ_TOL, KadiyalaParams, VesParams, _beta_one_rank_one,
                     _check_positive, _k2_zero_unit_sum, _ves_aggregate)
from .surface import SignClass


class ReturnsToScale(enum.Enum):
    CONSTANT = "constant"
    INCREASING = "increasing"
    DECREASING = "decreasing"


def returns_to_scale(delta: float) -> ReturnsToScale:
    if abs(delta - 1.0) <= PARAM_EQ_TOL:
        return ReturnsToScale.CONSTANT
    return ReturnsToScale.INCREASING if delta > 1.0 else ReturnsToScale.DECREASING


def _closed_form(formula):
    """The closed form ``formula``, written for a point, on a point or a
    batch.  It holds the formula itself, so a wrapper bound to the public
    name (a tracer, a test's monkeypatch) is entered once per call.

    On a point, a float's ``**`` that overflows, and a K that comes out
    inf or NaN, as an overflow in a product or quotient of finite terms
    can leave it, raise NonFiniteError, naming the form and the point."""
    @functools.wraps(formula)
    def form(p, u: Slot, v: Slot) -> Slot:
        if not isinstance(u, POINT):
            return formula(p, u, v)
        try:
            K = formula(p, u, v)
        except OverflowError:
            K = math.nan
        if K - K == 0.0:  # only inf and NaN give NaN
            return K
        raise NonFiniteError(f"{formula.__name__} overflows a float at ({u}, {v})")
    return form


def _positive(name: str, den: Slot, u: Slot, v: Slot, summands=()) -> Slot:
    """``den``; on a point, raises unless it is positive and none of its
    ``summands`` is negative.  The theorems rule both out on the domain,
    and a summand of same-signed factors keeps its sign in floats; ``den``
    can still underflow to 0.0, or round below it.  On a batch, ``den`` is
    NaN wherever it is not in (0, inf) or a summand is negative."""
    bad = den <= 0.0
    for term in summands:
        bad = bad | (term < 0.0)
    if not isinstance(bad, POINT):  # a batch's mask
        return np.where(bad | (den == math.inf), math.nan, den)
    if bad:
        problem = "is not positive" if den <= 0.0 else "has a negative summand"
        raise SingularPointError(f"{name} = {den} {problem} at ({u}, {v})")
    return den


# --- VES -------------------------------------------------------------------

@_closed_form
def ves_curvature_closed(p: VesParams, u: Slot, v: Slot) -> Slot:
    """Gaussian curvature of the VES surface, closed form; a batch checks
    no domain, and a cell off it gets an unspecified value:

        K = beta*(delta-1)*delta^2*k^2*rho*(beta*rho-1)
            * u^(2*(beta*delta*rho + delta + 1))
            * agg^(2*beta*delta*rho + 2)  /  Den_F^2,
        Den_F = delta^2*k^2*u^(2*delta)*Q*agg^(2*beta*delta*rho)
                + agg^2*u^(2*beta*delta*rho + 2),

    with agg = (rho-1)*u + v and Q the paper's quadratic in u and v,
    written as the sum of squares it is, which cannot cancel below 0 as
    its expanded form can.  On the domain, Den_F's first summand is then
    non-negative and its second positive, in floats too: each is a product
    of non-negative factors.  Their sum can still underflow to 0.0."""
    agg = _ves_aggregate(p, u, v)
    k, b, r, d = p.k, p.beta, p.rho, p.delta
    num = (b * (d - 1.0) * d * d * k * k * r * (b * r - 1.0)
           * u ** (2.0 * (b * d * r + d + 1.0))
           * agg ** (2.0 * b * d * r + 2.0))
    quad = ((b * r - 1.0) * v - (r - 1.0) * u) ** 2 + (b * r * u) ** 2
    den = _positive("Den_F", d * d * k * k * u ** (2.0 * d) * quad * agg ** (2.0 * b * d * r)
                    + agg ** 2 * u ** (2.0 * b * d * r + 2.0), u, v)
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

def _kad_factors(p: KadiyalaParams, u: Slot, v: Slot) -> tuple[Slot, Slot, Slot]:
    """T1, T2 and Den_G, the factors of K = T1*T2/Den_G^2, with each power
    of u, v and the inner sum k1*u^s + 2*k2*u^beta1*v^beta2 + k3*v^s,
    s = beta1+beta2, taken once and shared.

    T1 vanishes identically iff delta = 1, and T2 iff the parameters
    describe a perfect-substitutes function.  Den_G = A1+A2+A3+A4+A5, each
    A_i a product of factors whose signs the parameter constraints fix, so
    each A_i >= 0 and the sum > 0 on the open first quadrant; it is
    checked before T1's and T2's own powers are taken."""
    _check_positive(u, v)
    k1, k2, k3 = p.k1, p.k2, p.k3
    b1, b2, d = p.beta1, p.beta2, p.delta
    bsum = b1 + b2
    u_s, u_b1, u_b1p2 = u ** bsum, u ** b1, u ** (b1 + 2.0)
    v_s, v_b1, v_b2, v_b2p2 = v ** bsum, v ** b1, v ** b2, v ** (b2 + 2.0)
    inner = k1 * u_s + 2.0 * k2 * u_b1 * v_b2 + k3 * v_s
    e = d * d * inner ** (2.0 * d / bsum)
    terms = [
        bsum * bsum * k1 * k1 * v * v * u ** (2.0 * bsum) * (e + u * u),
        bsum * bsum * k3 * k3 * u * u * v ** (2.0 * bsum) * (e + v * v),
        4.0 * bsum * k2 * k3 * u_b1p2 * v ** (b1 + 2.0 * b2)
        * (b2 * (e + v * v) + b1 * v * v),
        4.0 * k2 * k2 * u ** (2.0 * b1) * v ** (2.0 * b2)
        * (b1 * b1 * v * v * (e + u * u) + b2 * b2 * u * u * (e + v * v)
           + 2.0 * b1 * b2 * u * u * v * v),
        2.0 * bsum * k1 * u_s * v_b2p2
        * (bsum * k3 * u * u * v_b1
           + 2.0 * k2 * u_b1 * (b1 * (e + u * u) + b2 * u * u)),
    ]
    # sum() adds left to right, as a1 + a2 + ... + a5 would; fsum would not
    den = _positive("Den_G", sum(terms), u, v, terms)
    t1 = bsum * bsum * (d - 1.0) * d * d * u_b1p2 * v_b2p2 * inner ** (2.0 * d / bsum + 2.0)
    t2 = (bsum * k1 * u ** b2
          * (2.0 * (b2 - 1.0) * b2 * k2 * u_b1
             + (b1 * b1 + (2.0 * b2 - 1.0) * b1 + (b2 - 1.0) * b2)
             * k3 * v_b1)
          - 2.0 * b1 * k2 * v_b2
          * (2.0 * b2 * k2 * u_b1
             - (b1 - 1.0) * bsum * k3 * v_b1))
    return t1, t2, den


@_closed_form
def kadiyala_curvature_closed(p: KadiyalaParams, u: Slot, v: Slot) -> Slot:
    """Gaussian curvature of the Kadiyala surface: K = T1*T2/Den_G^2, its
    factors from ``_kad_factors``.  A batch checks no domain: a cell off
    it gets an unspecified value."""
    t1, t2, den = _kad_factors(p, u, v)
    # T1/den * T2/den keeps intermediates in range; den^2 can overflow.
    return (t1 / den) * (t2 / den)


class DevelopabilityReason(enum.Enum):
    CONSTANT_RETURNS = "constant-returns"
    K2_ZERO_UNIT_SUM = "k2-zero-unit-exponent-sum"
    BETA_ONE_RANK_ONE = "beta-one-rank-one-weights"
    NOT_DEVELOPABLE = "not-developable"

    @property
    def developable(self) -> bool:
        return self is not DevelopabilityReason.NOT_DEVELOPABLE


def kadiyala_is_developable(p: KadiyalaParams) -> DevelopabilityReason:
    """Why the Kadiyala surface has identically zero Gaussian curvature,
    which it has exactly when delta = 1, or k2 = 0 with beta1+beta2 = 1,
    or beta1 = beta2 = 1 with k2^2 = k1*k3 (the last two being the
    perfect-substitutes reductions); or NOT_DEVELOPABLE."""
    if returns_to_scale(p.delta) is ReturnsToScale.CONSTANT:
        return DevelopabilityReason.CONSTANT_RETURNS
    if _k2_zero_unit_sum(p):
        return DevelopabilityReason.K2_ZERO_UNIT_SUM
    if _beta_one_rank_one(p):
        return DevelopabilityReason.BETA_ONE_RANK_ONE
    return DevelopabilityReason.NOT_DEVELOPABLE
