"""The closed forms proved once against an independent Monge curvature.

Each model is written out again here in sympy with exact rational
parameters; its derivatives give K = (f_uu f_vv - f_uv^2) / W^4 with
W^2 = 1 + f_u^2 + f_v^2.  The library's own closed forms run on the same
parameters and points as mpmath numbers at 60 digits, so a transcription
slip in Den_F, T1, T2 or Den_G shows as a gap far above 60-digit rounding.
Generic draws matter: on a developable draw T1 or T2 vanishes and hides
a slip in the other factors.
"""

import random
from dataclasses import astuple
from types import SimpleNamespace

import pytest
import sympy
from mpmath import mp, mpf

from prodgeo import curvature, harness
from prodgeo.curvature import DevelopabilityReason
from prodgeo.models import KadiyalaParams, VesParams

DIGITS = 60
#: |K_closed - K_monge| over (|f_uu f_vv| + f_uv^2) / W^4; 60-digit
#: rounding leaves about 1e-57, a one-coefficient slip 1e-18 or more.
IDENTITY_RTOL = 1e-40
POINTS_PER_DRAW = 6

u_, v_ = sympy.symbols("u v", positive=True)


def ves_height(k, b, r, d):
    return k * u_ ** (d * (1 - b * r)) * ((r - 1) * u_ + v_) ** (b * d * r)


def kadiyala_height(k1, k2, k3, b1, b2, d):
    s = b1 + b2
    return (k1 * u_ ** s + 2 * k2 * u_ ** b1 * v_ ** b2 + k3 * v_ ** s) ** (d / s)


def monge(height):
    """(K, scale) at a point from the height's sympy derivatives, as one
    mpmath function of (u, v)."""
    fu, fv = sympy.diff(height, u_), sympy.diff(height, v_)
    fuu, fuv, fvv = sympy.diff(fu, u_), sympy.diff(fu, v_), sympy.diff(fv, v_)
    w4 = (1 + fu ** 2 + fv ** 2) ** 2
    return sympy.lambdify((u_, v_), ((fuu * fvv - fuv ** 2) / w4,
                                     (abs(fuu * fvv) + fuv ** 2) / w4), "mpmath")


def ves_draws():
    for stratum in harness.DELTA_STRATA:
        for seed in range(2):
            yield f"ves-{stratum}-{seed}", harness.random_ves_params(seed, stratum)


def kadiyala_draws():
    for reason in DevelopabilityReason:
        for seed in range(2):
            yield f"kadiyala-{reason.value}-{seed}", harness.random_kadiyala_params(seed, reason)


DRAWS = dict([*ves_draws(), *kadiyala_draws()])


def _points(p, rng):
    """POINTS_PER_DRAW seeded points of the open quadrant inside p's domain."""
    points = []
    while len(points) < POINTS_PER_DRAW:
        u, v = 10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 1)
        if isinstance(p, KadiyalaParams) or (p.rho - 1.0) * u + v > 0.0:
            points.append((u, v))
    return points


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_closed_form_K_is_the_monge_K(name):
    p = DRAWS[name]
    # Floats are exact rationals and exact mpf: both routes see one point.
    fields = astuple(p)
    exact = [sympy.Rational(x) for x in fields]
    if isinstance(p, VesParams):
        K_monge, closed = monge(ves_height(*exact)), curvature.ves_curvature_closed
    else:
        K_monge, closed = monge(kadiyala_height(*exact)), curvature.kadiyala_curvature_closed
    with mp.workdps(DIGITS):
        p_mp = type(p)(*map(mpf, fields))
        worst = 0
        for u, v in _points(p, random.Random(name)):
            K, scale = K_monge(mpf(u), mpf(v))
            assert scale > 0
            worst = max(worst, abs(closed(p_mp, mpf(u), mpf(v)) - K) / scale)
        assert worst <= IDENTITY_RTOL, f"{name}: {mp.nstr(worst, 3)}"


# --- The denominators are positive ------------------------------------------
#
# Run on sympy symbols, the library's own summands of Den_F and Den_G show
# the signs that let the closed forms divide by them.  nsimplify turns the
# formulas' float constants (2.0, 1.0) into the integers they are.

def test_denf_is_a_positive_plus_a_nonnegative_summand():
    """On the domain, agg = (rho-1)*u + v > 0 and u > 0.  Den_F's first
    summand is positive powers times a quadratic that is a sum of two
    squares, the paper's expanded quadratic, and its second summand is
    positive, so Den_F > 0."""
    k, b, r, d, agg = sympy.symbols("k beta rho delta agg", positive=True)
    p = SimpleNamespace(k=k, beta=b, rho=r, delta=d)
    a1, a2 = map(sympy.nsimplify, curvature._ves_denf_terms(p, u_, v_, agg))
    squares = ((b * r - 1) * v_ - (r - 1) * u_) ** 2 + (b * r * u_) ** 2
    expanded = (u_ ** 2 * (r * (b ** 2 * r + r - 2) + 1) - 2 * (r - 1) * u_ * v_ * (b * r - 1)
                + v_ ** 2 * (b * r - 1) ** 2)
    assert sympy.expand(squares - expanded) == 0   # the paper's quadratic
    powers = d ** 2 * k ** 2 * u_ ** (2 * d) * agg ** (2 * b * d * r)
    assert sympy.expand(a1 - powers * squares) == 0
    assert (powers * squares).is_nonnegative
    assert a2.is_positive


@pytest.mark.parametrize("bsum_sign", [1, -1])
@pytest.mark.parametrize("positive_weight", ["k1", "k2"])
def test_deng_summands_are_nonnegative_and_sum_positive(monkeypatch, bsum_sign,
                                                        positive_weight):
    """beta1*(beta1+beta2) > 0 and beta2*(beta1+beta2) > 0 give beta1 and
    beta2 the sign of their sum; with k_i >= 0 each of Den_G's summands is
    then a product of factors of known sign, and >= 0.  (k1, k2) != (0, 0)
    makes one of them positive, so Den_G > 0.  The aggregate inner to the
    power, k1*u^s + 2*k2*u^b1*v^b2 + k3*v^s, is positive for the same
    reason; it stands here as a positive symbol."""
    c1, c2, d, inner = sympy.symbols("c1 c2 delta inner", positive=True)
    weights = {name: sympy.Symbol(name, nonnegative=True) for name in ("k1", "k2", "k3")}
    weights[positive_weight] = sympy.Symbol(positive_weight, positive=True)
    p = SimpleNamespace(**weights, beta1=bsum_sign * c1, beta2=bsum_sign * c2, delta=d)
    monkeypatch.setattr(curvature, "_kad_inner", lambda p, *powers: inner)
    terms = curvature._kad_deng_terms(p, u_, v_, curvature._kad_powers(p, u_, v_))
    assert len(terms) == 5
    assert all(term.is_nonnegative for term in terms)
    assert sympy.Add(*terms).is_positive
