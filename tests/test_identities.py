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

