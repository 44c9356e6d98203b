"""Batch f, K, H and closed-form K against 50-digit values.

The heights are written out again in sympy with the parameters as
symbols; their derivatives, lambdified to mpmath, give f, K and H at 50
digits from the Monge formulas:

    W^2 = 1 + f_u^2 + f_v^2
    K   = (f_uu f_vv - f_uv^2) / W^4
    H   = ((1 + f_u^2) f_vv - 2 f_u f_v f_uv + (1 + f_v^2) f_uu) / (2 W^3)

Each batch value must lie within LIMIT * EPS * scale of the 50-digit
value, with the running-error scales of ``helpers.surface_scales``; the
closed-form K is judged on K's scale.  Both batch shapes run: every draw
in one batch whose parameters are columns, as the verify engine stacks
its trials, and each draw alone with float parameters, as a grid runs.
"""

import random

import numpy as np
import pytest
import sympy
from mpmath import mp, mpf

from helpers import EPS, LIMIT, param_columns, surface_scales
from prodgeo import harness, surface
from prodgeo.curvature import DevelopabilityReason
from prodgeo.models import VesParams

DIGITS = 50
POINTS_PER_DRAW = 10
SEEDS = range(3)

u_, v_ = sympy.symbols("u v", positive=True)


def _monge(height, names):
    """(f, f_u, f_v, K, H) as one mpmath function of (params..., u, v)."""
    symbols = sympy.symbols(names, real=True)
    f = height(*symbols)
    fu, fv = sympy.diff(f, u_), sympy.diff(f, v_)
    derivatives = sympy.lambdify((*symbols, u_, v_), (
        f, fu, fv, sympy.diff(fu, u_), sympy.diff(fu, v_), sympy.diff(fv, v_)),
        "mpmath", cse=True)

    def values(*args):
        f, fu, fv, fuu, fuv, fvv = derivatives(*args)
        w2 = 1 + fu * fu + fv * fv
        K = (fuu * fvv - fuv * fuv) / (w2 * w2)
        H = ((1 + fu * fu) * fvv - 2 * fu * fv * fuv + (1 + fv * fv) * fuu) / (2 * w2 * mp.sqrt(w2))
        return f, fu, fv, K, H
    return values


def _ves_height(k, b, r, d):
    return k * u_ ** (d * (1 - b * r)) * ((r - 1) * u_ + v_) ** (b * d * r)


def _kadiyala_height(k1, k2, k3, b1, b2, d):
    s = b1 + b2
    return (k1 * u_ ** s + 2 * k2 * u_ ** b1 * v_ ** b2 + k3 * v_ ** s) ** (d / s)


def _draws():
    for stratum in harness.DELTA_STRATA:
        for seed in SEEDS:
            yield harness.random_ves_params(seed, stratum)
    for reason in DevelopabilityReason:
        for seed in SEEDS:
            yield harness.random_kadiyala_params(seed, reason)


def _points(p, rng):
    """POINTS_PER_DRAW seeded points of [0.1, 10]^2 inside p's domain."""
    points = []
    while len(points) < POINTS_PER_DRAW:
        u, v = 10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 1)
        if harness.FAMILIES[_family(p)].domain_valid(p, u, v):
            points.append((u, v))
    return points


def _family(p) -> str:
    return "ves" if isinstance(p, VesParams) else "kadiyala"


def _batch(family, p, u, v):
    """f, K, H and closed-form K over a batch."""
    jet = family.jet(p, u, v)
    K, H = surface.curvature_from_jet(jet)
    return {"f": jet.val, "K": K, "H": H, "K_closed": family.closed_K(p, u, v)}


@pytest.fixture(scope="module")
def oracle():
    return {"ves": _monge(_ves_height, "k beta rho delta"),
            "kadiyala": _monge(_kadiyala_height, "k1 k2 k3 beta1 beta2 delta")}


@pytest.mark.parametrize("family_name", sorted(harness.FAMILIES))
def test_batches_within_rounding_of_50_digit_values(oracle, family_name):
    family = harness.FAMILIES[family_name]
    rng = random.Random(f"accuracy:{family_name}")
    draws = [p for p in _draws() if _family(p) == family_name]
    points = [_points(p, rng) for p in draws]
    u, v = (np.array([pt[axis] for pts in points for pt in pts]) for axis in (0, 1))
    stacked = _batch(family, param_columns(draws, [len(pts) for pts in points]), u, v)
    each = [_batch(family, p, *map(np.array, zip(*pts))) for p, pts in zip(draws, points)]
    alone = {name: np.concatenate([values[name] for values in each]) for name in stacked}
    worst = {}
    i = 0
    for p, pts in zip(draws, points):
        for x, y in pts:
            with mp.workdps(DIGITS):
                f, fu, fv, K, H = oracle[family_name](*map(mpf, vars(p).values()), mpf(x), mpf(y))
                scales = surface_scales(p, x, y, float(fu), float(fv), float(K), float(H))
                exact = {"f": f, "K": K, "H": H, "K_closed": K}
                for name, values in (("stacked", stacked), ("alone", alone)):
                    for quantity, got in values.items():
                        key = "K" if quantity == "K_closed" else quantity
                        multiple = float(abs(mpf(got[i]) - exact[quantity])
                                         / (EPS * scales[key]))
                        worst[name, quantity] = max(worst.get((name, quantity), 0.0), multiple)
            i += 1
    assert i == len(u) >= 50
    over = {key: m for key, m in worst.items() if not m <= LIMIT}
    assert not over, f"multiples of EPS*scale over {LIMIT}: {over}"
