import math
import random

import numpy as np
import pytest

from helpers import assert_close
from prodgeo import jets, surface
from prodgeo.errors import NonFiniteError
from prodgeo.jets import Jet2
from prodgeo.surface import SignClass


def plane_jet(a, b, u0, v0):
    u, v = jets.seed(u0, v0)
    return jets.add(jets.scale(u, a), jets.scale(v, b))


def test_plane_forms():
    # f = 2u + 3v: first form from the slopes, second form identically zero
    forms = surface.fundamental_forms(plane_jet(2, 3, 1.7, -0.4))
    assert (forms.g11, forms.g12, forms.g22) == (5.0, 6.0, 10.0)
    assert (forms.h11, forms.h12, forms.h22) == (0.0, 0.0, 0.0)
    assert forms.det_first == 14.0
    assert surface.gaussian_curvature(forms) == 0.0
    assert surface.mean_curvature(forms) == 0.0


def test_saddle_at_origin():
    jet = jets.mul(*jets.seed(0.0, 0.0))
    forms = surface.fundamental_forms(jet)
    assert (forms.g11, forms.g12, forms.g22) == (1.0, 0.0, 1.0)
    assert (forms.h11, forms.h12, forms.h22) == (0.0, 1.0, 0.0)
    assert surface.gaussian_curvature(forms) == -1.0
    assert surface.mean_curvature(forms) == 0.0  # minimal surface point


def test_paraboloid_forms():
    # f = u^2 + v^2 at (1, 0), Monge formulas by hand
    u, v = jets.seed(1.0, 0.0)
    jet = jets.add(jets.powr(u, 2), jets.mul(v, v))
    forms = surface.fundamental_forms(jet)
    w = math.sqrt(5.0)
    assert (forms.g11, forms.g12, forms.g22) == (5.0, 0.0, 1.0)
    assert_close(forms.h11, 2.0 / w, 1e-12)
    assert_close(forms.h22, 2.0 / w, 1e-12)
    assert forms.h12 == 0.0


def sphere_jet(u0, v0):
    # f = sqrt(1 - u^2 - v^2), via the operation set
    u, v = jets.seed(u0, v0)
    inside = jets.add(jets.constant(1.0),
                      jets.scale(jets.add(jets.mul(u, u), jets.mul(v, v)), -1.0))
    return jets.powr(inside, 0.5)


def test_unit_sphere_curvatures():
    rng = random.Random(3)
    for _ in range(100):
        r = rng.uniform(0.0, 0.85)
        th = rng.uniform(0.0, 2.0 * math.pi)
        K, H = surface.curvature_from_jet(sphere_jet(r * math.cos(th),
                                                     r * math.sin(th)))
        assert_close(K, 1.0, 1e-10, "sphere K")
        assert_close(H, -1.0, 1e-10, "sphere H (upward-normal convention)")


def test_saddle_family_curvature():
    # f = uv has K = -1/(1 + u^2 + v^2)^2
    rng = random.Random(4)
    for _ in range(100):
        u0, v0 = rng.uniform(-3, 3), rng.uniform(-3, 3)
        K, _ = surface.curvature_from_jet(jets.mul(*jets.seed(u0, v0)))
        assert_close(K, -1.0 / (1.0 + u0 * u0 + v0 * v0) ** 2, 1e-12)


def random_poly_jet(rng, u0, v0):
    u, v = jets.seed(u0, v0)
    acc = jets.constant(rng.uniform(-1, 1))
    for i in range(3):
        for j in range(3):
            c = rng.uniform(-1, 1)
            term = jets.mul(jets.mul(u, u) if i == 2 else (u if i == 1 else jets.constant(1.0)),
                            jets.mul(v, v) if j == 2 else (v if j == 1 else jets.constant(1.0)))
            acc = jets.add(acc, jets.scale(term, c))
    return acc


def test_pipeline_matches_direct_monge_formula():
    rng = random.Random(9)
    for _ in range(200):
        u0, v0 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        jet = random_poly_jet(rng, u0, v0)
        forms = surface.fundamental_forms(jet)
        K = surface.gaussian_curvature(forms)
        direct = ((jet.d11 * jet.d22 - jet.d12 ** 2)
                  / (1.0 + jet.d1 ** 2 + jet.d2 ** 2) ** 2)
        assert_close(K, direct, 1e-12, "pipeline vs direct Monge K")
        # structural invariant
        assert forms.det_first >= 1.0


def test_constant_shift_invariance():
    rng = random.Random(12)
    for _ in range(50):
        u0, v0 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        jet = random_poly_jet(rng, u0, v0)
        shifted = jets.add(jet, jets.constant(rng.uniform(-5, 5)))
        assert surface.curvature_from_jet(jet) == surface.curvature_from_jet(shifted)


def test_det_first_exact_at_steep_point():
    # g11*g22 - g12^2 cancels to 0.0 here; det I must stay 1 + fu^2 + fv^2
    fu, fv = 1e9, -2e9
    jet = Jet2(1.0, fu, fv, 2.0, 0.5, 1.0)
    assert surface.fundamental_forms(jet).det_first == 1.0 + fu * fu + fv * fv
    K, H = surface.curvature_from_jet(jet)
    assert math.isfinite(K) and math.isfinite(H)


def test_nonfinite_jet_rejected():
    with pytest.raises(NonFiniteError):
        surface.fundamental_forms(Jet2(1.0, float("nan"), 0, 0, 0, 0))


@pytest.mark.parametrize("K,scale,tol,expected", [
    (0.0, 1.0, 1e-9, SignClass.ZERO),
    (-3e-2, 1.0, 1e-9, SignClass.NEGATIVE),
    (5e-10, 1.0, 1e-9, SignClass.ZERO),
    (3e-9, 1.0, 1e-9, SignClass.POSITIVE),
])
def test_classify_sign(K, scale, tol, expected):
    assert surface.classify_sign(np.array([K]), scale, tol)[0] is expected


def test_classify_sign_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        surface.classify_sign(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        surface.classify_sign(0.0, 1.0, float("nan"))
