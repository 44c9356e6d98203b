import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import as_scalar_field, assert_close, tame_expression
from prodgeo import harness, jets
from prodgeo.errors import DomainError, NonFiniteError
from prodgeo.jets import Jet2


def test_seed_u():
    assert jets.seed_u(2) == Jet2(2.0, 1.0, 0.0, 0.0, 0.0, 0.0)


def test_seed_v():
    assert jets.seed_v(3) == Jet2(3.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def test_constant():
    assert jets.constant(5) == Jet2(5.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_mul_product_rule():
    # f = u*v at (2, 3)
    got = jets.mul(jets.seed_u(2), jets.seed_v(3))
    assert got == Jet2(6.0, 3.0, 2.0, 0.0, 1.0, 0.0)


def test_additive_identity():
    a = jets.seed_u(1)
    assert jets.add(a, jets.constant(0)) == a


def test_div_second_order():
    # f = u/v at (1, 2); expected slots frozen from central finite
    # differences of the quotient (and hand calculus).
    got = jets.div(jets.seed_u(1), jets.seed_v(2))
    assert_close(got.val, 0.5, 1e-12)
    assert_close(got.d1, 0.5, 1e-6)
    assert_close(got.d2, -0.25, 1e-6)
    assert_close(got.d11, 0.0, 1e-4)
    assert_close(got.d12, -0.25, 1e-4)
    assert_close(got.d22, 0.25, 1e-4)


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        jets.div(jets.seed_u(1), jets.seed_v(0))


def test_powr_square():
    got = jets.powr(jets.seed_u(3), 2)
    assert got == Jet2(9.0, 6.0, 0.0, 2.0, 0.0, 0.0)


def test_powr_half():
    # frozen from the finite-difference oracle on u**0.5 at u=2
    got = jets.powr(jets.seed_u(2), 0.5)
    assert_close(got.val, math.sqrt(2.0), 1e-12)
    assert_close(got.d1, 0.35355339, 1e-6)
    assert_close(got.d11, -0.08838818565948257, 1e-4)
    assert got.d2 == got.d12 == got.d22 == 0.0


def test_ln_exp_inverse():
    a = jets.seed_u(0.7)
    got = jets.ln(jets.exp(a))
    for s, r in zip(got, a):
        assert abs(s - r) <= 1e-14


def test_powr_matches_exp_ln_route():
    rng = random.Random(11)
    for _ in range(200):
        a = jets.exp(jets.scale(jets.mul(*jets.seed(rng.uniform(0.2, 3), rng.uniform(0.2, 3))), 0.3))
        p = rng.uniform(-2.0, 2.5)
        direct = jets.powr(a, p)
        via_exp = jets.exp(jets.scale(jets.ln(a), p))
        for s_d, s_e in zip(direct, via_exp):
            assert_close(s_d, s_e, 1e-12, "powr vs exp(p*ln)")


def test_mul_div_identity():
    rng = random.Random(5)
    for _ in range(100):
        u0, v0 = rng.uniform(0.3, 4), rng.uniform(0.3, 4)
        u, v = jets.seed(u0, v0)
        a = jets.add(jets.mul(u, v), jets.constant(rng.uniform(0.1, 2)))
        b = jets.add(u, jets.powr(v, 1.3))
        got = jets.mul(a, jets.div(b, a))
        for s_g, s_b in zip(got, b):
            assert_close(s_g, s_b, 1e-12, "a*(b/a)=b")


def test_powr_exponent_addition():
    rng = random.Random(6)
    for _ in range(100):
        u0, v0 = rng.uniform(0.3, 4), rng.uniform(0.3, 4)
        a = jets.add(jets.seed_u(u0), jets.powr(jets.seed_v(v0), 0.7))
        p, q = rng.uniform(-1.5, 2), rng.uniform(-1.5, 2)
        lhs = jets.mul(jets.powr(a, p), jets.powr(a, q))
        rhs = jets.powr(a, p + q)
        for s_l, s_r in zip(lhs, rhs):
            assert_close(s_l, s_r, 1e-12, "a^p*a^q=a^(p+q)")


def test_domain_errors():
    neg = jets.constant(-1.0)
    for op in (lambda: jets.powr(neg, 0.5),
               lambda: jets.ln(neg),
               lambda: jets.sqrt(neg)):
        with pytest.raises(DomainError):
            op()


def test_nonfinite_raises():
    big = jets.constant(1e308)
    with pytest.raises(NonFiniteError):
        jets.mul(big, big)
    with pytest.raises(NonFiniteError):
        jets.exp(jets.constant(1e4))


def test_scale_and_neg():
    a = jets.mul(jets.seed_u(2), jets.seed_v(3))
    assert jets.scale(a, -1.0) == jets.neg(a)
    assert jets.scale(a, 2.0) == jets.add(a, a)


def test_operator_sugar_matches_functions():
    u, v = jets.seed(1.5, 0.8)
    assert u * v + 2.0 == jets.add(jets.mul(u, v), jets.constant(2.0))
    assert u / v - v == jets.sub(jets.div(u, v), v)
    assert -u == jets.neg(u)
    assert u ** 1.5 == jets.powr(u, 1.5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9),
       u0=st.floats(0.5, 2.0), v0=st.floats(0.5, 2.0))
def test_composite_expressions_match_finite_differences(seed, u0, v0):
    """Derivative propagation through random composite expressions agrees
    with the central-difference oracle: gradient to 1e-6 relative and
    Hessian to 1e-4 relative."""
    expr = tame_expression(random.Random(seed), u0, v0)
    jet = expr(*jets.seed(u0, v0))
    grad, hess = harness.fd_oracle(as_scalar_field(expr), u0, v0)
    assert_close(jet.d1, grad[0], 1e-6, "d1")
    assert_close(jet.d2, grad[1], 1e-6, "d2")
    assert_close(jet.d11, hess[0, 0], 1e-4, "d11")
    assert_close(jet.d12, hess[0, 1], 1e-4, "d12")
    assert_close(jet.d22, hess[1, 1], 1e-4, "d22")
