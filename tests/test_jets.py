import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from helpers import (Magnitude, as_scalar_field, assert_close, fd_oracle, tame_expression,
                     within_bound)
from prodgeo import jets, surface
from prodgeo.errors import DomainError, NonFiniteError, ProdGeoError
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


def test_powr_matches_exp_ln_route():
    """powr's six slots agree with exp(p*ln a), differentiated by mpmath
    at 50 digits, where a = 0.3*u*v + u**0.5."""
    rng = random.Random(11)
    with mp.workdps(50):
        for _ in range(200):
            u0, v0, p = rng.uniform(0.2, 3), rng.uniform(0.2, 3), rng.uniform(-2.0, 2.5)
            u, v = jets.seed(u0, v0)
            direct = jets.powr(jets.add(jets.scale(jets.mul(u, v), 0.3), jets.powr(u, 0.5)), p)
            via_exp = lambda x, y: mp.exp(p * mp.log(mp.mpf(0.3) * x * y + mp.sqrt(x)))
            for s_d, (i, j) in zip(direct, ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))):
                assert_close(s_d, float(mp.diff(via_exp, (u0, v0), (i, j))), 1e-12,
                             "powr vs exp(p*ln)")


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
    with pytest.raises(DomainError):
        jets.powr(neg, 0.5)


def test_nonfinite_raises():
    """An op checks nothing: a product that overflows carries its inf on,
    and ``surface.curvatures``, which reads the jet, raises for it."""
    big = jets.constant(1e308)
    product = jets.mul(big, big)
    assert product.val == math.inf
    with pytest.raises(NonFiniteError, match=r"non-finite jet: val=inf"):
        surface.curvatures(product)


def test_scale_and_neg():
    a = jets.mul(jets.seed_u(2), jets.seed_v(3))
    assert jets.scale(a, 2.0) == jets.add(a, a)


def test_operator_sugar_matches_functions():
    u, v = jets.seed(1.5, 0.8)
    assert jets.mul(u, v) + 2.0 == jets.add(jets.mul(u, v), jets.constant(2.0))
    assert u + v + v == jets.add(jets.add(u, v), v)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9),
       u0=st.floats(0.5, 2.0), v0=st.floats(0.5, 2.0))
def test_composite_expressions_match_finite_differences(seed, u0, v0):
    """Derivative propagation through random composite expressions agrees
    with the central-difference oracle: gradient to 1e-6 relative and
    Hessian to 1e-4 relative."""
    expr = tame_expression(random.Random(seed), u0, v0)
    jet = expr(*jets.seed(u0, v0))
    grad, hess = fd_oracle(as_scalar_field(expr), u0, v0)
    assert_close(jet.d1, grad[0], 1e-6, "d1")
    assert_close(jet.d2, grad[1], 1e-6, "d2")
    assert_close(jet.d11, hess[0, 0], 1e-4, "d11")
    assert_close(jet.d12, hess[0, 1], 1e-4, "d12")
    assert_close(jet.d22, hess[1, 1], 1e-4, "d22")


# --- ndarray slots: the float ops, element by element -----------------------

ARRAY_OPS = {
    "add": lambda a, b: jets.add(a, b),
    "mul": lambda a, b: jets.mul(a, b),
    "scale": lambda a, b: jets.scale(a, -2.5),
    "powr": lambda a, b: jets.powr(a, 1.7),
    "powr-negative": lambda a, b: jets.powr(a, -0.6),
    "sugar": lambda a, b: a + b + 2.0,
}
#: The exponent of each op that takes numpy's power on a batch; every
#: other op rounds as the float op does, to the bit.
POWERS = {"powr": 1.7, "powr-negative": -0.6}
# mostly tame slots, with the extremes and signs that make ops fail
SLOT = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300),
                 st.sampled_from([0.0, -0.0, 5e-324, 1e200, 700.0, 1e-160]))
POINT_JETS = st.tuples(*[SLOT] * 6)


def _scales(op: str, a: tuple) -> tuple:
    """Rounding scale of each output slot of op at one point's input a."""
    if op not in POWERS:
        return (0.0,) * 6
    val, *derivs = a
    return (Magnitude(val, abs(val), *map(abs, derivs)) ** POWERS[op]).m


def _batch(points, i=slice(None)):
    """The two input jets of points[i], as ndarray slots."""
    return (Jet2(*(np.array(slot)[i] for slot in zip(*side))) for side in zip(*points))


@settings(max_examples=300, deadline=None)
@given(op=st.sampled_from(sorted(ARRAY_OPS)),
       points=st.lists(st.tuples(POINT_JETS, POINT_JETS), min_size=1, max_size=6))
def test_array_slots_match_float_slots_within_rounding(op, points):
    """An op on ndarray slots gives, element by element, the op on float
    slots: to the bit, or for a power within the rounding bound.  Where
    the float op fails, the batch's row is not finite: a batch op checks
    nothing, and leaves the error to the check of the whole evaluation."""
    fn = ARRAY_OPS[op]
    outs = []
    for a, b in points:
        try:
            outs.append(fn(Jet2(*a), Jet2(*b)))
        except (ProdGeoError, ArithmeticError):
            outs.append(None)
    with np.errstate(all="ignore"):
        batch = np.array([np.broadcast_to(slot, len(points)) for slot in fn(*_batch(points))])
    finite = np.isfinite(batch).all(axis=0)
    for i, ((a, _), out) in enumerate(zip(points, outs)):
        if out is None:
            assert not finite[i]
            continue
        for k, scale in enumerate(_scales(op, a)):
            assert within_bound(batch[k, i], out[k], scale), Jet2._fields[k]


#: The ops on a point, with a second jet b and a number c.
POINT_OPS = {
    "add": lambda a, b, c: jets.add(a, b),
    "add-reversed": lambda a, b, c: jets.add(b, a),
    "scale": lambda a, b, c: jets.scale(a, c),
    "mul": lambda a, b, c: jets.mul(a, b),
    "mul-reversed": lambda a, b, c: jets.mul(b, a),
    "powr": lambda a, b, c: jets.powr(a, c),
}


@settings(max_examples=400, deadline=None)
@given(op=st.sampled_from(sorted(POINT_OPS)), a=POINT_JETS, b=POINT_JETS,
       c=st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, 1.0, 2.0, -0.5])),
       bad=st.sampled_from([math.inf, -math.inf, math.nan]), where=st.integers(0, 5))
def test_point_ops_keep_a_slot_that_is_not_finite(op, a, b, c, bad, where):
    """No op on a point checks its slots, so the forms that read the final
    jet are its one check; that holds only if no op turns a jet with an
    inf or NaN slot into a finite one.  A product with 0.0 gives NaN, so
    none does; powr may raise instead, and raises for an inf or NaN base."""
    a = Jet2(*a[:where], bad, *a[where + 1:])
    try:
        out = POINT_OPS[op](a, Jet2(*b), c)
    except ProdGeoError:
        assert op == "powr"
        return
    assert not all(map(math.isfinite, out))


@pytest.mark.parametrize("base", [math.inf, math.nan])
@pytest.mark.parametrize("p", [-0.5, 2.0])
def test_powr_of_a_base_that_is_not_finite_raises(base, p):
    """inf ** -0.5 is 0.0, which would hide the inf before it."""
    with pytest.raises(NonFiniteError, match=f"powr requires a finite base, got {base}"):
        jets.powr(jets.constant(base), p)


@np.errstate(all="ignore")
def test_array_op_names_the_first_failing_element():
    """A batch op leaves not finite each row that its float op, or the
    curvatures that read its jet, reject, and the first of them, taken as
    a point, raises the error that names it: ``powr`` raises its own, and
    ``surface.curvatures`` raises for a jet that is not finite."""
    cases = [
        (lambda x: jets.powr(jets.seed_u(x), 2), [2.0, 1e200, 3e200],
         NonFiniteError, r"power overflow: 1e\+200 \*\* 2.0"),
        (lambda x: jets.powr(jets.seed_u(x), 0.5), [1.0, -1.5, -3.0],
         DomainError, "got -1.5"),
        (lambda x: jets.mul(jets.constant(x), jets.constant(1e10)), [1.0, 1e300],
         NonFiniteError, r"val=inf, grad=\(0.0, 0.0\)"),
    ]
    for op, xs, error, message in cases:
        batch = np.array([np.broadcast_to(slot, len(xs)) for slot in op(np.array(xs))])
        assert np.isfinite(batch).all(axis=0).tolist() == [True] + [False] * (len(xs) - 1)
        assert batch[:, 0].tolist() == list(op(xs[0]))
        with pytest.raises(error, match=message):
            surface.curvatures(op(xs[1]))


def test_numpy_power_bits_do_not_depend_on_the_operands_layout():
    """A verify batch takes a power of u alone once per trial and value of
    u, its base on one axis and its exponents on another, where a stacked
    batch took it once per point.  The layout changes only how numpy's
    power reads its operands, and its bits must not depend on that:
    contiguous, strided and broadcast operands give the same bits, at
    bases and results near the ends of the float range too.

    An exponent that is one number for the whole call (a float, or an
    array of one element, as a batch of one trial has) is another path:
    there numpy takes x*x, sqrt(x) and 1/x for 2, 0.5 and -1, which can
    round otherwise.  A Kadiyala run draws four trials for each one asked
    for, so a verify batch of one trial, outside the sweeps that locate a
    failing point, is VES's; its one such exponent is u^(2*delta) in Den_F at delta = 1,
    where the closed form's K is 0 whatever Den_F's last bit."""
    rng = np.random.default_rng(2024)
    x = 10.0 ** rng.uniform(-300.0, 300.0, 64)
    x[:8] = 10.0 ** rng.uniform(290.0, 308.0, 8)
    x[8:16] = 10.0 ** rng.uniform(-308.0, -290.0, 8)
    x[16:20] = [5e-324, 1.7976931348623157e308, 1.0, 1.0 + 2.0 ** -52]
    p = np.concatenate([rng.uniform(-1.05, 1.05, 24), rng.uniform(-4.0, 4.0, 24)])
    p[:4] = [0.0, 1.0, -1.0, 0.5]
    with np.errstate(all="ignore"):
        contiguous = np.power(np.tile(x, len(p)), np.repeat(p, len(x))).reshape(len(p), len(x))
        x_strided, p_strided = np.zeros((len(x), 3)), np.zeros((3, len(p)))
        x_strided[:, 1], p_strided[2] = x, p
        layouts = {
            "one axis each": np.power(x[None, :, None], p[:, None, None])[:, :, 0],
            "exponent on the inner axis": np.power(x[:, None], p[None, :]).T,
            "strided": np.power(x_strided[None, :, 1], p_strided[2, :, None]),
            "two pairs a call": np.array([[np.power(np.array([a, a]), np.array([q, -q]))[0]
                                           for a in x] for q in p]),
        }
    assert contiguous.size >= 3000
    assert np.isinf(contiguous).any() and (contiguous == 0.0).any()
    for name, got in layouts.items():
        assert got.tobytes() == contiguous.tobytes(), name
