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

from helpers import denominators
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

def test_denf_is_a_positive_plus_a_nonnegative_summand(monkeypatch):
    """On the domain, agg = (rho-1)*u + v > 0 and u > 0.  Den_F's first
    summand is positive powers times a quadratic that is a sum of two
    squares, the paper's expanded quadratic, and its second summand is
    positive, so Den_F > 0."""
    k, b, r, d, agg = sympy.symbols("k beta rho delta agg", positive=True)
    p = SimpleNamespace(k=k, beta=b, rho=r, delta=d)
    monkeypatch.setattr(curvature, "_ves_aggregate", lambda p, u, v: agg)
    seen = denominators(monkeypatch, check=False)
    curvature.ves_curvature_closed(p, u_, v_)
    squares = ((b * r - 1) * v_ - (r - 1) * u_) ** 2 + (b * r * u_) ** 2
    expanded = (u_ ** 2 * (r * (b ** 2 * r + r - 2) + 1) - 2 * (r - 1) * u_ * v_ * (b * r - 1)
                + v_ ** 2 * (b * r - 1) ** 2)
    assert sympy.expand(squares - expanded) == 0   # the paper's quadratic
    powers = d ** 2 * k ** 2 * u_ ** (2 * d) * agg ** (2 * b * d * r)
    a1, a2 = sorted(map(sympy.nsimplify, sympy.Add.make_args(seen["Den_F"][0])),
                    key=lambda a: a.has(v_), reverse=True)
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
    makes one of them positive, so Den_G > 0.  The inner sum raised to a
    power, k1*u^s + 2*k2*u^b1*v^b2 + k3*v^s, is positive for the same
    reason, and the proof runs on it as the library writes it."""
    c1, c2, d = sympy.symbols("c1 c2 delta", positive=True)
    weights = {name: sympy.Symbol(name, nonnegative=True) for name in ("k1", "k2", "k3")}
    weights[positive_weight] = sympy.Symbol(positive_weight, positive=True)
    p = SimpleNamespace(**weights, beta1=bsum_sign * c1, beta2=bsum_sign * c2, delta=d)
    seen = denominators(monkeypatch, check=False)
    curvature._kad_factors(p, u_, v_)
    terms = seen["Den_G"][1]
    assert len(terms) == 5
    assert all(term.is_nonnegative for term in terms)
    assert sympy.Add(*terms).is_positive


# --- Theorem 2: T2 vanishes identically iff perfect substitutes ---------------
#
# The library's own T2, run on sympy symbols, expands into monomials
# u^a * v^b with coefficients in the parameters.  Monomials with distinct
# exponent pairs are independent functions on the open quadrant, so T2 is
# identically 0 iff the coefficient of each distinct monomial is.  Its four
# exponent pairs are distinct unless beta1 = beta2 (beta1, beta2 and their
# sum are nonzero under the constraints), so the two cases are solved apart.

K1, K2, K3 = sympy.symbols("k1 k2 k3", nonnegative=True)
B1, B2 = sympy.symbols("beta1 beta2", real=True, nonzero=True)
S = B1 + B2
#: T2's coefficients, as the paper's factorization gives them, by the
#: exponents of (u, v).
T2_COEFFICIENTS = {(B2, B1): K1 * K3 * S ** 2 * (S - 1), (B1, B2): -4 * B1 * B2 * K2 ** 2,
                   (S, 0): 2 * B2 * K1 * K2 * S * (B2 - 1), (0, S): 2 * B1 * K2 * K3 * S * (B1 - 1)}
#: The two perfect-substitutes conditions, by the reason that names each,
#: as substitutions that cover them within the constraints: k3 > 0 on the
#: second, as k3 = 0 would give k2 = 0.
PERFECT_SUBSTITUTES = {DevelopabilityReason.K2_ZERO_UNIT_SUM: {K2: 0, B1: 1 - B2},
                       DevelopabilityReason.BETA_ONE_RANK_ONE: {B1: 1, B2: 1,
                                                                K1: K2 ** 2 / K3}}


def t2_coefficients(monkeypatch) -> dict:
    """The library's T2 as {(exponent of u, exponent of v): coefficient},
    its float constants read as the rationals they are."""
    denominators(monkeypatch, check=False)
    p = SimpleNamespace(k1=K1, k2=K2, k3=K3, beta1=B1, beta2=B2,
                        delta=sympy.Symbol("delta", positive=True))
    coefficients = {}
    for term in sympy.Add.make_args(sympy.expand(sympy.nsimplify(
            curvature._kad_factors(p, u_, v_)[1]))):
        c, monomial = term.as_independent(u_, v_, as_Add=False)
        powers = sympy.powsimp(monomial).as_powers_dict()
        key = (sympy.expand(powers.get(u_, 0)), sympy.expand(powers.get(v_, 0)))
        coefficients[key] = coefficients.get(key, 0) + c
    return coefficients


def _vanish(exprs, substitution) -> bool:
    return all(sympy.simplify(sympy.sympify(e).subs(substitution, simultaneous=True)) == 0
               for e in exprs)


def zero_sets(coefficients: dict) -> list[dict]:
    """The parameter sets, as substitutions, on which every coefficient
    vanishes and the constraints hold: beta1 + beta2 != 0, (k1, k2) !=
    (0, 0) and (k2, k3) != (0, 0)."""
    merged = {}  # beta1 = beta2
    for (a, b), c in coefficients.items():
        key = (a.subs(B2, B1), b.subs(B2, B1))
        merged[key] = merged.get(key, 0) + c.subs(B2, B1)
    sets = sympy.solve(list(coefficients.values()), [K1, K2, K3, B1, B2], dict=True)
    sets += [{B2: s.get(B1, B1), **s}
             for s in sympy.solve(list(merged.values()), [K1, K2, K3, B1], dict=True)]
    return [s for s in sets if not any(_vanish([e], s) for e in (S, K1 + K2, K2 + K3))]


def is_perfect_substitutes_iff(coefficients: dict) -> bool:
    """Whether T2 vanishes on each perfect-substitutes condition, and the
    sets on which its coefficients vanish each lie in one of them and,
    together, meet both (so a solver that finds no set proves nothing)."""
    t2 = sum(c * u_ ** a * v_ ** b for (a, b), c in coefficients.items())
    conditions = [[lhs - rhs for lhs, rhs in c.items()] for c in PERFECT_SUBSTITUTES.values()]
    sets = zero_sets(coefficients)
    return (all(_vanish([t2], c) for c in PERFECT_SUBSTITUTES.values())
            and all(any(_vanish(c, s) for c in conditions) for s in sets)
            and all(any(_vanish(c, s) for s in sets) for c in conditions))


def test_t2_vanishes_identically_iff_perfect_substitutes(monkeypatch):
    coefficients = t2_coefficients(monkeypatch)
    assert set(coefficients) == set(T2_COEFFICIENTS)
    assert _vanish([c - T2_COEFFICIENTS[key] for key, c in coefficients.items()], {})
    assert is_perfect_substitutes_iff(coefficients)


@pytest.mark.parametrize("reason,free", [
    (DevelopabilityReason.K2_ZERO_UNIT_SUM, {K1: 0.25, K3: 0.75, B2: 0.375}),
    (DevelopabilityReason.BETA_ONE_RANK_ONE, {K2: 0.25, K3: 0.25}),
])
def test_each_proved_condition_is_the_library_s(reason, free):
    """A draw on each proved condition, its weights summing to 1, is
    developable for the reason that names the condition."""
    values = {x: sympy.sympify(e).subs(free) for x, e in PERFECT_SUBSTITUTES[reason].items()}
    k1, k2, k3, b1, b2 = (float({**free, **values}[x]) for x in (K1, K2, K3, B1, B2))
    p = KadiyalaParams(k1, k2, k3, b1, b2, 2.0)
    assert curvature.kadiyala_is_developable(p) is reason


@pytest.mark.parametrize("slip", [
    lambda p, u, v: p.k1 * p.k2 * u ** (p.beta1 + p.beta2),
    lambda p, u, v: p.k1 * p.k3 * (p.beta1 + p.beta2) * u ** p.beta2 * v ** p.beta1,
], ids=["u^s", "u^beta2*v^beta1"])
def test_a_slip_in_one_t2_coefficient_fails_the_proof(monkeypatch, slip):
    factors = curvature._kad_factors

    def slipped(p, u, v):
        t1, t2, den = factors(p, u, v)
        return t1, t2 + slip(p, u, v), den
    monkeypatch.setattr(curvature, "_kad_factors", slipped)
    assert not is_perfect_substitutes_iff(t2_coefficients(monkeypatch))
