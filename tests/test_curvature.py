import hashlib
import inspect
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (EPS, LIMIT, RunningError, assert_close, denominators, grid_points,
                     param_columns, sample_grid, ves_denf, within_bound)
from prodgeo import curvature, harness, jets, models, surface
from prodgeo.curvature import DevelopabilityReason, ReturnsToScale
from prodgeo.errors import DomainError, NonFiniteError, ProdGeoError, SingularPointError
from prodgeo.surface import SignClass


#: The public closed forms and their private parts, as functions of (p, u, v).
FORMS = {
    "ves_curvature_closed": curvature.ves_curvature_closed,
    "ves_denf": ves_denf,
    "kadiyala_curvature_closed": curvature.kadiyala_curvature_closed,
    "kadiyala_T1": lambda p, u, v: curvature._kad_factors(p, u, v)[0],
    "kadiyala_T2": lambda p, u, v: curvature._kad_factors(p, u, v)[1],
    "kadiyala_deng": lambda p, u, v: curvature._kad_factors(p, u, v)[2],
}


def autodiff_K(params, u, v):
    if isinstance(params, models.VesParams):
        jet = models.ves_eval(params, *jets.seed(u, v))
    else:
        jet = models.kadiyala_eval(params, *jets.seed(u, v))
    return surface.curvatures(jet)[0]


class TestReturnsToScale:
    def test_regimes(self):
        assert curvature.returns_to_scale(1.0) is ReturnsToScale.CONSTANT
        assert curvature.returns_to_scale(0.5) is ReturnsToScale.DECREASING
        assert curvature.returns_to_scale(2.0) is ReturnsToScale.INCREASING

    @pytest.mark.parametrize("delta,regime,sign", [
        (1.0, ReturnsToScale.CONSTANT, SignClass.ZERO),
        (0.5, ReturnsToScale.DECREASING, SignClass.POSITIVE),
        (2.0, ReturnsToScale.INCREASING, SignClass.NEGATIVE),
    ])
    def test_theorem_verdict(self, delta, regime, sign):
        p = models.ves_validate(1, 0.5, 0.5, delta)
        assert curvature.ves_theorem_verdict(p) == (regime, sign)


class TestVesClosedForm:
    def test_zero_at_constant_returns(self):
        p = models.ves_validate(2, 0.3, 0.8, 1.0)
        for u, v in ((1, 1), (0.5, 3), (7, 2)):
            assert curvature.ves_curvature_closed(p, u, v) == 0.0

    def test_positive_under_decreasing_returns(self):
        rng = random.Random(31)
        for _ in range(50):
            p = harness.random_ves_params(rng.randrange(2**31), "decreasing")
            u, v = rng.uniform(0.2, 5), rng.uniform(0.2, 5)
            if not models.ves_domain_valid(p, u, v, strict=False):
                continue
            assert curvature.ves_curvature_closed(p, u, v) > 0.0

    def test_matches_autodiff(self):
        p = models.ves_validate(1, 0.5, 0.5, 2)
        k_ad = autodiff_K(p, 1.0, 2.0)
        assert_close(curvature.ves_curvature_closed(p, 1.0, 2.0), k_ad, 1e-8)

    def test_denf_does_not_cancel_below_zero(self):
        """Expanded, Den_F's quadratic cancels to -2.4e-22 here, at a valid
        point with a valid beta*rho near 0.  K is the 60-digit Monge K of
        tests/test_identities.py at this point; autodiff, whose det Hess
        cancels, is 4.5e-7 off it."""
        p = models.ves_validate(1, 1e-9, 0.5, 2.0)
        u, v = 0.10985411419875583, 0.05492705712684145
        assert ves_denf(p, u, v) > 0.0
        K = curvature.ves_curvature_closed(p, u, v)
        assert abs(K - -22480491652.035240869) <= 1e-13 * 22480491652.0

    def test_denf_positive(self):
        rng = random.Random(32)
        for _ in range(200):
            p = harness.random_ves_params(rng.randrange(2**31))
            u, v = rng.uniform(0.1, 10), rng.uniform(0.1, 10)
            if not models.ves_domain_valid(p, u, v, strict=False):
                continue
            assert ves_denf(p, u, v) > 0.0

    def test_denf_value_frozen(self):
        # direct evaluation of the expression at a hand-checkable point:
        # rho=2, delta=1, k=1, beta=0.5 at (1,1): quadratic term
        #   u^2*(rho*(beta^2*rho+rho-2)+1) = 1*(2*(0.5+2-2)+1) = 2
        #   -2*(rho-1)*u*v*(beta*rho-1) = 0 (beta*rho=1 is excluded; here
        #    beta=0.4 keeps it valid)
        p = models.ves_validate(1, 0.4, 2, 1)
        b, r = 0.4, 2.0
        agg = (r - 1) * 1 + 1  # = 2
        quad = (1 * (r * (b * b * r + r - 2) + 1)
                - 2 * (r - 1) * (b * r - 1) + (b * r - 1) ** 2)
        expected = quad * agg ** (2 * b * r) + agg ** 2 * 1 ** (2 * b * r + 2)
        assert_close(ves_denf(p, 1, 1), expected, 1e-14)

    def test_domain_errors(self):
        p = models.ves_validate(1, 0.5, 0.5, 2)
        with pytest.raises(DomainError):
            curvature.ves_curvature_closed(p, 1, 0.4)
        with pytest.raises(DomainError):
            ves_denf(p, -1, 1)


class TestKadiyalaFactors:
    def test_t1_zero_iff_constant_returns(self):
        p = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 1.0)
        for u, v in ((1, 1), (0.3, 4), (9, 0.2)):
            assert FORMS["kadiyala_T1"](p, u, v) == 0.0
        p2 = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2.0)
        assert FORMS["kadiyala_T1"](p2, 1, 1) > 0.0

    def test_t2_zero_on_perfect_substitutes(self):
        p1 = models.kadiyala_validate(0.3, 0.0, 0.7, 0.4, 0.6, 2)
        p2 = models.kadiyala_validate(0.25, 0.25, 0.25, 1.0, 1.0, 2)
        for u, v in ((1, 1), (0.3, 4), (9, 0.2)):
            assert_close(FORMS["kadiyala_T2"](p1, u, v), 0.0, 1e-12)
            assert_close(FORMS["kadiyala_T2"](p2, u, v), 0.0, 1e-12)

    def test_t2_nonzero_generic(self):
        p = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2)
        assert FORMS["kadiyala_T2"](p, 2.0, 3.0) != 0.0

    def test_deng_positive_with_nonnegative_terms(self, monkeypatch):
        rng = random.Random(34)
        seen = denominators(monkeypatch)
        for _ in range(200):
            p = harness.random_kadiyala_params(rng.randrange(2**31))
            u, v = rng.uniform(0.1, 10), rng.uniform(0.1, 10)
            total = FORMS["kadiyala_deng"](p, u, v)
            terms = seen["Den_G"][1]
            assert len(terms) == 5 and all(t >= 0.0 for t in terms)
            assert total > 0.0
            assert_close(total, sum(terms), 1e-12)

    def test_curvature_composition_matches_autodiff(self):
        rng = random.Random(35)
        for _ in range(25):
            p = harness.random_kadiyala_params(rng.randrange(2**31))
            u, v = rng.uniform(0.2, 5), rng.uniform(0.2, 5)
            k_ad = autodiff_K(p, u, v)
            assert_close(curvature.kadiyala_curvature_closed(p, u, v), k_ad,
                         1e-7, "K closed vs autodiff")

    def test_factor_consistency(self):
        # T1 recoverable as K * Den_G^2 / T2 at a generic point
        p = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2)
        u, v = 1.0, 1.0
        k = curvature.kadiyala_curvature_closed(p, u, v)
        t1, t2, den = curvature._kad_factors(p, u, v)
        assert_close(k * den / t2 * den, t1, 1e-9)

    def test_domain_errors(self):
        p = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2)
        for fn in (curvature._kad_factors, curvature.kadiyala_curvature_closed):
            with pytest.raises(DomainError):
                fn(p, 0.0, 1.0)


class TestDevelopability:
    def test_constant_returns(self):
        p = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 1.0)
        assert curvature.kadiyala_is_developable(p) is DevelopabilityReason.CONSTANT_RETURNS

    def test_k2_zero_unit_sum(self):
        p = models.kadiyala_validate(0.4, 0.0, 0.6, 0.3, 0.7, 2.0)
        assert curvature.kadiyala_is_developable(p) is DevelopabilityReason.K2_ZERO_UNIT_SUM

    def test_beta_one_rank_one(self):
        p = models.kadiyala_validate(0.25, 0.25, 0.25, 1.0, 1.0, 2.0)
        assert curvature.kadiyala_is_developable(p) is DevelopabilityReason.BETA_ONE_RANK_ONE

    def test_every_reason_but_one_is_developable(self):
        assert [r.developable for r in DevelopabilityReason] == [True, True, True, False]

    def test_near_miss_is_not_developable(self):
        # k2^2 = 0.04 != k1*k3 = 0.08, so condition 3 fails
        p = models.kadiyala_validate(0.2, 0.2, 0.4, 1.0, 1.0, 2.0)
        assert curvature.kadiyala_is_developable(p) is DevelopabilityReason.NOT_DEVELOPABLE
        # confirmed by actual curvature on the default grid
        max_k = max(abs(autodiff_K(p, u, v_))
                    for u, v_ in sample_grid(harness.DEFAULT_GRID))
        assert max_k > 1e-8

    def test_theorem_sign_property(self):
        rng = random.Random(36)
        for _ in range(60):
            p = harness.random_ves_params(rng.randrange(2**31))
            u, v = rng.uniform(0.2, 5), rng.uniform(0.2, 5)
            if not models.ves_domain_valid(p, u, v, strict=False):
                continue
            k = autodiff_K(p, u, v)
            _, predicted = curvature.ves_theorem_verdict(p)
            if predicted is SignClass.ZERO:
                assert abs(k) <= 1e-9 * (1.0 + abs(k))
            elif predicted is SignClass.POSITIVE:
                assert k > 0.0
            else:
                assert k < 0.0


# --- Closed forms on ndarray slots ---------------------------------------------

#: Every function of curvature written under its _closed_form decorator.
CLOSED_FORMS = {name: fn for name, fn in vars(curvature).items()
                if inspect.isfunction(fn) and hasattr(fn, "__wrapped__")}
# mostly tame coordinates, with the extremes that make closed forms fail
COORD = st.one_of(st.floats(0.05, 20.0), st.floats(1e-200, 1e200),
                  st.sampled_from([1e-300, 1e-150, 1e30, 1e100, 1e200, 5e-324, 0.0, -1.0]))


@settings(max_examples=300, deadline=None)
@given(form=st.sampled_from(sorted(CLOSED_FORMS)), seed=st.integers(0, 10**6),
       condition=st.sampled_from([None, *DevelopabilityReason]),
       points=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=6),
       columns=st.booleans())
def test_array_closed_forms_match_float_forms_within_rounding(form, seed, condition, points,
                                                              columns):
    """A closed form on ndarray slots gives, element by element, the form
    on floats within the rounding bound, with the same sign wherever the
    bound leaves no doubt.  At a point in the domain where the float form
    raises, the batch's value is not finite: a batch raises nothing, and a
    sweep finds the points that fail by replaying those values on the
    point path.  A batch's value that is not finite where the float form
    passes is replayed too, and must be one that the float form leaves
    not finite, or one over a denominator that overflows.  The parameters
    are floats, or columns of one value per point as the verify engine
    passes them."""
    fn = CLOSED_FORMS[form]
    family = harness.FAMILIES["ves" if form.startswith("ves") else "kadiyala"]
    denominator = FORMS["ves_denf" if form.startswith("ves") else "kadiyala_deng"]
    p = (harness.random_ves_params(seed) if form.startswith("ves")
         else harness.random_kadiyala_params(seed, condition))
    u, v = (np.array(axis) for axis in zip(*points))
    batch_p = param_columns([p], [len(u)]) if columns else p
    with np.errstate(all="ignore"):
        batch = fn(batch_p, u, v)
    assert type(batch) is np.ndarray
    for x, (u, v) in zip(batch.tolist(), points):
        try:
            out = fn(p, u, v)
        except (ProdGeoError, ArithmeticError):
            if u > 0.0 and v > 0.0 and family.domain_valid(p, u, v):
                assert not math.isfinite(x)
            continue
        if not math.isfinite(x):
            assert not math.isfinite(out) or denominator(p, u, v) == math.inf
            continue
        scale = fn(p, RunningError(u), RunningError(v)).err
        assert within_bound(x, out, scale)
        if abs(out) > LIMIT * EPS * scale:
            assert np.sign(x) == np.sign(out)


def test_every_public_form_over_points_is_a_closed_form():
    """A public function of curvature over (p, u, v) that lacks the
    decorator would take no batches and miss the batch test above."""
    over_points = {name for name, fn in vars(curvature).items()
                   if inspect.isfunction(fn) and not name.startswith("_")
                   and list(inspect.signature(fn).parameters) == ["p", "u", "v"]}
    assert over_points == set(CLOSED_FORMS) == {"ves_curvature_closed",
                                                "kadiyala_curvature_closed"}


VES_DECREASING = models.ves_validate(1.3, 0.5, 0.3, 0.7)
KAD_GENERIC = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2.0)


def _resummed(terms):
    """Den_G's summands and their sum, as _kad_factors adds them."""
    return sum(terms), terms


def _negated(index):
    """Den_G's summand ``index`` negated where u > 2."""
    return lambda den, terms, u, v: _resummed([t * (1.0 - 2.0 * (u > 2.0)) if i == index
                                               else t for i, t in enumerate(terms)])


def _zeroed(den, terms, u, v):
    """Every Den_G summand 0.0 where u > 2."""
    return _resummed([t * (1.0 - (u > 2.0)) for t in terms])


@pytest.mark.parametrize("form,params,corrupt,bad,message", [
    # Den_F underflows to 0.0 here, where K by autodiff is finite
    ("ves_denf", VES_DECREASING, None, 1e-100, r"Den_F = 0\.0 is not positive"),
    ("ves_curvature_closed", VES_DECREASING, None, 1e-100, r"Den_F = 0\.0 is not positive"),
    ("kadiyala_deng", KAD_GENERIC, _negated(4), 3.0, r"Den_G = [0-9.e+]+ has a negative summand"),
    ("kadiyala_deng", KAD_GENERIC, _zeroed, 3.0, r"Den_G = 0\.0 is not positive"),
    ("kadiyala_curvature_closed", KAD_GENERIC, _negated(0), 3.0,
     r"Den_G = [0-9.e+]+ has a negative summand"),
])
def test_denominators_name_the_first_failing_point(monkeypatch, form, params, corrupt,
                                                    bad, message):
    """Den_F and Den_G raise where they are computed, on a point, naming
    the point where the denominator is not positive or one of Den_G's
    summands is negative.  On a batch they raise nothing, and the value is
    NaN at each point that raises on its own."""
    if corrupt is not None:
        denominators(monkeypatch, corrupt)
    fn = FORMS[form]
    fn(params, 1.0, 2.0)  # a tame point passes
    with pytest.raises(SingularPointError, match=message + rf" at \({bad}, {bad}\)"):
        fn(params, bad, bad)
    points = [(1.0, 2.0), (bad, bad), (bad * 0.5, bad * 0.5)]
    batch = fn(params, *(np.array(axis) for axis in zip(*points)))
    assert math.isnan(batch[1])
    assert np.isfinite(batch).tolist() == [_passes(fn, params, *point) for point in points]


def _passes(fn, params, u, v) -> bool:
    try:
        fn(params, u, v)
    except ProdGeoError:
        return False
    return True


@pytest.mark.parametrize("form,params", [
    (curvature.ves_curvature_closed,
     models.ves_validate(0.9402327520733241, 0.9104308447003244, 0.9942392269310698,
                         1.2639989664077453)),
    (curvature.kadiyala_curvature_closed,
     models.kadiyala_validate(0.23015773818345153, 0.24958983938568174,
                              0.27066258304518503, 1.0, 1.0, 0.7962262783397341)),
])
def test_non_finite_K_names_the_function_and_point(form, params):
    """Every power is finite at (1e30, 1e30), but their product overflows,
    so K would be inf: a point raises, naming the form and the point, and a
    batch's K is not finite there."""
    message = rf"{form.__name__} overflows a float at \(1e\+30, 1e\+30\)"
    with pytest.raises(NonFiniteError, match=message):
        form(params, 1e30, 1e30)
    points = [(1.0, 1.0), (1e30, 1e30), (1e31, 1e31)]
    with np.errstate(all="ignore"):
        batch = form(params, *(np.array(axis) for axis in zip(*points)))
    assert np.isfinite(batch).tolist() == [_passes(form, params, *point) for point in points]
    assert np.isfinite(batch).tolist() == [True, False, False]


# --- The closed forms' bits ---------------------------------------------------

#: sha256 of the values of Kadiyala's closed form and of its factors T1, T2
#: and Den_G, recorded when each factor was a form of its own that took its
#: own powers: computing them once, in ``_kad_factors``, must change no bit.
KADIYALA_BITS = {
    "kadiyala_T1":
        "ea2c3a74a5e6ede69ae22d9e602f5722c9ea15ef4f35c2a9c80a95995b7b73c4",
    "kadiyala_T2":
        "05de9e0e3c137977e86f30581ec8aa6ac1eec0e590099828a36a36bbcaf76c36",
    "kadiyala_deng":
        "16ae57c0183e11b6111f23d949b35c15cfd49b6ced3da3677d01786fdf80822a",
    "kadiyala_curvature_closed":
        "fc24474aad6a8585376456985f474552ef8c50cd3012b4241602bc8c75214f14",
}
#: The same for VES's closed form and Den_F, as ``curvature._positive``
#: returns it, recorded when Den_F and its summands had functions of their
#: own: computing them in the closed form's body must change no bit.
VES_BITS = {
    "ves_curvature_closed":
        "6a88d35deefc3435c366b7fc05c4df5dc304032cf68153da1067ff4594a75850",
    "ves_denf":
        "7ba58d9ecf9dab5fbb3a87487e2d93ce39e5b3dafcb68abd2bd995ce7666a725",
}


def _bits(name: str, layout: str) -> str:
    """sha256 of ``FORMS[name]`` over a batch of six trials on a 9x9 grid,
    and at a float point in the domain of each of five.  The batch is
    stacked point by point with 1-d parameter columns, or laid out as
    (trial, u, v) as the verify engine lays it out; its values in C order
    are the same points either way.  A VES cell off the domain is NaN, and
    hashed as one NaN whatever its sign bit."""
    fn = FORMS[name]
    if name.startswith("ves"):
        records = [harness.random_ves_params(seed, stratum)
                   for seed, stratum in enumerate(harness.DELTA_STRATA * 2)]
        points = [(0.3, 4.0), (1.0, 1.0), (2.0, 3.0), (1e-3, 50.0), (5.0, 5.0)]
    else:
        records = [harness.random_kadiyala_params(seed, condition)
                   for seed, condition in enumerate([None, *DevelopabilityReason, None])]
        points = [(0.3, 4.0), (1.0, 1.0), (7.5, 0.2), (2.0, 3.0), (1e-3, 50.0)]
    spec = harness.parse_grid_spec("0.05,30,9,0.05,30,9,log")
    with np.errstate(all="ignore"):
        if layout == "stacked":
            us, vs = grid_points(spec)
            batch = fn(param_columns(records, [len(us)] * len(records)),
                       np.tile(us, len(records)), np.tile(vs, len(records)))
        else:
            us, vs = harness._grid_axes(spec)
            batch = fn(harness._trial_columns(records), us[None, :, None], vs[None, None, :])
    digest = hashlib.sha256(np.where(np.isnan(batch), math.nan, batch).tobytes())
    for record, (u, v) in zip(records, points):
        digest.update(repr(fn(record, u, v)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(KADIYALA_BITS))
def test_kadiyala_closed_forms_keep_their_bits(name):
    assert _bits(name, "stacked") == KADIYALA_BITS[name]


@pytest.mark.parametrize("name", sorted(KADIYALA_BITS))
def test_verify_layout_keeps_the_closed_forms_bits(name):
    """Parameters and one-axis powers broadcast: the same bits as stacked."""
    assert _bits(name, "trial-u-v") == KADIYALA_BITS[name]


@pytest.mark.parametrize("layout", ["stacked", "trial-u-v"])
@pytest.mark.parametrize("name", sorted(VES_BITS))
def test_ves_closed_form_keeps_its_bits(name, layout):
    assert _bits(name, layout) == VES_BITS[name]
