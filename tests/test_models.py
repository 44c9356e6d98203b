import json
import math
import random
import re
import warnings

import numpy as np
import pytest

from helpers import (assert_close, elasticity_oracle, kadiyala_normalized, kadiyala_value,
                     ves_elasticity, ves_value)
from prodgeo import jets, models, surface
from prodgeo.errors import (ConstraintViolation, DomainError, NonFiniteError,
                            NonPositiveInputError, SingularPointError)
from prodgeo.models import Family


class TestVesValidation:
    def test_accepts_valid(self):
        p = models.ves_validate(1, 0.5, 0.5, 1)
        assert (p.k, p.beta, p.rho, p.delta) == (1, 0.5, 0.5, 1)

    def test_rejects_beta_out_of_range(self):
        with pytest.raises(ConstraintViolation) as exc:
            models.ves_validate(1, 1.2, 0.5, 1)
        assert exc.value.clause == "0<beta<1"

    def test_rejects_beta_rho_product(self):
        with pytest.raises(ConstraintViolation) as exc:
            models.ves_validate(1, 0.5, 3, 1)  # beta*rho = 1.5
        assert exc.value.clause == "0<beta*rho<1"

    def test_rejects_nonpositive_k_and_delta(self):
        with pytest.raises(ConstraintViolation):
            models.ves_validate(0, 0.5, 0.5, 1)
        with pytest.raises(ConstraintViolation):
            models.ves_validate(1, 0.5, 0.5, -1)


NON_FINITE = [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["k", "beta", "rho", "delta"])
def test_ves_rejects_non_finite_field(field, value):
    raw = {"k": 2.0, "beta": 0.4, "rho": 1.3, "delta": 1.5, field: value}
    with pytest.raises(ConstraintViolation) as exc:
        models.ves_validate(**raw)
    assert exc.value.clause == f"{field} finite"
    assert f"parameter {field} must be finite" in str(exc.value)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["k1", "k2", "k3", "beta1", "beta2", "delta"])
def test_kadiyala_rejects_non_finite_field(field, value):
    raw = {"k1": 0.3, "k2": 0.2, "k3": 0.3, "beta1": 1.5, "beta2": 0.8, "delta": 2.0,
           field: value}
    with pytest.raises(ConstraintViolation) as exc:
        models.kadiyala_validate(**raw)
    assert exc.value.clause == f"{field} finite"


class TestKadiyalaValidation:
    def test_accepts_valid(self):
        models.kadiyala_validate(0.25, 0.25, 0.25, 0.5, 0.5, 1)

    def test_rejects_degenerate_weights(self):
        with pytest.raises(ConstraintViolation) as exc:
            models.kadiyala_validate(0, 0, 1, 0.5, 0.5, 1)
        assert exc.value.clause == "(k1,k2)!=(0,0)"

    def test_rejects_mismatched_exponent_signs(self):
        with pytest.raises(ConstraintViolation) as exc:
            models.kadiyala_validate(0.25, 0.25, 0.25, 1, -2, 1)
        assert exc.value.clause == "beta1*(beta1+beta2)>0"

    def test_normalization_checked_not_rescaled(self):
        with pytest.raises(ConstraintViolation) as exc:
            models.kadiyala_validate(0.5, 0.25, 0.25, 0.5, 0.5, 1)
        assert exc.value.clause == "k1+2*k2+k3=1"

    def test_explicit_normalizing_constructor(self):
        p = kadiyala_normalized(2, 1, 1, 0.5, 0.5, 1)
        assert_close(p.k1 + 2 * p.k2 + p.k3, 1.0, 1e-15)
        assert_close(p.k1 / p.k3, 2.0, 1e-12)

    def test_records_are_immutable(self):
        p = models.kadiyala_validate(0.25, 0.25, 0.25, 0.5, 0.5, 1)
        with pytest.raises(Exception):
            p.k1 = 0.5


class TestJsonRoundTrip:
    def test_ves_round_trip(self):
        p = models.ves_validate(2, 0.4, 1.3, 0.7)
        assert models.ves_params_from_json(models.params_to_json(p)) == p

    def test_kadiyala_round_trip(self):
        p = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2)
        assert models.kadiyala_params_from_json(models.params_to_json(p)) == p

    def test_unknown_keys_rejected(self):
        text = json.dumps({"k": 1, "beta": 0.5, "rho": 0.5, "delta": 1,
                           "gamma": 3})
        with pytest.raises(ConstraintViolation, match="gamma"):
            models.ves_params_from_json(text)

    def test_missing_keys_rejected(self):
        with pytest.raises(ConstraintViolation, match="delta"):
            models.ves_params_from_json(json.dumps({"k": 1, "beta": 0.5,
                                                    "rho": 0.5}))


class TestVesDomain:
    def test_redundant_when_rho_above_one(self):
        p = models.ves_validate(1, 0.3, 2, 1)
        assert models.ves_domain_valid(p, 1, 1, strict=False)

    def test_nonstrict_boundary_arithmetic(self):
        p = models.ves_validate(1, 0.5, 0.5, 1)
        # (rho-1)*u + v = -0.5 + 0.4 < 0
        assert not models.ves_domain_valid(p, 1, 0.4, strict=False)

    def test_strict_is_stricter(self):
        p = models.ves_validate(1, 0.5, 0.5, 1)
        # non-strict needs v > 0.5; strict needs v/u > 0.5/0.75 = 2/3
        assert models.ves_domain_valid(p, 1, 0.6, strict=False)
        assert not models.ves_domain_valid(p, 1, 0.6, strict=True)
        assert models.ves_domain_valid(p, 1, 0.7)  # strict by default

    def test_rejects_nonpositive_inputs(self):
        p = models.ves_validate(1, 0.5, 0.5, 1)
        with pytest.raises(NonPositiveInputError):
            models.ves_domain_valid(p, -1, 1)


class TestVesEval:
    def test_reduces_to_unity_at_ones(self):
        p = models.ves_validate(1, 0.5, 1, 1)
        assert ves_value(p, 1, 1) == 1.0

    def test_homogeneity(self):
        rng = random.Random(21)
        from prodgeo import harness
        for i in range(50):
            p = harness.random_ves_params(rng.randrange(2**31))
            u, v = rng.uniform(0.5, 3), rng.uniform(0.5, 3)
            if not models.ves_domain_valid(p, u, v, strict=False):
                continue
            base = ves_value(p, u, v)
            for lam in (0.5, 2.0, 10.0):
                assert_close(ves_value(p, lam * u, lam * v),
                             lam ** p.delta * base, 1e-10, "Q homogeneity")

    def test_rho_one_is_cobb_douglas(self):
        p = models.ves_validate(3, 0.4, 1, 1.7)
        rng = random.Random(22)
        for _ in range(50):
            u, v = rng.uniform(0.1, 10), rng.uniform(0.1, 10)
            expected = 3 * u ** (1.7 * 0.6) * v ** (0.4 * 1.7)
            assert_close(ves_value(p, u, v), expected, 1e-12)

    def test_jet_matches_finite_differences(self):
        # frozen from the finite-difference oracle at (1, 2)
        p = models.ves_validate(2, 0.5, 0.5, 1.5)
        jet = models.ves_eval(p, *jets.seed(1.0, 2.0))
        assert_close(jet.val, 2.3284355309217966, 1e-12)
        assert_close(jet.d1, 2.32843553, 1e-6)
        assert_close(jet.d2, 0.58210888, 1e-6)
        assert_close(jet.d11, -0.38806736, 1e-4)
        assert_close(jet.d12, 0.77614415, 1e-4)
        assert_close(jet.d22, -0.24254487, 1e-4)

    def test_domain_error_outside_region(self):
        p = models.ves_validate(1, 0.5, 0.5, 1)
        with pytest.raises(DomainError):
            ves_value(p, 1, 0.4)

    def test_marginal_products_nonnegative(self):
        from prodgeo import harness
        for s in range(100):
            p = harness.random_ves_params(s)
            u, v = 1.3, 2.1
            # monotonicity is guaranteed on the strict (Revankar) region
            if not models.ves_domain_valid(p, u, v, strict=True):
                continue
            jet = models.ves_eval(p, *jets.seed(u, v))
            assert jet.d1 >= 0 and jet.d2 >= 0


class TestKadiyalaEval:
    def test_unity_at_ones(self):
        p = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2)
        assert_close(kadiyala_value(p, 1, 1), 1.0, 1e-14)

    def test_homogeneity(self):
        from prodgeo import harness
        rng = random.Random(23)
        for _ in range(50):
            p = harness.random_kadiyala_params(rng.randrange(2**31))
            u, v = rng.uniform(0.3, 3), rng.uniform(0.3, 3)
            base = kadiyala_value(p, u, v)
            for lam in (0.5, 2.0, 10.0):
                assert_close(kadiyala_value(p, lam * u, lam * v),
                             lam ** p.delta * base, 1e-10, "P homogeneity")

    def test_jet_matches_finite_differences(self):
        # frozen from the finite-difference oracle at (4, 1)
        p = models.kadiyala_validate(0.25, 0.25, 0.25, 0.5, 0.5, 2)
        jet = models.kadiyala_eval(p, *jets.seed(4.0, 1.0))
        assert_close(jet.val, 5.0625, 1e-12)
        assert_close(jet.d1, 1.6875, 1e-6)
        assert_close(jet.d2, 3.375, 1e-6)
        assert_close(jet.d11, 0.21093793, 1e-4)
        assert_close(jet.d12, 0.84375062, 1e-4)
        assert_close(jet.d22, 0.0, 1e-4)

    def test_perfect_substitutes_reductions(self):
        rng = random.Random(24)
        p1 = models.kadiyala_validate(0.3, 0.0, 0.7, 0.4, 0.6, 1.8)
        k1, k3 = 0.2, 0.3
        k2 = math.sqrt(k1 * k3)
        s = k1 + 2 * k2 + k3
        p2 = kadiyala_normalized(k1, k2, k3, 1.0, 1.0, 1.8)
        for _ in range(100):
            u, v = rng.uniform(0.1, 10), rng.uniform(0.1, 10)
            assert_close(kadiyala_value(p1, u, v),
                         (0.3 * u + 0.7 * v) ** 1.8, 1e-12, "P1 reduction")
            assert_close(kadiyala_value(p2, u, v),
                         (math.sqrt(p2.k1) * u + math.sqrt(p2.k3) * v) ** 1.8,
                         1e-12, "P2 reduction")

    def test_marginal_products_nonnegative(self):
        from prodgeo import harness
        for s in range(100):
            p = harness.random_kadiyala_params(s)
            jet = models.kadiyala_eval(p, *jets.seed(1.7, 0.6))
            assert jet.d1 >= 0 and jet.d2 >= 0

    def test_rejects_nonpositive_inputs(self):
        p = models.kadiyala_validate(0.25, 0.25, 0.25, 0.5, 0.5, 2)
        with pytest.raises(DomainError):
            kadiyala_value(p, 0, 1)


#: Batches whose second point overflows in a product of finite slots, where
#: numpy warns unless told not to.
BATCH_OVERFLOWS = [
    pytest.param(models.ves_eval, models.ves_validate(1.0, 0.5, 0.5, 3.0),
                 (1.0, 1e120), (1.0, 1e121), id="ves"),
    pytest.param(models.kadiyala_eval,
                 models.kadiyala_validate(0.25, 0.25, 0.25, 0.5, 0.5, 1.5),
                 (1.0, 1e-150), (1.0, 1e200), id="kadiyala"),
    # the overflow is in the term that k2 = 0 weighs: 0 * inf must stay NaN
    pytest.param(models.kadiyala_eval,
                 models.kadiyala_validate(0.5, 0.0, 0.5, 0.5, 0.5, 1.5),
                 (1.0, 1e-150), (1.0, 1e200), id="kadiyala-k2-zero"),
]


@pytest.mark.parametrize("evaluate,p,u,v", BATCH_OVERFLOWS)
def test_batch_overflow_raises_only_the_point_error(evaluate, p, u, v):
    """An evaluator on array slots raises the NonFiniteError its failing point
    raises on its own, with no numpy warning beside it."""
    with pytest.raises(NonFiniteError) as alone:
        evaluate(p, *jets.seed(u[1], v[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError) as batch:
            evaluate(p, *jets.seed(np.array(u), np.array(v)))
    assert str(batch.value) == str(alone.value)


@pytest.mark.parametrize("evaluate,p", [
    (models.ves_eval, models.ves_validate(1.3, 0.5, 0.3, 0.7)),
    (models.kadiyala_eval, models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2.0)),
])
def test_batch_keeps_the_seeds_structural_slots_floats(monkeypatch, evaluate, p):
    """On a batch, the first power of u keeps the 0.0 slots it gets from
    the seed as floats, one value for every point, which no op spends an
    array pass on."""
    powers = []
    powr = jets.powr

    def recording_powr(a, q):
        powers.append(powr(a, q))
        return powers[-1]
    monkeypatch.setattr(jets, "powr", recording_powr)
    evaluate(p, *jets.seed(np.array([0.5, 2.0]), np.array([1.5, 3.0])))
    first = powers[0]
    assert [type(slot) is float for slot in first] == [False, False, True, False, True, True]
    assert first.d2 == first.d12 == first.d22 == 0.0



def test_batch_K_that_underflows_keeps_the_point_paths_sign():
    """Where the Hessian underflows, K is a zero, -0.0 here on the point
    path; the batch's is the same: its sums still add a 0.0 slot to an
    array, as the point path adds the 0.0 products it stands for."""
    p = models.ves_validate(5.463212725275709, 0.05417622805297948, 2.8692463503120225,
                            0.6749011259637108)
    u, v = np.array([1e200, 1e200]), np.array([1.0, 2.0])
    with np.errstate(all="ignore"):
        batch = surface.curvature_from_jet(models.ves_eval(p, *jets.seed(u, v)))[0]
    for i in range(len(u)):
        point = surface.curvature_from_jet(models.ves_eval(p, *jets.seed(u[i], v[i])))[0]
        assert (point, math.copysign(1.0, point)) == (0.0, -1.0)
        assert math.copysign(1.0, batch[i]) == -1.0 and batch[i] == 0.0

class TestElasticity:
    def test_rho_one_gives_unit_sigma(self):
        p = models.ves_validate(1, 0.3, 1, 2)
        for u, v in ((1, 1), (0.2, 7), (5, 0.1)):
            assert ves_elasticity(p, u, v) == 1.0

    def test_printed_value(self):
        p = models.ves_validate(1, 0.5, 0.5, 1)
        assert_close(ves_elasticity(p, 2, 2), 1.0 / 3.0, 1e-14)

    def test_depends_only_on_ratio(self):
        p = models.ves_validate(1, 0.4, 0.6, 1.5)
        assert ves_elasticity(p, 2, 6) == ves_elasticity(p, 1, 3)

    def test_oracle_on_cobb_douglas(self):
        u, v = jets.seed(1.4, 2.3)
        jet = jets.mul(jets.powr(u, 0.3), jets.powr(v, 0.7))
        assert_close(elasticity_oracle(jet, 1.4, 2.3), 1.0, 1e-10)

    def test_oracle_singular_on_perfect_substitutes(self):
        u, v = jets.seed(1.0, 2.0)
        linear = jets.add(jets.scale(u, 2.0), jets.scale(v, 3.0))
        with pytest.raises(SingularPointError):
            elasticity_oracle(linear, 1.0, 2.0)

    def test_closed_form_matches_oracle_on_ves(self):
        p = models.ves_validate(1, 0.5, 0.5, 1)
        jet = models.ves_eval(p, *jets.seed(1.0, 3.0))
        assert_close(elasticity_oracle(jet, 1.0, 3.0),
                     ves_elasticity(p, 1.0, 3.0), 1e-8)


class TestSpecialize:
    def test_perfect_substitutes_p1(self):
        p = models.kadiyala_validate(0.3, 0.0, 0.7, 0.4, 0.6, 2)
        tag = models.kadiyala_specialize(p)
        assert tag.tag is Family.PERFECT_SUBSTITUTES
        assert "0.3*u + 0.7*v" in tag.detail

    def test_perfect_substitutes_p2(self):
        p = models.kadiyala_validate(0.25, 0.25, 0.25, 1.0, 1.0, 2)
        tag = models.kadiyala_specialize(p)
        assert tag.tag is Family.PERFECT_SUBSTITUTES
        assert "0.5*u + 0.5*v" in tag.detail

    def test_ces_type(self):
        p = models.kadiyala_validate(0.4, 0.0, 0.6, 0.3, 0.4, 2)
        assert models.kadiyala_specialize(p).tag is Family.CES_TYPE

    def test_k2_zero_super_unit_sum_stays_general(self):
        p = models.kadiyala_validate(0.4, 0.0, 0.6, 1.3, 0.4, 2)
        tag = models.kadiyala_specialize(p)
        assert tag.tag is Family.GENERAL_KADIYALA
        assert "k2=0" in tag.detail

    def test_lu_fletcher(self):
        p = kadiyala_normalized(0.4, 0.3, 0.0, 0.8, 0.7, 2)
        assert models.kadiyala_specialize(p).tag is Family.LU_FLETCHER_TYPE

    def test_ves_type_structural(self):
        p = kadiyala_normalized(0.4, 0.3, 0.0, 0.8, 1.0, 2)
        tag = models.kadiyala_specialize(p)
        assert tag.tag is Family.VES_TYPE

    def test_cobb_douglas(self):
        """k1 = k3 = 0 is Cobb-Douglas for every delta, beta2 = 1 included:
        P = u^(beta1*delta/s) * v^(beta2*delta/s), as the detail writes."""
        for beta1, beta2, delta in ((0.8, 0.7, 1), (0.3, 0.7, 1.8), (0.3, 1.0, 1.8),
                                    (-0.5, -1.0, 0.4)):
            p = models.kadiyala_validate(0.0, 0.5, 0.0, beta1, beta2, delta)
            tag = models.kadiyala_specialize(p)
            assert tag.tag is Family.COBB_DOUGLAS_TYPE
            a, b = map(float, re.fullmatch(r"P\(u,v\) = u\^(.+)\*v\^(.+)", tag.detail).groups())
            for u, v in ((0.5, 2.0), (1.3, 0.7), (3.0, 4.0)):
                assert_close(kadiyala_value(p, u, v), u ** a * v ** b, 1e-12, tag.detail)

    def test_generic(self):
        p = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2)
        assert models.kadiyala_specialize(p).tag is Family.GENERAL_KADIYALA
