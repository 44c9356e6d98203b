import ast
import hashlib
import inspect
import json
import math
import random
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (assert_close, elasticity_oracle, kadiyala_normalized, kadiyala_value,
                     ves_elasticity, ves_value)
from prodgeo import harness, jets, models, surface
from prodgeo.curvature import DevelopabilityReason
from prodgeo.errors import (ConstraintViolation, DomainError, NonFiniteError,
                            NonPositiveInputError, ProdGeoError, SingularPointError)
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
        assert models.params_from_json(models.VesParams, models.params_to_json(p)) == p

    def test_kadiyala_round_trip(self):
        p = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2)
        assert models.params_from_json(models.KadiyalaParams, models.params_to_json(p)) == p

    def test_unknown_keys_rejected(self):
        text = json.dumps({"k": 1, "beta": 0.5, "rho": 0.5, "delta": 1,
                           "gamma": 3})
        with pytest.raises(ConstraintViolation, match="gamma"):
            models.params_from_json(models.VesParams, text)

    @pytest.mark.parametrize("cls,text,key", [
        (models.VesParams, '{"k": 1, "beta": 0.5, "rho": 0.5, "delta": 2, "k": 3}', "k"),
        (models.VesParams, '{"k": 1, "beta": 0.5, "beta": 0.5, "rho": 0.5, "delta": 2}', "beta"),
        (models.KadiyalaParams, '{"k1": 0.3, "k2": 0.2, "k3": 0.3, "beta1": 1.5, '
                                '"beta2": 0.8, "delta": 2, "delta": 2}', "delta"),
    ])
    def test_repeated_keys_rejected(self, cls, text, key):
        """A key given twice is an error that names it, with the same value too."""
        with pytest.raises(ConstraintViolation, match=f'key "{key}" is given twice'):
            models.params_from_json(cls, text)

    def test_missing_keys_rejected(self):
        with pytest.raises(ConstraintViolation, match="delta"):
            models.params_from_json(models.VesParams,
                                    json.dumps({"k": 1, "beta": 0.5, "rho": 0.5}))


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
    """An evaluator carries an overflow in a product of finite slots on, on
    array slots and on a point: its jet is not finite at the point whose
    curvatures raise NonFiniteError on their own, and only there.  A sweep of the two points
    replays that one on the point path and raises its error, naming the
    point."""
    with pytest.raises(NonFiniteError) as alone:
        surface.curvatures(evaluate(p, *jets.seed(u[1], v[1])))

    def jet_values(p, u, v):
        jet = evaluate(p, *jets.seed(u, v))
        surface.curvatures(jet)
        return jet, (jet.val,)
    with np.errstate(all="ignore"):
        jet = evaluate(p, *jets.seed(np.array(u), np.array(v)))
        assert np.isfinite(np.broadcast_arrays(*jet)).all(axis=0).tolist() == [True, False]
        with pytest.raises(NonFiniteError) as swept:  # the cells (u[0], v[0]) and (u[1], v[1])
            harness._sweep(lambda p, u, v: np.eye(2, dtype=bool), jet_values, [p],
                           np.array(u), np.array(v))
    assert str(swept.value) == str(harness.name_point(alone.value, u[1], v[1]))


@pytest.mark.parametrize("evaluate,p", [
    (models.ves_eval, models.ves_validate(1.3, 0.5, 0.3, 0.7)),
    (models.kadiyala_eval, models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2.0)),
])
def test_batch_keeps_the_seeds_structural_slots_floats(evaluate, p):
    """On a batch, the seeds' 0.0 and 1.0 slots are constants of the code
    recorded for it, which spends no array pass on them: it reads u's and
    v's value slots alone, no product in it takes a 0.0 or 1.0 factor, it
    calls ``_power`` once for each power the body takes, and it frees each
    local after the line that last reads it, but the six it returns."""
    body = {models.ves_eval: models._ves_jet, models.kadiyala_eval: models._kad_jet}[evaluate]
    u, v = jets.seed(np.array([0.5, 2.0]), np.array([1.5, 3.0]))
    code = jets._batch_code(body, u, v)
    assert np.array_equal(np.broadcast_arrays(*code(p, u, v)),
                          np.broadcast_arrays(*evaluate(p, u, v)))
    source = code.source
    tree = ast.parse(source)
    statements = tree.body[0].body
    assert [ast.unparse(s) for s in statements[:2]] == ["u0, _, _, _, _, _ = u",
                                                        "v0, _, _, _, _, _ = v"]
    products = [node for node in ast.walk(tree)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)]
    assert products
    assert not [ast.unparse(node) for node in products
                if any(isinstance(x, ast.Constant) and x.value in (0.0, 1.0)
                       for x in (node.left, node.right))]
    assert source.count("_power(") == inspect.getsource(body).count("jets.powr(")

    def names(statement, ctx) -> set[str]:
        return {n.id for n in ast.walk(statement) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ctx)}
    returned = names(statements[-1], ast.Load)
    for i, statement in enumerate(statements):
        for name in names(statement, ast.Store) - returned - {"_"}:
            last = max(j for j, s in enumerate(statements)
                       if j == i or name in names(s, ast.Load))
            assert name in names(statements[last + 1], ast.Del), (name, last)


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


#: sha256 of ``point_jet_outcome`` over ``point_jet_inputs``, for each family:
#: every bit of a point's six slots, or the type and text of the error it raises.
POINT_JET_BITS = {
    "ves": "a6cf1c5c4d5334542668070497d622c7cd5ee2050c8905626a80cbc60b816911",
    "kadiyala": "b0ede2f732b562c546fc439ad21fe2d4f3965a8b106095536aec2767629fae7b",
}
SPECIAL_POINTS = [(0.0, 1.0), (1.0, -2.0), (math.inf, 1.0), (1.0, math.nan), (5e-324, 1.0),
                  (1e300, 1e-300), (1e-300, 1e300), (1.0, 1.0)]


def param_draws(family: str) -> list:
    """Seeded parameter draws of a family: each returns-to-scale stratum or
    developability reason, and generic ones."""
    if family == "ves":
        return [harness.random_ves_params(s, stratum)
                for s, stratum in enumerate(harness.DELTA_STRATA * 2)]
    return [harness.random_kadiyala_params(s, condition)
            for s, condition in enumerate([None, *DevelopabilityReason, None])]


def point_jet_inputs(family: str, seed: int = 0, count: int = 300):
    """(params, u, v) over seeded parameter draws, u and v a point's seeded
    jets, its constant jets, or jets of six arbitrary slots: at points with
    u and v log-uniform in [1e-300, 1e300] or in [1e-3, 1e3], and at
    SPECIAL_POINTS."""
    rng = random.Random(seed)
    draws = param_draws(family)
    points = [(10.0 ** rng.uniform(-e, e), 10.0 ** rng.uniform(-e, e))
              for e in (300.0, 3.0) for _ in range(count // 2)]
    for i, (u, v) in enumerate(points + SPECIAL_POINTS):
        p = draws[i % len(draws)]
        yield p, *jets.seed(u, v)
        yield p, jets.constant(u), jets.constant(v)
        yield p, *(jets.Jet2(x, *(rng.uniform(-2.0, 2.0) for _ in range(5))) for x in (u, v))


def point_jet_outcome(evaluate, p, u, v) -> str:
    """The bits of the six slots of ``evaluate(p, u, v)``, or the type and
    text of the error it raises."""
    try:
        return struct.pack("6d", *evaluate(p, u, v)).hex()
    except (ProdGeoError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("family", sorted(POINT_JET_BITS))
def test_point_jets_keep_their_bits(family):
    evaluate = {"ves": models.ves_eval, "kadiyala": models.kadiyala_eval}[family]
    outcomes = [point_jet_outcome(evaluate, *args) for args in point_jet_inputs(family)]
    errors = {text.split(":")[0] for text in outcomes if ":" in text}
    assert {"NonPositiveInputError", "DomainError", "NonFiniteError"} <= errors
    assert sum(":" not in text for text in outcomes) > len(outcomes) / 3
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == POINT_JET_BITS[family]


#: sha256 of ``batch_jet_outcome`` over ``batch_jet_inputs``, for each family:
#: every bit of a batch's six slots at each cell where they are finite, and
#: which cells they are not.
BATCH_JET_BITS = {
    "ves": "006556b36023329f2c2007db1c72334e92b29606f7e6cad368891ffed1a58331",
    "kadiyala": "e6c814761556ec78a0e1b6b3a3e91202d4348780873b043e615d1ceed0c7bf5b",
}


def batch_jet_inputs(family: str, seed: int = 0):
    """(params, u, v) over the batch layouts: a grid's (1, n_u, 1) and
    (1, 1, n_v) axes under one record's ``_trial_columns``, a verify
    batch's under every draw's (trial, 1, 1) columns, and 1-d arrays
    under a record of float fields; u and v seeded or constant jets, at
    inputs log-uniform in [1e-300, 1e300] or in [1e-3, 1e3] and at
    SPECIAL_POINTS, so that some cells come out inf or NaN."""
    rng = np.random.default_rng(seed)
    draws = param_draws(family)
    special_u, special_v = np.array(SPECIAL_POINTS).T
    for e in (300.0, 3.0):
        us, vs = (np.concatenate([10.0 ** rng.uniform(-e, e, 12), special])
                  for special in (special_u, special_v))
        axes = us[None, :, None], vs[None, None, :]
        for p, u, v in [*((harness._trial_columns([d]), *axes) for d in draws[:2]),
                        (harness._trial_columns(draws), *axes),
                        *((d, us, vs) for d in draws)]:
            yield p, *jets.seed(u, v)
            yield p, jets.constant(u), jets.constant(v)


def batch_jet_outcome(evaluate, p, u, v) -> bytes:
    """The bits of the six slots of ``evaluate(p, u, v)`` on a batch, each
    spread over the batch's shape, at each cell where all six are finite,
    and NaN in all six at each other: a batch's jet is specified there
    only as not finite, and ``harness._sweep`` replays such a cell on the
    point path."""
    with np.errstate(all="ignore"):
        jet = evaluate(p, u, v)
    slots = np.array(np.broadcast_arrays(*jet, u.val, v.val)[:6], float)
    return np.where(np.isfinite(slots).all(axis=0), slots, math.nan).tobytes()


@pytest.mark.parametrize("family", sorted(BATCH_JET_BITS))
def test_batch_jets_keep_their_bits(family):
    evaluate = {"ves": models.ves_eval, "kadiyala": models.kadiyala_eval}[family]
    outcomes = [batch_jet_outcome(evaluate, *args) for args in batch_jet_inputs(family)]
    finite = np.concatenate([np.isfinite(np.frombuffer(bits).reshape(6, -1)).all(axis=0)
                             for bits in outcomes])
    assert not finite.all() and finite.sum() > len(finite) / 3
    digest = hashlib.sha256(b"".join(outcomes)).hexdigest()
    assert digest == BATCH_JET_BITS[family]


BODIES = {"ves": (models._ves_jet, harness.random_ves_params),
          "kadiyala": (models._kad_jet, harness.random_kadiyala_params)}
EVALUATORS = {"ves": models.ves_eval, "kadiyala": models.kadiyala_eval}
slot_values = st.floats() | st.floats(1e-300, 1e300)


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(sorted(BODIES)), params=st.integers(0, 10**6),
       kind=st.sampled_from(["seed", "constant", "slots"]), u=slot_values, v=slot_values,
       slots=st.lists(slot_values, min_size=10, max_size=10))
# folded, d2 and d12 come out -0.0, where the ops give 0.0
@example(family="kadiyala", params=models.kadiyala_validate(0.3, 0.0, 0.7, -0.4, -0.8, 2.0),
         kind="seed", u=1.0, v=1.7e308, slots=[0.0] * 10)
# u ** 2.3 overflows in the recorded code, and the ops name that power
@example(family="kadiyala", params=models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2.0),
         kind="seed", u=1e200, v=1.0, slots=[0.0] * 10)
def test_point_code_is_the_body_on_points(family, params, kind, u, v, slots):
    """A family's evaluator on a point gives the bits, or the error type
    and text, of its body run on the jets ops, with no domain check before
    either: at any point, with seeded, constant or arbitrary input jets.
    Seeded jets whose six slots come out finite and nonzero run the
    recorded code alone; constant and arbitrary ones run the ops."""
    body, draw = BODIES[family]
    p = draw(params) if isinstance(params, int) else params
    if kind == "seed":
        u, v = jets.seed(u, v)
    elif kind == "constant":
        u, v = jets.constant(u), jets.constant(v)
    else:
        u, v = jets.Jet2(u, *slots[:5]), jets.Jet2(v, *slots[5:])
    with (mock.patch.object(models, "_ves_aggregate"), mock.patch.object(models, "_check_positive"),
          mock.patch.object(jets, "powr", wraps=jets.powr) as powr):
        got = point_jet_outcome(EVALUATORS[family], p, u, v)
    assert got == point_jet_outcome(body, p, u, v)
    if kind != "seed":
        assert powr.called
    elif ":" not in got and all(x and math.isfinite(x)
                                for x in struct.unpack("6d", bytes.fromhex(got))):
        assert not powr.called


@pytest.mark.parametrize("family", sorted(BODIES))
def test_point_code_reads_as_the_body_s_float_expressions(family):
    """The emitted sources, printed under ``pytest -s``: straight-line float
    code that names no numpy, reads none of the seeds' derivative slots,
    and calls ``_power`` once for each power the body takes (on a point,
    where the base is not in (0, inf))."""
    body = BODIES[family][0]
    for code in jets._point_code(body), jets._batch_code(body, *jets.seed(np.ones(2), np.ones(2))):
        print(code.source)
        assert "np." not in code.source and "numpy" not in code.source
        assert not re.findall(r"\b[uv][1-5]\b", code.source)
        assert code.source.count("_power(") == inspect.getsource(body).count("jets.powr(")


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
