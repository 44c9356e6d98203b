import hashlib
import json
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (EPS, LIMIT, GridRow, StencilOutOfDomainError, assert_close,
                     denominators, fd_oracle, grid_points, grid_rows_from_json, kadiyala_value,
                     param_columns, report_rows, sample_grid, surface_scales, ves_value,
                     within_bound)
from prodgeo import curvature, harness, models, surface
from prodgeo.curvature import DevelopabilityReason
from prodgeo.errors import InvalidSpecError, ProdGeoError
from prodgeo.harness import GridReport, GridSpec, Spacing
from prodgeo.surface import SignClass


def _other_side(reason: DevelopabilityReason) -> DevelopabilityReason:
    """A corrupted verdict: a developable draw's reason becomes
    NOT_DEVELOPABLE, and any other draw's CONSTANT_RETURNS."""
    return (DevelopabilityReason.NOT_DEVELOPABLE if reason.developable
            else DevelopabilityReason.CONSTANT_RETURNS)


class TestGrid:
    def test_linear_corners(self):
        spec = GridSpec(1, 10, 1, 10, 2, 2, Spacing.LINEAR)
        assert set(sample_grid(spec)) == {(1, 1), (1, 10), (10, 1), (10, 10)}

    def test_log_midpoint(self):
        spec = GridSpec(1, 100, 1, 1, 3, 1, Spacing.LOGARITHMIC)
        us = [u for u, _ in sample_grid(spec)]
        assert_close(us[0], 1, 1e-12)
        assert_close(us[1], 10, 1e-12)
        assert_close(us[2], 100, 1e-12)

    def test_default_grid_size(self):
        pts = sample_grid(harness.DEFAULT_GRID)
        assert len(pts) == 400
        assert all(u > 0 and v > 0 for u, v in pts)

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpecError):
            GridSpec(0, 10, 1, 10, 2, 2)
        with pytest.raises(InvalidSpecError):
            GridSpec(1, 10, 5, 4, 2, 2)

    def test_parse_spec(self):
        spec = harness.parse_grid_spec("0.5,2,4,1,3,5,linear")
        assert spec == GridSpec(0.5, 2, 1, 3, 4, 5, Spacing.LINEAR)
        assert harness.parse_grid_spec("0.1,10,20,0.1,10,20").spacing is Spacing.LOGARITHMIC
        with pytest.raises(InvalidSpecError):
            harness.parse_grid_spec("1,2,3")
        with pytest.raises(InvalidSpecError):
            harness.parse_grid_spec("0.5,2,4,1,3,5,cubic")


def _draws_digest(draws) -> str:
    """sha256 of a sequence of parameter records, or of (label, record)
    pairs, as their JSON lines."""
    lines = [f"{d[0]} {models.params_to_json(d[1])}" if isinstance(d, tuple)
             else models.params_to_json(d) for d in draws]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


#: the records that seeds 0-49 draw, to the bit, per stratum or condition
VES_DRAWS = {
    None: "625e45f6193d4c5fa13c98d69ae1bacc7b971b7921c74a9aafc8b2b781c4d82d",
    "decreasing": "bf624ea788e81dd9ccd415011f0dff66f5e1ce8a632949a62b75a5d33ac6d0be",
    "constant": "1b82fdbd8825539d86ffd3232c017c87694d4adcc3c500504c032abcdebc6ca5",
    "increasing": "08575245ba7f3b0bea84cb97efc279f32eafb1c0b83a77fa0e64be790f663151",
}
KADIYALA_DRAWS = {
    None: "5094842f44e1704d842b7c1f86f34d659341f392807f78d0c4a2c406da463de4",
    DevelopabilityReason.CONSTANT_RETURNS:
        "557e7b9e3d253b8aea700c2a0f12af42b2bfba032b192d840187ea0090fdd873",
    DevelopabilityReason.K2_ZERO_UNIT_SUM:
        "b3af00df532d2fc1ce74639a814fca94025e32baa8eab0ae9cdc96c2e6218b4d",
    DevelopabilityReason.BETA_ONE_RANK_ONE:
        "edf632ca081a46661ed8ed3efe5daad7dbf8bc34e1f46ceee6cfa3a0fd7bc419",
    # a generic draw, as None gives
    DevelopabilityReason.NOT_DEVELOPABLE:
        "5094842f44e1704d842b7c1f86f34d659341f392807f78d0c4a2c406da463de4",
}
#: each verify run's labels and records at the CLI's default trial counts, seeds 0-3
TRIAL_SCHEDULES = {
    ("ves", 300): "7833e4cb93782b4b3fb3589baa0895793ceb03fbbdb00cfc64e166f799b51ed0",
    ("kadiyala", 100): "7b46d75d63bf99a998361fc8e5d1cb729fa0cf7d3958f81b29fcb4ac0aff8d6b",
}


@pytest.mark.parametrize("text", ["1,1.7976931348623157e308,7,1,2,2,linear",
                                  "1e-10,1.7976931348623157e308,5,1,2,2",
                                  "1e-300,1.7976931348623157e308,7,1,2,2,linear",
                                  "0.1,10,1,1e-300,1e300,1,log",
                                  "0.1,10,1,1e-300,1e300,1,linear",
                                  "5e-324,1.797e308,1,2,2,1,log",
                                  "5e-324,1.797e308,1,2,2,1,linear"])
def test_axes_up_to_the_largest_double_warn_nothing(text):
    """geomspace and linspace overflow in their intermediates near the
    largest double: a grid and a verify run there warn nothing, and the
    axes are finite, from bound to bound.  An axis of one sample is its
    lower bound, bit for bit, from tame bounds to the extremes of the
    doubles."""
    spec, p = harness.parse_grid_spec(text), models.ves_validate(1, 0.5, 1.5, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        us, vs = harness._grid_axes(spec)
        for run in (lambda: harness.build_grid_report(p, spec),
                    lambda: harness.run_verify_theorem1(1, 0, spec)):
            try:
                run()
            except ProdGeoError:  # the grid at 1e-300 fails on its own terms
                pass
    for axis, lo, hi, n in ((us, spec.u_min, spec.u_max, spec.n_u),
                            (vs, spec.v_min, spec.v_max, spec.n_v)):
        if n == 1:
            assert axis.tolist() == [lo]
        else:
            assert np.isfinite(axis).all() and axis[0] == lo and axis[-1] == hi


VES_FLAT = models.ves_validate(1, 0.5, 0.5, 1.0)


@pytest.mark.parametrize("run, message", [
    # random.Random(-1) draws what random.Random(1) draws
    (lambda: harness.run_verify_theorem1(1, -1), r"seed must be >= 0, got -1"),
    # an infinite band would pass the flat trial vacuously
    (lambda: harness.run_verify_theorem1(3, 0, tol_K=math.inf), r"tol_K .* got inf"),
    (lambda: harness.run_verify_theorem1(3, 0, tol_K=math.nan), r"tol_K .* got nan"),
    (lambda: harness.run_verify_theorem2(3, 0, tol_K=-1.0), r"tol_K .* got -1\.0"),
    # an infinite band would class every cell zero
    (lambda: harness.build_grid_report(VES_FLAT, tol_K=math.inf), r"tol_K .* got inf"),
], ids=["negative-seed", "inf-tol", "nan-tol", "negative-tol", "grid-inf-tol"])
def test_library_refuses_what_the_cli_refuses(run, message):
    with pytest.raises(ValueError, match=message):
        run()


class TestRandomParams:
    def test_ves_deterministic(self):
        assert harness.random_ves_params(42) == harness.random_ves_params(42)
        assert harness.random_ves_params(42) != harness.random_ves_params(43)

    def test_ves_always_valid(self):
        for s in range(2000):
            harness.random_ves_params(s)  # would raise on violation

    def test_ves_strata(self):
        assert harness.random_ves_params(1, "constant").delta == 1.0
        assert harness.random_ves_params(1, "decreasing").delta < 1.0
        assert harness.random_ves_params(1, "increasing").delta > 1.0

    @pytest.mark.parametrize("stratum", sorted(VES_DRAWS, key=str))
    def test_ves_draws_pinned(self, stratum):
        draws = (harness.random_ves_params(s, stratum) for s in range(50))
        assert _draws_digest(draws) == VES_DRAWS[stratum]

    @pytest.mark.parametrize("condition", list(KADIYALA_DRAWS), ids=str)
    def test_kadiyala_draws_pinned(self, condition):
        draws = (harness.random_kadiyala_params(s, condition) for s in range(50))
        assert _draws_digest(draws) == KADIYALA_DRAWS[condition]

    @pytest.mark.parametrize("name, trials", sorted(TRIAL_SCHEDULES))
    def test_trial_schedules_pinned(self, name, trials):
        family = harness.FAMILIES[name]
        draws = [d for seed in range(4) for d in family.trials(trials, seed)]
        assert _draws_digest(draws) == TRIAL_SCHEDULES[name, trials]

    def test_kadiyala_deterministic(self):
        assert harness.random_kadiyala_params(7) == harness.random_kadiyala_params(7)

    def test_kadiyala_always_valid(self):
        for s in range(2000):
            harness.random_kadiyala_params(s)

    @pytest.mark.parametrize("condition", harness.FORWARD_CONDITIONS)
    def test_forced_conditions_hold(self, condition):
        for s in range(200):
            p = harness.random_kadiyala_params(s, condition)
            assert curvature.kadiyala_is_developable(p) is condition

    def test_generic_draws_violate_all_conditions(self):
        for s in range(200):
            p = harness.random_kadiyala_params(s, None)
            assert not curvature.kadiyala_is_developable(p).developable


class TestFdOracle:
    def test_simple_square(self):
        grad, hess = fd_oracle(lambda u, v: u * u, 3.0, 1.0)
        assert abs(grad[0] - 6.0) <= 1e-8
        assert abs(grad[1]) <= 1e-8
        assert abs(hess[0, 0] - 2.0) <= 1e-5

    def test_stencil_out_of_domain_near_ves_boundary(self):
        p = models.ves_validate(1, 0.5, 0.5, 1)
        # boundary at v = 0.5*u; a point this close puts the stencil across
        with pytest.raises(StencilOutOfDomainError):
            fd_oracle(lambda u, v: ves_value(p, u, v),
                              1.0, 0.5 + 1e-7)

    def test_matches_autodiff_on_kadiyala(self):
        from prodgeo import jets
        p = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2)
        grad, hess = fd_oracle(
            lambda u, v: kadiyala_value(p, u, v), 1.0, 1.0)
        jet = models.kadiyala_eval(p, *jets.seed(1.0, 1.0))
        assert_close(jet.d1, grad[0], 1e-6)
        assert_close(jet.d2, grad[1], 1e-6)
        assert_close(jet.d11, hess[0, 0], 1e-4)
        assert_close(jet.d12, hess[0, 1], 1e-4)
        assert_close(jet.d22, hess[1, 1], 1e-4)


SMALL_GRID = GridSpec(0.5, 5, 0.5, 5, 5, 5)


class TestVerificationRuns:
    def test_theorem1_passes(self):
        out = harness.run_verify_theorem1(6, 123, SMALL_GRID)
        assert out.ok and out.passes == 6
        assert out.worst_closed_vs_autodiff <= 1e-7

    def test_theorem1_empty(self):
        """A run of no trials would PASS vacuously: it is refused."""
        with pytest.raises(ValueError, match=r"trials must be >= 1, got 0"):
            harness.run_verify_theorem1(0, 1)

    def test_theorem1_detects_corruption(self, monkeypatch):
        true_verdict = curvature.ves_theorem_verdict
        flipped = {SignClass.POSITIVE: SignClass.NEGATIVE,
                   SignClass.NEGATIVE: SignClass.POSITIVE,
                   SignClass.ZERO: SignClass.ZERO}

        def flipped_verdict(p):
            regime, sign = true_verdict(p)
            return regime, flipped[sign]

        monkeypatch.setattr(curvature, "ves_theorem_verdict", flipped_verdict)
        out = harness.run_verify_theorem1(6, 123, SMALL_GRID)
        assert not out.ok
        assert out.passes == 2  # only the two constant-returns trials
        assert "FAIL" in out.describe()

    def test_theorem2_passes(self):
        out = harness.run_verify_theorem2(2, 123, SMALL_GRID)
        assert out.ok and out.trials == 8  # 3 forward conditions + converse

    def test_theorem2_empty(self):
        with pytest.raises(ValueError, match=r"trials must be >= 1, got 0"):
            harness.run_verify_theorem2(0, 1)

    def test_theorem2_detects_corruption(self, monkeypatch):
        true_verdict = curvature.kadiyala_is_developable
        monkeypatch.setattr(curvature, "kadiyala_is_developable",
                            lambda p: _other_side(true_verdict(p)))
        out = harness.run_verify_theorem2(2, 123, SMALL_GRID)
        assert not out.ok
        assert out.trials == 8 and out.passes == 0

    def test_theorem2_forward_trials_pass_on_a_large_grid(self):
        # A second grouping of T2 once failed here, where T2 cancels to
        # rounding noise on a developable draw.
        out = harness.run_verify_theorem2(1, 0, GridSpec(1e4, 1e5, 1e4, 1e5, 2, 2))
        assert out.trials == 4
        assert not [f for f in out.failures if f.startswith("forward trial")]


class TestGridReport:
    def test_csv_shape(self):
        p = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2)
        report = harness.build_grid_report(p, GridSpec(1, 10, 1, 10, 2, 2,
                                                       Spacing.LINEAR))
        text = harness.emit_grid_report(report, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "u,v,f,K,H,valid,sign"
        assert len(lines) == 5

    def test_developable_grid_all_zero_sign(self):
        p = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 1.0)
        report = harness.build_grid_report(p, SMALL_GRID)
        assert all(r.sign == "zero" for r in report_rows(report))
        assert report.summary["verdict"] == "constant-returns"

    @pytest.mark.parametrize("params, verdict", [
        ((1, 0.4, 1.5, 0.7), "decreasing-returns:positive-curvature"),
        ((1, 0.4, 1.5, 1), "constant-returns:zero-curvature"),
        ((1, 0.4, 1.5, 1.6), "increasing-returns:negative-curvature"),
        ((0.3, 0.2, 0.3, 1.5, 0.8, 1), "constant-returns"),
        ((0.4, 0, 0.6, 0.3, 0.7, 1.7), "k2-zero-unit-exponent-sum"),
        ((0.25, 0.25, 0.25, 1, 1, 1.5), "beta-one-rank-one-weights"),
        ((0.3, 0.2, 0.3, 1.5, 0.8, 2), "not-developable"),
        # delta = 1 and k2 = 0 with beta1 + beta2 = 1: the first condition names it
        ((0.4, 0, 0.6, 0.3, 0.7, 1), "constant-returns"),
    ])
    def test_summary_verdict_pinned(self, params, verdict):
        """The grid summary's verdict for each VES regime and each Kadiyala
        developability reason."""
        p = (models.ves_validate if len(params) == 4 else models.kadiyala_validate)(*params)
        report = harness.build_grid_report(p, GridSpec(1, 2, 1, 2, 2, 2))
        assert report.summary["verdict"] == verdict

    def test_json_round_trip(self):
        p = models.ves_validate(1, 0.5, 0.1, 2)  # rho < 1: some cells off the domain
        report = harness.build_grid_report(p, GridSpec(0.1, 10, 0.1, 10, 6, 6))
        text = harness.emit_grid_report(report, "json")
        pieces = (report.us.tolist(), report.vs.tolist(), report.in_domain,
                  tuple(x.tolist() for x in report.values),
                  [list(SignClass)[code] for code in report.signs])
        assert not report.in_domain.all()
        assert grid_rows_from_json(text) == (report.model,
                                             tuple(GridRow(*row) for row in rows_of(pieces)),
                                             report.summary)

    def test_invalid_points_flagged(self):
        # rho < 1 makes the lower-right corner invalid
        p = models.ves_validate(1, 0.5, 0.1, 2)
        report = harness.build_grid_report(p, GridSpec(0.1, 10, 0.1, 10, 6, 6))
        for row in report_rows(report):
            expected = models.ves_domain_valid(p, row.u, row.v, strict=False)
            assert row.valid == expected
            if not expected:
                assert row.f is None and row.K is None and row.sign == ""
        assert report.summary["invalid_points"] == sum(
            1 for r in report_rows(report) if not r.valid)
        assert report.summary["invalid_points"] > 0

    def test_summary_recomputable_from_rows(self):
        p = models.ves_validate(1, 0.5, 0.5, 2)
        report = harness.build_grid_report(p, SMALL_GRID)
        ks = [abs(r.K) for r in report_rows(report) if r.valid]
        fs = [r.f for r in report_rows(report) if r.valid]
        assert report.summary["max_abs_k"] == max(ks)
        assert report.summary["f_min"] == min(fs)
        assert report.summary["f_max"] == max(fs)

    def test_emission_deterministic(self):
        p = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2)
        a = harness.emit_grid_report(harness.build_grid_report(p, SMALL_GRID), "csv")
        b = harness.emit_grid_report(harness.build_grid_report(p, SMALL_GRID), "csv")
        assert a == b

    #: the share of each grid's cells off the domain, and its parameters
    EMITTED = {"": ((0.0, 0.0), models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2)),
               "-third-off-domain": ((0.25, 0.4), models.ves_validate(1, 0.5, 0.5, 2))}

    @pytest.mark.parametrize("fmt, grid", [(f, g) for g in EMITTED for f in ("csv", "json")],
                             ids=[f + g for g in EMITTED for f in ("csv", "json")])
    def test_emitting_holds_under_twice_the_text(self, fmt, grid):
        """The emitter joins the cells' texts once: no string per row and
        no copy of the document.  On a 200x200 grid, all in the domain or
        about a third off it (where a row's text is short), the most it
        holds at once, its text included, is under twice the text."""
        (lo, hi), params = self.EMITTED[grid]
        report = harness.build_grid_report(params, GridSpec(0.1, 10, 0.1, 10, 200, 200))
        assert lo <= 1.0 - report.in_domain.mean() <= hi
        report._reprs  # formatted once, before either format is emitted
        tracemalloc.start()
        try:
            text = harness.emit_grid_report(report, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * len(text)

    def test_csv_floats_round_trip(self):
        p = models.ves_validate(1, 0.5, 0.5, 2)
        report = harness.build_grid_report(p, SMALL_GRID)
        text = harness.emit_grid_report(report, "csv")
        for line, row in zip(text.strip().split("\n")[1:], report_rows(report)):
            cells = line.split(",")
            assert float(cells[0]) == row.u and float(cells[1]) == row.v
            if row.valid:
                assert float(cells[2]) == row.f and float(cells[3]) == row.K


# --- Float texts --------------------------------------------------------------

#: The extremes of float64, and the neighbours of the bounds where orjson
#: spells a float differently from repr.
EDGE_FLOATS = [0.0, 5e-324, sys.float_info.max, 1e-9, 1e-4, 1e16,
               *(math.nextafter(b, to) for b in (1e-9, 1e-4, 1e16) for to in (0.0, math.inf))]


@settings(max_examples=300, deadline=None)
@given(x=arrays(np.float64, st.integers(0, 64), elements=st.floats())
       | arrays(np.uint64, st.integers(0, 64)).map(lambda bits: bits.view(np.float64)))
@example(x=np.array(EDGE_FLOATS + [-x for x in EDGE_FLOATS]))
@example(x=np.array([math.nan, math.inf, -math.inf]))
@example(x=np.array([]))
def test_float_texts_are_the_reprs(x):
    """The texts of a grid's floats are their reprs: NaN, ±inf and
    subnormals included, and bit patterns across the whole exponent
    range.  An empty array has no text."""
    assert harness._float_texts(x) == list(map(repr, x.tolist()))


# --- The batch grid path against the one-point path ---------------------------

def reference_grid(params, spec, strict_domain, tol_K):
    """Rows and summary of a grid report, computed point by point with the
    one-point path (jet, curvatures, classify_sign), in sorted (u, v) order,
    and each valid row's rounding scales (``helpers.surface_scales``)."""
    family = next(f for f in harness.FAMILIES.values() if isinstance(params, f.params_type))
    in_domain = family.domain(strict_domain)
    evaluated, scales = [], []
    for u, v in sorted(sample_grid(spec)):
        if not in_domain(params, u, v):
            evaluated.append((u, v, None, None, None, False))
            scales.append(None)
            continue
        try:
            jet = family.jet(params, u, v)
            K, H = surface.curvature_from_jet(jet)
        except (ProdGeoError, ArithmeticError) as exc:
            raise RowFailed(u, v) from exc
        evaluated.append((u, v, jet.val, K, H, True))
        scales.append(surface_scales(params, u, v, jet.d1, jet.d2, K, H))
    max_abs_k = max((abs(K) for *_, K, _H, ok in evaluated if ok), default=0.0)
    rows = [GridRow(u, v, f, K, H, ok,
                    list(SignClass)[surface.classify_sign(np.array([K]), max_abs_k, tol_K)[0]].value
                    if ok else "")
            for u, v, f, K, H, ok in evaluated]
    f_vals = [r.f for r in rows if r.valid]
    summary = {"max_abs_k": max_abs_k,
               "f_min": min(f_vals) if f_vals else None,
               "f_max": max(f_vals) if f_vals else None,
               "invalid_points": sum(1 for r in rows if not r.valid),
               "verdict": family.verdict(params).summary}
    return tuple(rows), summary, scales


class RowFailed(Exception):
    """The one-point path failed at row (u, v); the cause is its error."""
    def __init__(self, u, v):
        super().__init__(u, v)
        self.u, self.v = u, v


@st.composite
def grid_specs(draw):
    def axis():
        n = draw(st.integers(1, 5))
        lo = 10.0 ** draw(st.floats(-150.0, 150.0))
        return lo, lo * 10.0 ** (draw(st.floats(0.5, 60.0)) if n > 1 else 0.0), n
    (u_lo, u_hi, n_u), (v_lo, v_hi, n_v) = axis(), axis()
    return GridSpec(u_lo, u_hi, v_lo, v_hi, n_u, n_v, draw(st.sampled_from(Spacing)))


@st.composite
def family_params(draw):
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        return harness.random_ves_params(seed)
    return harness.random_kadiyala_params(
        seed, draw(st.sampled_from([None, *DevelopabilityReason])))


@settings(max_examples=150, deadline=None)
@given(params=family_params(), spec=st.one_of(grid_specs(), st.just(SMALL_GRID)),
       strict=st.booleans(), tol=st.sampled_from([1e-9, 1e-3, 0.5]))
# row 0 fails in the curvatures (its slopes overflow W^2), later rows already in the jet
@example(params=models.ves_validate(1, 0.4, 1.5, 3), spec=GridSpec(1e100, 1e103, 1e100, 1e103, 2, 2),
         strict=False, tol=1e-9)
# cell 0 is outside the domain, and the first failing cell is the next one
@example(params=models.ves_validate(1, 0.4, 0.5, 3), spec=GridSpec(1e100, 1e103, 1e99, 1e103, 3, 3),
         strict=False, tol=1e-9)
def test_grid_report_matches_point_by_point_path(params, spec, strict, tol):
    """The report the one-point path gives, row by row: the same points,
    validity and summary counts, f, K and H within the rounding bound, and
    the same sign unless K's bound straddles the zero band's edge.  Where
    a row fails, the error class of the first failing row, and the error
    that row raises as a grid of its own."""
    try:
        rows, summary, scales = reference_grid(params, spec, strict, tol)
    except ProdGeoError as exc:  # no strict domain for the family
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            harness.build_grid_report(params, spec, strict_domain=strict, tol_K=tol)
        return
    except RowFailed as failed:
        with pytest.raises(type(failed.__cause__)) as got:
            harness.build_grid_report(params, spec, strict_domain=strict, tol_K=tol)
        alone = GridSpec(failed.u, failed.u, failed.v, failed.v, 1, 1)
        with pytest.raises(type(failed.__cause__)) as want:
            harness.build_grid_report(params, alone, strict_domain=strict, tol_K=tol)
        assert str(got.value) == str(want.value)
        return
    report = harness.build_grid_report(params, spec, strict_domain=strict, tol_K=tol)
    band = tol * (1.0 + report.summary["max_abs_k"])
    band_ref = tol * (1.0 + summary["max_abs_k"])
    max_scale = {"f": 0.0, "K": 0.0}
    for got, want, scale in zip(report_rows(report), rows, scales):
        assert (got.u, got.v, got.valid) == (want.u, want.v, want.valid)
        if not want.valid:
            assert got == want
            continue
        for name in ("f", "K", "H"):
            assert within_bound(getattr(got, name), getattr(want, name), scale[name]), name
        bound_K = LIMIT * EPS * scale["K"]
        straddles = abs(abs(want.K) - band_ref) <= bound_K + abs(band - band_ref)
        assert got.sign == want.sign or straddles
        max_scale = {name: max(max_scale[name], scale[name]) for name in max_scale}
    for key, name in (("max_abs_k", "K"), ("f_min", "f"), ("f_max", "f")):
        if summary[key] is not None:
            assert within_bound(report.summary[key], summary[key], max_scale[name]), key
    assert ({k: summary[k] for k in ("invalid_points", "verdict")}
            == {k: report.summary[k] for k in ("invalid_points", "verdict")})


def _list_summary(report: GridReport) -> dict:
    """The summary's figures as Python's min and max reduce the lists of
    the report's f and |K|: a max is NaN only where the first |K| is."""
    f, K = (x.tolist() for x in report.values[:2])
    return {"max_abs_k": max(map(abs, K), default=0.0), "f_min": min(f, default=None),
            "f_max": max(f, default=None), "invalid_points": report.in_domain.size - len(f)}


def _summary_json(summary: dict) -> str:
    """The summary's figures as the JSON report writes them, NaN included."""
    return json.dumps({key: summary[key] for key in ("max_abs_k", "f_min", "f_max",
                                                     "invalid_points")}, sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(params=family_params(), spec=grid_specs())
def test_summary_is_the_list_reductions(params, spec):
    """max |K|, min f, max f and the count off the domain are the lists'
    reductions, but max |K| is NaN wherever some K is NaN."""
    try:
        report = harness.build_grid_report(params, spec)
    except (ProdGeoError, ArithmeticError):
        return
    want = _list_summary(report)
    if np.isnan(report.values[1]).any():
        want["max_abs_k"] = math.nan
    assert _summary_json(report.summary) == _summary_json(want)


#: the cell given K, K there, and max |K|
NOT_FINITE_K = {
    "NaN first": (0, math.nan, math.nan),  # the list's max is NaN too
    "NaN later": (7, math.nan, math.nan),  # the list's max is not
    "-inf": (7, -math.inf, math.inf),
}


@pytest.mark.parametrize("name", sorted(NOT_FINITE_K))
def test_summary_of_a_K_that_is_not_finite(monkeypatch, name):
    """A K that is not finite, which no check of the sweep replays, sets
    max |K|: NaN wherever it lies, and inf for -inf."""
    cell, k, max_abs_k = NOT_FINITE_K[name]
    curvatures = surface.curvatures

    def corrupted(jet):
        K, H, w2 = curvatures(jet)
        K = K.copy()
        K.flat[cell] = k
        return K, H, w2

    monkeypatch.setattr(surface, "curvatures", corrupted)
    report = harness.build_grid_report(models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2),
                                       SMALL_GRID)
    assert report.in_domain.all()
    want = _list_summary(report)
    assert math.isnan(want["max_abs_k"]) == (name == "NaN first")
    want["max_abs_k"] = max_abs_k
    assert _summary_json(report.summary) == _summary_json(want)


def test_summary_of_a_grid_with_no_cell_in_the_domain():
    report = harness.build_grid_report(models.ves_validate(1, 0.5, 0.1, 2),
                                       GridSpec(10, 100, 0.1, 1, 3, 3))
    assert not report.in_domain.any()
    want = {"max_abs_k": 0.0, "f_min": None, "f_max": None, "invalid_points": 9}
    assert _summary_json(report.summary) == _summary_json(_list_summary(report)) == \
        _summary_json(want)


def test_grid_reports_autodiff_K_and_H_as_computed():
    """The point path does not check autodiff K and H, so a sweep does not
    replay a cell for them.  K is -inf at 2 780 cells of this grid, and at
    526 of them the point path rounds H otherwise than the grid.  The CSV's
    sha256 was recorded where no sweep replayed a cell; the JSON's, which
    spells K -Infinity, where the emitter kept one row tuple per cell."""
    p = models.KadiyalaParams(0.3282210244722565, 0.18588788152140454, 0.30000321248493445,
                              0.9467966233781535, 0.77085837810584, 1.0)
    spec = harness.parse_grid_spec("1.5585105825602318e-251,3.4098834242352284e-236,60,"
                                   "1.433259176060161e-112,6.494706873171809e-82,60")
    report = harness.build_grid_report(p, spec)
    assert np.count_nonzero(report.values[1] == -math.inf) == 2780
    for fmt, digest in (("csv", "d1b2db5dfc110193d1e477147810600ca6ac58dfdcdbef8497204eaca5b495ab"),
                        ("json", "01011de0a44dc587b0bd3556e09a4a4cc9a436a0bbfdf75f741b5a3c681ebd1f")):
        text = harness.emit_grid_report(report, fmt)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, fmt


def _cell(x) -> str:
    """One CSV cell, as the row-by-row emitter wrote it."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


#: Axis values from a small pool, so that values repeat along an axis as
#: on a grid; 0.0 and -0.0 are equal dict keys with different texts.  An
#: axis is finite, as a GridSpec's bounds are and each value between them.
AXIS = st.sampled_from([0.0, -0.0, 5e-324, 0.1, 1.0, 2.5, 1e300, sys.float_info.max])
CELL = st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
EMPTY_GRID = ([], [1.0], np.zeros((0, 1), dtype=bool), ([], [], []), [])


@st.composite
def grid_pieces(draw):
    """What a GridReport holds but its model and summary: axes, a random
    domain mask over them, and f, K, H and a sign class at each cell in
    the domain."""
    us, vs = draw(st.lists(AXIS, max_size=4)), draw(st.lists(AXIS, max_size=4))
    size = len(us) * len(vs)
    mask = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)
    m = int(mask.sum())
    cells = st.lists(CELL, min_size=m, max_size=m)
    return (us, vs, mask.reshape(len(us), len(vs)), (draw(cells), draw(cells), draw(cells)),
            draw(st.lists(st.sampled_from(SignClass), min_size=m, max_size=m)))


def rows_of(pieces) -> list[tuple]:
    """The rows (u, v, f, K, H, valid, sign) of a report on ``pieces``,
    cell by cell in (u, v) order: None for f, K, H and "" for the sign
    off the domain."""
    us, vs, mask, values, classes = pieces
    cells = iter(zip(*values, (c.value for c in classes)))
    rows = []
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            if mask[i, j]:
                f, K, H, sign = next(cells)
                rows.append((u, v, f, K, H, True, sign))
            else:
                rows.append((u, v, None, None, None, False, ""))
    return rows


def grid_report(pieces, summary) -> GridReport:
    """A report holding ``pieces`` as build_grid_report lays them out."""
    us, vs, mask, values, classes = pieces
    return GridReport('ves:{"k": 1.0}', np.array(us, dtype=float), np.array(vs, dtype=float),
                      mask, tuple(np.array(x, dtype=float) for x in values),
                      np.array([list(SignClass).index(c) for c in classes], dtype=int), summary)


@settings(max_examples=100, deadline=None)
@given(pieces=grid_pieces(),
       summary=st.dictionaries(st.sampled_from(["max_abs_k", "f_min", "verdict"]),
                               st.one_of(st.none(), CELL, st.text(max_size=3)), max_size=3))
@example(pieces=EMPTY_GRID, summary={})
@example(pieces=([0.0, -0.0], [-0.0, 0.0], np.array([[False, True], [True, True]]),
                 ([1.0, -0.0, 0.0], [0.0, 0.0, -0.0], [-0.0, 0.0, 0.0]),
                 [SignClass.ZERO] * 3),
         summary={})
def test_templates_write_what_json_and_the_row_emitter_write(pieces, summary):
    """Each format of a grid-shaped report writes, row by row, what json
    and the CSV's row-by-row emitter write for the report's cells in (u,
    v) order."""
    json_first, csv_first = grid_report(pieces, summary), grid_report(pieces, summary)
    json_text = harness.emit_grid_report(json_first, "json")
    csv_text = harness.emit_grid_report(csv_first, "csv")
    # each format writes the same bytes on a report the other has emitted
    assert harness.emit_grid_report(json_first, "csv") == csv_text
    assert harness.emit_grid_report(csv_first, "json") == json_text
    rows = rows_of(pieces)
    payload = {"model": json_first.model,
               "rows": [dict(zip(("u", "v", "f", "K", "H", "valid", "sign"), row))
                        for row in rows],
               "summary": summary}
    assert json_text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = ["u,v,f,K,H,valid,sign"] + [",".join(_cell(x) for x in row) for row in rows]
    assert csv_text == "\n".join(lines) + "\n"


# --- The batch verify engine against the one-point engine -------------------

def _trial_batch(family, p, points):
    """Over points, in one batch whose parameters are columns, as the
    engine computes them: whether the values that the point path checks
    (the jet's slots, W^2 and the closed-form K) are finite at each point,
    and autodiff and closed-form K."""
    u, v = (np.array(axis, dtype=float) for axis in zip(*points)) if points else [np.empty(0)] * 2
    columns = param_columns([p], [len(u)])
    with np.errstate(all="ignore"):
        jet = family.jet(columns, u, v)
        K, _, w2 = surface.curvatures(jet)
        K_closed = family.closed_K(columns, u, v)
        finite = np.logical_and.reduce([np.broadcast_to(np.isfinite(x), u.shape)
                                        for x in (*jet, w2, K_closed)])
        return finite.tolist(), K.tolist(), K_closed.tolist()


def _point_K(family, p, u, v):
    """Autodiff and closed-form K on the point path."""
    K = surface.curvatures(family.jet(p, u, v))[0]
    return K, family.closed_K(p, u, v)


def reference_verify(family, trials, seed, grid, tol_K):
    """The verify engine as one batch per trial and a loop over its points:
    each trial's in-domain points in one batch, where each point at which
    a checked value is not finite runs again on the point path (the first
    that raises raises its error, its message ending in the point unless
    it names it; one that passes gives the point path's K), then the
    checks point by point and the verdict over a list.  A trial with no
    point in its domain is counted apart, and a run of such trials alone
    raises."""
    out = harness.VerifySummary(theorem=family.theorem)
    grid_points = sample_grid(grid)
    for label, p in family.trials(trials, seed):
        out.trials += 1
        problems = []
        ks = []
        points = [(u, v) for u, v in grid_points if family.domain_valid(p, u, v)]
        if not points:
            out.no_domain += 1
            continue
        finite, ks_ad, ks_closed = _trial_batch(family, p, points)
        for n, (u, v) in enumerate(points):
            if finite[n]:
                continue
            try:
                ks_ad[n], ks_closed[n] = _point_K(family, p, u, v)
            except (ProdGeoError, ArithmeticError) as exc:
                if f"({u}, {v})" not in str(exc):
                    exc.args = (f"{exc} at ({u}, {v})",)
                raise
        for (u, v), k_ad, k_closed in zip(points, ks_ad, ks_closed):
            ks.append((u, v, k_ad))
            dev = harness._rel_dev(k_closed, k_ad)
            out.worst_closed_vs_autodiff = max(out.worst_closed_vs_autodiff, dev)
            if dev > harness.CLOSED_VS_AUTODIFF_RTOL:
                problems.append(
                    f"closed-form K={k_closed:.6e} vs autodiff K={k_ad:.6e} "
                    f"at ({u:.4g}, {v:.4g})")
        expect = family.verdict(p).expect
        max_k = max((abs(k) for *_, k in ks), default=0.0)
        threshold = tol_K * (1.0 + max_k)
        if expect is SignClass.ZERO:
            if not all(abs(k) <= threshold for *_, k in ks):
                problems.append(f"expected flat: max|K|={max_k:.3e} "
                                f"vs threshold {threshold:.3e}")
        elif expect is None:
            if not any(abs(k) > 10.0 * threshold for *_, k in ks):
                problems.append(f"expected curvature above {10.0 * threshold:.3e}, "
                                f"max|K|={max_k:.3e}")
        else:
            for u, v, k in ks:
                got = (SignClass.POSITIVE if k > 0.0 else
                       SignClass.NEGATIVE if k < 0.0 else SignClass.ZERO)
                if got is not expect:
                    problems.append(
                        f"sign {got.value} != predicted {expect.value} "
                        f"at ({u:.4g}, {v:.4g}) with K={k:.3e}")
        if problems:
            out.failures.append(
                f"{label} params={models.params_to_json(p)}: " + problems[0]
                + (f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""))
        else:
            out.passes += 1
    if out.trials and out.no_domain == out.trials:
        raise ProdGeoError(f"no trial has a point of the grid {grid} in its domain")
    return out


def _corrupt_verdicts(monkeypatch):
    """Flip the VES sign and negate Kadiyala developability."""
    ves_verdict, kadiyala_verdict = (curvature.ves_theorem_verdict,
                                     curvature.kadiyala_is_developable)
    flipped = {SignClass.POSITIVE: SignClass.NEGATIVE,
               SignClass.NEGATIVE: SignClass.POSITIVE, SignClass.ZERO: SignClass.POSITIVE}
    monkeypatch.setattr(curvature, "ves_theorem_verdict",
                        lambda p: (ves_verdict(p)[0], flipped[ves_verdict(p)[1]]))
    monkeypatch.setattr(curvature, "kadiyala_is_developable",
                        lambda p: _other_side(kadiyala_verdict(p)))


def _corrupt_checks(monkeypatch):
    """Move the closed-form K off by 1 where u > v, and where u <= v negate
    Den_F, as negating both its summands would, and the first Den_G
    summand, so that the denominators' own checks raise there."""
    ves_K, kadiyala_K = curvature.ves_curvature_closed, curvature.kadiyala_curvature_closed
    monkeypatch.setattr(curvature, "ves_curvature_closed",
                        lambda p, u, v: ves_K(p, u, v) + 1.0 * (u > v))
    monkeypatch.setattr(curvature, "kadiyala_curvature_closed",
                        lambda p, u, v: kadiyala_K(p, u, v) + 1.0 * (u > v))

    def negated(den, terms, u, v):
        sign = 1.0 - 2.0 * (u <= v)
        if not terms:  # Den_F, whose summands _positive does not receive
            return den * sign, terms
        terms = [terms[0] * sign, *terms[1:]]
        return sum(terms), terms
    denominators(monkeypatch, negated)


CORRUPT = {"verdicts": _corrupt_verdicts, "checks": _corrupt_checks}


def _outcome(run, *args):
    """What a verify run reports, with its worst deviation's bits, or the
    error it raises."""
    try:
        out = run(*args)
    except (ProdGeoError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return (out.trials, out.passes, out.no_domain, out.failures,
            math.copysign(1.0, out.worst_closed_vs_autodiff),
            out.worst_closed_vs_autodiff.hex())


@settings(max_examples=120, deadline=None)
@given(family=st.sampled_from(sorted(harness.FAMILIES)), seed=st.integers(0, 10**6),
       trials=st.integers(1, 10), spec=st.one_of(grid_specs(), st.just(SMALL_GRID)),
       tol=st.sampled_from([1e-9, 1e-14, 1e-3, 0.5]),
       corrupt=st.sampled_from([None, *sorted(CORRUPT)]))
# the first failing point fails in the closed form, later points in the jet
@example(family="kadiyala", seed=0, trials=2, spec=GridSpec(1e100, 1e200, 1, 2, 3, 2),
         tol=1e-9, corrupt=None)
# a denominator raises at (1, 1), before the closed form fails at (2, 1)
@example(family="ves", seed=3, trials=1, spec=GridSpec(1, 2, 1, 2, 2, 2),
         tol=1e-9, corrupt="checks")
@example(family="kadiyala", seed=3, trials=1, spec=GridSpec(1, 2, 1, 2, 2, 2),
         tol=1e-9, corrupt="checks")
# more trials than one batch of the engine takes, and not a multiple of it:
# trials with no point in the domain between curved trials and at the end
@example(family="ves", seed=0, trials=11, spec=GridSpec(10, 100, 0.1, 1, 3, 3),
         tol=1e-9, corrupt=None)
# trial 10 fails, and with the verdicts corrupted, every trial
@example(family="ves", seed=2, trials=20, spec=GridSpec(0.1, 10, 0.1, 10, 4, 4),
         tol=1e-14, corrupt=None)
@example(family="kadiyala", seed=2, trials=5, spec=GridSpec(0.1, 10, 0.1, 10, 4, 4),
         tol=1e-9, corrupt="verdicts")
# trial 5, and for Kadiyala trial 3, raises after the earlier trials pass
@example(family="ves", seed=0, trials=11, spec=GridSpec(1e15, 1e25, 1e15, 1e25, 2, 2),
         tol=1e-9, corrupt=None)
@example(family="kadiyala", seed=4, trials=3, spec=GridSpec(2.38e33, 6.51e36, 2.38e33, 6.51e36, 2, 2),
         tol=1e-9, corrupt=None)
# one batch: trial 0 first fails at grid row 1, trial 2 already at row 0;
# the error is trial 0's
@example(family="ves", seed=826957, trials=3, spec=GridSpec(4.94e-48, 1.29e-32, 2.66e126, 3.38e166, 2, 5),
         tol=1e-9, corrupt=None)
# trial 0's first grid cell is outside its domain, and a later point of the
# trial fails
@example(family="ves", seed=102, trials=2, spec=GridSpec(111, 5.82e287, 6.02, 1.65e126, 4, 4),
         tol=1e-9, corrupt=None)
# a batch of trials with every cell in their domain and trials with 10 or
# 13 of 16: a count of failing points counts the trial's own points
@example(family="ves", seed=1, trials=17, spec=GridSpec(0.1, 10, 0.1, 10, 4, 4),
         tol=1e-9, corrupt="verdicts")
# u > v at every cell, so the closed forms are off by 1 at each point in a
# trial's domain, which holds 3 or 8 of the 9 cells
@example(family="ves", seed=1, trials=4, spec=GridSpec(2, 4, 1, 1.9, 3, 3),
         tol=1e-9, corrupt="checks")
# trial 0 has no cell in its domain; trial 1 fails at its fourth cell
@example(family="ves", seed=991743, trials=2, spec=GridSpec(8.2e52, 3.5e68, 3.2e-6, 6e26, 2, 3),
         tol=1e-9, corrupt=None)
def test_verify_matches_point_by_point_engine(family, seed, trials, spec, tol, corrupt):
    """The same trials, passes, failure texts and worst deviation, to the
    bit, as one batch per trial; or the same error."""
    family = harness.FAMILIES[family]
    with pytest.MonkeyPatch.context() as monkeypatch:
        if corrupt:
            CORRUPT[corrupt](monkeypatch)
        want = _outcome(reference_verify, family, trials, seed, spec, tol)
        got = _outcome(harness._run_verify, family, trials, seed, spec, tol)
    assert got == want


#: what a poisoned ``evaluate`` writes into the cells off the domain, in turn
POISON = np.array([np.nan, np.inf, -np.inf, 1e300, -2.5, 0.0])


def _poisoned_sweep(sweep, masks):
    """``sweep`` whose ``evaluate``, on a batch, returns each value it
    checks and reports laid out as the (trial, u, v) mask, with NaN, ±inf
    and finite garbage (``POISON`` in turn, from a different start in
    each value) in every cell off the mask, and appends the mask to
    ``masks``."""
    def poisoned(in_domain, evaluate, records, us, vs):
        shape = (len(records), len(us), len(vs))

        def evaluate_poisoned(p, u, v):
            checked, values = evaluate(p, u, v)
            if isinstance(u, float):  # a replay on the point path
                return checked, values
            mask = np.broadcast_to(in_domain(p, u, v), shape)
            masks.append(mask)

            def poison(x, start):
                x = np.array(np.broadcast_to(x, shape))
                x[~mask] = np.resize(np.roll(POISON, start), np.count_nonzero(~mask))
                return x
            return (tuple(map(poison, checked, range(len(checked)))),
                    tuple(map(poison, values, range(1, len(values) + 1))))
        return sweep(in_domain, evaluate_poisoned, records, us, vs)
    return poisoned


def _grid_outcome(params, spec):
    """A grid report's CSV and JSON, or the error it raises."""
    try:
        report = harness.build_grid_report(params, spec)
    except (ProdGeoError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return harness.emit_grid_report(report, "csv"), harness.emit_grid_report(report, "json")


OFF_DOMAIN_RUNS = {
    # a VES grid with rho < 1, cells off the domain in most rows
    "grid": lambda: _grid_outcome(models.ves_validate(1, 0.5, 0.1, 2),
                                  GridSpec(0.1, 10, 0.1, 10, 6, 6)),
    # a grid whose first cell is off the domain, failing at a later cell
    "grid-raises": lambda: _grid_outcome(models.ves_validate(1, 0.4, 0.6, 1.3),
                                         GridSpec(1e-231, 1e231, 1e-276, 1e-157, 3, 3)),
    # two batches, each mixing trials with every cell in their domain and
    # trials with cells off it
    "verify-t1": lambda: _outcome(harness.run_verify_theorem1,
                                  2 * harness.VERIFY_BATCH_TRIALS, 0),
    # trials with no point in the domain between curved trials and at the end
    "verify-t1-no-domain": lambda: _outcome(harness.run_verify_theorem1, 11, 0,
                                            GridSpec(10, 100, 0.1, 1, 3, 3)),
    # trial 0's first cell is off its domain, and a later point fails
    "verify-t1-raises": lambda: _outcome(harness.run_verify_theorem1, 2, 102,
                                         GridSpec(111, 5.82e287, 6.02, 1.65e126, 4, 4)),
}


@pytest.mark.parametrize("name", sorted(OFF_DOMAIN_RUNS))
def test_cells_off_the_domain_reach_no_report_verdict_or_replay(monkeypatch, name):
    """``evaluate`` runs at every cell of the grid, so its values off the
    domain are unspecified: with NaN, ±inf and finite garbage written
    there, a grid report's CSV and JSON, a verify run's summary, and the
    error either raises are the unpoisoned run's."""
    want, masks = OFF_DOMAIN_RUNS[name](), []
    monkeypatch.setattr(harness, "_sweep", _poisoned_sweep(harness._sweep, masks))
    assert OFF_DOMAIN_RUNS[name]() == want
    assert not all(m.all() for m in masks)  # some cell was poisoned
    if name == "verify-t1":
        assert len(masks) == 2 and all(m.all(axis=(1, 2)).any() and not m.all() for m in masks)


#: the checked values at the cell (u, v) = (2, 3) of a 2x2 sweep, the
#: other cells' all 1.0, and whether that cell replays on the point path
ONE_CELL_CHECKED = {
    # finite values whose sum overflows: the batch is flagged, no cell is
    "finite-sum-overflows": ([sys.float_info.max, sys.float_info.max, -1.0], False),
    # infinities of both signs, whose sum is NaN, not inf
    "inf-minus-inf": ([math.inf, 1.0, -math.inf], True),
    "nan": ([1.0, math.nan, 1.0], True),
}


@pytest.mark.parametrize("name", sorted(ONE_CELL_CHECKED))
def test_sweep_flags_by_one_sum_and_replays_cells_not_finite(name):
    """``_sweep`` flags a batch by one sum over the domain of the sum of
    its checked values, and replays just the cells where a checked value
    is not finite, however the sum came out.  A cell off the domain,
    NaN in every checked value, is never replayed."""
    at, replays = ONE_CELL_CHECKED[name]
    replayed = []

    def evaluate(p, u, v):
        if isinstance(u, float):  # a replay on the point path
            replayed.append((u, v))
            return (), (-1.0,)
        assert p.k.shape == (1, 1, 1)  # a lone record as a (trial, 1, 1) column
        cell, off = (u == 2.0) & (v == 3.0), (u == 1.0) & (v == 1.0)
        checked = tuple(np.where(cell, x, np.where(off, math.nan, 1.0)) for x in at)
        return checked, (np.where(cell, 5.0, 0.0),)

    us, vs = np.array([1.0, 2.0]), np.array([1.0, 3.0])
    with np.errstate(all="ignore"):
        mask, (value,) = harness._sweep(lambda p, u, v: (u > 1.0) | (v > 1.0), evaluate,
                                        [models.ves_validate(1, 0.5, 0.5, 2)], us, vs)
    assert mask.tolist() == [[[False, True], [True, True]]]
    assert replayed == ([(2.0, 3.0)] if replays else [])
    assert value.tolist() == [[[0.0, 0.0], [0.0, -1.0 if replays else 5.0]]]


def _peak_bytes(run) -> int:
    """The most memory that tracemalloc saw ``run()`` hold at once."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, trials, bound", [
    ("kadiyala", harness.VERIFY_BATCH_TRIALS // 4, 0.6),  # four blocks of draws, one batch
    ("ves", harness.VERIFY_BATCH_TRIALS, 1.05),
], ids=["kadiyala", "ves"])
def test_verify_batch_peak_memory_within_bound_of_stacked(name, trials, bound):
    """One default-grid batch of VERIFY_BATCH_TRIALS trials peaks below
    ``bound`` times the bytes that the same trials need stacked point by
    point over the cells in their domains, with 1-d parameter columns; a
    batch's size is set by this peak.  A batch keeps u and v as axes and
    evaluates every cell, in the domain or not (measured, in bytes per
    cell of the batch: Kadiyala 176 against 345 stacked; VES, whose
    stacked trials hold only the 5 690 of 6 400 cells in their domains,
    130 against 186)."""
    family = harness.FAMILIES[name]
    records = [p for _, p in family.trials(trials, 0)]
    assert len(records) == harness.VERIFY_BATCH_TRIALS
    us, vs = grid_points(harness.DEFAULT_GRID)
    masks = [family.domain_valid(p, us, vs) for p in records]

    def stacked():
        u, v = (np.concatenate([x[ok] for ok in masks]) for x in (us, vs))
        with np.errstate(all="ignore"):
            _, (K, K_closed) = harness._curvatures(
                family, param_columns(records, [np.count_nonzero(ok) for ok in masks]), u, v)
            harness._rel_dev(K_closed, K)

    def verify():
        out = harness._run_verify(family, trials, 0, harness.DEFAULT_GRID,
                                  surface.DEFAULT_CURVATURE_TOL)
        assert out.ok and out.trials == len(records)
    verify()  # numpy's and the engine's one-time allocations
    assert _peak_bytes(verify) < bound * _peak_bytes(stacked)
