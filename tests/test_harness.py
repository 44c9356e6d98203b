import json
import math

import pytest

from helpers import assert_close
from prodgeo import curvature, harness, models
from prodgeo.curvature import DevelopabilityReason, DevelopabilityVerdict
from prodgeo.errors import InvalidSpecError, StencilOutOfDomainError
from prodgeo.harness import GridSpec, Spacing
from prodgeo.surface import SignClass


class TestGrid:
    def test_linear_corners(self):
        spec = GridSpec(1, 10, 1, 10, 2, 2, Spacing.LINEAR)
        assert set(harness.sample_grid(spec)) == {(1, 1), (1, 10), (10, 1), (10, 10)}

    def test_log_midpoint(self):
        spec = GridSpec(1, 100, 1, 1, 3, 1, Spacing.LOGARITHMIC)
        us = [u for u, _ in harness.sample_grid(spec)]
        assert_close(us[0], 1, 1e-12)
        assert_close(us[1], 10, 1e-12)
        assert_close(us[2], 100, 1e-12)

    def test_default_grid_size(self):
        pts = harness.sample_grid(harness.DEFAULT_GRID)
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

    def test_kadiyala_deterministic(self):
        assert harness.random_kadiyala_params(7) == harness.random_kadiyala_params(7)

    def test_kadiyala_always_valid(self):
        for s in range(2000):
            harness.random_kadiyala_params(s)

    @pytest.mark.parametrize("condition", harness.FORWARD_CONDITIONS)
    def test_forced_conditions_hold(self, condition):
        for s in range(200):
            p = harness.random_kadiyala_params(s, condition)
            verdict = curvature.kadiyala_is_developable(p)
            assert verdict.developable and verdict.reason is condition

    def test_force_condition_accepts_strings(self):
        p = harness.random_kadiyala_params(3, "beta-one-rank-one-weights")
        assert curvature.kadiyala_is_developable(p).reason \
            is DevelopabilityReason.BETA_ONE_RANK_ONE

    def test_generic_draws_violate_all_conditions(self):
        for s in range(200):
            p = harness.random_kadiyala_params(s, None)
            assert not curvature.kadiyala_is_developable(p).developable


class TestFdOracle:
    def test_simple_square(self):
        grad, hess = harness.fd_oracle(lambda u, v: u * u, 3.0, 1.0)
        assert abs(grad[0] - 6.0) <= 1e-8
        assert abs(grad[1]) <= 1e-8
        assert abs(hess[0, 0] - 2.0) <= 1e-5

    def test_stencil_out_of_domain_near_ves_boundary(self):
        p = models.ves_validate(1, 0.5, 0.5, 1)
        # boundary at v = 0.5*u; a point this close puts the stencil across
        with pytest.raises(StencilOutOfDomainError):
            harness.fd_oracle(lambda u, v: models.ves_value(p, u, v),
                              1.0, 0.5 + 1e-7)

    def test_matches_autodiff_on_kadiyala(self):
        from prodgeo import jets
        p = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2)
        grad, hess = harness.fd_oracle(
            lambda u, v: models.kadiyala_value(p, u, v), 1.0, 1.0)
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
        out = harness.run_verify_theorem1(0, 1)
        assert out.trials == 0 and out.passes == 0 and out.ok

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
        out = harness.run_verify_theorem2(0, 1)
        assert out.trials == 0 and out.ok

    def test_theorem2_detects_corruption(self, monkeypatch):
        true_verdict = curvature.kadiyala_is_developable

        def negated_verdict(p):
            verdict = true_verdict(p)
            return DevelopabilityVerdict(not verdict.developable, verdict.reason)

        monkeypatch.setattr(curvature, "kadiyala_is_developable", negated_verdict)
        out = harness.run_verify_theorem2(2, 123, SMALL_GRID)
        assert not out.ok
        assert out.trials == 8 and out.passes == 0


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
        assert all(r.sign == "zero" for r in report.rows)
        assert report.summary["verdict"] == "constant-returns"

    def test_json_round_trip(self):
        p = models.ves_validate(1, 0.5, 0.5, 2)
        report = harness.build_grid_report(p, SMALL_GRID)
        text = harness.emit_grid_report(report, "json")
        assert harness.grid_report_from_json(text) == report

    def test_invalid_points_flagged(self):
        # rho < 1 makes the lower-right corner invalid
        p = models.ves_validate(1, 0.5, 0.1, 2)
        report = harness.build_grid_report(p, GridSpec(0.1, 10, 0.1, 10, 6, 6))
        for row in report.rows:
            expected = models.ves_domain_valid(p, row.u, row.v, strict=False)
            assert row.valid == expected
            if not expected:
                assert row.f is None and row.K is None and row.sign == ""
        assert report.summary["invalid_points"] == sum(
            1 for r in report.rows if not r.valid)
        assert report.summary["invalid_points"] > 0

    def test_summary_recomputable_from_rows(self):
        p = models.ves_validate(1, 0.5, 0.5, 2)
        report = harness.build_grid_report(p, SMALL_GRID)
        ks = [abs(r.K) for r in report.rows if r.valid]
        fs = [r.f for r in report.rows if r.valid]
        assert report.summary["max_abs_k"] == max(ks)
        assert report.summary["f_min"] == min(fs)
        assert report.summary["f_max"] == max(fs)

    def test_emission_deterministic(self):
        p = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2)
        a = harness.emit_grid_report(harness.build_grid_report(p, SMALL_GRID), "csv")
        b = harness.emit_grid_report(harness.build_grid_report(p, SMALL_GRID), "csv")
        assert a == b

    def test_csv_floats_round_trip(self):
        p = models.ves_validate(1, 0.5, 0.5, 2)
        report = harness.build_grid_report(p, SMALL_GRID)
        text = harness.emit_grid_report(report, "csv")
        for line, row in zip(text.strip().split("\n")[1:], report.rows):
            cells = line.split(",")
            assert float(cells[0]) == row.u and float(cells[1]) == row.v
            if row.valid:
                assert float(cells[2]) == row.f and float(cells[3]) == row.K
