"""Self-test of the benchmark's output checks: each one passes the
program's real output and rejects a corrupted copy of it. Runs in a few
seconds on small inputs:

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import workloads  # noqa: E402
from prodgeo import harness  # noqa: E402

N = 8
AXIS = workloads.log_axis(0.1, 10.0, N)
CASES = {case.label: case for case in workloads.GridSweep(1).cases}
POINT_CASES = {case.label: case for case in workloads.PointEval(1).cases}


def grid_outputs(case):
    report = harness.build_grid_report(case.params,
                                       harness.GridSpec(0.1, 10.0, 0.1, 10.0, N, N))
    return harness.emit_grid_report(report, "csv"), harness.emit_grid_report(report, "json")


def edit_row(csv_text, json_text, index, edit):
    """Applies edit(row dict) to one row of both outputs; None drops the row."""
    lines = csv_text.split("\n")
    data = json.loads(json_text)
    row = data["rows"][index]
    new = edit(dict(row))
    if new is None:
        del lines[index + 1], data["rows"][index]
    else:
        data["rows"][index] = new
        lines[index + 1] = ",".join(
            "" if new[k] is None else ("true" if new[k] else "false") if k == "valid"
            else repr(new[k]) if isinstance(new[k], float) else str(new[k])
            for k in ("u", "v", "f", "K", "H", "valid", "sign"))
    return "\n".join(lines), json.dumps(data)


@pytest.mark.parametrize("label", sorted(CASES))
def test_grid_output_passes(label):
    problems, rows = workloads.check_grid(CASES[label], AXIS, *grid_outputs(CASES[label]))
    assert problems == [] and len(rows) == N * N


def test_dropped_row_rejected():
    case = CASES["kadiyala-generic"]
    problems, _ = workloads.check_grid(case, AXIS, *edit_row(*grid_outputs(case), 5,
                                                             lambda r: None))
    assert any("rows, expected" in p for p in problems)


def test_flipped_sign_rejected():
    case = CASES["ves-increasing"]
    flip_label = edit_row(*grid_outputs(case), 9, lambda r: {**r, "sign": "positive"})
    assert workloads.check_grid(case, AXIS, *flip_label)[0]
    flip_k = edit_row(*grid_outputs(case), 9,
                      lambda r: {**r, "K": -r["K"], "sign": "positive"})
    assert any("theorem says negative" in p
               for p in workloads.check_grid(case, AXIS, *flip_k)[0])


def test_csv_json_disagreement_rejected():
    case = CASES["kadiyala-developable"]
    csv_text, json_text = grid_outputs(case)
    data = json.loads(json_text)
    data["rows"][3]["f"] *= 1.0 + 1e-15
    problems, _ = workloads.check_grid(case, AXIS, csv_text, json.dumps(data))
    assert any("CSV and JSON differ" in p for p in problems)


def test_invalid_point_marked_valid_rejected():
    case = CASES["ves-rho-below-1"]
    csv_text, json_text = grid_outputs(case)
    index = next(i for i, r in enumerate(json.loads(json_text)["rows"]) if not r["valid"])
    problems, _ = workloads.check_grid(case, AXIS, *edit_row(
        csv_text, json_text, index, lambda r: {**r, "valid": True}))
    assert any("disagrees with the domain" in p for p in problems)


@pytest.mark.parametrize("label", ["kadiyala-generic-a", "ves-increasing",
                                   "ves-decreasing-rho-below-1"])
def test_oracle_rejects_scaled_K(label):
    case = POINT_CASES[label]
    u, v = 1.7, 2.3
    values = workloads.program_values(case.family, case.params, u, v)
    assert oracle.violations(case.family, case.params, u, v, values) == []
    for name in ("K", "K_closed"):
        scaled = {**values, name: values[name] * (1.0 + 1e-6)}
        assert oracle.violations(case.family, case.params, u, v, scaled)


@pytest.mark.parametrize("label", ["kadiyala-constant-returns", "kadiyala-k2-zero-unit-sum",
                                   "kadiyala-rank-one", "ves-constant"])
def test_developable_bound(label):
    """Where the exact K is 0, the bound is C*EPS*S: the program's K meets
    it, and a K a million times larger than S*EPS does not."""
    case = POINT_CASES[label]
    u, v = 0.4, 6.0
    out = workloads.EVALUATE[case.family](case.params, u, v)
    assert workloads.check_point(case, u, v, out) == []
    jet = out[0]
    big = 1e6 * oracle.EPS * oracle.flat_scale(case.family, case.params, u, v, jet.d1, jet.d2)
    assert workloads.check_point(case, u, v, (jet, big, *out[2:]))
    values = workloads.program_values(case.family, case.params, u, v)
    assert oracle.violations(case.family, case.params, u, v, values) == []
    assert oracle.violations(case.family, case.params, u, v, {**values, "K": big})


def test_point_check_rejects_flipped_sign():
    case = POINT_CASES["ves-decreasing"]
    out = workloads.EVALUATE[case.family](case.params, 2.0, 3.0)
    assert workloads.check_point(case, 2.0, 3.0, out) == []
    jet, K, H, K_closed, valid = out
    assert workloads.check_point(case, 2.0, 3.0, (jet, -K, H, K_closed, valid))


def test_zero_trial_summary_rejected():
    good = harness.run_verify_theorem1(3, 0)
    assert workloads.check_verify("verify-t1", good, 3, 3) == []
    empty = harness.VerifySummary(theorem=good.theorem, trials=0, passes=0)
    assert empty.ok
    assert workloads.check_verify("verify-t1", empty, 300, 0)
    assert workloads.check_verify("verify-t1", empty, 0, 0)
