import json
import math

import pytest

from prodgeo import cli, harness

VES = '{"k": 1, "beta": 0.5, "rho": 0.5, "delta": 2}'
KAD = '{"k1": 0.3, "k2": 0.2, "k3": 0.3, "beta1": 1.5, "beta2": 0.8, "delta": 2}'


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


OPTIONS_READ = {
    "eval": {"--model", "--params", "--point", "--strict-domain"},
    "grid": {"--model", "--params", "--grid", "--strict-domain", "--tol", "--format"},
    "classify": {"--model", "--params"},
    "specialize": {"--model", "--params"},
    "verify-t1": {"--grid", "--seed", "--trials", "--tol"},
    "verify-t2": {"--grid", "--seed", "--trials", "--tol"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    offered = {name: {opt for a in sub._actions for opt in a.option_strings}
                     - {"-h", "--help"}
               for name, sub in subparsers.choices.items()}
    assert offered == OPTIONS_READ
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.dest == "model":
                assert list(action.choices) == list(harness.FAMILIES), name


@pytest.mark.parametrize("argv", [
    ("verify-t1", "--model", "kadiyala"),
    ("verify-t2", "--trials", "1", "--strict-domain"),
    ("eval", "--model", "ves", "--params", VES, "--point", "1,2", "--trials", "5"),
    ("classify", "--model", "ves", "--params", VES, "--tol", "0"),
    ("specialize", "--model", "kadiyala", "--params", KAD, "--seed", "1"),
])
def test_unread_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", [("grid",), ("eval", "--point", "1,2")])
def test_strict_domain_refused_without_one(capsys, command):
    code, out, err = run(capsys, *command, "--model", "kadiyala", "--params", KAD,
                         "--strict-domain")
    assert code == 2
    assert out == ""
    assert err == "error: --strict-domain applies to --model ves\n"


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "--model", "ves", "--params", VES,
                       "--point", "1,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["f"] == pytest.approx(1.2247448713915890)
    assert payload["K"] < 0  # increasing returns
    assert payload["valid"] is True


def test_eval_params_from_file(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(VES)
    code, out, _ = run(capsys, "eval", "--model", "ves", "--params", str(path),
                       "--point", "1,2")
    assert code == 0
    assert json.loads(out)["f"] == pytest.approx(1.2247448713915890)


def test_grid_csv_deterministic(capsys):
    args = ("grid", "--model", "kadiyala", "--params", KAD,
            "--grid", "0.5,5,6,0.5,5,6,log", "--format", "csv")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert out_a.startswith("u,v,f,K,H,valid,sign\n")
    assert len(out_a.strip().split("\n")) == 37


def test_grid_json(capsys):
    code, out, _ = run(capsys, "grid", "--model", "ves", "--params", VES,
                       "--grid", "1,2,2,1,2,2,linear", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"model", "rows", "summary"}
    assert len(payload["rows"]) == 4


def test_classify_ves(capsys):
    code, out, _ = run(capsys, "classify", "--model", "ves", "--params", VES)
    assert code == 0
    payload = json.loads(out)
    assert payload["returns_to_scale"] == "increasing"
    assert payload["predicted_curvature_sign"] == "negative"
    assert payload["developable"] is False


def test_classify_kadiyala(capsys):
    params = '{"k1": 0.4, "k2": 0, "k3": 0.6, "beta1": 0.3, "beta2": 0.7, "delta": 2}'
    code, out, _ = run(capsys, "classify", "--model", "kadiyala",
                       "--params", params)
    assert code == 0
    payload = json.loads(out)
    assert payload["developable"] is True
    assert payload["reason"] == "k2-zero-unit-exponent-sum"


def test_specialize(capsys):
    params = '{"k1": 0.25, "k2": 0.25, "k3": 0.25, "beta1": 1, "beta2": 1, "delta": 2}'
    code, out, _ = run(capsys, "specialize", "--model", "kadiyala",
                       "--params", params)
    assert code == 0
    assert json.loads(out)["family"] == "perfect-substitutes"


def test_verify_t1_small(capsys):
    code, _, err = run(capsys, "verify-t1", "--trials", "6", "--seed", "9",
                       "--grid", "0.5,5,5,0.5,5,5,log")
    assert code == 0
    assert "PASS" in err


def test_verify_t2_small(capsys):
    code, _, err = run(capsys, "verify-t2", "--trials", "2", "--seed", "9",
                       "--grid", "0.5,5,5,0.5,5,5,log")
    assert code == 0
    assert "PASS" in err


def test_grid_steep_points_finite(capsys):
    # at these points g11*g22 - g12^2 used to cancel to 0.0 and K divided by it
    code, out, _ = run(capsys, "grid", "--model", "ves", "--params",
                       '{"k":1,"beta":0.5,"rho":0.5,"delta":3}',
                       "--grid", "1,1e6,3,1,1e6,3")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    valid = [r for r in rows if r[5] == "true"]
    assert valid and all(math.isfinite(float(r[3])) for r in valid)


def test_bad_params_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--model", "ves",
                       "--params", '{"k": 1, "beta": 2, "rho": 0.5, "delta": 1}',
                       "--point", "1,2")
    assert code == 2
    assert "error" in err


def test_bad_grid_exit_2(capsys):
    code, _, err = run(capsys, "grid", "--model", "ves", "--params", VES,
                       "--grid", "nonsense")
    assert code == 2


def test_bad_point_exit_2(capsys):
    code, _, _ = run(capsys, "eval", "--model", "ves", "--params", VES,
                     "--point", "1;2")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("verify-t1", "--trials", "-5"),
    ("verify-t2", "--trials", "0"),
    ("verify-t1", "--trials", "3", "--tol", "nan"),
    ("verify-t2", "--trials", "1", "--tol", "inf"),
    ("grid", "--model", "ves", "--params", VES, "--tol", "0"),
    # finite input whose closed-form K overflows a float
    ("verify-t1", "--trials", "3", "--grid", "1e100,1e101,2,1e100,1e101,2"),
])
def test_vacuous_or_nan_input_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")


def test_missing_params_exit_2(capsys):
    code, _, _ = run(capsys, "classify", "--model", "ves")
    assert code == 2
