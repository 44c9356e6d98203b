import json
import math
import re
import warnings

import pytest

from prodgeo import cli, harness, surface

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


def test_grid_error_is_the_eval_error_at_its_point(capsys):
    """A grid that fails prints what `eval` prints at the point it names:
    the point path's digits, f_v=1.4430574770464174e-82 here, where the
    grid's own numpy power gives 1.443057477046417e-82."""
    params = ('{"beta": 0.33795879859074945, "delta": 1.0, "k": 7.57933849749291, '
              '"rho": 2.01757080024343}')
    grid = ("0.03717377213748648,0.0883166070734021,3,"
            "1.1388678092535562e+258,1.1388678092535562e+258,1,linear")
    code, out, err = run(capsys, "grid", "--model", "ves", "--params", params, "--grid", grid)
    assert (code, out) == (2, "")
    assert "f_v=1.4430574770464174e-82" in err
    point = re.fullmatch(r"error: .* at \((.+), (.+)\)\n", err).groups()
    assert run(capsys, "eval", "--model", "ves", "--params", params,
               "--point", ",".join(point)) == (2, "", err)


def test_long_inline_params_are_not_a_path(capsys):
    """Inline JSON longer than a file name may be is read as JSON."""
    compact = json.dumps(json.loads(KAD))
    padded = "\n" + " " * 128 + json.dumps(json.loads(KAD), indent=16) + "\n"
    assert len(padded.encode()) > 255
    outputs = [run(capsys, "eval", "--model", "kadiyala", "--params", params,
                   "--point", "1.5,0.7") for params in (compact, padded)]
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


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


CLOSED_FORM_OVERFLOW = ("verify-t1", "--trials", "3", "--grid", "1e100,1e101,2,1e100,1e101,2")
#: every power is finite; their product overflows to K = -inf
PRODUCT_OVERFLOW = ("verify-t1", "--trials", "3", "--grid", "1e30,1e31,2,1e30,1e31,2")
STEEP_SLOPES = ("grid", "--model", "ves", "--params", '{"k":1,"beta":0.5,"rho":0.5,"delta":3}',
                "--grid", "1e100,1e101,2,1e100,1e101,2")
NAN_POINT = ("eval", "--model", "ves", "--params", VES, "--point", "nan,1")
INF_POINT = ("eval", "--model", "kadiyala", "--params", KAD, "--point", "1,inf")
#: a power in the jet overflows; the jets see slots, the error names the point
POWER_OVERFLOW = ("eval", "--model", "ves", "--params",
                  '{"k":1,"beta":0.4,"rho":0.6,"delta":1.3}', "--point", "1e-300,1e-300")
#: an infinite grid bound, which numpy's spacing would meet with a warning
INF_GRID = ("grid", "--model", "ves", "--params", VES, "--grid", "1,inf,3,1,2,3")
INF_GRID_VERIFY = ("verify-t1", "--trials", "1", "--grid", "1,inf,3,1,2,3")
#: parameters that are not finite: the error names the field, not a jet
INF_DELTA = ("classify", "--params", '{"k":2,"beta":0.4,"rho":1.3,"delta":Infinity}')
INF_BETA2 = ("classify", "--model", "kadiyala", "--params",
             '{"k1":0.3,"k2":0.2,"k3":0.3,"beta1":1.5,"beta2":Infinity,"delta":2}')
HUGE_K = ("grid", "--params", '{"k":1e400,"beta":0.4,"rho":1.3,"delta":2}')
HUGE_INT_K = ("classify", "--params", '{"k":1' + "0" * 400 + ',"beta":0.4,"rho":1.3,"delta":2}')
#: values that are not JSON numbers, and documents that are not objects
NULL_K = ("classify", "--params", '{"k": null, "beta": 0.5, "rho": 0.5, "delta": 1}')
OBJECT_DELTA = ("classify", "--params", '{"k": 1, "beta": 0.5, "rho": 0.5, "delta": {}}')
LIST_K = ("classify", "--params", '{"k": [1], "beta": 0.5, "rho": 0.5, "delta": 1}')
BOOL_K = ("classify", "--params", '{"k": true, "beta": 0.5, "rho": 0.5, "delta": 1}')
STRING_K = ("classify", "--params", '{"k": "1", "beta": 0.5, "rho": 0.5, "delta": 1}')
#: a value nested deeper than json reads without running out of recursion
DEEP = '{"k": ' + "[" * 5000 + "]" * 5000 + ', "beta": 0.5, "rho": 0.5, "delta": 1}'
DEEP_CLASSIFY = ("classify", "--params", DEEP)
DEEP_GRID = ("grid", "--params", DEEP)
#: --params files, written in the test's working directory
PARAMS_FILES = {"five.json": "5", "null.json": "null",
                "repeated.json": '{"k1":0.3,"k2":0.2,"k3":0.3,"beta1":1.5,"beta2":0.8,'
                                 '"delta":2,"beta1":0.5}',
                #: written as Latin-1, where byte 0xff is no UTF-8
                "latin-1.json": '{"k": 1, "beta": 0.5, "rho": 0.5, "delta": 2, "\xff": 0}'}
NUMBER_FILE = ("classify", "--params", "five.json")
NULL_FILE = ("eval", "--model", "kadiyala", "--params", "null.json", "--point", "1,1")
#: input that cannot be read: the error names the option
BAD_JSON = ("classify", "--params", "{bad")
NO_FILE = ("classify", "--params", "nofile.json")
WORD_POINT = ("eval", "--model", "ves", "--params", VES, "--point", "a,b")
#: a key given twice, inline and in a file: the error names the key
REPEATED_KEY = ("classify", "--params", '{"k":1,"beta":0.5,"rho":0.5,"delta":2,"k":3}')
REPEATED_FILE = ("eval", "--model", "kadiyala", "--params", "repeated.json", "--point", "1,1")
LATIN1_FILE = ("classify", "--params", "latin-1.json")
#: random.Random(-s) draws what random.Random(s) draws, so -1 would rerun seed 1
NEGATIVE_SEED_T1 = ("verify-t1", "--trials", "1", "--seed", "-1")
NEGATIVE_SEED_T2 = ("verify-t2", "--trials", "1", "--seed", "-3")
#: a verify run whose one trial has no grid point in its domain
NO_DOMAIN = ("verify-t1", "--trials", "1", "--seed", "4", "--grid", "10,100,3,0.1,1,3")
#: what the error line must name, where the input is finite but overflows
NAMED = {
    CLOSED_FORM_OVERFLOW: "ves_curvature_closed overflows a float at (1e+100, 1e+100)",
    PRODUCT_OVERFLOW: "ves_curvature_closed overflows a float at (1e+30, 1e+30)",
    STEEP_SLOPES: "1 + f_u^2 + f_v^2 overflows at slopes",
    NAN_POINT: "error: --point must be finite, got 'nan,1'",
    INF_POINT: "error: --point must be finite, got '1,inf'",
    POWER_OVERFLOW: "power overflow: 6e-301 ** -1.688 at (1e-300, 1e-300)",
    INF_GRID: "error: grid bounds must be finite, got u_max=inf",
    INF_GRID_VERIFY: "error: grid bounds must be finite, got u_max=inf",
    INF_DELTA: "error: parameter delta must be finite, got inf",
    INF_BETA2: "error: parameter beta2 must be finite, got inf",
    HUGE_K: "error: parameter k must be finite, got inf",
    HUGE_INT_K: "error: parameter k must be finite, got inf",
    NULL_K: "error: parameter k must be a number, got null",
    OBJECT_DELTA: "error: parameter delta must be a number, got {}",
    LIST_K: "error: parameter k must be a number, got [1]",
    BOOL_K: "error: parameter k must be a number, got true",
    STRING_K: 'error: parameter k must be a number, got "1"',
    DEEP_CLASSIFY: "error: --params is nested too deeply to read",
    DEEP_GRID: "error: --params is nested too deeply to read",
    NUMBER_FILE: "error: parameters must be a JSON object, got 5",
    NULL_FILE: "error: parameters must be a JSON object, got null",
    NO_DOMAIN: "error: no trial has a point of the grid 10.0,100.0,3,0.1,1.0,3,log in its domain",
    BAD_JSON: "error: --params is not valid JSON: Expecting property name",
    NO_FILE: "error: --params file cannot be read: [Errno 2] No such file or directory",
    WORD_POINT: "error: --point must be 'u,v', got 'a,b'",
    REPEATED_KEY: 'error: parameter key "k" is given twice',
    REPEATED_FILE: 'error: parameter key "beta1" is given twice',
    LATIN1_FILE: ("error: --params file is not UTF-8: 'utf-8' codec can't decode "
                  "byte 0xff in position 47: invalid start byte\n"),
    NEGATIVE_SEED_T1: "error: --seed must be >= 0, got -1\n",
    NEGATIVE_SEED_T2: "error: --seed must be >= 0, got -3\n",
}


@pytest.mark.parametrize("argv", [
    ("verify-t1", "--trials", "-5"),
    ("verify-t2", "--trials", "0"),
    ("verify-t1", "--trials", "3", "--tol", "nan"),
    ("verify-t2", "--trials", "1", "--tol", "inf"),
    ("grid", "--model", "ves", "--params", VES, "--tol", "0"),
    # finite input whose closed-form K overflows a float
    CLOSED_FORM_OVERFLOW,
    # slopes so steep that 1 + f_u^2 + f_v^2 overflows: K read 0, H nan
    STEEP_SLOPES,
    # finite input whose closed-form K overflows through a product of powers
    PRODUCT_OVERFLOW,
    # a point that is not finite: the error names the argument, not a jet
    NAN_POINT,
    INF_POINT,
    POWER_OVERFLOW,
    INF_GRID,
    INF_GRID_VERIFY,
    INF_DELTA,
    INF_BETA2,
    HUGE_K,
    HUGE_INT_K,
    NULL_K,
    OBJECT_DELTA,
    LIST_K,
    BOOL_K,
    STRING_K,
    NUMBER_FILE,
    NULL_FILE,
    DEEP_CLASSIFY,
    DEEP_GRID,
    NO_DOMAIN,
    BAD_JSON,
    NO_FILE,
    WORD_POINT,
    REPEATED_KEY,
    REPEATED_FILE,
    LATIN1_FILE,
    NEGATIVE_SEED_T1,
    NEGATIVE_SEED_T2,
])
def test_vacuous_or_nan_input_exit_2(capsys, monkeypatch, tmp_path, argv):
    for name, text in PARAMS_FILES.items():
        (tmp_path / name).write_text(text, encoding="latin-1")
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert not caught
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert NAMED.get(argv, "") in err


def test_out_of_memory_exit_2(capsys, monkeypatch):
    """A grid too large to allocate is bad input; exit 1 means a check failed."""
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(10000000000,) and data type float64")

    monkeypatch.setattr(harness, "build_grid_report", too_large)
    code, out, err = run(capsys, "grid", "--params", VES,
                         "--grid", "0.1,10,100000,0.1,10,100000")
    assert code == 2
    assert out == ""
    assert err == ("error: out of memory: Unable to allocate 74.5 GiB for an array "
                   "with shape (10000000000,) and data type float64\n")


def test_default_grid_is_the_library_default():
    assert harness.parse_grid_spec(cli.OPTIONS["--grid"]["default"]) == harness.DEFAULT_GRID


def test_missing_params_exit_2(capsys):
    code, _, _ = run(capsys, "classify", "--model", "ves")
    assert code == 2


ROUTE_GRID = "0.5,5,3,0.5,5,3"


def test_K_has_one_route(capsys, monkeypatch):
    """eval, grid and verify-t1 take autodiff K from surface.curvatures
    alone: K scaled there is the K that each of them prints or checks."""
    eval_argv = ("eval", "--model", "ves", "--params", VES, "--point", "1,2")
    grid_argv = ("grid", "--model", "kadiyala", "--params", KAD, "--grid", ROUTE_GRID,
                 "--format", "json")
    verify_argv = ("verify-t1", "--trials", "3", "--grid", ROUTE_GRID)
    clean = [run(capsys, *argv) for argv in (eval_argv, grid_argv, verify_argv)]
    curvatures = surface.curvatures

    def scaled(jet):
        K, H, w2 = curvatures(jet)
        return 1.5 * K, H, w2
    monkeypatch.setattr(surface, "curvatures", scaled)

    code, out, _ = run(capsys, *eval_argv)
    K = json.loads(clean[0][1])["K"]
    assert (code, json.loads(out)["K"]) == (0, 1.5 * K) and K != 0.0
    code, out, _ = run(capsys, *grid_argv)
    Ks = [row["K"] for row in json.loads(clean[1][1])["rows"]]
    assert code == 0 and [row["K"] for row in json.loads(out)["rows"]] == [1.5 * K for K in Ks]
    assert any(Ks)
    code, _, err = run(capsys, *verify_argv)
    assert clean[2][0] == 0 and code == 1 and "autodiff K=" in err
