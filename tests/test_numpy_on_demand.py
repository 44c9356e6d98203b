"""numpy is a batch's dependency: importing prodgeo and evaluating points
load none of it, and the first batch of the same process loads it and
computes what it computes in a process that has numpy from the start.
orjson is a grid's dependency: neither points nor a verify run load it,
and the first grid does."""

import json
import os
import subprocess
import sys
from pathlib import Path

import prodgeo
from test_cli_golden import CASES, GOLDEN, blob_hash

POINT_CASES = sorted(name for name in CASES if CASES[name][0] in ("eval", "classify",
                                                                   "specialize"))
VERIFY_CASES = ("verify-t1",)
GRID_CASES = ("grid-csv-ves-increasing", "grid-json-kadiyala-generic")

SCRIPT = """
import contextlib, io, json, sys

import prodgeo
from prodgeo import cli, curvature, jets, models, surface

def numpy_modules():
    return sorted(name for name in sys.modules if name.startswith("numpy."))

def orjson_loaded():
    return any(name.split(".")[0] == "orjson" for name in sys.modules)

after_import = orjson_loaded()

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()

ves = models.ves_validate(1, 0.4, 1.5, 1.6)
kad = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2)
for evaluate, closed, p in ((models.ves_eval, curvature.ves_curvature_closed, ves),
                            (models.kadiyala_eval, curvature.kadiyala_curvature_closed, kad)):
    for u, v in ((1.5, 0.7), (2, 3)):
        surface.curvature_from_jet(evaluate(p, *jets.seed(u, v)))
        closed(p, u, v)
cases = json.loads(sys.argv[1])
points = {name: run(argv) for name, argv in cases["points"].items()}
after_points = numpy_modules(), orjson_loaded()
verify = {name: run(argv) for name, argv in cases["verify"].items()}
after_verify = len(numpy_modules()), orjson_loaded()
grids = {name: run(argv) for name, argv in cases["grids"].items()}
print(json.dumps({"after_import": after_import, "after_points": after_points,
                  "after_verify": after_verify, "after_grids": orjson_loaded(),
                  "runs": {**points, **verify, **grids}}))
"""


def test_points_load_no_numpy_and_a_later_batch_matches_golden():
    cases = {"points": {name: CASES[name] for name in POINT_CASES},
             "verify": {name: CASES[name] for name in VERIFY_CASES},
             "grids": {name: CASES[name] for name in GRID_CASES}}
    src = str(Path(prodgeo.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(cases)],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    got = json.loads(proc.stdout)
    assert not got["after_import"]
    assert got["after_points"] == [[], False]
    numpy_loaded, orjson_loaded = got["after_verify"]
    assert numpy_loaded > 0 and not orjson_loaded
    assert got["after_grids"]
    assert set(got["runs"]) == {*POINT_CASES, *VERIFY_CASES, *GRID_CASES}
    for name, (code, out, err) in got["runs"].items():
        assert blob_hash(code, out, err) == GOLDEN[name], name
