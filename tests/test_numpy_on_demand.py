"""numpy is a batch's dependency: importing prodgeo and evaluating points
load none of it, and the first batch of the same process loads it and
computes what it computes in a process that has numpy from the start.
orjson is a grid's dependency: neither points nor a verify run load it,
and the first grid does.  A family's point code is compiled on its first
seeded point, and its batch code on its first batch, not on import; a
constant point, and later points and batches, compile none."""

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
LATER_CASES = ("grid-csv-kadiyala-generic", "verify-t2")  # a second grid, and a verify run

SCRIPT = """
import contextlib, io, json, sys

import prodgeo
from prodgeo import cli, curvature, jets, models, surface

def numpy_modules():
    return sorted(name for name in sys.modules if name.startswith("numpy."))

def orjson_loaded():
    return any(name.split(".")[0] == "orjson" for name in sys.modules)

after_import = orjson_loaded()
ves = models.ves_validate(1, 0.4, 1.5, 1.6)
kad = models.kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 2)
for evaluate, p in ((models.ves_eval, ves), (models.kadiyala_eval, kad)):
    surface.curvature_from_jet(evaluate(p, jets.constant(1.5), jets.constant(0.7)))
compiled = [jets._point_code.cache_info().currsize]  # codes compiled so far
compiled_after = {}

def run(name, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    compiled_after[name] = jets._point_code.cache_info().currsize
    return code, out.getvalue(), err.getvalue()

for evaluate, closed, p in ((models.ves_eval, curvature.ves_curvature_closed, ves),
                            (models.kadiyala_eval, curvature.kadiyala_curvature_closed, kad)):
    for u, v in ((1.5, 0.7), (2, 3)):
        surface.curvature_from_jet(evaluate(p, *jets.seed(u, v)))
        closed(p, u, v)
    compiled.append(jets._point_code.cache_info().currsize)
cases = json.loads(sys.argv[1])
points = {name: run(name, argv) for name, argv in cases["points"].items()}
after_points = numpy_modules(), orjson_loaded()
verify = {name: run(name, argv) for name, argv in cases["verify"].items()}
after_verify = len(numpy_modules()), orjson_loaded()
grids = {name: run(name, argv) for name, argv in cases["grids"].items()}
after_grids = orjson_loaded()
later = {name: run(name, argv) for name, argv in cases["later"].items()}
print(json.dumps({"after_import": after_import, "compiled": compiled,
                  "compiled_after": compiled_after, "after_points": after_points,
                  "after_verify": after_verify, "after_grids": after_grids,
                  "runs": {**points, **verify, **grids, **later}}))
"""


def test_points_load_no_numpy_and_a_later_batch_matches_golden():
    cases = {"points": {name: CASES[name] for name in POINT_CASES},
             "verify": {name: CASES[name] for name in VERIFY_CASES},
             "grids": {name: CASES[name] for name in GRID_CASES},
             "later": {name: CASES[name] for name in LATER_CASES}}
    src = str(Path(prodgeo.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(cases)],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    got = json.loads(proc.stdout)
    assert not got["after_import"]
    # none on import or for constant points, then one per family's first seeded point
    assert got["compiled"] == [0, 1, 2]
    after = got["compiled_after"]
    assert {after[name] for name in POINT_CASES} == {2}
    assert after["verify-t1"] == 3  # VES's first batch compiles one code
    assert after["grid-csv-ves-increasing"] == 3  # and its next compiles none
    assert after["grid-json-kadiyala-generic"] == 4  # Kadiyala's first batch compiles one
    assert [after[name] for name in LATER_CASES] == [4, 4]
    assert got["after_points"] == [[], False]
    numpy_loaded, orjson_loaded = got["after_verify"]
    assert numpy_loaded > 0 and not orjson_loaded
    assert got["after_grids"]
    assert set(got["runs"]) == {*POINT_CASES, *VERIFY_CASES, *GRID_CASES, *LATER_CASES}
    for name, (code, out, err) in got["runs"].items():
        assert blob_hash(code, out, err) == GOLDEN[name], name
