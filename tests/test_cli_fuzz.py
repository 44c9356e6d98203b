"""The CLI fuzz's properties (``cli_fuzz.PROPERTIES``) on a seeded slice
of its commands, each run twice in process, and each grid of the slice
against ``eval`` at its points."""

import json
import re

import pytest

import cli_fuzz

SLICE = cli_fuzz.commands(seed=0, count=300)
#: the point an error line names at its end
POINT = re.compile(r" at \(([^()]*), ([^()]*)\)\n\Z")


@pytest.fixture(scope="module")
def outcomes():
    return [(argv, cli_fuzz.run(argv), cli_fuzz.run(argv)) for argv in SLICE]


@pytest.mark.parametrize("name", sorted(cli_fuzz.PROPERTIES))
def test_fuzzed_commands_keep_property(outcomes, name):
    holds = cli_fuzz.PROPERTIES[name]
    broken = [argv for argv, first, again in outcomes if not holds(first, again)]
    assert not broken, f"{len(broken)} of {len(SLICE)} commands break it, first {broken[0]}"


def _eval(grid: list[str], u: str, v: str) -> cli_fuzz.Outcome:
    """``eval`` at (u, v) with the model, parameters and domain of the
    grid command ``grid``."""
    model, params = (grid[grid.index(flag) + 1] for flag in ("--model", "--params"))
    strict = ["--strict-domain"] if "--strict-domain" in grid else []
    return cli_fuzz.run(["eval", "--model", model, "--params", params, "--point", f"{u},{v}",
                         *strict])


def _points_in_domain(grid: list[str], out: str) -> list[tuple[str, str]]:
    """The (u, v) texts of the rows in the domain of the grid report
    ``out``, which the grid command ``grid`` printed."""
    if grid[grid.index("--format") + 1] == "json":
        return [(repr(row["u"]), repr(row["v"])) for row in json.loads(out)["rows"]
                if row["valid"]]
    rows = (line.split(",") for line in out.splitlines()[1:])
    return [(u, v) for u, v, *_, valid, _ in rows if valid == "true"]


def test_failing_grid_prints_the_eval_error_at_its_point(outcomes):
    """A grid that exits 2 at a point prints what ``eval`` prints there."""
    failing = [(argv, first, POINT.search(first.err)) for argv, first, _ in outcomes
               if argv[0] == "grid" and first.code == 2]
    named = [(argv, first, point.groups()) for argv, first, point in failing if point]
    broken = [argv for argv, first, point in named if _eval(argv, *point) != first]
    assert named and not broken, f"{len(broken)} of {len(named)} grids, first {broken[:1]}"


def test_passing_grid_has_no_row_in_the_domain_where_eval_fails(outcomes):
    """A grid that exits 0 has no row in the domain where ``eval`` exits 2."""
    passing = [(argv, _points_in_domain(argv, first.out)) for argv, first, _ in outcomes
               if argv[0] == "grid" and first.code == 0]
    broken = [(argv, point) for argv, points in passing for point in points
              if _eval(argv, *point).code != 0]
    assert sum(len(points) for _, points in passing) and not broken, \
        f"{len(broken)} rows, first {broken[:1]}"
