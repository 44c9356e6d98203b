"""A seeded fuzz of the prodgeo CLI: random commands, run in process
through ``cli.main``, and the properties every command must keep.

The commands are ``eval``, ``grid``, ``classify``, ``specialize``,
``verify-t1`` and ``verify-t2``.  Parameters come from the harness
samplers and from edge sets: VES with beta down to 1e-12 or rho near
1/beta, and Kadiyala sets of each classical shape (k2 = 0, k3 = 0,
k1 = k3 = 0) or with an exponent down to 1e-12.  Each axis of a grid, and
each coordinate of a point, is log-uniform in one of ``RANGES``: [1e-300,
1e300], [1e-40, 1e40], [1e-3, 1e3], or within 10x of the largest or of
the smallest normal double.

``tests/test_cli_fuzz.py`` checks ``PROPERTIES`` on a slice of them.  Run
as a script, this file compares two source trees command by command:

    PYTHONPATH=src python tests/cli_fuzz.py --against OTHER_TREE [--seed S] [--count N]

It draws the commands once, runs them in a child process for this
checkout and in one for OTHER_TREE, each importing prodgeo from its
tree's ``src/``, and prints each command whose exit code, stdout or
stderr differ, with the first line that differs, then the differences
counted by that line with its digits masked.  A warning's text is
appended to the command's stderr.  It exits 1 where any command
differs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import traceback
import warnings
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from prodgeo import cli, harness, models
from prodgeo.curvature import DevelopabilityReason
from prodgeo.errors import ConstraintViolation

MAX, MIN = sys.float_info.max, sys.float_info.min
#: each range a grid axis or a point coordinate is drawn from, log-uniform
RANGES = ((1e-300, 1e300), (1e-40, 1e40), (1e-3, 1e3), (MAX / 10, MAX), (MIN, 10 * MIN))
COMMANDS = {"eval": 0.25, "grid": 0.3, "classify": 0.1, "specialize": 0.1,
            "verify-t1": 0.125, "verify-t2": 0.125}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    try:
        x = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    except OverflowError:  # exp of log(MAX) can round past MAX
        x = hi
    return min(max(x, lo), hi)


def _range_value(rng: random.Random, lo: float, hi: float) -> float:
    """Log-uniform in [lo, hi]; the largest double itself a quarter of the
    time where hi is it."""
    return MAX if hi == MAX and rng.random() < 0.25 else _log_uniform(rng, lo, hi)


def _axis(rng: random.Random, n_max: int) -> str:
    span = rng.choice(RANGES)
    lo, hi = sorted(_range_value(rng, *span) for _ in range(2))
    n = 1 if lo == hi else rng.randint(1, n_max)
    return f"{lo!r},{hi!r},{n}"


def _grid(rng: random.Random, n_max: int) -> str:
    return f"{_axis(rng, n_max)},{_axis(rng, n_max)},{rng.choice(('log', 'linear'))}"


def _ves_edge(rng: random.Random) -> models.VesParams:
    """VES with beta down to 1e-12, or rho just below 1/beta."""
    beta = _log_uniform(rng, 1e-12, 0.95)
    if rng.random() < 0.5:
        rho = (1.0 - _log_uniform(rng, 1e-12, 0.1)) / beta
    else:
        rho = rng.uniform(0.1, 0.95 / beta)
    delta = rng.choice((1.0, rng.uniform(0.25, 4.0)))
    return models.ves_validate(rng.uniform(0.1, 10.0), beta, rho, delta)


def _kadiyala_edge(rng: random.Random) -> models.KadiyalaParams:
    """A Kadiyala set of one classical shape, or with an exponent down to
    1e-12."""
    a = rng.uniform(0.05, 0.95)
    b1, b2 = rng.uniform(0.1, 3.0), rng.choice((1.0, rng.uniform(0.1, 3.0)))
    shape = rng.choice(("k2=0", "k3=0", "k1=k3=0", "tiny exponent"))
    if shape == "k2=0":
        k = (a, 0.0, 1.0 - a)
        if rng.random() < 0.5:  # beta1 + beta2 = 1: perfect substitutes
            b1 = rng.uniform(0.05, 0.95)
            b2 = 1.0 - b1
    elif shape == "k3=0":
        k = (a, (1.0 - a) / 2.0, 0.0)
    elif shape == "k1=k3=0":
        k = (0.0, 0.5, 0.0)
    else:
        p = harness.random_kadiyala_params(rng.randrange(10**6))
        k, b1 = (p.k1, p.k2, p.k3), _log_uniform(rng, 1e-12, 1.0)
    return models.kadiyala_validate(*k, b1, b2, rng.choice((1.0, rng.uniform(0.25, 4.0))))


def _params(rng: random.Random, model: str) -> str:
    while True:
        try:
            if model == "ves":
                p = (harness.random_ves_params(rng.randrange(10**6),
                                               rng.choice((None, *harness.DELTA_STRATA)))
                     if rng.random() < 0.7 else _ves_edge(rng))
            else:
                p = (harness.random_kadiyala_params(rng.randrange(10**6),
                                                    rng.choice((None, *DevelopabilityReason)))
                     if rng.random() < 0.7 else _kadiyala_edge(rng))
        except ConstraintViolation:  # an edge set rounded off its constraints
            continue
        return models.params_to_json(p)


def command(rng: random.Random) -> list[str]:
    """One random command line, without the program's name."""
    name = rng.choices(list(COMMANDS), weights=list(COMMANDS.values()))[0]
    if name.startswith("verify"):
        argv = [name, "--trials", str(rng.randint(1, 4)), "--seed", str(rng.randrange(1000)),
                "--grid", _grid(rng, 4)]
    else:
        model = rng.choice(("ves", "kadiyala"))
        argv = [name, "--model", model, "--params", _params(rng, model)]
        if name == "eval":
            argv += ["--point", f"{_range_value(rng, *rng.choice(RANGES))!r},"
                                f"{_range_value(rng, *rng.choice(RANGES))!r}"]
        elif name == "grid":
            argv += ["--grid", _grid(rng, 12), "--format", rng.choice(("csv", "json"))]
        if name in ("eval", "grid") and rng.random() < 0.2:
            argv.append("--strict-domain")
    if name in ("grid", "verify-t1", "verify-t2") and rng.random() < 0.3:
        argv += ["--tol", repr(_log_uniform(rng, 1e-14, 1e-3))]
    return argv


def commands(seed: int, count: int) -> list[list[str]]:
    rng = random.Random(seed)
    return [command(rng) for _ in range(count)]


class Outcome(NamedTuple):
    code: int | None  # None: an exception escaped cli.main
    out: str
    err: str  # with each warning's text appended
    warnings: int


def run(argv: list[str]) -> Outcome:
    """``cli.main(argv)`` with stdout and stderr captured, and every
    warning shown (none is turned into an error)."""
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line)
                    for w in caught)
    return Outcome(code, out.getvalue(), err.getvalue() + shown, len(caught))


#: what an error line names: a point, the grid, or an option
_NAMED = re.compile(r"\([^()]*, [^()]*\)|\bgrid\b|--[a-z]")


def _names_what_it_rejects(outcome: Outcome) -> bool:
    lines = [line for line in outcome.err.splitlines() if "error:" in line]
    return bool(lines) and all(map(_NAMED.search, lines))


#: each property of one command, from two runs of it
PROPERTIES = {
    "exit code is 0, 1 or 2": lambda first, again: first.code in (0, 1, 2),
    "no traceback": lambda first, again: "Traceback" not in first.err,
    "no warning": lambda first, again: not first.warnings,
    "stdout is the same in two runs": lambda first, again: first.out == again.out,
    "each exit-2 line names a point, the grid or an option":
        lambda first, again: first.code != 2 or _names_what_it_rejects(first),
}


# --- Comparing two trees -----------------------------------------------------

def _run_all(tree: Path, argvs: list[list[str]]) -> list[list]:
    """Each command's [exit code, stdout, stderr] in a child process that
    imports prodgeo from ``tree``'s src/."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    child = subprocess.run([sys.executable, __file__, "--run", str(tree)], env=env,
                           input=json.dumps(argvs), capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def _first_difference(a: str, b: str) -> tuple[str, str]:
    for x, y in zip(a.splitlines() + [""], b.splitlines() + [""]):
        if x != y:
            return x, y
    return "", ""


def compare(this: Path, other: Path, seed: int, count: int) -> int:
    argvs = commands(seed, count)
    mine, theirs = _run_all(this, argvs), _run_all(other, argvs)
    classes = Counter()
    for argv, a, b in zip(argvs, mine, theirs):
        if a == b:
            continue
        print(f"prodgeo {shlex.join(argv)}")
        if a[0] != b[0]:
            print(f"  exit code: {a[0]} here, {b[0]} at {other}")
            classes[f"exit code {a[0]} against {b[0]}"] += 1
        for stream, x, y in (("stdout", a[1], b[1]), ("stderr", a[2], b[2])):
            if x != y:
                line, their_line = _first_difference(x, y)
                print(f"  {stream} here:  {line}\n  {stream} there: {their_line}")
                classes[f"{stream}: {re.sub(r'[0-9]+', '#', line)!r} against "
                        f"{re.sub(r'[0-9]+', '#', their_line)!r}"] += 1
    codes = Counter(a[0] for a in mine)
    print(f"{count} commands from seed {seed}; exit codes here {dict(sorted(codes.items()))}; "
          f"{sum(a != b for a, b in zip(mine, theirs))} differ")
    for text, n in classes.most_common():
        print(f"  {n:5d}  {text}")
    return 1 if classes else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="the source tree to compare with")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=1500)
    parser.add_argument("--run", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run:  # a child: run the commands on stdin with prodgeo from this tree
        import prodgeo
        if not Path(prodgeo.__file__).resolve().is_relative_to(args.run.resolve()):
            raise SystemExit(f"prodgeo was imported from {prodgeo.__file__}, not {args.run}")
        results = [list(run(argv)[:3]) for argv in json.load(sys.stdin)]
        json.dump(results, sys.stdout)
        return 0
    if args.against is None:
        parser.error("--against is required")
    return compare(Path(__file__).resolve().parents[1], args.against.resolve(),
                   args.seed, args.count)


if __name__ == "__main__":
    sys.exit(main())
