"""The benchmark's three workloads: their seeded inputs, their timed
operations, and the checks made on every output.

Every workload runs in rounds. A round is a fixed list of operations
made from the seed, and each round repeats the same operations, so a run
of any length attempts whole rounds of one mix. Checks run between
operations, outside their timing: every output of the first round is
checked in full, and later rounds must reproduce it exactly. A seeded
sample of points from the first round is kept for the 50-digit oracle
(``oracle.py``), which runs after the timed part.

Functions of prodgeo are looked up on their modules at call time, so
that the spans of ``spans.py`` see every call.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import random
import traceback
from array import array
from dataclasses import dataclass, field
from time import perf_counter

from prodgeo import curvature, harness, jets, models, surface

import oracle

#: The zero band of the CLI's sign column: |K| <= ZERO_TOL * (1 + max|K|).
ZERO_TOL = 1e-9
CSV_HEADER = "u,v,f,K,H,valid,sign"
#: Operation times go to a buffer filled at allocation, so the benchmark's
#: memory does not grow with the number of operations a run completes.
OP_SLOTS = 1 << 20


@dataclass(frozen=True)
class Case:
    """One parameter set and what the theorems say about it."""
    label: str
    family: str              # "ves" or "kadiyala"
    params: object           # the program's validated parameter record
    expect_sign: str | None  # sign of K at every point: positive, negative, zero
    verdict: str             # the grid summary's verdict for these parameters


@dataclass
class Tally:
    """What a run attempted, measured and found, summed over its rounds."""
    rounds: int = 0
    round_ends: list = field(default_factory=list)   # ops_timed after each round
    busy_s: float = 0.0        # wall time inside timed operations
    points: int = 0            # (u, v) points handed to the program
    useful_points: int = 0     # of those, the ones inside the model's domain
    attempted: int = 0
    failed: int = 0
    emit_bytes: int = 0
    ops_timed: int = 0
    op_s: array = field(default_factory=lambda: array("d", bytes(8 * OP_SLOTS)))
    op_kind: array = field(default_factory=lambda: array("B", bytes(OP_SLOTS)))
    problems: list = field(default_factory=list)
    problem_count: int = 0
    # (family, params, u, v, values); values None where the operation
    # reports no K, to be computed again once timing is over.
    samples: list = field(default_factory=list)

    def op(self, seconds: float, kind: int):
        """Records one operation's time; ``kind`` tells apart operations of
        one round that do different work (a grid's parameter set, say)."""
        if self.ops_timed < OP_SLOTS:
            self.op_s[self.ops_timed] = seconds
            self.op_kind[self.ops_timed] = kind
        self.ops_timed += 1

    def end_round(self):
        self.rounds += 1
        self.round_ends.append(self.ops_timed)

    def rounds_timed(self):
        """(times, kinds) of the operations of each round kept in full."""
        start = 0
        for end in self.round_ends:
            if end > OP_SLOTS:
                return
            yield self.op_s[start:end], self.op_kind[start:end]
            start = end

    def op_times(self) -> array:
        return self.op_s[:min(self.ops_timed, OP_SLOTS)]

    def problem(self, message: str):
        self.problem_count += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def fail(self, count: int, message: str):
        self.failed += count
        self.problem(f"failed: {message}")


def isolated(fn, *args):
    """fn(*args) in a forked child, so that the memory it takes never counts
    toward this process's peak resident size; the result comes back pickled."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:
            with os.fdopen(write, "wb") as out:
                pickle.dump(fn(*args), out)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"the check process exited with status {status}")
    return pickle.loads(data)


def log_axis(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def in_domain(family: str, params, u: float, v: float) -> bool:
    """The well-posed domain, written apart from the program."""
    if family == "ves":
        return (params.rho - 1.0) * u + v > 0
    return u > 0 and v > 0


# --- Parameter sets, drawn by the benchmark's own generator ---------------

def _weights(rng):
    w1, w2, w3 = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
    s = w1 + w2 + w3
    return w1 / s, w2 / (2.0 * s), w3 / s   # k1 + 2 k2 + k3 = 1


def kadiyala_generic(rng, label) -> Case:
    """Away from all three developability conditions."""
    k1, k2, k3 = _weights(rng)
    b1, b2 = rng.uniform(0.3, 0.8), rng.uniform(1.2, 2.0)
    low, high = rng.uniform(0.4, 0.8), rng.uniform(1.3, 2.0)
    delta = rng.choice((low, high))
    return Case(label, "kadiyala", models.kadiyala_validate(k1, k2, k3, b1, b2, delta),
                None, "not-developable")


def kadiyala_developable(rng, label, reason) -> Case:
    """On one of the three developability conditions: constant-returns,
    k2-zero-unit-exponent-sum or beta-one-rank-one-weights."""
    if reason == "constant-returns":
        k1, k2, k3 = _weights(rng)
        b1, b2, delta = rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0), 1.0
    elif reason == "k2-zero-unit-exponent-sum":
        k1 = rng.uniform(0.2, 0.8)
        k2, k3 = 0.0, 1.0 - k1
        b1 = rng.uniform(0.2, 0.8)
        b2, delta = 1.0 - b1, rng.uniform(1.3, 2.0)
    else:
        w1, w3 = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
        w2 = math.sqrt(w1 * w3)   # k2^2 = k1 k3
        s = w1 + 2.0 * w2 + w3
        k1, k2, k3 = w1 / s, w2 / s, w3 / s
        b1, b2, delta = 1.0, 1.0, rng.uniform(1.3, 2.0)
    return Case(label, "kadiyala", models.kadiyala_validate(k1, k2, k3, b1, b2, delta),
                "zero", reason)


def ves(rng, label, beta, rho, delta) -> Case:
    """A VES set with beta, rho and delta drawn from the given ranges; the
    sign of K follows from delta alone."""
    k = rng.uniform(0.5, 2.0)
    b, r, d = (rng.uniform(*beta), rng.uniform(*rho),
               1.0 if delta == 1.0 else rng.uniform(*delta))
    regime, sign = (("constant", "zero") if d == 1.0 else
                    ("decreasing", "positive") if d < 1.0 else ("increasing", "negative"))
    return Case(label, "ves", models.ves_validate(k, b, r, d), sign,
                f"{regime}-returns:{sign}-curvature")


# --- One point, as `prodgeo eval` computes it ------------------------------

def evaluate_ves(p, u, v):
    jet = models.ves_eval(p, *jets.seed(u, v))
    K, H = surface.curvature_from_jet(jet)
    return (jet, K, H, curvature.ves_curvature_closed(p, u, v),
            models.ves_domain_valid(p, u, v, strict=False))


def evaluate_kadiyala(p, u, v):
    jet = models.kadiyala_eval(p, *jets.seed(u, v))
    K, H = surface.curvature_from_jet(jet)
    # The Kadiyala domain is the open quadrant; the CLI tests u > 0 and v > 0.
    return jet, K, H, curvature.kadiyala_curvature_closed(p, u, v), True


EVALUATE = {"ves": evaluate_ves, "kadiyala": evaluate_kadiyala}


def program_values(family: str, params, u: float, v: float) -> dict:
    jet, K, H, K_closed, _ = EVALUATE[family](params, u, v)
    return {"f": jet.val, "K": K, "H": H, "K_closed": K_closed}


# --- Checks ----------------------------------------------------------------

def _sign_ok(expect: str | None, K: float) -> bool:
    if expect == "positive":
        return K > 0.0
    if expect == "negative":
        return K < 0.0
    return True


def check_point(case: Case, u: float, v: float, out) -> list[str]:
    """Properties of one point evaluation that need no oracle."""
    jet, K, H, K_closed, valid = out
    where = f"{case.label} at ({u!r}, {v!r})"
    if not all(math.isfinite(x) for x in (jet.val, K, H, K_closed)):
        return [f"{where}: non-finite output {(jet.val, K, H, K_closed)}"]
    problems = []
    if valid is not in_domain(case.family, case.params, u, v):
        problems.append(f"{where}: domain test says {valid}")
    if not (_sign_ok(case.expect_sign, K) and _sign_ok(case.expect_sign, K_closed)):
        problems.append(f"{where}: K={K!r}, closed K={K_closed!r}, "
                        f"theorem says {case.expect_sign}")
    if case.expect_sign == "zero":
        # Exact K is 0: both routes must sit within rounding of S.
        s = oracle.flat_scale(case.family, case.params, u, v, jet.d1, jet.d2)
        for name, k in (("K", K), ("K_closed", K_closed)):
            if not abs(k) <= oracle.LIMITS[name] * oracle.EPS * s:
                problems.append(f"{where}: {name}={k!r} on a developable surface, "
                                f"over {oracle.LIMITS[name]:g} EPS*S (S={s:.3g})")
    return problems


def _csv_rows(text: str):
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("CSV header or final newline missing")
    rows = []
    for line in lines[1:-1]:
        u, v, f, K, H, valid, sign = line.split(",")
        num = [None if x == "" else float(x) for x in (f, K, H)]
        rows.append((float(u), float(v), *num, {"true": True, "false": False}[valid], sign))
    return rows


def check_grid(case: Case, axis: list[float], csv_text: str, json_text: str):
    """Problems in one grid's CSV and JSON output, and its rows as
    (u, v, f, K, H, valid, sign) tuples."""
    try:
        rows = _csv_rows(csv_text)
        data = json.loads(json_text)
        json_rows = [(r["u"], r["v"], r["f"], r["K"], r["H"], r["valid"], r["sign"])
                     for r in data["rows"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{case.label}: unreadable output: {exc!r}"], []
    problems = []
    if rows != json_rows:
        i = next((i for i, (a, b) in enumerate(zip(rows, json_rows)) if a != b),
                 min(len(rows), len(json_rows)))
        problems.append(f"{case.label}: CSV and JSON differ first at row {i}")
    expected = [(u, v) for u in axis for v in axis]
    if len(rows) != len(expected):
        problems.append(f"{case.label}: {len(rows)} rows, expected {len(expected)}")
    for i, (row, (u, v)) in enumerate(zip(rows, expected)):
        if not (math.isclose(row[0], u, rel_tol=1e-12)
                and math.isclose(row[1], v, rel_tol=1e-12)):
            problems.append(f"{case.label}: row {i} is at ({row[0]!r}, {row[1]!r}), "
                            f"expected ({u!r}, {v!r})")
            break

    valid = [r for r in rows if r[5]]
    max_abs_k = max((abs(r[3]) for r in valid if isinstance(r[3], float)), default=0.0)
    band = ZERO_TOL * (1.0 + max_abs_k)
    for i, (u, v, f, K, H, ok, sign) in enumerate(rows):
        where = f"{case.label} row {i} ({u!r}, {v!r})"
        if ok is not in_domain(case.family, case.params, u, v):
            problems.append(f"{where}: valid={ok} disagrees with the domain")
        elif not ok:
            if (f, K, H, sign) != (None, None, None, ""):
                problems.append(f"{where}: invalid row carries values")
        elif not all(isinstance(x, float) and math.isfinite(x) for x in (f, K, H)):
            problems.append(f"{where}: non-finite or missing value")
        elif sign != ("zero" if abs(K) <= band else "positive" if K > 0 else "negative"):
            problems.append(f"{where}: sign {sign!r} for K={K!r} and zero band {band:.3g}")
        elif not _sign_ok(case.expect_sign, K) or (
                case.expect_sign == "zero" and sign != "zero"):
            problems.append(f"{where}: K={K!r}, theorem says {case.expect_sign}")
        if len(problems) >= 5:
            break

    summary = data.get("summary", {})
    fs = [r[2] for r in valid if isinstance(r[2], float)]
    want = {"max_abs_k": max_abs_k, "f_min": min(fs, default=None),
            "f_max": max(fs, default=None), "invalid_points": len(rows) - len(valid),
            "verdict": case.verdict}
    for key, value in want.items():
        if summary.get(key) != value:
            problems.append(f"{case.label}: summary {key}={summary.get(key)!r}, "
                            f"rows give {value!r}")
    if not str(data.get("model", "")).startswith(case.family + ":"):
        problems.append(f"{case.label}: model {data.get('model')!r}")
    return problems, rows


def check_verify(label: str, summary, expected_trials: int, draws: int) -> list[str]:
    """A verify summary must pass every one of the expected trials."""
    problems = []
    if not (summary.ok and not summary.failures):
        problems.append(f"{label}: not ok: {summary.failures[:1]}")
    if not (expected_trials > 0 and summary.trials == expected_trials
            and summary.passes == expected_trials):
        problems.append(f"{label}: {summary.passes}/{summary.trials} trials passed, "
                        f"expected {expected_trials}/{expected_trials}")
    if draws != expected_trials:
        problems.append(f"{label}: {draws} parameter draws for {expected_trials} trials")
    return problems


# --- Workloads -------------------------------------------------------------

class GridSweep:
    """Four parameter sets on 200x200 log grids over [0.1, 10]^2, each
    built and emitted as CSV and as JSON. One operation is one grid."""

    N = 200
    ORACLE_ROWS = 12

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        self.cases = [
            kadiyala_generic(rng, "kadiyala-generic"),
            kadiyala_developable(rng, "kadiyala-developable", "constant-returns"),
            ves(rng, "ves-rho-below-1", (0.3, 0.7), (0.45, 0.55), (0.5, 0.8)),
            ves(rng, "ves-increasing", (0.2, 0.5), (1.2, 1.6), (1.3, 1.8)),
        ]
        self.spec = harness.GridSpec(0.1, 10.0, 0.1, 10.0, self.N, self.N,
                                     harness.Spacing.LOGARITHMIC)
        self.axis = log_axis(0.1, 10.0, self.N)
        self.first: dict = {}   # label -> (hashes of the outputs, useful points)

    def run_round(self, tally: Tally):
        for kind, case in enumerate(self.cases):
            tally.attempted += 1
            start = perf_counter()
            try:
                report = harness.build_grid_report(case.params, self.spec)
                csv_text = harness.emit_grid_report(report, "csv")
                json_text = harness.emit_grid_report(report, "json")
            except Exception as exc:   # an operation that raises has failed
                tally.fail(1, f"{case.label}: {exc!r}")
                continue
            took = perf_counter() - start
            del report
            tally.op(took, kind)
            tally.busy_s += took
            tally.points += self.N * self.N
            tally.emit_bytes += len(csv_text) + len(json_text)
            digest = hash(csv_text), hash(json_text)   # hashes the text in place
            if case.label not in self.first:
                try:
                    problems, useful, sample = isolated(self._check, case, csv_text,
                                                        json_text)
                except RuntimeError as exc:
                    problems, useful, sample = [f"{case.label}: {exc}"], 0, []
                self.first[case.label] = digest, useful
                tally.samples.extend((case.family, case.params, *pt) for pt in sample)
            else:
                problems = ([] if digest == self.first[case.label][0] else
                            [f"{case.label}: output differs from the first round's"])
            del csv_text, json_text
            for message in problems:
                tally.problem(message)
            tally.useful_points += self.first[case.label][1]

    def _check(self, case, csv_text, json_text):
        """Problems, useful point count and oracle sample of one grid."""
        problems, rows = check_grid(case, self.axis, csv_text, json_text)
        valid = [r for r in rows if r[5]]
        rng = random.Random(f"{self.seed}:{case.label}")
        sample = [(u, v, {"f": f, "K": K, "H": H}) for u, v, f, K, H, _, _
                  in rng.sample(valid, min(self.ORACLE_ROWS, len(valid)))]
        return problems, len(valid), sample


class TheoremVerify:
    """run_verify_theorem1 (300 trials) and run_verify_theorem2 (100 per
    condition, 400 trials) at the CLI's defaults. One operation is one
    trial; a trial starts when the verify run draws its parameters, which
    the benchmark sees by wrapping the two samplers of ``harness``."""

    GRID = "0.1,10,20,0.1,10,20,log"   # the CLI's default --grid
    RUNS = (("verify-t1", "run_verify_theorem1", 300, 300, "ves"),
            ("verify-t2", "run_verify_theorem2", 100, 400, "kadiyala"))
    ORACLE_TRIALS, ORACLE_POINTS = 6, 4

    def __init__(self, seed: int):
        self.seed = seed
        self.grid = harness.parse_grid_spec(self.GRID)
        axis = log_axis(0.1, 10.0, 20)
        self.points = [(u, v) for u in axis for v in axis]
        self.marks: list[float] = []
        self.draws: list = []
        self.useful: dict = {}   # label -> points inside the domain, per run
        for name in ("random_ves_params", "random_kadiyala_params"):
            setattr(harness, name, self._recording(getattr(harness, name)))

    def _recording(self, sampler):
        def draw(*args, **kwargs):
            self.marks.append(perf_counter())
            params = sampler(*args, **kwargs)
            self.draws.append(params)
            return params
        return draw

    def run_round(self, tally: Tally):
        for run, (label, fn, trials, expected, family) in enumerate(self.RUNS):
            self.marks.clear()
            self.draws.clear()
            tally.attempted += expected
            start = perf_counter()
            try:
                summary = getattr(harness, fn)(trials, self.seed, self.grid,
                                               tol_K=ZERO_TOL)
            except Exception as exc:
                tally.fail(expected, f"{label}: {exc!r}")
                continue
            end = perf_counter()
            tally.busy_s += end - start
            # verify-t2 runs its trials in blocks of `trials`, one per condition
            for j, (a, b) in enumerate(zip(self.marks, self.marks[1:] + [end])):
                tally.op(b - a, 4 * run + min(j // trials, 3))
            tally.points += expected * len(self.points)
            for message in check_verify(label, summary, expected, len(self.draws)):
                tally.problem(message)
            if label not in self.useful:
                self.useful[label] = sum(in_domain(family, p, u, v)
                                         for p in self.draws for u, v in self.points)
                self._sample(tally, label, family)
            tally.useful_points += self.useful[label]

    def _sample(self, tally: Tally, label: str, family: str):
        """Seeded points of a few trials, for the oracle."""
        rng = random.Random(f"{self.seed}:{label}")
        for p in rng.sample(self.draws, min(self.ORACLE_TRIALS, len(self.draws))):
            inside = [pt for pt in self.points if in_domain(family, p, *pt)]
            for u, v in rng.sample(inside, min(self.ORACLE_POINTS, len(inside))):
                tally.samples.append((family, p, u, v, None))


class PointEval:
    """A seeded stream of single-point evaluations over both families:
    the model jet, K and H, the closed-form K and the domain test. One
    operation is one point."""

    POINTS_PER_CASE = 250
    ORACLE_POINTS = 48

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.cases = [
            ves(rng, "ves-decreasing-rho-below-1", (0.3, 0.7), (0.5, 0.9), (0.5, 0.8)),
            ves(rng, "ves-decreasing", (0.2, 0.5), (1.2, 1.6), (0.5, 0.8)),
            ves(rng, "ves-increasing", (0.2, 0.5), (1.2, 1.6), (1.3, 1.8)),
            ves(rng, "ves-constant", (0.2, 0.5), (0.5, 1.5), 1.0),
            kadiyala_generic(rng, "kadiyala-generic-a"),
            kadiyala_generic(rng, "kadiyala-generic-b"),
            kadiyala_developable(rng, "kadiyala-constant-returns", "constant-returns"),
            kadiyala_developable(rng, "kadiyala-k2-zero-unit-sum", "k2-zero-unit-exponent-sum"),
            kadiyala_developable(rng, "kadiyala-rank-one", "beta-one-rank-one-weights"),
        ]
        self.stream = []
        for kind, case in enumerate(self.cases):
            drawn = 0
            while drawn < self.POINTS_PER_CASE:
                u, v = 10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-1.0, 1.0)
                if in_domain(case.family, case.params, u, v):
                    self.stream.append((kind, case, u, v))
                    drawn += 1
        rng.shuffle(self.stream)
        self.sampled = set(rng.sample(range(len(self.stream)), self.ORACLE_POINTS))
        self.first: dict = {}   # index -> the first round's output at that point

    def run_round(self, tally: Tally):
        for i, (kind, case, u, v) in enumerate(self.stream):
            evaluate = EVALUATE[case.family]
            tally.attempted += 1
            start = perf_counter()
            try:
                out = evaluate(case.params, u, v)
            except Exception as exc:
                tally.fail(1, f"{case.label} at ({u!r}, {v!r}): {exc!r}")
                continue
            took = perf_counter() - start
            tally.op(took, kind)
            tally.busy_s += took
            tally.points += 1
            tally.useful_points += 1
            jet, K, H, K_closed, valid = out
            if i not in self.first:
                self.first[i] = jet.val, K, H, K_closed, valid
                for message in check_point(case, u, v, out):
                    tally.problem(message)
                if i in self.sampled:
                    tally.samples.append((case.family, case.params, u, v,
                                          {"f": jet.val, "K": K, "H": H, "K_closed": K_closed}))
            elif (jet.val, K, H, K_closed, valid) != self.first[i]:
                tally.problem(f"{case.label} at ({u!r}, {v!r}): output differs "
                              f"from the first round's")


WORKLOADS = {"grid-sweep": GridSweep, "theorem-verify": TheoremVerify,
             "point-eval": PointEval}
