"""One workload in a fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The worker imports prodgeo from the checkout's src/, builds the
workload's inputs and prints a JSON line {"ready": ...}; run.py times
set-up from the process start to that line. Unless --setup-only is
given it then runs whole rounds until their timed operations add up to
S seconds, checks a sample against the oracle, and prints its tally as
a last JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: No new round starts after this much wall time, so a run ends in time.
WALL_LIMIT_S = 100.0
#: Tail percentiles tried, highest first; one needs ten samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def op_p50(tally) -> float | None:
    """The median time of one operation: taken in each round for each kind
    of operation, weighted by the kinds' shares of the round, and averaged
    over the rounds.

    Kinds differ in cost, and the plain median of all operations falls in
    the gap between them. The machine also alternates between a fast and
    a slow state, and a median over a whole run lands in whichever state
    held more of it; a median per round, averaged, blends the two as the
    mean does and still drops a round's outliers.
    """
    medians = []
    for times, kinds in tally.rounds_timed():
        by_kind = defaultdict(list)
        for t, k in zip(times, kinds):
            by_kind[k].append(t)
        if times:
            medians.append(sum(len(ts) * statistics.median(ts)
                               for ts in by_kind.values()) / len(times))
    return statistics.fmean(medians) if medians else None


def tail(samples) -> dict | None:
    """The highest percentile with at least ten samples beyond it, for 40 or
    more samples (nearest rank)."""
    n = len(samples)
    if n < 40:
        return None
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            rank = min(n, math.ceil(pct / 100.0 * n))
            return {"percentile": pct, "ms": ordered[rank - 1] * 1e3, "samples": n}
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import prodgeo
    if not Path(prodgeo.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"prodgeo was imported from {prodgeo.__file__}, not {ROOT / 'src'}")
    import_s = perf_counter() - start

    import oracle
    import spans
    import workloads
    tracer = None
    if args.trace:
        tracer = spans.Tracer(prodgeo)
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print(json.dumps({"ready": True, "import_s": import_s}), flush=True)
    if args.setup_only:
        return 0

    tally = workloads.Tally()
    wall = perf_counter()
    while True:   # whole rounds, as many as come nearest to the time asked
        workload.run_round(tally)
        tally.end_round()
        if (tally.busy_s * (1.0 + 0.5 / tally.rounds) >= args.seconds
                or perf_counter() - wall > WALL_LIMIT_S):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer:
        tracer.uninstall()
        layers = {name: {"calls": tracer.calls[name], "self_s": tracer.self_s[name]}
                  for name in tracer.calls}
        if args.trace_out:
            tracer.write(args.trace_out)

    op_s = tally.op_times()
    worst: dict = {}
    for family, params, u, v, values in tally.samples:
        if values is None:   # the verify runs report no K: evaluate the point again
            values = workloads.program_values(family, params, u, v)
        for message in oracle.violations(family, params, u, v, values, worst):
            tally.problem(message)

    result = {key: getattr(tally, key) for key in (
        "rounds", "busy_s", "points", "useful_points", "attempted", "failed",
        "emit_bytes", "ops_timed", "problems", "problem_count")}
    result.update(
        import_s=import_s,
        peak_rss_mb=peak_rss_mb,
        op_p50_ms=op_p50(tally) * 1e3 if op_s else None,
        op_tail=tail(op_s),
        oracle_points=len(tally.samples),
        oracle_worst=worst,
        layers=layers,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
