"""The prodgeo benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Runs each workload (all three when --workload is left out) in a fresh
single-threaded process, one after another, checks its outputs, and
prints each metric by name and unit, the operations attempted and
failed, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, from spans recorded around each call into prodgeo. Each
run also writes results/<workload>-seed<N>-trace<T>.json beside this
file, and a traced run writes its spans to traces/. README.md explains
the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid-sweep", "theorem-verify", "point-eval")
#: Set-up is timed this many times before the measured run and as many
#: after it, besides the run itself, after one untimed start.
SETUP_SAMPLES = 4
RUN_TIMEOUT_S = 170.0
ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
           MKL_NUM_THREADS="1", PYTHONHASHSEED="0")

END_TO_END_UNITS = {"points_per_s": "points/s", "op_p50_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    pass


def spawn(args, workload: str, deadline: float, setup_only: bool, trace_out=None):
    """Starts a worker; returns it with the set-up time and its ready line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))
        line = proc.stdout.readline() if ready else ""
        setup_s = perf_counter() - start
        if not line.startswith('{"ready"'):
            raise BenchError(f"{workload}: the worker did not get ready")
        return proc, setup_s, json.loads(line)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("the worker ran past its time") from None
    if proc.returncode != 0:
        raise BenchError(f"the worker exited with code {proc.returncode}")
    return out


def per_layer(res: dict) -> dict:
    """Per-layer figures, per round of the workload, from the worker's
    span totals; as {name: (value, unit)}."""
    rounds = res["rounds"]
    layers = res["layers"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0) / rounds, "calls/round"

    def secs(name):
        return layers.get(name, {}).get("self_s", 0.0) / rounds, "s/round"

    return {
        "jets.calls": calls("jets"),
        "jets.time_s": secs("jets"),
        "jets.calls_per_point": (calls("jets")[0] * rounds / res["points"], "calls/point"),
        "models.eval_calls": calls("models.eval"),
        "models.eval_self_s": secs("models.eval"),
        "models.domain_calls": calls("models.domain"),
        "models.domain_s": secs("models.domain"),
        "surface.forms_calls": calls("surface.forms"),
        "surface.forms_s": secs("surface.forms"),
        "surface.classify_calls": calls("surface.classify"),
        "surface.classify_s": secs("surface.classify"),
        "curvature.closed_calls": calls("curvature.closed"),
        "curvature.closed_s": secs("curvature.closed"),
        "curvature.dual_form_calls": calls("curvature.dual_form"),
        "curvature.dual_form_s": secs("curvature.dual_form"),
        "harness.grid_self_s": secs("harness.grid"),
        "harness.emit_csv_s": secs("harness.emit_csv"),
        "harness.emit_json_s": secs("harness.emit_json"),
        "harness.emit_bytes": (res["emit_bytes"] / rounds, "bytes/round"),
        "harness.verify_self_s": secs("harness.verify"),
        "harness.sampler_s": secs("harness.sampler"),
        "harness.valid_point_ratio": (res["useful_points"] / res["points"], "ratio"),
        "cli.import_s": (statistics.median(res["import_samples"]), "s"),
    }


def run_workload(args, workload: str) -> dict:
    deadline = perf_counter() + RUN_TIMEOUT_S
    spawn_args = (args, workload, deadline)

    def time_setup(count):
        """(set-up seconds, import seconds) of ``count`` starts."""
        samples = []
        for _ in range(count):
            proc, setup_s, ready = spawn(*spawn_args, setup_only=True)
            finish(proc, deadline)
            samples.append((setup_s, ready["import_s"]))
        return samples

    time_setup(1)   # the first start fills the bytecode and file caches
    samples = time_setup(SETUP_SAMPLES)
    trace_out = None
    if args.trace:
        (HERE / "traces").mkdir(exist_ok=True)
        trace_out = HERE / "traces" / f"{workload}-seed{args.seed}.json"
    proc, setup_s, ready = spawn(*spawn_args, setup_only=False, trace_out=trace_out)
    samples.append((setup_s, ready["import_s"]))
    res = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    samples += time_setup(SETUP_SAMPLES)
    setups = [s for s, _ in samples]
    res.update(setup_samples=setups, import_samples=[i for _, i in samples])

    end_to_end = {
        "points_per_s": res["points"] / res["busy_s"],
        "op_p50_ms": res["op_p50_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in per_layer(res).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    res.update(workload=workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
               end_to_end=end_to_end, metrics=metrics,
               correct=res["problem_count"] == 0 and None not in end_to_end.values(),
               platform={"python": platform.python_version(), "machine": platform.machine(),
                         "cpus": os.cpu_count()})
    (HERE / "results").mkdir(exist_ok=True)
    out = HERE / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(res, indent=1) + "\n")
    return res


def report(res: dict):
    print(f"{res['workload']} (seed {res['seed']}, {res['rounds']} rounds, "
          f"{res['busy_s']:.2f} s timed): attempted {res['attempted']}, "
          f"failed {res['failed']}, correct {str(res['correct']).lower()}")
    for name, m in res["metrics"].items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    if res["op_tail"]:
        t = res["op_tail"]
        print(f"  op p{t['percentile']:g} {t['ms']:.4g} ms over {t['samples']} operations")
    if res["oracle_worst"]:
        worst = ", ".join(f"{k} {v:.3g}" for k, v in sorted(res["oracle_worst"].items()))
        print(f"  oracle: {res['oracle_points']} points, worst error in EPS*scale: {worst}")
    for message in res["problems"]:
        print(f"  problem: {message}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "prodgeo" / "__init__.py").is_file():
        print(f"error: no prodgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = []
    try:
        for workload in ([args.workload] if args.workload else WORKLOADS):
            results.append(run_workload(args, workload))
            report(results[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    single = len(results) == 1
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(k if single else f"{r['workload']}/{k}"): m
                    for r in results for k, m in r["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
