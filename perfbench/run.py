"""Benchmark command for nscost.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``). Each run starts the workload in a fresh single process
(``worker.py``) and measures:

- ``setup_s``: spawn to ready (importing nscost, writing the input files),
  the median of ``SETUP_TRIALS`` fresh processes;
- ``wall_s``: the time to run every operation of the workload once, as the
  mean over the run's rounds;
- ``op_p50_ms``: the median over the workload's operations of each one's
  mean time over the rounds.

Means over rounds, not medians: the machines this runs on slow down and
speed up in phases of several seconds, and a median of a few rounds picks
one phase where the mean averages over the whole run.
- ``peak_rss_mb``: the peak resident memory of the workload's process.

With ``--trace 1`` it prints the per-layer metrics of ``tracing`` instead.
BLAS is fixed to one thread, so the ``--jobs 2`` sweep uses the two worker
processes and nothing else. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_TRIALS = 5
BLAS_THREADS = 1
# Every run must end within 180 s; the worker gets what is left of this.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("NSCOST_JOBS", None)
    return env


def spawn(args: list[str], timeout: float) -> tuple[float, str]:
    """Start worker.py; return (seconds from spawn to its ready line, the
    rest of its standard output). The process is always waited for."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=worker_env()
    )
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        if line.strip() != "ready":
            proc.wait(timeout=timeout)
            raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
        rest, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran past {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return ready_s, rest


def summarize(setup_samples: list[float], report: dict, trace: bool) -> tuple[dict, list]:
    """The result object printed as the last line of the run, and the
    messages of the checks that found a wrong output."""
    rounds = report["rounds"]
    attempted = sum(len(r["times"]) for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    wrong = [msg for r in rounds for msg in r["wrong"]]
    plain = [r for r in rounds if not r["traced"]]
    walls = [sum(r["times"]) for r in plain]
    if trace:
        traced = [r for r in rounds if r["traced"]]
        overhead = statistics.fmean(sum(r["times"]) for r in traced) - statistics.fmean(walls)
        wrong += trace_consistency(traced, overhead)
        values = tracing.layer_metrics(
            report["traced_totals"], overhead, pool_speedup(report, plain)
        )
        units = tracing.LAYER_METRICS
    else:
        per_op = [statistics.fmean(ts) for ts in zip(*(r["times"] for r in plain))]
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.fmean(walls),
            "op_p50_ms": 1000.0 * statistics.median(per_op),
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, wrong


def pool_speedup(report: dict, plain_rounds: list[dict]) -> float:
    """Mean time of the --jobs 1 sweep over that of its --jobs 2 repeat,
    from the untraced rounds; 0 where the workload has no pool operation."""
    ops = report["ops"]
    for pool_op, serial_op in report["pool_of"].items():
        i, j = ops.index(serial_op), ops.index(pool_op)
        serial = statistics.fmean(r["times"][i] for r in plain_rounds)
        pooled = statistics.fmean(r["times"][j] for r in plain_rounds)
        return serial / pooled
    return 0.0


def trace_consistency(traced_rounds: list[dict], overhead_s: float) -> list[str]:
    """Layer self times of each operation must add up to its wall time, up
    to the tracing overhead (and 1 ms per operation of timer slack)."""
    errs = []
    for r in traced_rounds:
        gap = sum(
            abs(t - r["self_by_op"].get(str(i), 0.0)) for i, t in enumerate(r["times"])
        )
        if gap > abs(overhead_s) + 1e-3 * len(r["times"]):
            errs.append(f"trace: self times miss {gap:.4f} s of the operations' wall time")
    return errs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "nscost", "__init__.py")):
        print(f"error: no nscost sources under {ROOT}/src", file=sys.stderr)
        return 2

    start = time.perf_counter()
    runs = os.path.join(HERE, "runs")
    os.makedirs(runs, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=runs)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--run-dir", run_dir]
    try:
        setup = []
        for _ in range(SETUP_TRIALS - 1):
            left = DEADLINE_S - (time.perf_counter() - start)
            ready_s, _ = spawn(common + ["--setup-only"], left)
            setup.append(ready_s)
        extra = ["--trace", str(args.trace)]
        if args.trace:
            extra += ["--trace-out", os.path.join(
                runs, f"trace-{args.workload}-{args.seed}.json")]
        ready_s, out = spawn(common + extra, DEADLINE_S - (time.perf_counter() - start))
        setup.append(ready_s)
        report = json.loads(out.strip().splitlines()[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result, wrong = summarize(setup, report, bool(args.trace))
    for msg in wrong[:50]:
        print(f"wrong: {msg}", file=sys.stderr)
    for r in report["rounds"]:
        for msg in r["failures"]:
            print(f"failed: {msg}", file=sys.stderr)
    op_means = {
        name: round(statistics.fmean(ts), 4)
        for name, ts in zip(report["ops"], zip(*(r["times"] for r in report["rounds"])))
    }
    print(f"# workload={args.workload} seed={args.seed} nproc={os.cpu_count()} "
          f"blas_threads={BLAS_THREADS} rounds={len(report['rounds'])} "
          f"setup_samples={[round(s, 4) for s in setup]} "
          f"params={json.dumps(report['params'])}")
    print(f"# op_mean_s={json.dumps(op_means)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
