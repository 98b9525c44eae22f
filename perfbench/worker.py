"""One workload in one fresh process; started by run.py.

Protocol: the process imports nscost, writes the workload's input files and
prints ``ready`` (the parent times spawn-to-ready as set-up). With
``--setup-only`` it stops there. Otherwise it runs whole rounds of the
workload's operations until the next round would end after ``--seconds``,
checks every output after each round, and prints one JSON line with the
per-operation times, failures and, with ``--trace 1``, the per-layer totals.

In a traced run, rounds alternate untraced and traced (starting untraced),
so the tracing overhead is the difference of the two kinds' median times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import nscost.cli  # noqa: E402  (the set-up cost: numpy, scipy, the package)

import tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass
class CliResult:
    rc: int
    out: str


def _run_op(op: workloads.Op, tracer: tracing.Tracer | None):
    """Run one operation; return (result, error message or None)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        if op.argv is not None:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = nscost.cli.run(op.argv)
                else:
                    with tracer.span("cli", op.argv[0]):
                        rc = nscost.cli.run(op.argv)
            # verify exits 1 on a mismatch: a wrong answer, left to the checks.
            if rc == 0 or (rc == 1 and op.argv[0] == "verify"):
                return CliResult(rc, out.getvalue()), None
            return None, f"exit code {rc}: {err.getvalue().strip()}"
        if tracer is None:
            return op.call(), None
        with tracer.span("programs", op.name):
            return op.call(), None
    except Exception:  # a crash is one failed operation, not a dead benchmark
        return None, traceback.format_exc(limit=3)


def _round(wl: workloads.Workload, tracer: tracing.Tracer | None) -> dict:
    times, results, failures = [], {}, []
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        result, error = _run_op(op, tracer)
        times.append(time.perf_counter() - t0)
        if error is None:
            results[op.name] = result
        else:
            failures.append(f"{op.name}: {error}")
    wrong = [msg for check in wl.checks for msg in check(results)]
    return {"times": times, "failures": failures, "wrong": wrong}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", help="write the traced rounds' spans here")
    args = ap.parse_args(argv)

    wl = workloads.make(args.workload, args.seed, args.seconds, args.run_dir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    pool_ops = {i for i, op in enumerate(wl.ops) if op.pool_of}
    start = time.perf_counter()
    rounds = []
    traced_totals = []
    spans = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        t0 = time.perf_counter()
        if tracer is None:
            r = _round(wl, None)
        else:
            with tracing.installed(tracer):
                r = _round(wl, tracer)
            r["self_by_op"] = tracing.self_time_by_op(tracer.spans)
            traced_totals.append(tracing.layer_totals(tracer.spans, pool_ops))
            spans += tracing.span_records(tracer.spans, len(rounds))
        r["traced"] = traced
        r["elapsed"] = time.perf_counter() - t0
        rounds.append(r)
        done = time.perf_counter() - start
        need = 2 if args.trace else 1
        typical = statistics.median(x["elapsed"] for x in rounds)
        if len(rounds) >= need and done + typical > args.seconds:
            break

    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump({"ops": [op.name for op in wl.ops], "spans": spans}, fh)
    report = {
        "ops": [op.name for op in wl.ops],
        "pool_of": {op.name: op.pool_of for op in wl.ops if op.pool_of},
        "params": wl.params,
        "rounds": [
            {k: r[k] for k in ("times", "failures", "wrong", "traced")}
            | ({"self_by_op": r["self_by_op"]} if "self_by_op" in r else {})
            for r in rounds
        ],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "traced_totals": traced_totals,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
