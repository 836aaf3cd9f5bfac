"""The benchmark's client process: set up, say READY, run the timed phase.

    python perfbench/worker.py --workload census --seed 1 --seconds 20 --out-dir .bench_out/x

Set-up is everything before READY: the interpreter, ``import lawson`` (in-process
workloads only), input generation and one warm-up op.  ``run.py`` times it from
process launch to the READY line.  With ``--setup-only`` the worker exits there.

The timed phase runs ``workload.cycles_for(seconds)`` cycles: the whole number
of the workload's nominal cycle times nearest to ``--seconds``.  So the ops of
a run, and with them ``attempted`` and ``failed``, depend on the seed and
``--seconds`` alone, never on how fast the machine was, and every run measures
the same mix of operation classes.  With ``--trace-cycles K`` it instead runs each of cycles 0..K-1 twice, untraced and
then traced, so that the traced counts depend on the seed alone.  The last stdout line is a JSON
object with the raw samples; ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Checker, timed


def _run_cycles(workload, checker, cycles, first_op=0):
    """Run the given cycles in order."""
    lat, failures, incorrect = [], [], []
    op_id = first_op
    t0 = time.perf_counter()
    for index in cycles:
        for op in workload.cycle(index):
            workload.op_id = op_id
            if workload.tracer is not None:
                workload.tracer.op = op_id
            dt, out = timed(workload, op, checker)
            lat.append(dt)
            if not out.ok:
                failures.append(out.detail)
            if not out.correct:
                incorrect.append(out.detail)
            op_id += 1
    return {"latencies": lat, "elapsed": time.perf_counter() - t0,
            "failures": failures, "incorrect": incorrect}


def _ops(*passes) -> int:
    return sum(len(r["latencies"]) for p in passes for r in p)


def _merge(parts: list[dict]) -> dict:
    return {"latencies": [x for p in parts for x in p["latencies"]],
            "elapsed": sum(p["elapsed"] for p in parts),
            "failures": [d for p in parts for d in p["failures"]],
            "incorrect": [d for p in parts for d in p["incorrect"]]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-cycles", type=int, default=0)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.out_dir)
    if workload.in_process:
        import lawson

        src = os.path.join(os.getcwd(), "src")
        if not os.path.abspath(lawson.__file__).startswith(src + os.sep):
            print(f"lawson imported from {lawson.__file__}, not from {src}", file=sys.stderr)
            return 2
    checker = Checker()
    _, warm = timed(workload, workload.warmup(), checker)
    if not warm.ok:
        print(f"warm-up op failed: {warm.detail}", file=sys.stderr)
        return 1
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace_cycles:
        # Untraced and traced passes over each cycle alternate, so that a slow
        # stretch of the machine falls on both sides of the overhead estimate.
        tracer = workload.tracer = Tracer()
        untraced, traced = [], []
        for index in range(args.trace_cycles):
            untraced.append(_run_cycles(workload, checker, [index], first_op=_ops(untraced, traced)))
            if workload.in_process:
                tracer.install()
            else:
                workload.trace_dir = args.out_dir
            traced.append(_run_cycles(workload, checker, [index], first_op=_ops(untraced, traced)))
            tracer.uninstall()
            workload.trace_dir = None
        result = {"untraced": _merge(untraced), "traced": _merge(traced)}
        dump = tracer.dump() if workload.in_process else workload.collect_spans()
        with open(os.path.join(args.out_dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(dump, fh)
        result["layers"] = layer_metrics(dump["spans"], set(dump["sl_keys"]), dump["errors"])
    else:
        result = {"untraced": _run_cycles(workload, checker, range(workload.cycles_for(args.seconds)))}
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    result["maxrss_kb"] = resource.getrusage(who).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
