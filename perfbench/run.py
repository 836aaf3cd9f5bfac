"""Benchmark entry point for the ``lawson`` package.

    python3 perfbench/run.py --workload {cli,census,deep} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the ``end_to_end`` metrics of ``BENCHMARK.json``, with ``--trace 1`` its
``per_layer`` metrics.  Lines before it, starting with ``#``, repeat the
metrics for a reader, with fail_ratio, the tail percentile and the
environment.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 5          # set-ups per run; setup_s is their median
IMPORT_SAMPLES = 3         # fresh `-X importtime` interpreters per traced run
TRACE_CYCLES = {"cli": 2, "census": 3, "deep": 1}
TAIL_BEYOND = 10           # latency_tail_s leaves at least this many samples above it
RUN_LIMIT_S = 170          # the whole run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = "1"              # one process at a time, one BLAS/OpenMP thread each


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _environment(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({v: THREADS for v in THREAD_VARS})
    env.pop("LAWSON_GRID_N", None)  # the program gets its grids from the workload only
    return env


def _env_record() -> str:
    vers = []
    for dist in ("numpy", "scipy"):
        try:
            vers.append(f"{dist}={importlib.metadata.version(dist)}")
        except importlib.metadata.PackageNotFoundError:
            vers.append(f"{dist}=missing")
    threads = " ".join(f"{v}={THREADS}" for v in THREAD_VARS)
    return f"nproc={os.cpu_count()} python={platform.python_version()} {' '.join(vers)} {threads}"


class Worker:
    """One worker process; ``setup_s`` is launch-to-READY wall time.

    The process is killed at ``deadline`` (a ``time.perf_counter`` value), so a
    hung program still ends the run in time, with an error.
    """

    def __init__(self, args: list[str], env: dict, deadline: float):
        t0 = time.perf_counter()
        # Own process group, so that a kill also reaches a cli client's child.
        self.proc = subprocess.Popen([sys.executable, WORKER] + args, env=env,
                                     stdout=subprocess.PIPE, text=True, start_new_session=True)
        self.timer = threading.Timer(max(0.0, deadline - t0), self.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.close()
            raise RuntimeError(f"worker did not become ready (exit {self.proc.returncode})")

    def result(self) -> dict:
        """Wait for the exit; the last stdout line is the result (none for a set-up probe)."""
        try:
            out, _ = self.proc.communicate()
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        lines = out.splitlines()
        return json.loads(lines[-1]) if lines else {}

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def close(self):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _import_times(env: dict) -> tuple[float, float]:
    """(lawson, scipy) cumulative import seconds from ``-X importtime``.

    scipy's share is the sum of the outermost ``scipy*`` entries, so nested
    scipy submodules are not counted twice.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lawson"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue  # the header row
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cum) * 1e-6, name.strip()))
    lawson_s = scipy_s = 0.0
    stack = []  # ancestors of the current entry: (depth, inside scipy)
    for depth, cum, name in reversed(rows):  # reversed post-order: parents first
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy_s += cum
        if name == "lawson":
            lawson_s = cum
        stack.append((depth, inside or is_scipy))
    return lawson_s, scipy_s


def _tail_percentile(n: int) -> int:
    """The highest whole percentile that leaves ``TAIL_BEYOND`` of ``n`` samples
    above it; with too few samples p51, which never reads below the median.  A
    run's op count is fixed by the workload and ``--seconds``, so this is too:
    cli 69, census 83 and deep 83 at ``--seconds 30``."""
    fits = [p for p in range(51, 100) if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND]
    return fits[-1] if fits else 51


def _nearest_rank(xs: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile of sorted ``xs`` and the number of samples above it."""
    rank = max(1, math.ceil(pct / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.perf_counter() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lawson", "__init__.py")):
        return _fail(f"no lawson source tree under {root}/src; run from a checkout root")
    if args.workload not in TRACE_CYCLES:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(TRACE_CYCLES)}")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    env = _environment(root)
    out_dir = os.path.join(root, ".bench_out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    wargs = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--out-dir", out_dir]
    workers = []

    def start(extra: list[str]) -> Worker:
        workers.append(Worker(wargs + extra, env, deadline))
        return workers[-1]

    try:
        if args.trace:
            imports = [_import_times(env) for _ in range(IMPORT_SAMPLES)]
            res = start(["--trace-cycles", str(TRACE_CYCLES[args.workload])]).result()
            shutil.move(os.path.join(out_dir, "spans.json"), os.path.join(
                root, ".bench_out", f"spans-{args.workload}-{args.seed}.json"))
        else:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                probe = start(["--setup-only"])
                setups.append(probe.setup_s)
                probe.result()
            main_worker = start([])
            setups.append(main_worker.setup_s)
            res = main_worker.result()
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        return _fail(str(exc))
    finally:
        for w in workers:
            w.close()
        shutil.rmtree(out_dir, ignore_errors=True)

    runs = [res["untraced"]] + ([res["traced"]] if args.trace else [])
    attempted = sum(len(r["latencies"]) for r in runs)
    failures = [d for r in runs for d in r["failures"]]
    incorrect = [d for r in runs for d in r["incorrect"]]
    base = res["untraced"]
    n = len(base["latencies"])
    ops_per_s = n / base["elapsed"]

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# env: {_env_record()}")
    if args.trace:
        traced = res["traced"]
        values = dict(res["layers"])
        values["import.lawson_s"] = statistics.median(i[0] for i in imports)
        values["import.scipy_s"] = statistics.median(i[1] for i in imports)
        values["tracing.overhead_ops_per_s"] = (
            len(traced["latencies"]) / traced["elapsed"] - ops_per_s)
        print(f"# {TRACE_CYCLES[args.workload]} cycle(s), each run untraced ({n} ops at "
              f"{ops_per_s:.4f}/s in all) and then traced")
        wanted = spec["per_layer"]
    else:
        pct = _tail_percentile(n)
        tail, beyond = _nearest_rank(sorted(base["latencies"]), pct)
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops_per_s,
            "latency_p50_s": statistics.median(base["latencies"]),
            "latency_tail_s": tail,
            "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        }
        print(f"# latency_tail_s is p{pct} of {n} samples ({beyond} above it); "
              f"setup_s is the median of {SETUP_SAMPLES} set-ups")
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"# {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"# fail_ratio {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for detail in sorted(set(failures)):
        known = "" if detail in incorrect else " [known defect]"
        print(f"#   failed x{failures.count(detail)}: {detail}{known}")
    print(json.dumps({"correct": not incorrect, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
