"""Seeded workload generators, the operations they run, and their output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Operations are grouped in *cycles*.
Each cycle of a workload has the same sequence of operation classes, and the
seed only chooses the concrete triples and arguments inside each class, so a
whole number of cycles has the same cost structure whatever the seed.  The
timed phase runs ``cycles_for(seconds)`` whole cycles (see ``worker.py``).

This module imports nothing from ``lawson`` at module level: the ``cli``
workload must not pay the package import in its client, and the in-process
workloads look every ``lawson`` function up at call time so that the traced
run's wrappers are the ones called.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field

TRACECLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracecli.py")

# ---------------------------------------------------------------------------
# Triple enumeration and strata.  The subcase rules are restated here from
# the paper (parities of the canonical triple) so that the generator does not
# depend on the program it feeds.
# ---------------------------------------------------------------------------

SUBCASES = ("I", "II", "III", "Lawson")
CENSUS_C_RANGES = ((1, 10), (11, 20), (21, 30))


def _subcase(a: int, b: int, c: int) -> str:
    if c % 2 == 0 and a % 2 == 1 and b % 2 == 1:
        return "II"
    if c % 2 == 0 and (a + b) % 2 == 1:
        return "I"
    return "III"


def generalized_triples(c_lo: int, c_hi: int) -> list[tuple[int, int, int]]:
    """Canonical generalized triples: gcd 1, 0 <= a <= b, a^2 + b^2 < c^2."""
    out = []
    for c in range(max(c_lo, 1), c_hi + 1):
        for b in range(c):
            for a in range(b + 1):
                if a * a + b * b < c * c and math.gcd(a, math.gcd(b, c)) == 1:
                    out.append((a, b, c))
    return out


def lawson_pairs(c_lo: int, c_hi: int) -> list[tuple[int, int]]:
    """Canonical Lawson pairs: gcd 1, a >= b >= 1, c_lo < sqrt(a^2+b^2) <= c_hi."""
    out = []
    for a in range(1, c_hi + 1):
        for b in range(1, a + 1):
            if math.gcd(a, b) == 1 and c_lo * c_lo < a * a + b * b <= c_hi * c_hi:
                out.append((a, b))
    return out


def census_strata() -> dict[str, list[tuple]]:
    """Pools keyed ``"<subcase>/c<lo>-<hi>"``; Lawson pairs keyed by sqrt(a^2+b^2)."""
    strata = {}
    for lo, hi in CENSUS_C_RANGES:
        pools = {s: [] for s in SUBCASES}
        for a, b, c in generalized_triples(lo, hi):
            pools[_subcase(a, b, c)].append(("generalized", a, b, c))
        # sqrt(a^2 + b^2) is rarely an integer: band (lo, hi) takes (lo - 1, hi].
        pools["Lawson"] = [("lawson", a, b, None) for a, b in lawson_pairs(lo - 1, hi)]
        for s in SUBCASES:
            strata[f"{s}/c{lo}-{hi}"] = pools[s]
    return strata


# ---------------------------------------------------------------------------
# Operations.  Each returns an ``Outcome``: ``ok`` is False when the op fails
# (a non-ok verdict, a nonzero exit code, an exception or a failed output
# check), and ``correct`` is False when the failure is not a known defect.
# ---------------------------------------------------------------------------

def _known_defect(check, triple, grid_n: int, deep: bool) -> bool:
    """True when a failing check is one of the defects known when the benchmark
    was defined.  Such a failure counts in ``failed`` (so in fail_ratio) but
    keeps the run ``correct``; any other failure does not.

    * ``laplace_eigenfunction`` at high frequency: the residual ladder
      (128, 256) is pre-asymptotic, so the first doubling ratio falls below
      3.2 (T_(1,2,150), T_(60,80,101) and most deep triples with c >= 60).
    * ``anchors`` with deep=True when every residual is within tolerance but
      one sits at the eigensolver's accuracy floor (below 1e-8), so its
      measured convergence order leaves 2.0 +/- 0.2 (T_(5,7,13) at grid
      16384: lambda_0 residual 3.6e-10; T_(55,59,149) at grid 2048).
    * ``lame`` on Lawson pairs with k^2 <= -100 (a/b >= 12): the residual grows
      with |k^2| past the absolute tolerance 1e-12 (tau_(12,1), tau_(27,2)).
    """
    case, a, b, c = triple
    if check.name == "laplace_eigenfunction":
        high = max(a, b, c if c is not None else math.hypot(a, b)) >= 40
        return high and check.values.get("ratio_128_to_256", 0.0) < 3.2
    if check.name == "anchors":
        res = [check.values[k] for k in ("lambda0_at_c", "lambda1_at_max", "lambda2_at_min")]
        tol = 1e-4 * max(1.0, (4096.0 / grid_n) ** 2)
        return deep and max(res) <= tol and min(res) < 1e-8
    if check.name == "lame":
        return case == "lawson" and check.values["k2"] <= -100
    return False


def _verdict(triple, grid_n: int, report) -> tuple[bool, str]:
    """(correct, detail) for a report whose status is not ok."""
    failing = [c for c in report.checks if not c.passed]
    correct = not report.indeterminate and all(
        _known_defect(c, triple, grid_n, report.deep) for c in failing)
    names = ",".join(c.name for c in failing)
    where = f"{report.triple.label()}@{grid_n}{' deep' if report.deep else ''}"
    return correct, f"{where}: {report.status} ({names})"


def _validate(triple):
    import lawson

    case, a, b, c = triple
    return lawson.validate(case, a, b, c)


@dataclass
class Op:
    """One operation of a cycle."""

    kind: str
    args: dict
    key: str = field(init=False)  # identifies repeats of the same request

    def __post_init__(self):
        self.key = json.dumps([self.kind, self.args], sort_keys=True)


@dataclass
class Outcome:
    ok: bool
    correct: bool
    detail: str = ""


@dataclass
class Checker:
    """Output checks that need memory across operations of one run."""

    first_output: dict = field(default_factory=dict)

    def repeat(self, key: str, digest: str) -> bool:
        """True when ``digest`` equals the first digest seen for ``key``."""
        return self.first_output.setdefault(key, digest) == digest


def _run_census(op: Op, checker: Checker) -> Outcome:
    import lawson

    t = _validate(op.args["triple"])
    report = lawson.run_verification(t)
    sc = lawson.classify(t)
    checks = {c.name: c for c in report.checks}
    if checks["count"].values.get("n2") != sc.j or checks["area"].values["relative_gap"] > 1e-8:
        return Outcome(False, False, f"{t.label()}: count != j or area gap > 1e-8")
    if report.status == "ok":
        return Outcome(True, True)
    return Outcome(False, *_verdict(op.args["triple"], report.grid_n, report))


def _run_deep_verify(op: Op, checker: Checker) -> Outcome:
    import lawson

    triple, grid_n = op.args["triple"], op.args["grid_n"]
    report = lawson.run_verification(_validate(triple), grid_n, deep=True)
    if report.status == "ok":
        return Outcome(True, True)
    return Outcome(False, *_verdict(triple, grid_n, report))


def _run_deep_spectrum(op: Op, checker: Checker) -> Outcome:
    import lawson

    a = op.args
    sym = lawson.Symmetry(a["symmetry"])
    problem = lawson.sl_problem(_validate(a["triple"]), a["l"], sym)
    ev = [float(v) for v in lawson.sl_spectrum(problem, a["grid_n"], count=a["count"]).eigenvalues]
    ascending = all(x <= y for x, y in zip(ev, ev[1:]))
    same = checker.repeat(op.key, json.dumps(ev))
    if ascending and same:
        return Outcome(True, True)
    return Outcome(False, False, f"spectrum {op.key}: ascending={ascending} repeat_identical={same}")


def _export_check(path: str, fmt: str, nx: int, ny: int) -> tuple[bool, str]:
    """(shape ok, digest) of an exported file: CSV header and rows, OBJ v/f counts."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.decode("utf-8").splitlines()
    if fmt == "csv":
        ok = lines[0] == "x,y,F1,F2,F3,F4,F5,F6" and len(lines) == 1 + nx * ny
    else:
        verts = sum(1 for ln in lines if ln.startswith("v "))
        faces = sum(1 for ln in lines if ln.startswith("f "))
        ok = verts == nx * ny and faces == nx * ny
    return ok, hashlib.sha256(data).hexdigest()


def _run_cli(op: Op, checker: Checker, argv_prefix: list[str]) -> Outcome:
    proc = subprocess.run(argv_prefix + op.args["argv"], capture_output=True, timeout=120)
    if proc.returncode != 0:
        return Outcome(False, False, f"{' '.join(op.args['argv'])}: exit {proc.returncode}")
    try:
        status = json.loads(proc.stdout)["status"]
    except (ValueError, KeyError):
        return Outcome(False, False, f"{' '.join(op.args['argv'])}: stdout is not a JSON envelope")
    same = checker.repeat(op.key, hashlib.sha256(proc.stdout).hexdigest())
    ok = status == "ok" and same
    out = op.args.get("out")
    if ok and out:
        shape_ok, digest = _export_check(out, op.args["format"], op.args["nx"], op.args["ny"])
        ok = shape_ok and checker.repeat(op.key + "#file", digest)
    if ok:
        return Outcome(True, True)
    return Outcome(False, False, f"{' '.join(op.args['argv'])}: status={status} repeat_identical={same}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A seeded sequence of cycles plus the warm-up op that ends set-up."""

    name = ""
    in_process = True
    # Nominal wall time of one cycle on the 2-vCPU machine the benchmark was
    # defined on, in its slower phases.  It only sets how many cycles a run of
    # ``--seconds`` has.
    cycle_seconds = 1.0

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.op_id = 0
        self.tracer = None  # set by the traced run
        self.trace_dir = None  # cli only: set while traced ops run tracecli.py

    def cycles_for(self, seconds: float) -> int:
        """Cycles in a timed run of ``seconds``: a fixed function of the budget,
        so that two runs with one seed attempt the same ops."""
        return max(1, round(seconds / self.cycle_seconds))

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> Op:
        raise NotImplementedError

    def run(self, op: Op, checker: Checker) -> Outcome:
        raise NotImplementedError


class Census(Workload):
    """run_verification(t) at the default grid plus classify(t), one triple per
    (subcase, c-range) stratum per cycle."""

    name = "census"
    cycle_seconds = 6.0

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        strata = census_strata()
        self.strata = sorted(strata)
        self._pools = strata

    def cycle(self, index: int) -> list[Op]:
        # Each cycle gets its own generator, so cycle i is the same ops
        # whether or not earlier cycles ran (the traced run replays them).
        rng = random.Random(f"census/{self.seed}/{index}")
        return [Op("census", {"triple": rng.choice(self._pools[s]), "stratum": s})
                for s in self.strata]

    def warmup(self) -> Op:
        return Op("census", {"triple": ("generalized", 5, 7, 13), "stratum": "warmup"})

    def run(self, op: Op, checker: Checker) -> Outcome:
        return _run_census(op, checker)


DEEP_FIXED = (
    ("generalized", 1, 2, 150),
    ("generalized", 60, 80, 101),
)
DEEP_ANCHOR_TRIPLE = ("generalized", 5, 7, 13)
DEEP_C_BANDS = ((40, 95), (96, 150))
# Fourteen grids in equal ratio steps (about 1.17) from 16384 to 131072, so
# that query latencies spread evenly rather than in clusters: a percentile that
# falls between two clusters jumps with noise.  Two problems per grid, because
# solve times of different problems at one grid differ by up to 40%.
DEEP_SPECTRUM_GRIDS = tuple(1024 * round(16 * 8 ** (k / 13)) for k in range(14))
DEEP_QUERIES_PER_GRID = 2
SYMMETRIES = ("full-periodic", "even-in-y", "odd-in-y", "pi-periodic", "pi-antiperiodic")


class Deep(Workload):
    """High-frequency deep verifications and large-grid eigenvalue lists.

    Per cycle: the two fixed high-frequency triples and one seeded triple per
    c band at grid 2048, and T_(5,7,13) at grid 16384, all with deep=True; and
    two eigenvalue-list queries per grid in 16384..131072, each asked twice
    so that repeats can be compared.
    """

    name = "deep"
    cycle_seconds = 40.0

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        rng = random.Random(f"deep/{seed}")
        self._bands = [generalized_triples(lo, hi) for lo, hi in DEEP_C_BANDS]
        small = generalized_triples(2, 30)
        self.queries = []  # grids alternate, so each grid's samples spread over the cycle
        for _ in range(DEEP_QUERIES_PER_GRID):
            for grid_n in DEEP_SPECTRUM_GRIDS:
                triple = ("generalized",) + rng.choice(small)
                self.queries.append(Op("spectrum", {
                    "triple": triple, "l": rng.randint(0, triple[3]),
                    "symmetry": rng.choice(SYMMETRIES), "grid_n": grid_n, "count": 8,
                }))

    def cycle(self, index: int) -> list[Op]:
        rng = random.Random(f"deep/{self.seed}/{index}")
        verifs = [Op("verify", {"triple": t, "grid_n": 2048}) for t in DEEP_FIXED]
        verifs += [Op("verify", {"triple": ("generalized",) + rng.choice(band), "grid_n": 2048})
                   for band in self._bands]
        verifs.append(Op("verify", {"triple": DEEP_ANCHOR_TRIPLE, "grid_n": 16384}))
        # Each query is asked twice; the queries are spread evenly between the
        # verifications so that no class runs in one stretch of the cycle.
        queries = self.queries * 2
        ops = []
        for i, v in enumerate(verifs):
            ops.append(v)
            ops += queries[i * len(queries) // len(verifs):(i + 1) * len(queries) // len(verifs)]
        return ops

    def warmup(self) -> Op:
        return Op("spectrum", {"triple": ("generalized", 1, 2, 3), "l": 1,
                               "symmetry": "full-periodic", "grid_n": 16384, "count": 8})

    def run(self, op: Op, checker: Checker) -> Outcome:
        if op.kind == "verify":
            return _run_deep_verify(op, checker)
        return _run_deep_spectrum(op, checker)


class Cli(Workload):
    """Fresh ``python -m lawson.cli`` processes, one after another.

    The seed fixes one cycle of requests, which then repeats, so that every
    distinct request's stdout can be compared byte for byte with its first
    occurrence (the README's determinism promise).
    """

    name = "cli"
    in_process = False
    cycle_seconds = 9.5

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        rng = random.Random(f"cli/{seed}")
        gen30 = generalized_triples(1, 30)
        gen6 = generalized_triples(1, 6)
        law30 = lawson_pairs(0, 30)
        law6 = lawson_pairs(0, 6)
        args = lambda t: [str(v) for v in t]
        reqs = []
        for _ in range(2):
            reqs.append(["classify"] + args(rng.choice(gen30)))
        reqs.append(["classify", "--lawson"] + args(rng.choice(law30)))
        reqs.append(["table"])
        reqs.append(["landen"])
        for _ in range(2):
            t = rng.choice(gen30)
            reqs.append(["spectrum"] + args(t) + ["--l", str(rng.randint(0, t[2])),
                                                  "--symmetry", rng.choice(
                                                      ("full", "even", "odd", "pi-periodic",
                                                       "pi-antiperiodic"))])
        reqs.append(["verify"] + args(rng.choice(gen6)))
        reqs.append(["verify", "--lawson"] + args(rng.choice(law6)))
        self.requests = [Op("cli", {"argv": r}) for r in reqs]
        for fmt in ("csv", "obj"):
            t = rng.choice(gen30)
            out = os.path.join(out_dir, f"export.{fmt}")
            argv = ["export"] + args(t) + ["--format", fmt, "--out", out]
            if fmt == "obj":
                argv += ["--axes", ",".join(str(i) for i in rng.sample(range(1, 7), 3))]
            self.requests.append(Op("cli", {"argv": argv, "out": out, "format": fmt,
                                            "nx": 128, "ny": 128}))
        self.span_files = []

    def cycle(self, index: int) -> list[Op]:
        return list(self.requests)

    def warmup(self) -> Op:
        return Op("cli", {"argv": ["classify", "1", "0", "2"]})

    def run(self, op: Op, checker: Checker) -> Outcome:
        prefix = [sys.executable, "-m", "lawson.cli"]
        if self.trace_dir:
            path = os.path.join(self.trace_dir, f"spans-{self.op_id}.json")
            self.span_files.append(path)
            prefix = [sys.executable, TRACECLI, path, str(self.op_id)]
        return _run_cli(op, checker, prefix)

    def collect_spans(self) -> dict:
        """Merge the span files of the traced ops, re-basing parent indices."""
        spans, keys, errors = [], set(), 0
        for path in self.span_files:
            with open(path, encoding="utf-8") as fh:
                d = json.load(fh)
            os.remove(path)
            base = len(spans)
            spans += [[nm, t0, t1, p + base if p >= 0 else -1, op, n]
                      for nm, t0, t1, p, op, n in d["spans"]]
            keys.update(d["sl_keys"])
            errors += d["errors"]
        return {"spans": spans, "sl_keys": sorted(keys), "errors": errors}


WORKLOADS = {w.name: w for w in (Cli, Census, Deep)}


def timed(workload: Workload, op: Op, checker: Checker) -> tuple[float, Outcome]:
    """Run one op; an exception is a failed, incorrect op, never a crash."""
    t0 = time.perf_counter()
    try:
        outcome = workload.run(op, checker)
    except Exception as exc:  # the client must keep running and report it
        outcome = Outcome(False, False, f"{op.kind}: {type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, outcome
