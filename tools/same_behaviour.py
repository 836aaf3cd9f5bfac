"""Write every verification report of a fixed triple set as sorted JSONL.

    PYTHONPATH=src python3 tools/same_behaviour.py --grid 2048 [--deep] > reports.jsonl

The set has 1204 triples: the test suite's reference surfaces
(``tests/conftest.py``), every third canonical generalized triple with
c <= 30 and every other canonical Lawson pair with c <= 30.  Each line is
one ``run_verification`` report: status, and per check its verdict, values
and tolerance string (the count's values hold ``n2`` and ``per_l``).  Run it
in two checkouts with the same arguments and ``diff`` the outputs: any
changed status, verdict, count or value shows as a changed line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from conftest import build_suite  # noqa: E402

from lawson import Case, SpectralError, run_verification, validate  # noqa: E402


def generalized_triples(c_max: int) -> list[tuple[int, int, int]]:
    """Canonical generalized triples by c, then b, then a: gcd 1, 0 <= a <= b, a^2 + b^2 < c^2."""
    return [(a, b, c) for c in range(1, c_max + 1) for b in range(c) for a in range(b + 1)
            if a * a + b * b < c * c and math.gcd(a, b, c) == 1]


def lawson_pairs(c_max: int) -> list[tuple[int, int]]:
    """Canonical Lawson pairs by a, then b: gcd 1, a >= b >= 1, a^2 + b^2 <= c_max^2."""
    return [(a, b) for a in range(1, c_max + 1) for b in range(1, a + 1)
            if math.gcd(a, b) == 1 and a * a + b * b <= c_max * c_max]


def triple_set():
    triples = set(build_suite())
    triples.update(validate(Case.GENERALIZED, *abc) for abc in generalized_triples(30)[::3])
    triples.update(validate(Case.LAWSON, *ab) for ab in lawson_pairs(30)[::2])
    return sorted(triples, key=lambda t: (t.case.value, t.a, t.b, t.c or 0))


def record(t, grid_n: int, deep: bool) -> dict:
    out = {"triple": t.label(), "grid_n": grid_n, "deep": deep}
    try:
        report = run_verification(t, grid_n, deep=deep)
    except SpectralError as exc:
        return {**out, "error": f"{type(exc).__name__}: {exc}"}
    out["status"] = report.status
    out["checks"] = {c.name: {"passed": c.passed, "values": c.values, "tolerance": c.tolerance}
                     for c in report.checks}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--grid", type=int, default=2048, help="grid_n of every verification")
    parser.add_argument("--deep", action="store_true", help="run the deep verifications")
    args = parser.parse_args(argv)
    for t in triple_set():
        print(json.dumps(record(t, args.grid, args.deep), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
