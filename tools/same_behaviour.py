"""Write every record that keeps lawson's behaviour fixed as JSONL; compare two such files.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/same_behaviour.py > run.jsonl
    PYTHONPATH=src python3 tools/same_behaviour.py --compare old.jsonl new.jsonl

A run writes a header and then, in this order, 61 command-line records, 12
counts, 157 eigenvalue lists and 4816 verification reports.  A command-line
record holds a ``lawson`` command line's argv, exit code, stdout, stderr and,
for ``export``, the sha256 of the written file.  The command lines are the
requests of the benchmark's ``cli`` workload for seeds 101-104, ``landen
--points`` at edge counts, ``--format text`` variants, a failing ``verify`` and
rejected inputs of each error path; each runs through ``lawson.cli.main`` in a
temporary working directory, which receives the exports.  They come first, so
the commands start, as a fresh process does, with an empty memo of spectral
requests (it holds eigenvalues only, never a factor or a basis) and no Lanczos
basis; later records may read what they left in the memo.  A count record holds one ``count_N2``'s ``n2``, ``stops``, ``sectors``,
``gap``, ``edge_errors`` and ``cells`` or its error, above the census range
and at fine grids: T_(1,2,150) and T_(60,80,101) at 2048 and 4096, T_(5,7,13)
at 16384 and 32768, and at 2048 T_(98,835,919), tau_(300,1), T_(1,2,1500),
T_(2,1531,2871), T_(1,1000,1001) and tau_(1000,1).  A list record holds one
``sl_spectrum`` list of 8: T_(1,2,3) at l = 1 and T_(5,7,13) at l = 7 in every
symmetry at grids 16384, 65536 and 131072, and the eigenvalue-list queries of
the benchmark's ``deep`` workload for seeds 101-104 (grids 16384-131072); then
lists of 1, 3 and 13 of T_(5,7,13) at l = 7, grid 2048, in every symmetry,
whose sectors' shares include 0 and differ (a list not of 8 carries its
``count``).  A report is one ``run_verification`` of the 1204-triple set at
grids 2048 and 4096, plain and deep: status, and per check its verdict, values
and tolerance string.  The set holds the test suite's reference surfaces
(``tests/conftest.py``), every third canonical generalized triple with
c <= 30 and every other canonical Lawson pair with c <= 30.

Run it in two checkouts, then ``--compare`` the outputs: every value that is
not a float (status, verdicts, tolerance strings, ``n2``, stops, sectors,
errors, exit codes, stderr) must be equal, and the largest |difference| of
each float field is printed, absolute and relative to max(1, |old value|).  A
stdout is equal but for its numbers: the text around them must match, a JSON
stdout is then compared as its parsed values (keys, strings, integers and
booleans exactly), and in text output two integers must be equal while a pair
with a float counts as the float field ``stdout``.  A key nested in a record
that only one side has is listed as ADDED or DROPPED, once per field (list
items share one) with the number of records that have it.  A record whose own
fields change is listed with both field sets, and the fields both sides have
are still compared.  The exit status is 1 when a record, a record's own fields
or a non-float value that both sides have differs; a list that changes length
differs.  A key that two records of one file share is an error.

The first line of each output is a header record of the BLAS thread settings
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``; null when
unset) and ``os.cpu_count()``: eigenvalue lists are byte-identical across runs
only at a fixed BLAS thread count.  ``--compare`` keys no record by it and
prints a note when the two headers differ.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "tests"))
sys.path.insert(0, ROOT)

from conftest import build_suite  # noqa: E402

from lawson import (  # noqa: E402
    Case,
    SpectralError,
    Symmetry,
    count_N2,
    run_verification,
    sl_problem,
    sl_spectrum,
    validate,
)
from lawson.cli import main as cli_main  # noqa: E402
from perfbench.workloads import Cli, Deep, generalized_triples, lawson_pairs  # noqa: E402


def triple_set():
    triples = set(build_suite())
    triples.update(validate(Case.GENERALIZED, *abc) for abc in generalized_triples(1, 30)[::3])
    triples.update(validate(Case.LAWSON, *ab) for ab in lawson_pairs(0, 30)[::2])
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


def list_queries() -> list[tuple]:
    """(triple, l, symmetry, grid_n, count) of every list record, in order."""
    fixed = [(validate(Case.GENERALIZED, 1, 2, 3), 1), (validate(Case.GENERALIZED, 5, 7, 13), 7)]
    queries = [(t, l, sym, n, 8) for t, l in fixed for sym in Symmetry
               for n in (16384, 65536, 131072)]
    for seed in range(101, 105):
        for op in Deep(seed, os.devnull).queries:
            a = op.args
            queries.append((validate(Case.GENERALIZED, *a["triple"][1:]), a["l"],
                            Symmetry(a["symmetry"]), a["grid_n"], 8))
    t = fixed[1][0]
    return queries + [(t, 7, sym, 2048, count) for count in (1, 3, 13) for sym in Symmetry]


def list_record(t, l: int, sym: Symmetry, grid_n: int, count: int) -> dict:
    out = {"triple": t.label(), "l": l, "symmetry": sym.value, "grid_n": grid_n}
    if count != 8:
        out["count"] = count
    try:
        ev = sl_spectrum(sl_problem(t, l, sym), grid_n, count).eigenvalues
    except SpectralError as exc:
        return {**out, "error": f"{type(exc).__name__}: {exc}"}
    return {**out, "eigenvalues": ev.tolist()}


def count_queries() -> list[tuple]:
    """(triple, grid_n) of every count record, in order."""
    large = [(Case.GENERALIZED, (1, 2, 150)), (Case.GENERALIZED, (60, 80, 101))]
    queries = [(validate(case, *abc), n) for case, abc in large for n in (2048, 4096)]
    queries += [(validate(Case.GENERALIZED, 5, 7, 13), n) for n in (16384, 32768)]
    at_2048 = [(Case.GENERALIZED, (98, 835, 919)), (Case.LAWSON, (300, 1)),
               (Case.GENERALIZED, (1, 2, 1500)), (Case.GENERALIZED, (2, 1531, 2871)),
               (Case.GENERALIZED, (1, 1000, 1001)), (Case.LAWSON, (1000, 1))]
    return queries + [(validate(case, *params), 2048) for case, params in at_2048]


def count_record(t, grid_n: int) -> dict:
    out = {"triple": t.label(), "grid_n": grid_n}
    try:
        report = count_N2(t, grid_n)
    except SpectralError as exc:
        return {**out, "error": f"{type(exc).__name__}: {exc}"}
    return {**out, "n2": report.n2, "stops": report.stops, "sectors": report.sectors,
            "gap": report.gap, "edge_errors": report.edge_errors, "cells": report.cells}


def cli_invocations() -> list[list[str]]:
    """argv of every command-line record, in order; exports write to the working directory."""
    argvs = [op.args["argv"] for seed in range(101, 105) for op in Cli(seed, "").requests]
    argvs += [["landen", "--points", n] for n in ("-3", "0", "1", "2", "3", "7", "1000")]
    text = (["classify", "1", "0", "2"], ["classify", "--lawson", "3", "1"], ["table"], ["landen"],
            ["verify", "5", "7", "13"], ["spectrum", "1", "2", "3", "--l", "1"])
    argvs += [[*argv, "--format", "text"] for argv in text]
    argvs.append(["verify", "--lawson", "27", "2"])  # its lame check failed the absolute 1e-12
    argvs.append(["verify", "1", "1", "5", "--deep"])  # lambda_0 exact on the grid: at its floor
    argvs.append(["verify", "--lawson", "3000", "1"])  # fails: interlacing's gap is below its bar
    argvs += [["classify", "1", "2"], ["classify", "--lawson", "0", "1"],
              ["classify", "--lawson", "1", "2", "3"], ["verify", "0", "0", "1", "--grid", "1030"],
              ["spectrum", "1", "2", "3", "--l", "-1"], ["spectrum", "1", "2", "3", "--count", "0"],
              ["export", "0", "1", "2", "--nx", "1", "--out", "x.csv"],
              ["export", "0", "1", "2", "--format", "obj", "--axes", "1,1,2", "--out", "x.obj"],
              ["export", "0", "1", "2", "--out", "missing/x.csv"]]  # an unwritable path
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]  # each once


def cli_record(argv: list[str]) -> dict:
    """Run ``lawson.cli.main(argv)``: argv, exit code, stdout, stderr and, for an export, the
    sha256 of the file it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    rec = {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if argv[0] == "export" and code == 0:
        with open(argv[argv.index("--out") + 1], "rb") as fh:
            rec["sha256"] = hashlib.sha256(fh.read()).hexdigest()
    return rec


# A number written in a command's stdout: an integer, or a float with a point or an exponent.
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _stdout_diff(x: str, y: str):
    """:func:`_diff` of two stdouts that differ: the text around their numbers must be equal; a
    JSON document is then compared as parsed under "stdout", other text number by number.  Two
    integers must be equal, and a pair with a float is a "float": the CLI writes a float of
    integral value (``%.17g``) as an integer."""
    if _NUMBER.sub("0", x) != _NUMBER.sub("0", y):
        yield "differs", "stdout", x, y
        return
    try:
        parsed = json.loads(x), json.loads(y)
    except json.JSONDecodeError:  # text
        for a, b in zip(_NUMBER.findall(x), _NUMBER.findall(y)):
            if a == b:
                continue
            if set(a + b) & set(".eE"):
                yield "float", "stdout", float(a), float(b)
            else:
                yield "differs", "stdout", a, b
        return
    for kind, path, a, b in _diff(*parsed, "stdout"):
        if kind == "differs" and {type(a), type(b)} == {int, float}:
            kind, a, b = "float", float(a), float(b)
        yield kind, path, a, b


def _diff(x, y, path=""):
    """(kind, path, old, new) of each difference of two JSON values, equal floats included: kind
    "added" or "dropped" for a dict key that only one side has, "float" for two finite floats,
    "differs" for anything else that is not equal, such as lists of different lengths.  A
    ``stdout`` string is compared by :func:`_stdout_diff`."""
    if path == "stdout" and isinstance(x, str) and isinstance(y, str) and x != y:
        yield from _stdout_diff(x, y)
    elif isinstance(x, dict) and isinstance(y, dict):
        for key in sorted(x.keys() | y.keys()):
            sub = f"{path}.{key}" if path else key
            if key in x and key in y:
                yield from _diff(x[key], y[key], sub)
            else:
                yield ("dropped" if key in x else "added"), sub, x.get(key), y.get(key)
    elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        for i, (a, b) in enumerate(zip(x, y)):
            yield from _diff(a, b, f"{path}[{i}]")
    elif type(x) is float and type(y) is float and math.isfinite(x - y):
        yield "float", path, x, y
    elif json.dumps(x) != json.dumps(y):  # also 1 vs 1.0, and a NaN or inf on one side
        yield "differs", path, x, y


def header() -> dict:
    """The header record: the BLAS thread settings and the CPU count of this run."""
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"header": {**{v: os.environ.get(v) for v in threads}, "cpu_count": os.cpu_count()}}


def _key(record: dict) -> tuple:
    return tuple(tuple(v) if isinstance(v, list) else v
                 for v in map(record.get, ("triple", "grid_n", "deep", "l", "symmetry", "count", "argv")))


def _records(path: str) -> tuple[dict | None, dict]:
    """(header, records by key) of an output; the header is None in one written without it.
    Two records with one key raise ValueError."""
    environment, records = None, {}
    with open(path, encoding="utf-8") as fh:
        for r in map(json.loads, fh):
            if "header" in r:
                environment = r["header"]
            elif _key(r) in records:
                raise ValueError(f"{path}: two records have the key {_key(r)}")
            else:
                records[_key(r)] = r
    return environment, records


def compare(old_path: str, new_path: str) -> int:
    """Print the differences of two outputs of this script; 1 if a record, its fields or a shared
    non-float value differs."""
    (old_env, old), (new_env, new) = _records(old_path), _records(new_path)
    bad = [f"only in {old_path}: {k}" for k in old.keys() - new.keys()]
    bad += [f"only in {new_path}: {k}" for k in new.keys() - old.keys()]
    worst, one_sided = {}, collections.Counter()
    for key in sorted(old.keys() & new.keys(), key=str):
        if old[key].keys() != new[key].keys():  # such as an error in place of a result
            bad.append(f"{key}: fields {sorted(old[key])} != {sorted(new[key])}")
        for kind, path, x, y in _diff(old[key], new[key]):
            field = re.sub(r"\[\d+\]", "[]", path)
            if kind == "float":
                delta, rel = worst.get(field, (0.0, 0.0))
                worst[field] = max(delta, abs(x - y)), max(rel, abs(x - y) / max(1.0, abs(x)))
            elif kind == "differs":
                bad.append(f"{key} {path}: {x!r} != {y!r}")
            else:
                one_sided[kind.upper(), field] += 1
    print(f"{len(old.keys() & new.keys())} records in both")
    if old_env != new_env:
        print(f"note: the headers differ, {old_env} in {old_path} and {new_env} in {new_path}; "
              "lists are byte-identical only at equal BLAS thread counts")
    for field, (delta, rel) in sorted(worst.items()):
        print(f"max |delta| {delta:.3g}  {field}")
        print(f"max |delta| / max(1, |old|) {rel:.3g}  {field}")
    for (word, field), n in sorted(one_sided.items()):
        print(f"{word} {field}: in {n} records")
    for line in bad:
        print("DIFFERS", line)
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two outputs")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    def write(records):
        for r in records:
            print(json.dumps(r, sort_keys=True), flush=True)

    write([header()])
    # The commands run first, so they start as a process does: no spectral request memoized yet
    # (the memo holds eigenvalues only) and no Lanczos basis.
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write(map(cli_record, cli_invocations()))
        finally:
            os.chdir(cwd)
    write(count_record(*query) for query in count_queries())
    write(list_record(*query) for query in list_queries())
    triples = triple_set()
    write(record(t, grid_n, deep) for grid_n in (2048, 4096) for deep in (False, True)
          for t in triples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
