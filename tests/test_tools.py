"""tools/same_behaviour.py --compare: exact on everything but floats, whose largest
absolute and relative deltas it prints."""

import hashlib
import json
import math
import os
import re
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools"))

import same_behaviour  # noqa: E402


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


def test_compare_prints_float_deltas_and_fails_on_anything_else(tmp_path, capsys):
    report = {"triple": "T_(1,2,3)", "grid_n": 2048, "deep": False, "status": "ok",
              "checks": {"count": {"passed": True, "values": {"n2": 5, "per_l": [[0, 3], [1, 1]],
                                                              "gap": 1e-6,
                                                              "lambda0_beyond": 200.0}}}}
    moved = json.loads(json.dumps(report))
    moved["checks"]["count"]["values"]["gap"] = 1.5e-6
    moved["checks"]["count"]["values"]["lambda0_beyond"] = 200.002
    old = _write(tmp_path / "old.jsonl", [report])
    assert same_behaviour.compare(old, _write(tmp_path / "new.jsonl", [moved])) == 0
    out = capsys.readouterr().out
    assert "max |delta| 5e-07  checks.count.values.gap" in out
    assert "max |delta| / max(1, |old|) 5e-07  checks.count.values.gap" in out
    assert "max |delta| 0.002  checks.count.values.lambda0_beyond" in out
    assert "max |delta| / max(1, |old|) 1e-05  checks.count.values.lambda0_beyond" in out

    for path, value in ((("status",), "fail"), (("checks", "count", "values", "per_l"), [[0, 3]]),
                        (("checks", "count", "values", "n2"), 5.0),
                        (("checks", "count", "values", "gap"), math.nan),
                        (("checks", "count", "values", "gap"), math.inf)):
        changed = json.loads(json.dumps(report))
        target = changed
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert same_behaviour.compare(old, _write(tmp_path / "new.jsonl", [changed])) == 1
        assert "DIFFERS" in capsys.readouterr().out
    assert same_behaviour.compare(old, _write(tmp_path / "new.jsonl", [])) == 1
    report["checks"]["count"]["values"]["gap"] = math.nan
    nan = _write(tmp_path / "nan.jsonl", [report])
    assert same_behaviour.compare(nan, nan) == 0


def test_header_records_the_blas_threads(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    assert same_behaviour.header() == {"header": {"OPENBLAS_NUM_THREADS": "1",
                                                  "OMP_NUM_THREADS": None,
                                                  "MKL_NUM_THREADS": "2",
                                                  "cpu_count": os.cpu_count()}}


def test_compare_keys_no_report_by_the_header_and_notes_a_change(tmp_path, capsys):
    """Equal headers pass silently; a changed or missing header is noted, not a difference."""
    listed = {"triple": "T_(1,2,3)", "l": 1, "symmetry": "full-periodic", "grid_n": 16384,
              "eigenvalues": [1.5, 2.5]}
    one = {"header": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                      "MKL_NUM_THREADS": None, "cpu_count": 2}}
    two = {"header": {**one["header"], "OPENBLAS_NUM_THREADS": "2"}}
    old = _write(tmp_path / "old.jsonl", [one, listed])
    assert same_behaviour.compare(old, _write(tmp_path / "new.jsonl", [one, listed])) == 0
    out = capsys.readouterr().out
    assert "1 records in both" in out and "note" not in out
    for changed in ([two, listed], [listed]):
        assert same_behaviour.compare(old, _write(tmp_path / "new.jsonl", changed)) == 0
        out = capsys.readouterr().out
        assert "1 records in both" in out
        assert "note: the headers differ" in out and "DIFFERS" not in out
    moved = {**listed, "eigenvalues": [1.5, 3.5]}
    assert same_behaviour.compare(old, _write(tmp_path / "new.jsonl", [two, moved])) == 0
    assert "max |delta| 1  eigenvalues[]" in capsys.readouterr().out
    assert same_behaviour.compare(old, _write(tmp_path / "new.jsonl", [two])) == 1


def test_cli_records_are_keyed_by_argv(tmp_path, monkeypatch, capsys):
    """--cli runs the benchmark's cli requests of seeds 101-104 and edge cases once each; a record
    holds the exit code, stdout, stderr and an export's sha256, and --compare flags any byte
    change."""
    from perfbench.workloads import Cli

    argvs = same_behaviour.cli_invocations()
    assert len(set(map(tuple, argvs))) == len(argvs)
    for seed in range(101, 105):
        assert all(op.args["argv"] in argvs for op in Cli(seed, "").requests)
    assert ["landen", "--points", "0"] in argvs and ["table", "--format", "text"] in argvs

    monkeypatch.chdir(tmp_path)
    rejected = same_behaviour.cli_record(["landen", "--points", "0"])
    assert rejected == {"argv": ["landen", "--points", "0"], "exit": 1, "stdout": "",
                        "stderr": "invalid input: --points must be at least 1, got 0\n"}
    assert same_behaviour.cli_record(["classify", "1"])["exit"] == 1  # argparse accepts, arity fails
    assert same_behaviour.cli_record(["table", "--bogus"])["exit"] == 1  # argparse exits
    export = same_behaviour.cli_record(["export", "0", "1", "2", "--nx", "4", "--ny", "4",
                                        "--out", "e.csv"])
    assert export["exit"] == 0 and json.loads(export["stdout"])["payload"]["file"] == "e.csv"
    assert export["sha256"] == hashlib.sha256((tmp_path / "e.csv").read_bytes()).hexdigest()
    capsys.readouterr()

    old = _write(tmp_path / "old.jsonl", [rejected, export])
    assert same_behaviour.compare(old, _write(tmp_path / "new.jsonl", [export, rejected])) == 0
    assert "2 records in both" in capsys.readouterr().out
    for key, value in (("stdout", export["stdout"] + " "), ("stderr", "x"), ("sha256", "0" * 64),
                       ("exit", 2)):
        changed = _write(tmp_path / "new.jsonl", [rejected, {**export, key: value}])
        assert same_behaviour.compare(old, changed) == 1
        assert "DIFFERS" in capsys.readouterr().out


def test_count_records_hold_the_count_or_its_error(tmp_path, monkeypatch, capsys):
    """--counts writes n2, per_l, gap, edge errors and cells of each count, or its error;
    --compare keys the records by triple and grid and flags a changed count."""
    from lawson import Case, IndeterminateCountError, validate

    queries = [(t.label(), n) for t, n in same_behaviour.count_queries()]
    assert ("T_(1,2,150)", 4096) in queries and ("T_(5,7,13)", 32768) in queries
    assert ("T_(2,1531,2871)", 2048) in queries and ("tau_(1000,1)", 2048) in queries
    assert len(set(queries)) == len(queries) == 12
    t = validate(Case.GENERALIZED, 1, 2, 3)
    counted = json.loads(json.dumps(same_behaviour.count_record(t, 2048)))
    assert counted["n2"] == 9 and counted["per_l"] == [[0, 3], [1, 2], [2, 1], [3, 0]]
    assert set(counted) == {"triple", "grid_n", "n2", "per_l", "gap", "edge_errors", "cells"}
    assert counted["cells"] == 512 and len(counted["edge_errors"]) == 3

    def indeterminate(t, grid_n):
        raise IndeterminateCountError("indeterminate count; refine grid")

    monkeypatch.setattr(same_behaviour, "count_N2", indeterminate)
    failed = same_behaviour.count_record(t, 2048)
    assert failed == {"triple": "T_(1,2,3)", "grid_n": 2048,
                      "error": "IndeterminateCountError: indeterminate count; refine grid"}
    old = _write(tmp_path / "old.jsonl", [counted])
    assert same_behaviour.compare(old, _write(tmp_path / "new.jsonl", [counted])) == 0
    for changed in ({**counted, "n2": 8}, failed):
        assert same_behaviour.compare(old, _write(tmp_path / "new.jsonl", [changed])) == 1
        assert "DIFFERS" in capsys.readouterr().out


def test_compare_lists_a_key_only_one_side_has_once_per_field(tmp_path, capsys):
    """A nested key on one side only is ADDED or DROPPED, counted over the records, and passes;
    a list that changes length, or a record whose own fields change, differs."""
    def report(grid_n, **values):
        return {"triple": "T_(1,1,5)", "grid_n": grid_n, "deep": True, "status": "ok",
                "checks": {"anchors": {"passed": True, "values": values}}}

    old = _write(tmp_path / "old.jsonl", [report(n, lambda0_at_c=1e-10, orders=[2.0])
                                          for n in (1024, 2048)])
    floored = [report(n, lambda0_at_c=1e-10, orders=[2.0], floors=[1e-9, 4e-9])
               for n in (1024, 2048)]
    assert same_behaviour.compare(old, _write(tmp_path / "new.jsonl", floored)) == 0
    out = capsys.readouterr().out
    assert "ADDED checks.anchors.values.floors: in 2 records" in out and "DIFFERS" not in out
    assert same_behaviour.compare(_write(tmp_path / "floored.jsonl", floored), old) == 0
    assert "DROPPED checks.anchors.values.floors: in 2 records" in capsys.readouterr().out
    for changed in ([report(n, lambda0_at_c=1e-10, orders=[]) for n in (1024, 2048)],
                    [{**report(n), "error": "EigensolverError"} for n in (1024, 2048)]):
        assert same_behaviour.compare(old, _write(tmp_path / "new.jsonl", changed)) == 1
        assert "DIFFERS" in capsys.readouterr().out


def _last_digits_moved(stdout):
    """``stdout`` with the last digit of each float written to 17 digits changed, as a solver that
    rounds differently would change it."""
    def move(match):
        text = match.group()
        return text[:-1] + str((int(text[-1]) + 1) % 10)

    return re.sub(r"\d\.\d{15,}", move, stdout)


def test_compare_reads_the_floats_inside_stdout_by_delta(tmp_path, monkeypatch, capsys):
    """A JSON verify and a text spectrum whose stdouts change only in the last digits of their
    floats pass, the deltas printed by field; a flipped verdict, a changed integer, a changed
    string or a float of integral value written as an integer (``%.17g``) are told apart."""
    monkeypatch.chdir(tmp_path)
    verify = same_behaviour.cli_record(["verify", "1", "1", "2"])
    text = same_behaviour.cli_record(["spectrum", "1", "2", "3", "--l", "1", "--format", "text"])
    old = _write(tmp_path / "old.jsonl", [verify, text])
    moved = [{**r, "stdout": _last_digits_moved(r["stdout"])} for r in (verify, text)]
    assert all(m["stdout"] != r["stdout"] for m, r in zip(moved, (verify, text)))
    capsys.readouterr()
    assert same_behaviour.compare(old, _write(tmp_path / "new.jsonl", moved)) == 0
    out = capsys.readouterr().out
    assert "max |delta| / max(1, |old|) " in out and "DIFFERS" not in out
    assert "stdout.payload.checks[].values.quadrature" in out
    assert re.search(r"max \|delta\| \S+  stdout\n", out)

    for record, before, after in ((verify, '"passed": true', '"passed": false'),
                                  (verify, r'"n2": (\d+)', r'"n2": 1\1'),
                                  (verify, "unit_norm", "unit_norn"),
                                  (text, r"grid_n( +)2048", r"grid_n\g<1>2049")):
        changed = {**record, "stdout": re.sub(before, after, record["stdout"], count=1)}
        assert changed["stdout"] != record["stdout"]
        rest = [r for r in (verify, text) if r is not record]
        assert same_behaviour.compare(old, _write(tmp_path / "new.jsonl", [changed, *rest])) == 1
        assert "DIFFERS" in capsys.readouterr().out

    integral = json.loads(verify["stdout"])
    integral["payload"]["checks"][1]["values"]["k2"] = 1e-17  # written as 0 on the old side
    rewritten = {**verify, "stdout": json.dumps(integral, indent=2) + "\n"}
    assert same_behaviour.compare(old, _write(tmp_path / "new.jsonl", [rewritten, text])) == 0
    assert "max |delta| 1e-17  stdout.payload.checks[].values.k2" in capsys.readouterr().out
