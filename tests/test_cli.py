"""End-to-end CLI: envelopes, exit codes, determinism, file exports."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import lawson
from lawson.cli import main

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAIL = 2
EXIT_NUMERIC = 3


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_klein_bottle(self, capsys):
        code, out, _ = run(capsys, "classify", "1", "0", "2")
        assert code == EXIT_OK
        env = json.loads(out)
        assert env["command"] == "classify"
        assert env["triple"] == {"case": "generalized", "a": 0, "b": 1, "c": 2}
        assert env["payload"]["topology"] == "klein-bottle"
        assert env["payload"]["subcase"] == "I"
        assert env["payload"]["covering_degree"] == 2
        assert env["payload"]["j"] == 1
        assert env["status"] == "ok"

    def test_invalid_triple_diagnostic(self, capsys):
        code, _, err = run(capsys, "classify", "1", "1", "1")
        assert code == EXIT_INVALID
        assert "c^2 must exceed a^2 + b^2" in err

    def test_lawson_torus(self, capsys):
        code, out, _ = run(capsys, "classify", "--lawson", "3", "1")
        assert code == EXIT_OK
        env = json.loads(out)
        assert env["payload"]["topology"] == "torus"
        assert env["payload"]["j"] == 5
        expected = 24.0 * math.pi * 1.113741101712938  # 24 pi E(2 sqrt2/3)
        assert env["payload"]["lambda"] == pytest.approx(expected, rel=1e-10)

    def test_lawson_pair_states_c_squared_exactly(self, capsys):
        """Past 2^53 the float c of a Lawson pair can round to an integer: tau_(134234113,16385)
        shows c = 134234114, but a^2 + b^2 is no square and floor(c) = 134234113.  The exact
        integer c_squared says so."""
        code, out, _ = run(capsys, "classify", "--lawson", "134234113", "16385")
        assert code == EXIT_OK
        triple = json.loads(out)["triple"]
        assert triple["c"] == 134234114
        assert triple["c_squared"] == 134234113**2 + 16385**2 == 18018797361364994
        assert math.isqrt(triple["c_squared"]) == 134234113
        assert list(triple) == ["case", "a", "b", "c", "c_squared"]

    def test_modulus_rounding_to_one(self, capsys):
        """k^2 = b^2 / c^2 rounds to 1.0 here; K and E read k'^2 = (2c - 1) / c^2 instead."""
        code, out, err = run(capsys, "classify", "0", "72057594037927935", "72057594037927936")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["payload"]["topology"] == "klein-bottle"

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "classify", "1", "2")
        assert code == EXIT_INVALID

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "classify", "1", "1", "2", "--format", "text")
        assert code == EXIT_OK
        assert "klein" not in out
        assert "torus" in out


@pytest.mark.parametrize("argv", [["verify", "5", "7", "13"], ["table"]])
def test_text_rows_align_and_list_the_tolerances(capsys, argv):
    """Every value of ``--format text`` starts in one column, and every tolerance of the JSON
    envelope is a row."""
    tolerances = json.loads(run(capsys, *argv)[1])["tolerances"]
    code, out, _ = run(capsys, *argv, "--format", "text")
    rows = [re.match(r"  (\S+) +(.*)", line) for line in out.splitlines() if line.startswith("  ")]
    assert code == EXIT_OK and len({row.start(2) for row in rows}) == 1
    assert {row[1]: row[2] for row in rows if row[1].startswith("tolerances.")} == {
        f"tolerances.{name}": tol for name, tol in tolerances.items()}


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "1", "2", "3"),
            ("spectrum", "0", "1", "2", "--l", "2", "--grid", "1024"),
            ("table",),
            ("landen", "--points", "25"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, out1, _ = run(capsys, *argv)
        lawson.spectral._sector_eigenvalues.cache_clear()  # a rerun solves anew, as a process does
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_float_formatting_17_significant_digits(self, capsys):
        _, out, _ = run(capsys, "classify", "0", "1", "2")
        env = json.loads(out)
        # round-trip at 17 significant digits is exact for doubles
        assert env["payload"]["S"] == 41.987050357708426


class TestVerify:
    def test_clifford_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "0", "0", "1")
        assert code == EXIT_OK
        env = json.loads(out)
        assert env["status"] == "ok"
        names = [c["name"] for c in env["payload"]["checks"]]
        assert names == [
            "unit_norm",
            "lame",
            "separated_ode",
            "laplace_eigenfunction",
            "area",
            "anchors",
            "symmetry",
            "count",
            "interlacing",
        ]
        assert all(c["passed"] for c in env["payload"]["checks"])
        assert env["tolerances"]["area"] == "relative <= 1e-08"

    def test_deep_reports_convergence_orders(self, capsys):
        code, out, _ = run(capsys, "verify", "0", "0", "1", "--deep")
        assert code == EXIT_OK
        env = json.loads(out)
        anchors = next(c for c in env["payload"]["checks"] if c["name"] == "anchors")
        for order in anchors["values"]["orders"]:
            assert 1.8 <= order <= 2.2

    def test_stdout_does_not_grow_with_c(self, capsys):
        """The count record states three stops and the parity sectors, not c + 1 per-l pairs:
        T_(1,2,1500)'s stdout stays under 10 KB (99,680 bytes with the pairs)."""
        code, out, _ = run(capsys, "verify", "1", "2", "1500")
        assert code == EXIT_OK and len(out.encode()) < 10_000

    def test_text_rows_of_the_count(self, capsys):
        """``--format text`` prints the count's stops one row each, and its parity sectors one row
        per sector: dicts and lists, never a tuple's repr."""
        code, out, _ = run(capsys, "verify", "1", "2", "3", "--format", "text")
        rows = dict(re.findall(r"^  checks\.7\.values\.(\S+) +(.*)$", out, re.M))
        assert code == EXIT_OK
        assert {k: v for k, v in rows.items() if k.startswith("stops.")} == {
            "stops.NN": "3", "stops.ND": "2", "stops.DN": "1", "stops.DD": "0"}
        assert [rows[f"sectors.{p}.{i}"] for p in ("even_l", "odd_l") for i in range(4)] == [
            "NN", "ND", "DN", "DD"] * 2

    def test_verify_klein_bottle(self, capsys):
        code, out, _ = run(capsys, "verify", "1", "0", "2")
        assert code == EXIT_OK
        env = json.loads(out)
        count = next(c for c in env["payload"]["checks"] if c["name"] == "count")
        assert count["values"]["n2"] == 1
        assert count["values"]["j_closed"] == 1

    def test_grid_not_divisible_by_four(self, capsys):
        code, _, err = run(capsys, "spectrum", "0", "0", "1", "--grid", "1030")
        assert code == EXIT_INVALID
        assert "divisible by 4" in err
        code, _, err = run(capsys, "verify", "0", "0", "1", "--grid", "1030")
        assert code == EXIT_INVALID
        assert "divisible by 4" in err

    @pytest.mark.parametrize("command", [("verify", "1", "2", "3"), ("spectrum", "0", "0", "1")])
    def test_explicit_grid_zero_rejected(self, capsys, command):
        """An explicit --grid 0 fails the grid rule; it does not fall back to the default grid."""
        code, out, err = run(capsys, *command, "--grid", "0")
        assert code == EXIT_INVALID
        assert out == ""
        assert "got 0" in err

    def test_failing_check_exits_2(self, capsys, monkeypatch):
        # force the unit-norm check to fail: exit code 2 and status "fail"
        import lawson.verify as verify_mod

        monkeypatch.setattr(verify_mod, "_UNIT_NORM_TOL", -1.0)
        code, out, _ = run(capsys, "verify", "0", "0", "1")
        assert code == EXIT_VERIFY_FAIL
        env = json.loads(out)
        assert env["status"] == "fail"
        norm = next(c for c in env["payload"]["checks"] if c["name"] == "unit_norm")
        assert not norm["passed"]

    def test_indeterminate_count_exits_3(self, capsys, monkeypatch):
        from lawson.errors import IndeterminateCountError
        import lawson.verify as verify_mod

        def explode(*args, **kwargs):
            raise IndeterminateCountError("indeterminate count; refine grid")

        monkeypatch.setattr(verify_mod, "count_N2", explode)
        code, out, _ = run(capsys, "verify", "0", "0", "1")
        assert code == EXIT_NUMERIC
        assert json.loads(out)["status"] == "indeterminate"


class TestSpectrum:
    def test_clifford_flat_values(self, capsys):
        code, out, _ = run(capsys, "spectrum", "0", "0", "1", "--l", "0", "--grid", "1024")
        assert code == EXIT_OK
        ev = json.loads(out)["payload"]["eigenvalues"]
        assert ev[0] == pytest.approx(0.0, abs=1e-8)
        assert ev[1:5] == pytest.approx([2, 2, 8, 8], rel=1e-4)

    def test_ground_state_at_c(self, capsys):
        code, out, _ = run(capsys, "spectrum", "0", "1", "2", "--l", "2")
        ev = json.loads(out)["payload"]["eigenvalues"]
        assert ev[0] == pytest.approx(2.0, abs=1e-4)

    def test_filtered_sector(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "1", "1", "2", "--l", "1",
            "--symmetry", "pi-antiperiodic", "--grid", "1024", "--count", "4",
        )
        assert code == EXIT_OK
        ev = json.loads(out)["payload"]["eigenvalues"]
        # lowest antiperiodic pair is the double anchor at 2
        assert ev[0] == pytest.approx(2.0, abs=1e-4)
        assert ev[1] == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_rejected(self, capsys, count):
        """The eigenvalue count is checked before any solve, and the message names it."""
        code, out, err = run(capsys, "spectrum", "1", "2", "3", "--count", count)
        assert code == EXIT_INVALID
        assert out == ""
        assert "count must be >= 1" in err and f"got {count}" in err

    def test_frequency_beyond_the_largest_double_rejected(self, capsys):
        """``--l 10**400`` is invalid input, not an OverflowError traceback from the solve's
        float(l).  ``--l`` takes integers, so the parser refuses NaN and inf, also with exit 1."""
        code, out, err = run(capsys, "spectrum", "5", "7", "13", "--l", str(10**400))
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith("invalid input: l must be finite") and "Traceback" not in err
        for l in ("nan", "inf"):
            with pytest.raises(SystemExit) as exc:
                main(["spectrum", "5", "7", "13", "--l", l])
            err = capsys.readouterr().err
            assert exc.value.code == EXIT_INVALID and "invalid int value" in err


class TestExport:
    def test_csv_rows_are_unit_norm(self, capsys, tmp_path):
        out_file = tmp_path / "klein.csv"
        code, _, _ = run(
            capsys, "export", "1", "0", "2", "--nx", "12", "--ny", "12",
            "--format", "csv", "--out", str(out_file),
        )
        assert code == EXIT_OK
        data = np.loadtxt(out_file, delimiter=",", skiprows=1)
        assert data.shape == (144, 8)
        norms = np.sum(data[:, 2:] ** 2, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
        header = out_file.read_text().splitlines()[0]
        assert header == "x,y,F1,F2,F3,F4,F5,F6"

    def test_obj_counts_and_header(self, capsys, tmp_path):
        out_file = tmp_path / "surface.obj"
        code, _, _ = run(
            capsys, "export", "1", "1", "2", "--nx", "10", "--ny", "14",
            "--format", "obj", "--axes", "1,3,5", "--out", str(out_file),
        )
        assert code == EXIT_OK
        lines = out_file.read_text().splitlines()
        vertices = [ln for ln in lines if ln.startswith("v ")]
        faces = [ln for ln in lines if ln.startswith("f ")]
        assert len(vertices) == 10 * 14
        assert len(faces) == 10 * 14
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any("double-cover" in c or "double-covers" in c for c in comments)
        assert any("1,3,5" in c for c in comments)

    def test_clifford_projection_is_torus_of_revolution(self, capsys, tmp_path):
        out_file = tmp_path / "clifford.obj"
        code, _, _ = run(
            capsys, "export", "0", "0", "1", "--nx", "8", "--ny", "8",
            "--format", "obj", "--axes", "2,4,5", "--out", str(out_file),
        )
        assert code == EXIT_OK
        verts = np.array(
            [
                [float(v) for v in ln.split()[1:]]
                for ln in out_file.read_text().splitlines()
                if ln.startswith("v ")
            ]
        )
        # first two coordinates trace the y-circle of radius 1/sqrt(2)
        radii = np.sqrt(verts[:, 0] ** 2 + verts[:, 1] ** 2)
        assert radii == pytest.approx(np.full(64, 1 / math.sqrt(2)), abs=1e-12)

    def test_bad_axes(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "export", "1", "0", "2", "--format", "obj",
            "--axes", "1,2,7", "--out", str(tmp_path / "x.obj"),
        )
        assert code == EXIT_INVALID
        assert "axes" in err

    def test_unwritable_path(self, capsys):
        code, _, err = run(
            capsys, "export", "1", "0", "2", "--out", "/nonexistent-dir/file.csv"
        )
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("abc", [(1, 2, 3), (5, 7, 13)], ids=["degree1", "degree2"])
    def test_files_equal_the_per_value_formatting(self, capsys, tmp_path, abc):
        """Formatted a row at a time, CSV and OBJ hold the bytes of ``format(v, ".17g")`` value
        by value, with one immersion call per x for the CSV and a double loop for the faces."""
        t, nx, ny = lawson.validate(lawson.Case.GENERALIZED, *abc), 24, 20
        xs = np.linspace(0.0, 2.0 * math.pi, nx, endpoint=False)
        ys = np.linspace(0.0, 2.0 * math.pi, ny, endpoint=False)
        fmt = lambda values: [format(float(v), ".17g") for v in values]  # noqa: E731
        csv = ["x,y,F1,F2,F3,F4,F5,F6"]
        for x in xs:
            F = lawson.immersion(t, x, ys)
            csv += [",".join(fmt([x, ys[j], *F[:, j]])) for j in range(ny)]
        F = lawson.immersion(t, *np.meshgrid(xs, ys, indexing="ij"))
        obj = ["v " + " ".join(fmt(F[[3, 0, 4], ix, iy])) for ix in range(nx) for iy in range(ny)]
        obj += [f"f {ix * ny + iy + 1} {(ix + 1) % nx * ny + iy + 1} "
                f"{(ix + 1) % nx * ny + (iy + 1) % ny + 1} {ix * ny + (iy + 1) % ny + 1}"
                for ix in range(nx) for iy in range(ny)]
        for kind, expected in (("csv", csv), ("obj", obj)):
            path = tmp_path / f"surface.{kind}"
            code, _, _ = run(capsys, "export", *map(str, abc), "--nx", str(nx), "--ny", str(ny),
                             "--format", kind, "--axes", "4,1,5", "--out", str(path))
            assert code == EXIT_OK
            lines = path.read_bytes().decode("utf-8").split("\n")
            assert lines.pop() == ""
            assert [ln for ln in lines if not ln.startswith("#")] == expected

    @pytest.mark.parametrize("kind", ["csv", "obj"])
    def test_exports_write_a_block_of_rows_at_a_time(self, capsys, tmp_path, monkeypatch, kind):
        """48 x 48 = 2304 rows, more than two blocks: the file holds the bytes of one-shot
        :func:`_fmt_lines` over each whole array, and no call formats more than one block."""
        argv = ["export", "5", "7", "13", "--nx", "48", "--ny", "48", "--format", kind]
        with monkeypatch.context() as one_shot:
            one_shot.setattr(lawson.cli, "_BLOCK_ROWS", 48 * 48)
            assert run(capsys, *argv, "--out", str(tmp_path / "whole"))[0] == EXIT_OK
        fmt_lines, blocks = lawson.cli._fmt_lines, []

        def counted(template, rows):
            blocks.append(len(rows))
            return fmt_lines(template, rows)

        monkeypatch.setattr(lawson.cli, "_fmt_lines", counted)
        assert run(capsys, *argv, "--out", str(tmp_path / "blocks"))[0] == EXIT_OK
        assert (tmp_path / "blocks").read_bytes() == (tmp_path / "whole").read_bytes()
        per_array = [1024, 1024, 256]
        assert blocks == per_array * (1 if kind == "csv" else 2)

    @pytest.mark.parametrize("kind", ["csv", "obj"])
    def test_exports_sample_a_block_of_points_at_a_time(self, capsys, tmp_path, monkeypatch, kind):
        """48 x 48 = 2304 points: the immersion is evaluated on blocks of at most _BLOCK_ROWS
        points that cover the grid once, so an export holds one block's sample, not the grid's."""
        immersion, sizes = lawson.cli.immersion, []

        def recorded(t, x, y):
            sizes.append(np.broadcast(x, y).size)
            return immersion(t, x, y)

        monkeypatch.setattr(lawson.cli, "immersion", recorded)
        argv = ["export", "5", "7", "13", "--nx", "48", "--ny", "48", "--format", kind]
        assert run(capsys, *argv, "--out", str(tmp_path / "surface"))[0] == EXIT_OK
        assert sizes == [1024, 1024, 256]

    def test_control_characters_in_the_path_are_escaped(self, capsys, tmp_path):
        out_file = tmp_path / "a\tb\nc.csv"
        code, out, _ = run(capsys, "export", "0", "1", "2", "--nx", "4", "--ny", "4",
                           "--out", str(out_file))
        assert code == EXIT_OK
        assert "\\u0009" in out and "\\u000a" in out
        assert json.loads(out)["payload"]["file"] == str(out_file)
        assert out_file.exists()

    def test_non_finite_value_raises(self):
        with pytest.raises(ValueError, match="non-finite float in output: nan"):
            lawson.cli._fmt_lines("%.17g,%.17g\n", np.array([[1.0, 2.0], [3.0, np.nan]]))


class TestTable:
    def test_rows_and_equality(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == EXIT_OK
        env = json.loads(out)
        rows = {r["surface"]: r for r in env["payload"]["rows"]}
        assert rows["T_(0,0,1)"]["lambda"] == pytest.approx(4 * math.pi**2, rel=1e-12)
        assert rows["T_(1,1,2)"]["lambda"] == pytest.approx(
            8 * math.pi**2 / math.sqrt(3), rel=1e-12
        )
        assert rows["T_(0,1,2)"]["j"] == 1
        assert rows["tau_(1,1)"]["lambda"] == pytest.approx(4 * math.pi**2, rel=1e-12)
        assert rows["tau_(3,1)"]["j"] == 5
        eq = env["payload"]["klein_bottle_equality"]
        assert eq["relative_residual"] <= 1e-10
        assert env["status"] == "ok"


class TestLanden:
    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "landen")
        assert code == EXIT_OK
        env = json.loads(out)
        assert env["payload"]["points"] == 100
        assert env["payload"]["max_abs_gap"] <= 1e-10

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_below_one_are_rejected(self, capsys, points):
        code, out, err = run(capsys, "landen", "--points", points)
        assert code == EXIT_INVALID
        assert out == ""
        assert err == f"invalid input: --points must be at least 1, got {points}\n"

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 1000])
    def test_grid_is_linspace_bit_for_bit(self, n):
        grid = lawson.cli._landen_grid(n)
        assert all(type(k) is float for k in grid)
        assert np.array(grid).tobytes() == np.linspace(0.0, 0.99, n).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 1000])
    def test_payload_is_the_numpy_sweep(self, capsys, n):
        ks = np.linspace(0.0, 0.99, n)
        gaps = [abs(lawson.landen_gap(float(k))) for k in ks]
        worst = int(np.argmax(gaps))
        _, out, _ = run(capsys, "landen", "--points", str(n))
        payload = json.loads(out)["payload"]
        assert payload["max_abs_gap"] == gaps[worst]
        assert payload["argmax_k"] == float(ks[worst])

    def test_argmax_is_the_first_maximum(self, capsys, monkeypatch):
        ks = np.linspace(0.0, 0.99, 7)
        gap = {float(ks[2]): -1.0, float(ks[5]): 1.0}
        monkeypatch.setattr(lawson.cli, "landen_gap", lambda k: gap.get(k, 0.5))
        code, out, _ = run(capsys, "landen", "--points", "7")
        assert code == EXIT_VERIFY_FAIL
        payload = json.loads(out)["payload"]
        assert payload["argmax_k"] == float(ks[2])  # np.argmax of |gaps| 0.5, 0.5, 1, 0.5, 0.5, 1, 0.5
        assert payload["max_abs_gap"] == 1.0


@pytest.mark.parametrize("value, json_text, text", [
    (np.int64(-7), "-7", "-7"), (np.int32(7), "7", "7"), (np.uint8(255), "255", "255"),
    (np.float64(0.1), "0.10000000000000001", "0.10000000000000001"),
    (np.float32(0.1), "0.10000000149011612", "0.10000000149011612"),
    (np.float16(0.1), "0.0999755859375", "0.0999755859375"),
    (np.bool_(True), '"True"', "True"),  # np.bool_ is no bool: the string of its str()
])
def test_numpy_scalars_render_as_python_numbers(value, json_text, text):
    assert lawson.cli.render_json(value) == json_text
    assert lawson.cli._text_value(value) == text


def test_import_and_closed_form_commands_load_no_numpy_or_scipy():
    """import lawson, classify, table and landen run no numpy or scipy module; a verify after them
    in the same process loads numpy and prints the bytes a fresh process prints."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lawson.__file__)))
    setup = f"import sys; sys.path.insert(0, {src!r}); import lawson, lawson.cli; "
    code = setup + (
        "[lawson.cli.main(argv) for argv in (['classify', '1', '0', '2'], "
        "['classify', '--lawson', '3', '1'], ['table'], ['landen'])]; "
        "print([m for m in sys.modules if m in ('numpy._core', 'scipy') or m.startswith('scipy.')], "
        "file=sys.stderr); print('<verify>'); lawson.cli.main(['verify', '5', '7', '13'])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stderr.strip() == "[]"
    fresh = subprocess.run([sys.executable, "-c", setup + "lawson.cli.main(['verify', '5', '7', '13'])"],
                           capture_output=True, text=True, check=True)
    assert proc.stdout.split("<verify>\n", 1)[1] == fresh.stdout
    assert json.loads(fresh.stdout)["status"] == "ok"


def test_spectral_commands_load_no_numpy_random(tmp_path):
    """verify, spectrum and both exports in one process draw their fixed vectors without
    numpy.random (about 6 MB of a process's peak).  Where ``import numpy`` itself loads it, as
    numpy 1.x does, there is nothing to check."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lawson.__file__)))
    probe = "import sys, numpy; print('numpy.random' in sys.modules)"
    if subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                      check=True).stdout.strip() == "True":
        pytest.skip("import numpy loads numpy.random")
    runs = [["verify", "5", "7", "13"], ["verify", "--lawson", "3", "1", "--deep"],
            ["spectrum", "1", "2", "3", "--l", "2"],
            ["export", "1", "2", "3", "--out", str(tmp_path / "s.csv")],
            ["export", "1", "2", "3", "--format", "obj", "--out", str(tmp_path / "s.obj")]]
    code = (f"import sys; sys.path.insert(0, {src!r}); import lawson.cli; "
            f"codes = [lawson.cli.main(argv) for argv in {runs!r}]; "
            "print(codes, 'numpy' in sys.modules, 'numpy.random' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stderr.strip() == "[0, 0, 0, 0, 0] True False"


@pytest.mark.parametrize("argv,code", [(["table", "--format", "text"], EXIT_OK),
                                       (["verify", "--lawson", "3000", "1"], EXIT_VERIFY_FAIL)])
def test_closed_stdout_keeps_the_exit_code(argv, code):
    """A reader that has gone (as in ``lawson table | head -1``) leaves stdout a pipe with no
    read end: the command still exits with its verdict's code, and writes nothing to stderr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lawson.__file__)))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "lawson.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, b"")


@pytest.mark.parametrize("argv", [["classify", "0", "1", str(10**200)],
                                  ["classify", "--lawson", str(10**200), "1"]])
def test_huge_integers_are_invalid_input(argv):
    """Frequencies whose squares reach 2^1020 are rejected before any float conversion."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lawson.__file__)))
    proc = subprocess.run([sys.executable, "-m", "lawson.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == EXIT_INVALID
    assert proc.stderr.startswith("invalid input:") and "Traceback" not in proc.stderr


def test_missing_numpy_fails_at_import():
    """Without site-packages (-S) and PYTHON* variables (-I) numpy cannot be found."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lawson.__file__)))
    code = f"import sys; sys.path.insert(0, {src!r}); import lawson"
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.rstrip().endswith("ModuleNotFoundError: No module named 'numpy'")
