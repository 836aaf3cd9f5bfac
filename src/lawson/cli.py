"""Command-line front end.

Subcommands: classify, verify, spectrum, export, table, landen.
Output is a deterministic JSON envelope by default (stable key order,
floats as the shortest string that reads back as the same double);
``--format text`` prints the payload and the tolerances as aligned
dotted-path rows instead.

Exit codes: 0 ok, 1 invalid input, 2 verification failure, 3 numerical
non-convergence; a closed stdout keeps the code of the verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from ._lazy import np
from .elliptic import Modulus, complete_E, complete_K, landen_gap
from .errors import InvalidTripleError, SpectralError
from .spectral import Symmetry, sl_problem, sl_spectrum
from .surface import Case, Triple, classify, immersion, validate
from .verify import run_verification

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_VERIFICATION_FAILED = 2
EXIT_NUMERIC = 3

DEFAULT_GRID = 2048
DEFAULT_EXPORT_NX = 128
DEFAULT_EXPORT_NY = 128
_BLOCK_ROWS = 1024  # grid points an export samples, formats and writes at once

_SYMMETRY_NAMES = {
    "full": Symmetry.FULL_PERIODIC,
    "even": Symmetry.EVEN_Y,
    "odd": Symmetry.ODD_Y,
    "pi-periodic": Symmetry.PI_PERIODIC,
    "pi-antiperiodic": Symmetry.PI_ANTIPERIODIC,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad input; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_INPUT)


def render_json(obj) -> str:
    """The envelope as indented JSON: key order kept, floats as the shortest string that reads
    back as the same double, numpy scalars as their Python values; a non-finite float raises
    ValueError."""
    return json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False,
                      default=lambda o: o.item())


def _triple_record(t: Triple) -> dict:
    """The triple; a Lawson pair's c = sqrt(a^2 + b^2) is a float, so c^2 is also given exactly."""
    if t.case is Case.GENERALIZED:
        return {"case": t.case.value, "a": t.a, "b": t.b, "c": t.c}
    return {"case": t.case.value, "a": t.a, "b": t.b, "c": t.c_real, "c_squared": t.c_squared}


def _text_rows(prefix: str, obj):
    """(dotted path, leaf) of every leaf of a nested dict or list, in order."""
    for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
        if isinstance(v, (dict, list)):
            yield from _text_rows(f"{prefix}{k}.", v)
        else:
            yield f"{prefix}{k}", v


def _respond(command: str, t: Triple | None, payload: dict, fmt: str, tolerances: dict,
             status: str) -> int:
    """Print the response envelope as JSON, or as aligned text rows of the payload and the
    tolerances; return the exit code of ``status``."""
    triple = _triple_record(t) if t is not None else None
    try:
        if fmt == "json":
            print(render_json({"command": command, "triple": triple, "payload": payload,
                               "tolerances": tolerances, "status": status}))
        else:
            print(f"command: {command}   status: {status}")
            if triple:
                print(f"triple:  {triple['case']} ({triple['a']}, {triple['b']}, {triple['c']})")
            rows = [*_text_rows("", payload), *_text_rows("tolerances.", tolerances)]
            width = max([28] + [len(path) for path, _ in rows])
            for path, v in rows:
                print(f"  {path:<{width}} {_text_value(v)}")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: the flush at exit goes to devnull
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return {"ok": EXIT_OK, "fail": EXIT_VERIFICATION_FAILED, "indeterminate": EXIT_NUMERIC}[status]


def _text_value(v) -> str:
    v = v.item() if hasattr(v, "item") else v  # a numpy scalar as its Python value
    if isinstance(v, bool):
        return "yes" if v else "no"
    return json.dumps(v, allow_nan=False) if isinstance(v, float) else str(v)  # as the envelope


def _parse_triple(args) -> Triple:
    ints = args.params
    if args.lawson:
        if len(ints) != 2:
            raise InvalidTripleError("Lawson case takes exactly two integers: a b")
        return validate(Case.LAWSON, ints[0], ints[1])
    if len(ints) != 3:
        raise InvalidTripleError("generalized case takes exactly three integers: a b c")
    return validate(Case.GENERALIZED, ints[0], ints[1], ints[2])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    t = _parse_triple(args)
    sc = classify(t)
    payload = {
        "topology": sc.topology.value,
        "subcase": sc.subcase.value,
        "covering_degree": sc.covering_degree,
        "j": sc.j,
        "functional": sc.functional.value,
        "S": sc.area * sc.covering_degree,
        "area": sc.area,
        "lambda": sc.lambda_value,
    }
    return _respond("classify", t, payload, args.format, {}, "ok")


def cmd_verify(args) -> int:
    t = _parse_triple(args)
    report = run_verification(t, grid_n=args.grid, deep=args.deep)
    payload = {
        "grid_n": args.grid,
        "deep": args.deep,
        "checks": [
            {"name": c.name, "passed": c.passed, "values": c.values}
            for c in report.checks
        ],
    }
    return _respond("verify", t, payload, args.format, report.tolerances(), report.status)


def cmd_spectrum(args) -> int:
    t = _parse_triple(args)
    symmetry = _SYMMETRY_NAMES[args.symmetry]
    problem = sl_problem(t, args.l, symmetry)
    result = sl_spectrum(problem, args.grid, count=args.count)
    payload = {
        "l": args.l,
        "symmetry": symmetry.value,
        "grid_n": args.grid,
        "eigenvalues": [float(v) for v in result.eigenvalues],
    }
    return _respond("spectrum", t, payload, args.format, {}, "ok")


def _fmt_lines(template: str, rows: np.ndarray) -> str:
    """``template % row`` for each row of a 2-D array, one line each; a non-finite value raises
    ValueError."""
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"non-finite float in output: {float(rows[~np.isfinite(rows)][0])!r}")
    return "".join(template % row for row in map(tuple, rows.tolist()))


def _blocks(nx: int, ny: int):
    """(ix, iy, x, y) of the points of the nx x ny grid over [0, 2 pi)^2, x slowest,
    :data:`_BLOCK_ROWS` at a time: an export samples, formats and writes one block at once."""
    xs, ys = (np.linspace(0.0, 2.0 * math.pi, n, endpoint=False) for n in (nx, ny))
    for start in range(0, nx * ny, _BLOCK_ROWS):
        ix, iy = np.divmod(np.arange(start, min(start + _BLOCK_ROWS, nx * ny)), ny)
        yield ix, iy, xs[ix], ys[iy]


def _export_csv(t: Triple, nx: int, ny: int, path: str) -> None:
    """A header, then x,y,F1..F6 per grid point, x slowest."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,F1,F2,F3,F4,F5,F6\n")
        for _, _, x, y in _blocks(nx, ny):
            rows = np.vstack([x, y, immersion(t, x, y)]).T
            fh.write(_fmt_lines(",".join(["%.17g"] * 8) + "\n", rows))


def _export_obj(t: Triple, nx: int, ny: int, axes: tuple[int, int, int], path: str) -> None:
    """Comments, then the vertices projected onto ``axes`` and one quad face per grid cell."""
    degree = classify(t).covering_degree
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {t.label()} sampled on a {nx}x{ny} grid over [0,2pi)^2\n")
        fh.write(f"# axes: orthogonal projection onto coordinates {axes[0]},{axes[1]},{axes[2]} of R^6\n")
        if degree == 2:
            fh.write("# covering: the parameter torus double-covers this surface;\n")
            fh.write("# the identification is NOT collapsed, both sheets are present\n")
        else:
            fh.write("# covering: one-to-one parameterization\n")
        for _, _, x, y in _blocks(nx, ny):
            F = immersion(t, x, y)[[i - 1 for i in axes]]
            fh.write(_fmt_lines("v %.17g %.17g %.17g\n", F.T))
        for ix, iy, _, _ in _blocks(nx, ny):  # vertices from 1; the next x and y cyclically
            x0, x1, y0, y1 = ix * ny + 1, (ix + 1) % nx * ny + 1, iy, (iy + 1) % ny
            faces = np.stack([x0 + y0, x1 + y0, x1 + y1, x0 + y1]).T
            fh.write(_fmt_lines("f %d %d %d %d\n", faces))


def cmd_export(args) -> int:
    t = _parse_triple(args)
    nx, ny = args.nx, args.ny
    if nx < 2 or ny < 2:
        raise InvalidTripleError("grid must be at least 2x2")
    if args.file_format == "obj":
        try:
            axes = tuple(int(s) for s in args.axes.split(","))
        except ValueError:
            raise InvalidTripleError(f"bad axes {args.axes!r}: expected i,j,k")
        if len(axes) != 3 or len(set(axes)) != 3 or not all(1 <= i <= 6 for i in axes):
            raise InvalidTripleError(
                f"bad axes {args.axes!r}: need three distinct indices in 1..6"
            )
    try:
        if args.file_format == "csv":
            _export_csv(t, nx, ny, args.out)
        else:
            _export_obj(t, nx, ny, axes, args.out)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    payload = {
        "file": args.out,
        "file_format": args.file_format,
        "nx": nx,
        "ny": ny,
    }
    return _respond("export", t, payload, "json", {}, "ok")


def cmd_table(args) -> int:
    """Landmark surfaces and the maximal-Klein-bottle equality check."""
    rows = []
    for case, a, b, c, note in [
        (Case.GENERALIZED, 0, 0, 1, "Clifford torus, metric halved"),
        (Case.GENERALIZED, 1, 1, 2, "equilateral torus, Lambda_1 maximizer"),
        (Case.GENERALIZED, 0, 1, 2, "maximal Klein bottle"),
        (Case.LAWSON, 1, 1, None, "Clifford torus in S^3"),
        (Case.LAWSON, 3, 1, None, "its bipolar surface is the maximal Klein bottle"),
    ]:
        t = validate(case, a, b, c)
        sc = classify(t)
        rows.append(
            {
                "surface": t.label(),
                "topology": sc.topology.value,
                "subcase": sc.subcase.value,
                "j": sc.j,
                "lambda": sc.lambda_value,
                "S": sc.area * sc.covering_degree,
                "note": note,
            }
        )
    s012 = rows[2]["S"]  # the maximal Klein bottle's row
    bipolar = 12.0 * math.pi * complete_E(Modulus.from_k(2.0 * math.sqrt(2.0) / 3.0))
    residual = abs(s012 - bipolar) / s012
    k_half = Modulus.from_k(0.5)
    payload = {
        "rows": rows,
        "klein_bottle_equality": {
            "S_012": s012,
            "closed_form_2pi_8E_minus_3K": 2.0
            * math.pi
            * (8.0 * complete_E(k_half) - 3.0 * complete_K(k_half)),
            "bipolar_12piE": bipolar,
            "relative_residual": residual,
        },
    }
    return _respond("table", None, payload, args.format, {"klein_bottle_equality": "<= 1e-10"},
                    "ok" if residual <= 1e-10 else "fail")


def _landen_grid(n: int) -> list[float]:
    """``np.linspace(0.0, 0.99, n)`` bit for bit: i * step, and the end point exactly."""
    return [i * (0.99 / (n - 1)) for i in range(n - 1)] + [0.99] if n > 1 else [0.0]


def cmd_landen(args) -> int:
    if args.points < 1:
        raise InvalidTripleError(f"--points must be at least 1, got {args.points}")
    ks = _landen_grid(args.points)
    gaps = [abs(landen_gap(k)) for k in ks]
    worst = gaps.index(max(gaps))  # the first maximum, as np.argmax
    payload = {
        "points": args.points,
        "k_range": [0.0, 0.99],
        "max_abs_gap": gaps[worst],
        "argmax_k": ks[worst],
    }
    return _respond("landen", None, payload, args.format, {"max_abs_gap": "<= 1e-10"},
                    "ok" if gaps[worst] <= 1e-10 else "fail")


def build_parser() -> _Parser:
    parser = _Parser(prog="lawson", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_triple_args(p):
        p.add_argument("params", type=int, nargs="+", metavar="N",
                       help="a b c (generalized) or a b with --lawson")
        p.add_argument("--lawson", action="store_true",
                       help="boundary case c^2 = a^2 + b^2 (classical tau-surface)")

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("classify", help="topology, subcase, index and functional value")
    add_triple_args(p)
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run the full residual suite for one surface")
    add_triple_args(p)
    add_format(p)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID,
                   help=f"spectral grid (default {DEFAULT_GRID})")
    p.add_argument("--deep", action="store_true",
                   help="double the grids and report convergence orders")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="lowest eigenvalues of the separated problem")
    add_triple_args(p)
    add_format(p)
    p.add_argument("--l", type=int, default=0, help="separation frequency (default 0)")
    p.add_argument("--symmetry", choices=sorted(_SYMMETRY_NAMES), default="full")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID,
                   help="cells of the whole y-circle; at least 256, divisible by 4")
    p.add_argument("--count", type=int, default=8, help="number of eigenvalues")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("export", help="sample the immersion to CSV or OBJ")
    add_triple_args(p)
    p.add_argument("--nx", type=int, default=DEFAULT_EXPORT_NX)
    p.add_argument("--ny", type=int, default=DEFAULT_EXPORT_NY)
    p.add_argument("--format", dest="file_format", choices=("csv", "obj"), default="csv")
    p.add_argument("--axes", default="1,3,5",
                   help="three distinct R^6 coordinates for the OBJ projection (default 1,3,5)")
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("table", help="landmark surfaces and their functional values")
    add_format(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("landen", help="sweep the Landen identity defect")
    add_format(p)
    p.add_argument("--points", type=int, default=100)
    p.set_defaults(func=cmd_landen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpectralError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
