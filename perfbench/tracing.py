"""Spans around calls into the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
``lawson`` module that holds it (``lawson.verify`` and ``lawson.cli`` import
names directly, so patching the defining module alone would miss their
calls).  The checks inside ``lawson.verify`` get a second, outer wrapper on the
``lawson.verify`` attributes they call, named ``verify.<check>``.

A span is ``[name, start, end, parent, op, n]``: ``parent`` is the index of the
enclosing span or -1, ``op`` the operation id, ``n`` the span's work count
(grid rows for ``sl_spectrum``, cells for ``takahashi_residual``).  Spans stay
in memory; ``layer_metrics`` reduces them at the end of the run.
"""

from __future__ import annotations

import sys
import time

# (module, function, span name).  The elliptic layer is the AGM K/E and the
# quadrature oracles.
LAYER_FUNCTIONS = (
    ("lawson.elliptic", "complete_K", "elliptic"),
    ("lawson.elliptic", "complete_E", "elliptic"),
    ("lawson.elliptic", "complete_K_quadrature", "elliptic"),
    ("lawson.elliptic", "complete_E_quadrature", "elliptic"),
    ("lawson.surface", "coefficients", "surface.coefficients"),
    ("lawson.surface", "immersion", "surface.immersion"),
    ("lawson.surface", "area_quadrature", "surface.area_quadrature"),
    ("lawson.surface", "symmetry_residual", "surface.symmetry_residual"),
    ("lawson.surface", "classify", "surface.classify"),
    ("lawson.spectral", "sl_spectrum", "spectral.sl_spectrum"),
    ("lawson.spectral", "anchor_check", "spectral.anchor_check"),
    ("lawson.spectral", "count_N2", "spectral.count_N2"),
    ("lawson.spectral", "interlacing_check", "spectral.interlacing_check"),
    ("lawson.spectral", "takahashi_residual", "spectral.takahashi_residual"),
    ("lawson.verify", "run_verification", "verify.run_verification"),
    ("lawson.cli", "main", "cli.main"),
    ("lawson.cli", "render_json", "cli.render_json"),
)

# verify check name -> the lawson.verify attributes that check calls.
VERIFY_CHECKS = {
    "unit_norm": ("immersion",),
    "lame": ("coefficients", "lame_residual"),
    "separated_ode": ("eq35_residual",),
    "laplace_eigenfunction": ("takahashi_residual",),
    "area": ("area_closed", "area_quadrature"),
    "anchors": ("anchor_check",),
    "symmetry": ("expected_symmetry", "symmetry_residual"),
    "count": ("count_N2",),
    "interlacing": ("interlacing_check",),
}


def _sl_key(args, kwargs):
    problem = args[0] if args else kwargs["problem"]
    grid_n = args[1] if len(args) > 1 else kwargs["grid_n"]
    # l is a float for the boundary anchor and an int elsewhere: compare as floats.
    return (problem.triple, float(problem.l), problem.symmetry, grid_n), grid_n


def _takahashi_cells(args, kwargs):
    n = args[1] if len(args) > 1 else kwargs.get("grid_n", 256)
    return 6 * n * n


class Tracer:
    """Collects spans for one process; ``op`` is set by the caller per operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.sl_keys: set[str] = set()  # repr of (triple, l, symmetry, grid_n)
        self.errors: list[BaseException] = []
        self._patches: list[tuple] = []  # (module, attribute, replaced value)

    def wrap(self, name, fn):
        from lawson.errors import SpectralError

        def traced(*args, **kwargs):
            n = 0
            if name == "spectral.sl_spectrum":
                key, n = _sl_key(args, kwargs)
                self.sl_keys.add(repr(key))
            elif name == "spectral.takahashi_residual":
                n = _takahashi_cells(args, kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, n]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except SpectralError as exc:
                if not any(exc is e for e in self.errors):
                    self.errors.append(exc)
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _patch(self, mod, attr, value):
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def install(self):
        import lawson.cli  # noqa: F401  (the cli namespace must be patched too)
        import lawson.verify

        modules = [m for k, m in sys.modules.items() if k == "lawson" or k.startswith("lawson.")]
        for mod_name, fn_name, span_name in LAYER_FUNCTIONS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self.wrap(span_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        for check, names in VERIFY_CHECKS.items():
            for fn_name in names:
                inner = getattr(lawson.verify, fn_name)
                self._patch(lawson.verify, fn_name, self.wrap(f"verify.{check}", inner))

    def uninstall(self):
        while self._patches:
            mod, attr, value = self._patches.pop()
            setattr(mod, attr, value)

    def dump(self) -> dict:
        return {"spans": self.spans, "sl_keys": sorted(self.sl_keys), "errors": len(self.errors)}


def layer_metrics(spans: list[list], sl_keys: set[str], errors: int) -> dict[str, float]:
    """Reduce spans to the per-layer metrics (times in seconds, counts)."""
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    def outermost(i: int) -> bool:
        p = spans[i][3]
        while p >= 0:
            if names[p] == names[i]:
                return False
            p = spans[p][3]
        return True

    def total(name: str) -> float:
        """Time covered by spans called ``name``, counting nested repeats once."""
        return sum(dur[i] for i, nm in enumerate(names) if nm == name and outermost(i))

    def calls(name: str) -> int:
        return sum(1 for nm in names if nm == name)

    def self_time(name: str) -> float:
        return sum(dur[i] - child_time[i] for i, nm in enumerate(names) if nm == name)

    sl_calls = calls("spectral.sl_spectrum")
    m = {
        "elliptic.calls": calls("elliptic"),
        "elliptic.s": total("elliptic"),
        "surface.coefficients.calls": calls("surface.coefficients"),
        "surface.immersion.calls": calls("surface.immersion"),
        "surface.immersion.s": total("surface.immersion"),
        "surface.area_quadrature.s": total("surface.area_quadrature"),
        "surface.symmetry_residual.s": total("surface.symmetry_residual"),
        "surface.classify.s": total("surface.classify"),
        "spectral.sl_spectrum.calls": sl_calls,
        "spectral.sl_spectrum.s": total("spectral.sl_spectrum"),
        "spectral.sl_spectrum.rows": sum(s[5] for s in spans if s[0] == "spectral.sl_spectrum"),
        "spectral.sl_spectrum.unique_ratio": len(sl_keys) / sl_calls if sl_calls else 1.0,
        "spectral.anchor_check.s": total("spectral.anchor_check"),
        "spectral.count_N2.s": total("spectral.count_N2"),
        "spectral.count_N2.self_s": self_time("spectral.count_N2"),
        "spectral.interlacing_check.s": total("spectral.interlacing_check"),
        "spectral.takahashi_residual.s": total("spectral.takahashi_residual"),
        "spectral.takahashi_residual.cells": sum(
            s[5] for s in spans if s[0] == "spectral.takahashi_residual"),
        "spectral.errors": errors,
    }
    for check in VERIFY_CHECKS:
        m[f"verify.{check}.s"] = total(f"verify.{check}")
    m["verify.run_verification.self_s"] = self_time("verify.run_verification")
    m["cli.main.s"] = total("cli.main")
    m["cli.render_json.s"] = total("cli.render_json")
    return m
