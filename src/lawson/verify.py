"""One-stop verification: every residual check for a single surface.

Bundles the unit-norm identity, the Lame and separated-ODE residuals,
the Laplace-eigenfunction (minimality) residual with its convergence
ratio, the closed-form-vs-quadrature area comparison, the anchor
eigenvalues, the half-period symmetry residuals against their closed
forms, the eigenvalue count against the closed-form index, and the
oscillation-order checks into a single pass/fail report.  The Lame,
separated-ODE and symmetry checks each make one call, which returns all
three components and, for Lame and symmetry, their rounding bounds.
The spectral grid follows the sector rule of
:mod:`lawson.spectral` (at least 256, divisible by 4), and each spectral
check makes one call per grid, which returns its bars with its values:
the anchors' tolerance and rounding floor, and interlacing's rounding bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._lazy import np
from .elliptic import Modulus
from .errors import SpectralError
from .spectral import (
    _sector_cells,
    _uniform,
    anchor_check,
    count_N2,
    eq35_residual,
    interlacing_check,
    lame_residual,
    takahashi_residual,
)
from .surface import (
    Triple,
    area_closed,
    area_quadrature,
    canonicalize,
    coefficients,
    expected_symmetry,
    immersion,
    symmetry_residual,
)

__all__ = ["CheckResult", "VerificationReport", "run_verification"]

_UNIT_NORM_TOL = 1e-12
_EQ35_TOL = 1e-10
_AREA_TOL = 1e-8
_RATIO_RANGE = (3.2, 4.8)   # second-order convergence: factor 4 within 20%


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    values: dict
    tolerance: str


@dataclass
class VerificationReport:
    triple: Triple
    grid_n: int
    deep: bool
    checks: list[CheckResult] = field(default_factory=list)
    indeterminate: bool = False

    @property
    def status(self) -> str:
        if self.indeterminate:
            return "indeterminate"
        return "ok" if all(c.passed for c in self.checks) else "fail"

    def tolerances(self) -> dict:
        return {c.name: c.tolerance for c in self.checks}


def _at_most(name: str, values: dict, worst: float, tol: float, kind: str = "") -> CheckResult:
    """The check ``name`` passes when its worst value is at most ``tol`` and ``tol`` is finite: a
    bound that overflowed bounds nothing."""
    return CheckResult(name, worst <= tol < math.inf, values, f"{kind}<= {tol:g}")


def _unit_norm_check(t: Triple) -> CheckResult:
    x, y = 2.0 * math.pi * _uniform(731, 2000).reshape(2, 1000)  # fixed sample points
    F = immersion(t, x, y)
    worst = float(np.max(np.abs(np.sum(F * F, axis=0) - 1.0)))
    return _at_most("unit_norm", {"max_abs_norm_sq_minus_1": worst}, worst, _UNIT_NORM_TOL)


def _lame_check(t: Triple) -> CheckResult:
    co = coefficients(t)
    residuals, bound = lame_residual(Modulus(co.k2, co.kp2))
    res = {f"h_index_{i}": r for i, r in enumerate(residuals)}
    return _at_most("lame", {"k2": co.k2, **res}, max(residuals), bound)


def _eq35_check(t: Triple) -> CheckResult:
    res = {f"component_{i}": r for i, r in enumerate(eq35_residual(t), 1)}
    return _at_most("separated_ode", res, max(res.values()), _EQ35_TOL)


def _takahashi_check(t: Triple, deep: bool) -> CheckResult:
    # >= 4 cells per period of the highest frequency: the doubling ratio is
    # then asymptotic (measured: from at most 3.9 cells on).
    n0 = max(128, 2 ** math.ceil(math.log2(4 * t.c_real)))
    grids = (n0, 2 * n0, 4 * n0) if deep else (n0, 2 * n0)
    res = [takahashi_residual(t, n) for n in grids]
    ratios = [res[i] / res[i + 1] for i in range(len(res) - 1)]
    lo, hi = _RATIO_RANGE
    passed = all(lo <= r <= hi for r in ratios)
    values = {f"residual_n{n}": r for n, r in zip(grids, res)}
    values.update({f"ratio_{grids[i]}_to_{grids[i+1]}": r for i, r in enumerate(ratios)})
    return CheckResult("laplace_eigenfunction", passed, values, f"doubling ratio in [{lo}, {hi}]")


def _area_check(t: Triple) -> CheckResult:
    _, closed = area_closed(t)
    quad = area_quadrature(t)
    rel = abs(closed - quad) / abs(closed)
    return _at_most("area", {"closed_form": closed, "quadrature": quad, "relative_gap": rel},
                    rel, _AREA_TOL, "relative ")


def _anchor_check(t: Triple, grid_n: int, deep: bool) -> CheckResult:
    res, tol, floor = anchor_check(t, grid_n)
    values = dict(zip(("lambda0_at_c", "lambda1_at_max", "lambda2_at_min"), res))
    passed = all(r <= tol for r in res)
    if deep:
        fine, _, fine_floor = anchor_check(t, 2 * grid_n)
        values["floors"] = floors = [floor, fine_floor]
        values["orders"] = orders = [math.log2(r1 / r2) for r1, r2 in zip(res, fine)
                                     if r1 > floors[0] and r2 > floors[1]]
        passed = passed and all(1.8 <= o <= 2.2 for o in orders)
    return CheckResult("anchors", passed, values,
                       f"<= {tol:g}" + (", order 2.0 +/- 0.2" if deep else ""))


def _symmetry_check(t: Triple) -> CheckResult:
    """Each map's sampled residual equals its closed form within the rounding bound; the closed
    form is 0 for the expected map alone, and positive, from the integers, for every other."""
    expected = expected_symmetry(t)
    res = symmetry_residual(t)
    ok = all(abs(r - closed) <= bound and (closed == 0.0) == (phi is expected)
             for phi, (r, closed, bound) in res.items())
    values = {}
    for phi, (r, closed, _) in res.items():
        values[phi.value], values[f"{phi.value}_closed_form"] = r, closed
    values["expected"] = expected.value if expected else "none"
    return CheckResult("symmetry", ok, values,
                       "|residual - closed form| <= gamma_8 closed form + 2 sqrt(3) gamma_22")


def _count_check(t: Triple, grid_n: int, deep: bool) -> tuple[CheckResult, bool]:
    """The count record, and whether the count was indeterminate.

    n2, the stops and the sectors depend only on the triple: the grid enters :func:`count_N2`
    only through its inertia certificate, which raises when it fails.  So "grid-stable"
    (``deep``) certifies that the recount at 2 grid_n also passed its certificate; a recount that
    raises makes the report indeterminate.  ``n2_refined`` records the recount's n2, equal to
    ``n2`` by construction.
    """
    tolerance = "n2 == closed-form j" + (", grid-stable" if deep else "")
    try:
        report = count_N2(t, grid_n)
        refined = count_N2(t, 2 * grid_n) if deep else None
    except SpectralError as exc:
        return CheckResult("count", False, {"error": str(exc)}, tolerance), True
    values = {
        "n2": report.n2,
        "j_closed": report.j_closed,
        "gap": report.gap,
        "edge_errors": list(report.edge_errors),
        "cells": report.cells,
        "stops": dict(report.stops),
        "sectors": {"even_l": list(report.sectors[0]), "odd_l": list(report.sectors[1])},
    }
    if deep:
        values["n2_refined"] = refined.n2
    return CheckResult("count", report.agree, values, tolerance), False


def _interlacing_check(t: Triple, grid_n: int) -> CheckResult:
    r = interlacing_check(t, grid_n)
    names = ("lambda1_minus_lambda0", "lambda3_minus_lambda2")
    values = {name: {"gap": gap, "l": l, "sectors": s} for name, (gap, l, *s) in zip(names, r.gaps)}
    return CheckResult("interlacing", r.holds, {**values, "bar": r.bar, "margin": r.margin},
                       f"strict gaps > gamma_28 G = {r.bar:g}")


def run_verification(t: Triple, grid_n: int = 2048, deep: bool = False) -> VerificationReport:
    """Run the full residual suite for one triple.

    ``deep`` doubles the spectral grids, measures anchor convergence orders, adds a third rung to
    the minimality-residual ladder, and re-counts on the doubled grid.  The checks run in report
    order; anchors and interlacing read one memoized request per grid, which solves c, max(a, b)
    and min(a, b) once in the process, for whichever check asks first (the memo of
    :func:`lawson.spectral._sector_eigenvalues`, which lists read too).  Raises
    :class:`SpectralError` subclasses only for non-convergence; an indeterminate count is
    reported in-band.
    """
    _sector_cells(grid_n)
    t = canonicalize(t)
    report = VerificationReport(triple=t, grid_n=grid_n, deep=deep)
    report.checks.append(_unit_norm_check(t))
    report.checks.append(_lame_check(t))
    report.checks.append(_eq35_check(t))
    report.checks.append(_takahashi_check(t, deep))
    report.checks.append(_area_check(t))
    report.checks.append(_anchor_check(t, grid_n, deep))
    report.checks.append(_symmetry_check(t))
    count, report.indeterminate = _count_check(t, grid_n, deep)
    report.checks.append(count)
    report.checks.append(_interlacing_check(t, grid_n))
    return report
