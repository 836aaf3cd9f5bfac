"""One-stop verification: every residual check for a single surface.

Bundles the unit-norm identity, the Lame and separated-ODE residuals,
the Laplace-eigenfunction (minimality) residual with its convergence
ratio, the closed-form-vs-quadrature area comparison, the anchor
eigenvalues, the symmetry dichotomy, the eigenvalue count against the
closed-form index, and the oscillation-order checks into a single
pass/fail report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SpectralError
from .spectral import (
    anchor_check,
    check_count_grid,
    count_N2,
    eq35_residual,
    interlacing_check,
    lame_residual,
    takahashi_residual,
)
from .surface import (
    Phi,
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
_LAME_TOL = 1e-12
_EQ35_TOL = 1e-10
_AREA_TOL = 1e-8
_ANCHOR_TOL = 1e-4          # stated at grid 4096; scaled as (4096/n)^2 below
_RATIO_RANGE = (3.2, 4.8)   # second-order convergence: factor 4 within 20%
_SYM_MATCH_TOL = 1e-12
_SYM_REJECT_FLOOR = 0.1
_EXACT_FLOOR = 1e-11        # residuals below this are converged to roundoff


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


def _unit_norm_check(t: Triple) -> CheckResult:
    rng = np.random.default_rng(731)
    x = rng.uniform(0.0, 2.0 * math.pi, 1000)
    y = rng.uniform(0.0, 2.0 * math.pi, 1000)
    F = immersion(t, x, y)
    worst = float(np.max(np.abs(np.sum(F * F, axis=0) - 1.0)))
    return CheckResult(
        name="unit_norm",
        passed=worst <= _UNIT_NORM_TOL,
        values={"max_abs_norm_sq_minus_1": worst},
        tolerance=f"<= {_UNIT_NORM_TOL:g}",
    )


def _lame_check(t: Triple) -> CheckResult:
    k2 = coefficients(t).k2
    res = {f"h_index_{i}": lame_residual(k2, i) for i in (0, 1, 2)}
    worst = max(res.values())
    return CheckResult(
        name="lame",
        passed=worst <= _LAME_TOL,
        values={"k2": k2, **res},
        tolerance=f"<= {_LAME_TOL:g}",
    )


def _eq35_check(t: Triple) -> CheckResult:
    res = {f"component_{i}": eq35_residual(t, i) for i in (1, 2, 3)}
    worst = max(res.values())
    return CheckResult(
        name="separated_ode",
        passed=worst <= _EQ35_TOL,
        values=res,
        tolerance=f"<= {_EQ35_TOL:g}",
    )


def _takahashi_check(t: Triple, deep: bool) -> CheckResult:
    grids = (128, 256, 512) if deep else (128, 256)
    res = [takahashi_residual(t, n) for n in grids]
    ratios = [res[i] / res[i + 1] for i in range(len(res) - 1)]
    lo, hi = _RATIO_RANGE
    passed = all(lo <= r <= hi for r in ratios)
    values = {f"residual_n{n}": r for n, r in zip(grids, res)}
    values.update({f"ratio_{grids[i]}_to_{grids[i+1]}": r for i, r in enumerate(ratios)})
    return CheckResult(
        name="laplace_eigenfunction",
        passed=passed,
        values=values,
        tolerance=f"doubling ratio in [{lo}, {hi}]",
    )


def _area_check(t: Triple) -> CheckResult:
    _, closed = area_closed(t)
    quad = area_quadrature(t, 4096)
    rel = abs(closed - quad) / abs(closed)
    return CheckResult(
        name="area",
        passed=rel <= _AREA_TOL,
        values={"closed_form": closed, "quadrature": quad, "relative_gap": rel},
        tolerance=f"relative <= {_AREA_TOL:g}",
    )


def _anchor_check(t: Triple, grid_n: int, deep: bool) -> CheckResult:
    tol = _ANCHOR_TOL * max(1.0, (4096.0 / grid_n) ** 2)
    res = anchor_check(t, grid_n)
    values = {
        "lambda0_at_c": res[0],
        "lambda1_at_max": res[1],
        "lambda2_at_min": res[2],
    }
    passed = all(r <= tol for r in res)
    if deep:
        res2 = anchor_check(t, 2 * grid_n)
        orders = []
        for r1, r2 in zip(res, res2):
            if r1 > _EXACT_FLOOR and r2 > _EXACT_FLOOR:
                orders.append(math.log2(r1 / r2))
        values["orders"] = orders
        passed = passed and all(1.8 <= o <= 2.2 for o in orders)
    return CheckResult(
        name="anchors",
        passed=passed,
        values=values,
        tolerance=f"<= {tol:g}" + (", order 2.0 +/- 0.2" if deep else ""),
    )


def _symmetry_check(t: Triple) -> CheckResult:
    expected = expected_symmetry(t)
    values = {}
    ok = True
    for phi in Phi:
        r = symmetry_residual(t, phi, 32)
        values[phi.value] = r
        if phi is expected:
            ok = ok and r <= _SYM_MATCH_TOL
        else:
            ok = ok and r >= _SYM_REJECT_FLOOR
    values["expected"] = expected.value if expected else "none"
    return CheckResult(
        name="symmetry",
        passed=ok,
        values=values,
        tolerance=f"match <= {_SYM_MATCH_TOL:g}, others >= {_SYM_REJECT_FLOOR:g}",
    )


def _count_check(t: Triple, grid_n: int, deep: bool) -> CheckResult:
    report = count_N2(t, grid_n)
    values = {
        "n2": report.n2,
        "j_closed": report.j_closed,
        "epsilon": report.epsilon,
        "lambda0_beyond_cutoff": report.lambda0_beyond,
        "per_l": [list(pair) for pair in report.per_l_counts],
    }
    passed = report.agree
    if deep:
        refined = count_N2(t, 2 * grid_n)
        values["n2_refined"] = refined.n2
        passed = passed and refined.n2 == report.n2
    return CheckResult(
        name="count",
        passed=passed,
        values=values,
        tolerance="n2 == closed-form j" + (", grid-stable" if deep else ""),
    )


def _interlacing_check(t: Triple, grid_n: int) -> CheckResult:
    l_max = int(math.floor(t.c_real)) + 1
    ok = interlacing_check(t, grid_n, l_max)
    return CheckResult(
        name="interlacing",
        passed=ok,
        values={"l_max": l_max, "holds": ok},
        tolerance="strict gaps > 1e-06",
    )


def run_verification(t: Triple, grid_n: int = 2048, deep: bool = False) -> VerificationReport:
    """Run the full residual suite for one triple.

    ``deep`` doubles the spectral grids, measures anchor convergence
    orders, extends the minimality-residual ladder to 512, and re-counts
    on the doubled grid.  Raises :class:`SpectralError` subclasses only
    for non-convergence; an indeterminate count is reported in-band.
    """
    check_count_grid(grid_n)
    t = canonicalize(t)
    report = VerificationReport(triple=t, grid_n=grid_n, deep=deep)
    report.checks.append(_unit_norm_check(t))
    report.checks.append(_lame_check(t))
    report.checks.append(_eq35_check(t))
    report.checks.append(_takahashi_check(t, deep))
    report.checks.append(_area_check(t))
    report.checks.append(_anchor_check(t, grid_n, deep))
    report.checks.append(_symmetry_check(t))
    try:
        report.checks.append(_count_check(t, grid_n, deep))
    except SpectralError as exc:
        report.indeterminate = True
        report.checks.append(
            CheckResult(
                name="count",
                passed=False,
                values={"error": str(exc)},
                tolerance="n2 == closed-form j",
            )
        )
    report.checks.append(_interlacing_check(t, grid_n))
    return report
