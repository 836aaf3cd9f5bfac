"""Acceptance suite: the eight headline criteria at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import math

import numpy as np
import pytest

from lawson import (
    Case,
    Modulus,
    Phi,
    Topology,
    Triple,
    anchor_check,
    area_closed,
    area_quadrature,
    classify,
    coefficients,
    complete_E,
    count_N2,
    eq35_residual,
    expected_symmetry,
    interlacing_check,
    landen_gap,
    metric,
    sl_problem,
    sl_spectrum,
    symmetry_residual,
    takahashi_residual,
    validate,
)
from conftest import SUITE, SUITE_IDS

# Closed-form indices of the suite surfaces, spelled out independently of
# the library's own formulas.
EXPECTED_J = {
    "T_(0,0,1)": 1,
    "T_(0,1,2)": 1,
    "T_(1,1,2)": 1,
    "T_(1,2,3)": 9,
    "T_(1,1,4)": 3,
    "T_(1,2,4)": 4,
    "T_(0,1,3)": 6,
    "T_(1,3,4)": 5,
    "T_(2,3,6)": 8,
    "T_(1,2,5)": 13,
    "T_(3,4,6)": 10,
    "tau_(1,1)": 1,
    "tau_(2,1)": 4,
    "tau_(3,1)": 5,
}

_EXACT_FLOOR = 1e-11  # anchor residuals below this are converged to roundoff


def _criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_coefficient_exactness():
    co = coefficients(Triple(Case.GENERALIZED, 1, 0, 2))
    ok = (
        co.c1_sq == 1 / 2
        and co.c2_sq == 5 / 8
        and co.c3_sq == 3 / 8
        and co.k2 == -1 / 3
    )
    _criterion(
        1,
        "coefficient exactness for the (1,0,2) Klein bottle",
        ok,
        f"c1^2={co.c1_sq}, c2^2={co.c2_sq}, c3^2={co.c3_sq}, k^2={co.k2}",
    )


def test_criterion_2_klein_bottle_equality_and_landen():
    s012, _ = area_closed(validate(Case.GENERALIZED, 0, 1, 2))
    bipolar = 12.0 * math.pi * complete_E(Modulus.from_k(2.0 * math.sqrt(2.0) / 3.0))
    rel = abs(s012 - bipolar) / s012
    worst_gap = max(abs(landen_gap(float(k))) for k in np.linspace(0.0, 0.99, 100))
    ok = rel <= 1e-10 and worst_gap <= 1e-10
    _criterion(
        2,
        "maximal-Klein-bottle equality S(0,1,2) = 12 pi E(2 sqrt2/3) + Landen sweep",
        ok,
        f"relative residual {rel:.2e}, worst Landen gap {worst_gap:.2e}",
    )


def test_criterion_3_landmark_values():
    clifford = validate(Case.GENERALIZED, 0, 0, 1)
    equilateral = validate(Case.GENERALIZED, 1, 1, 2)
    s1, _ = area_closed(clifford)
    s2, _ = area_closed(equilateral)
    ok = abs(s1 - 2 * math.pi**2) / (2 * math.pi**2) <= 1e-12
    ok &= abs(s2 - 8 * math.pi**2 / math.sqrt(3)) / (8 * math.pi**2 / math.sqrt(3)) <= 1e-12
    q1 = area_quadrature(clifford, 4096) * 1  # degree 1: area == S
    q2 = area_quadrature(equilateral, 4096) * 2  # degree 2: S = 2 * area
    ok &= abs(q1 - s1) / s1 <= 1e-8
    ok &= abs(q2 - s2) / s2 <= 1e-8
    y = np.linspace(0, 2 * math.pi, 101)
    gxx, gyy = metric(equilateral, y)
    ok &= np.max(np.abs(gxx - 2.0)) <= 1e-14 and np.max(np.abs(gyy - 2 / 3)) <= 1e-14
    sc = classify(equilateral)
    j, lam = sc.j, sc.lambda_value
    ok &= j == 1 and abs(lam - 8 * math.pi**2 / math.sqrt(3)) / lam <= 1e-12
    _criterion(
        3,
        "landmark areas, flat equilateral metric, Lambda_1 = 8 pi^2 / sqrt(3)",
        bool(ok),
        f"S(0,0,1)={s1:.12f}, S(1,1,2)={s2:.12f}, j={j}",
    )


def test_criterion_4_minimality_certificate():
    worst_ode = 0.0
    worst_ratio_lo, worst_ratio_hi = math.inf, 0.0
    for t in SUITE:
        for which in (1, 2, 3):
            worst_ode = max(worst_ode, eq35_residual(t)[which - 1])
        r = [takahashi_residual(t, n) for n in (128, 256, 512)]
        for i in range(2):
            ratio = r[i] / r[i + 1]
            worst_ratio_lo = min(worst_ratio_lo, ratio)
            worst_ratio_hi = max(worst_ratio_hi, ratio)
    ok = worst_ode <= 1e-10 and worst_ratio_lo >= 3.2 and worst_ratio_hi <= 4.8
    _criterion(
        4,
        "minimality: separated-ODE residuals and second-order Laplace convergence",
        ok,
        f"worst ODE residual {worst_ode:.2e}, doubling ratios in "
        f"[{worst_ratio_lo:.2f}, {worst_ratio_hi:.2f}]",
    )


def test_criterion_5_index_reproduction():
    mismatches = []
    for t in SUITE:
        expected = EXPECTED_J[t.label()]
        coarse = count_N2(t, 2048)
        fine = count_N2(t, 4096)
        if not (coarse.n2 == fine.n2 == expected == coarse.j_closed):
            mismatches.append(
                f"{t.label()}: n2(2048)={coarse.n2}, n2(4096)={fine.n2}, "
                f"expected {expected}"
            )
    _criterion(
        5,
        "independent eigenvalue count reproduces the closed-form index on the suite",
        not mismatches,
        "; ".join(mismatches) if mismatches else f"all {len(SUITE)} surfaces agree",
    )


def test_criterion_6_anchor_eigenvalues():
    worst = 0.0
    bad_orders = []
    for t in SUITE:
        coarse = anchor_check(t, 2048)[0]
        fine = anchor_check(t, 4096)[0]
        worst = max(worst, *fine)
        for rc, rf in zip(coarse, fine):
            if rc > _EXACT_FLOOR and rf > _EXACT_FLOOR:
                order = math.log2(rc / rf)
                if not 1.8 <= order <= 2.2:
                    bad_orders.append(f"{t.label()}: order {order:.3f}")
    ok = worst <= 1e-4 and not bad_orders
    _criterion(
        6,
        "anchor eigenvalues within 1e-4 at grid 4096 with convergence order 2.0 +/- 0.2",
        ok,
        f"worst residual {worst:.2e}" + ("; " + "; ".join(bad_orders) if bad_orders else ""),
    )


def test_criterion_7_topology_and_symmetry_dichotomy():
    failures = []
    for t in SUITE:
        expected = expected_symmetry(t)
        for phi in Phi:
            r = symmetry_residual(t, 32)[phi]
            if phi is expected and r > 1e-12:
                failures.append(f"{t.label()}: matching {phi.value} residual {r:.2e}")
            if phi is not expected and r < 0.1:
                failures.append(f"{t.label()}: {phi.value} residual {r:.2e} not rejected")
    topo = {
        "tau_(2,1)": Topology.KLEIN_BOTTLE,
        "tau_(1,1)": Topology.TORUS,
        "tau_(3,1)": Topology.TORUS,
    }
    for label, expected_topo in topo.items():
        t = next(s for s in SUITE if s.label() == label)
        if classify(t).topology is not expected_topo:
            failures.append(f"{label}: wrong topology")
    _criterion(
        7,
        "symmetry dichotomy and Lawson torus/Klein-bottle parity rule",
        not failures,
        "; ".join(failures) if failures else "exact identification on every surface",
    )


def test_criterion_8_interlacing_and_truncation():
    failures = []
    for t in SUITE:
        l_stop = int(math.floor(t.c_real + 1e-9))
        if not interlacing_check(t, 2048).holds:
            failures.append(f"{t.label()}: interlacing violated")
        beyond = sl_spectrum(sl_problem(t, l_stop + 1), 2048, count=4).eigenvalues[0]
        if not beyond > 2.0:
            failures.append(f"{t.label()}: lambda_0({l_stop + 1}) = {beyond:.6f} <= 2")
    _criterion(
        8,
        "oscillation orderings and the beyond-cutoff bound lambda_0(c+1) > 2",
        not failures,
        "; ".join(failures) if failures else "both orderings hold on every surface",
    )
