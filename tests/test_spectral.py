"""Spectral layer: self-adjoint reduction, discrete spectra, residuals, counting."""

import math

import numpy as np
import pytest

from lawson import (
    Case,
    IndeterminateCountError,
    Symmetry,
    Triple,
    anchor_check,
    coefficients,
    count_N2,
    eq35_residual,
    interlacing_check,
    lame_residual,
    sl_coefficients,
    sl_problem,
    sl_spectrum,
    takahashi_residual,
    validate,
)
from conftest import SUITE, SUITE_IDS


def _spec(t, l, sym=Symmetry.FULL_PERIODIC, n=1024, count=8):
    return sl_spectrum(sl_problem(t, l, sym), n, count=count).eigenvalues


class TestSelfAdjointCoefficients:
    def test_clifford_constant_problem(self):
        t = validate(Case.GENERALIZED, 0, 0, 1)
        y = np.linspace(0, 2 * math.pi, 11)
        p, q, w = sl_coefficients(t, 0, y)
        assert p == pytest.approx(np.full_like(y, math.sqrt(2.0)), abs=1e-15)
        assert q == pytest.approx(np.zeros_like(y), abs=0)
        assert w == pytest.approx(np.full_like(y, 1.0 / math.sqrt(2.0)), abs=1e-15)

    @pytest.mark.parametrize("t", SUITE, ids=SUITE_IDS)
    def test_zero_frequency_has_no_potential(self, t):
        _, q, _ = sl_coefficients(t, 0, np.linspace(0, 7, 23))
        assert np.all(q == 0.0)

    def test_lawson_weight_equals_stiffness(self):
        t = validate(Case.LAWSON, 3, 1)
        y = np.linspace(0, 2 * math.pi, 29)
        p, _, w = sl_coefficients(t, 2, y)
        assert p == pytest.approx(w, rel=1e-15)

    def test_negative_frequency_rejected(self):
        t = validate(Case.GENERALIZED, 1, 2, 3)
        with pytest.raises(ValueError):
            sl_problem(t, -1)
        with pytest.raises(ValueError):
            sl_coefficients(t, -1, np.linspace(0, 2 * math.pi, 5))

    def test_reduction_is_algebraically_exact(self):
        """-(p phi')' + q phi - lambda w phi == -w * (separated ODE residual).

        Checked with a smooth test function carrying analytic derivatives,
        at random points, frequencies and spectral values: the reduction
        is an identity, not an approximation.
        """
        rng = np.random.default_rng(7)
        triples = [
            validate(Case.GENERALIZED, 0, 1, 2),
            validate(Case.GENERALIZED, 1, 2, 3),
            validate(Case.GENERALIZED, 1, 2, 5),
            validate(Case.GENERALIZED, 3, 4, 6),
            validate(Case.GENERALIZED, 0, 0, 1),
            validate(Case.GENERALIZED, 1, 1, 4),
            validate(Case.GENERALIZED, 2, 3, 6),
            Triple(Case.GENERALIZED, 1, 0, 2),
            validate(Case.LAWSON, 3, 1),
            validate(Case.LAWSON, 2, 1),
        ]
        for t in triples:
            co = coefficients(t)
            for l in rng.integers(0, 6, size=5):
                lam = float(rng.uniform(0, 5))
                y = rng.uniform(0, 2 * math.pi, 100)
                s, c = np.sin(y), np.cos(y)
                # phi = exp(sin y) cos(2y), with analytic derivatives
                e = np.exp(s)
                phi = e * np.cos(2 * y)
                dphi = e * (c * np.cos(2 * y) - 2 * np.sin(2 * y))
                d2phi = e * ((c * c - s - 4) * np.cos(2 * y) - 4 * c * np.sin(2 * y))

                P = co.P(y)
                Pp = co.P_prime(y)
                sq = np.sqrt(2 * P + co.q)
                p_val, q_val, w_val = sq, 2 * l * l / sq, 2 * P / sq
                dp = Pp / sq
                lhs = -(dp * dphi + p_val * d2phi) + q_val * phi - lam * w_val * phi
                ode = (1 + co.q / (2 * P)) * d2phi + Pp / (2 * P) * dphi + (
                    lam - l * l / P
                ) * phi
                rhs = -w_val * ode
                scale = np.maximum(1.0, np.abs(lhs))
                assert np.max(np.abs(lhs - rhs) / scale) <= 1e-10


class TestDiscreteSpectra:
    def test_clifford_flat_spectrum_l0(self):
        t = validate(Case.GENERALIZED, 0, 0, 1)
        ev = _spec(t, 0, n=1024)
        assert abs(ev[0]) <= 1e-8
        assert ev[1:5] == pytest.approx([2.0, 2.0, 8.0, 8.0], rel=1e-4)

    def test_clifford_flat_spectrum_l1(self):
        t = validate(Case.GENERALIZED, 0, 0, 1)
        ev = _spec(t, 1, n=1024)
        assert ev[:5] == pytest.approx([2.0, 4.0, 4.0, 10.0, 10.0], abs=1e-3)

    def test_klein_bottle_ground_state_at_c(self):
        t = validate(Case.GENERALIZED, 0, 1, 2)
        ev = _spec(t, 2, n=2048)
        assert abs(ev[0] - 2.0) <= 1e-5

    def test_klein_bottle_sine_anchor_at_l1(self):
        # the profile sin y solves the l = 1 problem at exactly 2
        t = validate(Case.GENERALIZED, 0, 1, 2)
        ev = _spec(t, 1, n=2048)
        assert abs(ev[1] - 2.0) <= 1e-5

    def test_spectrum_sorted_and_oscillation_ordered(self):
        t = validate(Case.GENERALIZED, 1, 2, 3)
        ev = _spec(t, 1, n=1024)
        assert np.all(np.diff(ev) >= -1e-12)
        assert ev[1] - ev[0] > 1e-3
        assert ev[3] - ev[2] > 1e-3

    def test_grid_precondition(self):
        t = validate(Case.GENERALIZED, 0, 0, 1)
        with pytest.raises(ValueError):
            sl_spectrum(sl_problem(t, 0), 128)
        with pytest.raises(ValueError, match="divisible by 4"):
            sl_spectrum(sl_problem(t, 0), 1030)
        with pytest.raises(ValueError, match="divisible by 2"):
            sl_spectrum(sl_problem(t, 0, Symmetry.EVEN_Y), 1029)

    def test_sector_union_reassembles_full_spectrum(self):
        """Subcase II sectors: pi-periodic + pi-antiperiodic = full periodic.

        Cell-centered grids make the decomposition exact at the discrete
        level (half-shift commutes with the matrix), so the merged sector
        spectra reproduce the full ones to solver accuracy.
        """
        t = validate(Case.GENERALIZED, 1, 1, 2)
        for l in (0, 1, 2):
            full = _spec(t, l, Symmetry.FULL_PERIODIC, n=1024, count=12)
            per = _spec(t, l, Symmetry.PI_PERIODIC, n=512, count=8)
            anti = _spec(t, l, Symmetry.PI_ANTIPERIODIC, n=512, count=8)
            merged = np.sort(np.concatenate([per, anti]))[: len(full)]
            assert merged == pytest.approx(full, abs=1e-6)

    def test_reflection_sectors_reassemble_full_spectrum(self):
        t = validate(Case.GENERALIZED, 1, 2, 4)  # odd first entry: y -> -y symmetry
        for l in (0, 1):
            full = _spec(t, l, Symmetry.FULL_PERIODIC, n=1024, count=12)
            even = _spec(t, l, Symmetry.EVEN_Y, n=512, count=8)
            odd = _spec(t, l, Symmetry.ODD_Y, n=512, count=8)
            merged = np.sort(np.concatenate([even, odd]))[: len(full)]
            assert merged == pytest.approx(full, abs=1e-6)


def _dense_oracle(t, l, n, antiperiodic):
    """Lowest 12 eigenvalues of the whole-domain matrix, assembled densely:
    [0, 2 pi) with periodic corner entries, or [0, pi) with sign-flipped
    (antiperiodic) corners, symmetrized with W^(-1/2)."""
    h = (math.pi if antiperiodic else 2 * math.pi) / n
    pf = sl_coefficients(t, l, h * np.arange(n + 1))[0]
    nodes = h * (np.arange(n) + 0.5)
    _, q, w = sl_coefficients(t, l, nodes)
    A = np.diag((pf[:-1] + pf[1:]) / h**2 + q)
    i = np.arange(n - 1)
    A[i, i + 1] = A[i + 1, i] = -pf[1:n] / h**2
    A[0, n - 1] = A[n - 1, 0] = (1.0 if antiperiodic else -1.0) * pf[0] / h**2
    d = 1.0 / np.sqrt(w)
    return np.linalg.eigvalsh(d[:, None] * A * d[None, :])[:12]


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize(
    "t",
    [
        validate(Case.GENERALIZED, 1, 2, 3),
        validate(Case.GENERALIZED, 1, 1, 2),
        validate(Case.GENERALIZED, 0, 1, 2),
        validate(Case.LAWSON, 2, 1),
    ],
    ids=lambda t: t.label(),
)
def test_sectors_match_dense_whole_domain_matrix(t, n):
    """The merged quarter-period sectors reproduce the dense eigenvalues of
    the periodic and antiperiodic matrices they decompose."""
    for l in sorted({0, 1, math.floor(t.c_real)}):
        for sym, anti in ((Symmetry.FULL_PERIODIC, False), (Symmetry.PI_ANTIPERIODIC, True)):
            ev = _spec(t, l, sym, n=n, count=12)
            assert np.max(np.abs(ev - _dense_oracle(t, l, n, anti))) <= 1e-9


class TestAnchors:
    def test_clifford_ground_anchor_is_exact(self):
        # l = c = 1 with constant ground profile: the discretization is exact
        r0, r1, r2 = anchor_check(validate(Case.GENERALIZED, 0, 0, 1), 1024)
        assert r0 <= 1e-10
        assert r1 <= 1e-4
        assert r2 <= 1e-4

    @pytest.mark.parametrize("abc", [(1, 1, 2), (1, 2, 4)])
    def test_generalized_anchors(self, abc):
        res = anchor_check(validate(Case.GENERALIZED, *abc), 4096)
        assert max(res) <= 1e-4

    def test_lawson_anchor_at_real_frequency(self):
        res = anchor_check(validate(Case.LAWSON, 2, 1), 2048)
        assert max(res) <= 1e-4

    @pytest.mark.parametrize("params", [(1, 2, 3), (0, 1, 2)])
    def test_second_order_over_three_doublings(self, params):
        t = validate(Case.GENERALIZED, *params)
        ladder = [anchor_check(t, n) for n in (512, 1024, 2048, 4096)]
        for coarse, fine in zip(ladder, ladder[1:]):
            for rc, rf in zip(coarse, fine):
                if rc > 1e-11 and rf > 1e-11:  # skip anchors converged to roundoff
                    assert 3.2 <= rc / rf <= 4.8


class TestSeparatedOdeResidual:
    @pytest.mark.parametrize("t", SUITE, ids=SUITE_IDS)
    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_all_components_satisfy_ode_at_two(self, t, which):
        assert eq35_residual(t, which) <= 1e-10

    def test_non_canonical_ordering_also_exact(self):
        t = Triple(Case.GENERALIZED, 1, 0, 2)
        for which in (1, 2, 3):
            assert eq35_residual(t, which) <= 1e-10

    def test_lawson_third_component_vanishes(self):
        assert eq35_residual(validate(Case.LAWSON, 3, 1), 3) == 0.0

    def test_bad_selector(self):
        with pytest.raises(ValueError):
            eq35_residual(SUITE[0], 4)


class TestLameResidual:
    @pytest.mark.parametrize("h_index", [0, 1, 2])
    def test_harmonic_limit(self, h_index):
        assert lame_residual(0.0, h_index) <= 1e-15

    def test_half_modulus_dn_branch(self):
        assert lame_residual(0.5, 0) <= 1e-12

    def test_negative_modulus_sn_branch(self):
        assert lame_residual(-1.0 / 3.0, 2) <= 1e-12

    @pytest.mark.parametrize("k2", [-2.0, -0.5, 0.3, 0.9])
    @pytest.mark.parametrize("h_index", [0, 1, 2])
    def test_sweep(self, k2, h_index):
        assert lame_residual(k2, h_index) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            lame_residual(1.0, 0)
        with pytest.raises(ValueError):
            lame_residual(0.5, 3)


class TestTakahashiResidual:
    def test_clifford_small_residual(self):
        assert takahashi_residual(validate(Case.GENERALIZED, 0, 0, 1), 256) <= 1e-3

    def test_klein_bottle_residual(self):
        assert takahashi_residual(validate(Case.GENERALIZED, 0, 1, 2), 512) <= 2e-3

    @pytest.mark.parametrize("abc", [(1, 2, 3), (1, 1, 2)])
    def test_second_order_ratio(self, abc):
        t = validate(Case.GENERALIZED, *abc)
        r1 = takahashi_residual(t, 128)
        r2 = takahashi_residual(t, 256)
        assert 3.2 <= r1 / r2 <= 4.8

    def test_grid_precondition(self):
        with pytest.raises(ValueError):
            takahashi_residual(SUITE[0], 64)


class TestCounting:
    @pytest.mark.parametrize(
        "case,params,n2",
        [
            (Case.GENERALIZED, (0, 0, 1), 1),
            (Case.GENERALIZED, (0, 1, 2), 1),
            (Case.GENERALIZED, (1, 1, 2), 1),
            (Case.GENERALIZED, (1, 2, 3), 9),
        ],
    )
    def test_landmark_counts(self, case, params, n2):
        report = count_N2(validate(case, *params), 2048)
        assert report.n2 == n2
        assert report.agree
        assert report.j_closed == n2

    def test_count_report_structure(self):
        report = count_N2(validate(Case.GENERALIZED, 1, 2, 3), 2048)
        assert report.per_l_counts == ((0, 3), (1, 2), (2, 1), (3, 0))
        assert report.lambda0_beyond > 2.0
        assert report.epsilon >= 1e-6

    def test_grid_stability(self):
        t = validate(Case.GENERALIZED, 1, 2, 4)
        assert count_N2(t, 2048).n2 == count_N2(t, 4096).n2

    def test_lawson_count(self):
        report = count_N2(validate(Case.LAWSON, 2, 1), 2048)
        assert report.n2 == 4
        assert report.agree

    def test_grid_preconditions(self):
        t = validate(Case.GENERALIZED, 0, 0, 1)
        with pytest.raises(ValueError):
            count_N2(t, 1024)
        with pytest.raises(ValueError):
            count_N2(t, 2049)
        with pytest.raises(ValueError, match="divisible by 4"):
            count_N2(t, 2050)
        with pytest.raises(ValueError, match="divisible by 4"):
            anchor_check(t, 1030)
        with pytest.raises(ValueError, match="divisible by 4"):
            interlacing_check(t, 1030)


class TestInterlacing:
    def test_clifford(self):
        assert interlacing_check(validate(Case.GENERALIZED, 0, 0, 1), 1024, l_max=4)

    def test_equilateral(self):
        assert interlacing_check(validate(Case.GENERALIZED, 1, 1, 2), 1024, l_max=5)

    def test_subcase_ii_wide(self):
        assert interlacing_check(validate(Case.GENERALIZED, 1, 2, 4), 1024, l_max=6)
