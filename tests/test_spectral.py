"""Spectral layer: self-adjoint reduction, discrete spectra, residuals, counting."""

import functools
import itertools
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import lawson.spectral as spectral
from lawson import (
    Case,
    EigensolverError,
    IndeterminateCountError,
    Modulus,
    Symmetry,
    Triple,
    anchor_check,
    classify,
    coefficients,
    count_N2,
    eq35_residual,
    expected_symmetry,
    immersion,
    interlacing_check,
    lame_residual,
    sl_coefficients,
    sl_problem,
    sl_spectrum,
    takahashi_residual,
    validate,
)
from conftest import SUITE, SUITE_IDS, per_l_counts


def _spec(t, l, sym=Symmetry.FULL_PERIODIC, n=1024, count=8):
    return sl_spectrum(sl_problem(t, l, sym), n, count=count).eigenvalues


def _cold_spec(*args):
    """:func:`_spec` solved anew: the memo of spectral requests is emptied first, so tests of the
    solver's own state (its basis, threads, a fork) run Lanczos on every call."""
    spectral._sector_eigenvalues.cache_clear()
    return _spec(*args)


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
        with pytest.raises(ValueError):  # q depends on l^2 alone: the problem refuses l < 0
            spectral.SLProblem(t, -1, Symmetry.ODD_Y)
        with pytest.raises(ValueError, match=r"^l must be non-negative, got -1$"):
            sl_problem(t, -1)

    @pytest.mark.parametrize("l", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["nan", "inf", "-inf", "10**400"])
    def test_frequency_that_is_not_a_double_rejected(self, l):
        """A NaN, infinite or unrepresentable l is a ValueError where the problem is made, not a
        Lanczos run out of steps (NaN, inf) or an OverflowError from float(l) (10**400)."""
        t = validate(Case.GENERALIZED, 5, 7, 13)
        message = "non-negative" if l < 0 else "finite"
        with pytest.raises(ValueError, match=f"^l must be {message}"):
            sl_problem(t, l)
        with pytest.raises(ValueError, match=f"^l must be {message}"):
            spectral.SLProblem(t, l, Symmetry.EVEN_Y)
        with pytest.raises(ValueError, match=f"^l must be {message}"):
            sl_coefficients(t, l, np.linspace(0, 2 * math.pi, 5))

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
        with pytest.raises(ValueError, match="divisible by 4"):  # one rule for every symmetry
            sl_spectrum(sl_problem(t, 0, Symmetry.EVEN_Y), 1030)

    @staticmethod
    def _assert_split(halves):
        """At one grid the lists of ``halves``, merged, are the full-periodic list of the same
        count to 1e-13 max(1, |lambda|): every symmetry's sectors have grid / 4 cells of width
        2 pi / grid, so the two lists split one spectrum and differ from it only by the Lanczos
        stops of shares of different sizes (measured <= 9.5e-15 over 576 cases, 293 bit for bit
        equal)."""
        for abc in ((5, 7, 13), (1, 2, 3), (1, 1, 2), (0, 1, 2), (2, 3, 4), (98, 835, 919)):
            t = validate(Case.GENERALIZED, *abc)
            for n, l, count in itertools.product((256, 2048, 16384), (0, 1, 7, 40), (1, 3, 8, 13)):
                full = _spec(t, l, Symmetry.FULL_PERIODIC, n=n, count=count)
                merged = np.sort(np.concatenate([_spec(t, l, s, n, count) for s in halves]))[:count]
                assert np.all(np.abs(merged - full) <= 1e-13 * np.maximum(1.0, np.abs(full)))

    def test_sector_union_reassembles_full_spectrum(self):
        """pi-periodic + pi-antiperiodic = full periodic, at one grid."""
        self._assert_split((Symmetry.PI_PERIODIC, Symmetry.PI_ANTIPERIODIC))

    def test_reflection_sectors_reassemble_full_spectrum(self):
        """even-in-y + odd-in-y = full periodic, at one grid."""
        self._assert_split((Symmetry.EVEN_Y, Symmetry.ODD_Y))


def _dense_oracle(t, l, n, sym, count=12):
    """Lowest ``count`` eigenvalues of the whole-domain matrix of the grid n, assembled densely:
    n cells of [0, 2 pi) with periodic corner entries, or n/2 cells of [0, pi) with periodic or
    sign-flipped (antiperiodic) corners, or of [0, pi] with zero flux (even-in-y: an end loses
    its face) or zero value (odd-in-y: an end face doubles) at both ends, symmetrized with
    W^(-1/2).  Every cell is 2 pi / n wide, as a sector's are."""
    h = math.pi / (2 * spectral._sector_cells(n))
    n = n if sym is Symmetry.FULL_PERIODIC else n // 2  # the domain's cells
    pf = sl_coefficients(t, l, h * np.arange(n + 1))[0]
    nodes = h * (np.arange(n) + 0.5)
    _, q, w = sl_coefficients(t, l, nodes)
    A = np.diag((pf[:-1] + pf[1:]) / h**2 + q)
    i = np.arange(n - 1)
    A[i, i + 1] = A[i + 1, i] = -pf[1:n] / h**2
    if sym in (Symmetry.EVEN_Y, Symmetry.ODD_Y):
        end = 1.0 if sym is Symmetry.ODD_Y else -1.0
        A[0, 0] += end * pf[0] / h**2
        A[-1, -1] += end * pf[n] / h**2
    else:
        corner = 1.0 if sym is Symmetry.PI_ANTIPERIODIC else -1.0
        A[0, n - 1] = A[n - 1, 0] = corner * pf[0] / h**2
    d = 1.0 / np.sqrt(w)
    return np.linalg.eigvalsh(d[:, None] * A * d[None, :])[:count]


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
    """The merged quarter-period sectors reproduce the dense eigenvalues of the
    whole-domain matrices they decompose, for every symmetry.  A list of 12 takes its shares:
    4, 3, 3, 3 of four sectors, 7, 6 of NN, DD and 6, 6 of the other pairs."""
    for l in sorted({0, 1, math.floor(t.c_real)}):
        for sym in Symmetry:
            ev = _spec(t, l, sym, n=n, count=12)
            assert np.max(np.abs(ev - _dense_oracle(t, l, n, sym))) <= 1e-9


def _untrimmed_merge(problem, n, count, sectors=None):
    """The reference list: every sector of the symmetry (or ``sectors``) solved for all
    ``count`` eigenvalues by ARPACK shift-invert over its factor, merged, lowest ``count``."""
    from scipy.linalg.lapack import dpttrs
    from scipy.sparse.linalg import LinearOperator, eigsh

    m = spectral._sector_cells(n)
    v0 = spectral._start(m)
    spectra = []
    sectors = sectors or spectral._SYMMETRY_SECTORS[problem.symmetry]
    (d, e), sigmas = spectral._factors(problem.triple, n, [(problem.l, s) for s in sectors])
    for ld, le, sigma in zip(d, e[:, :-1], sigmas):
        op = LinearOperator((m, m), matvec=lambda x: dpttrs(ld, le, x)[0], dtype=float)
        spectra.append(eigsh(op, count, sigma=sigma, which="LM", v0=v0, OPinv=op,
                             return_eigenvectors=False))
    return np.sort(np.concatenate(spectra))[:count]


@pytest.mark.parametrize("count", [8, 12])
@pytest.mark.parametrize("n", [1024, 16384])
@pytest.mark.parametrize("sym", list(Symmetry), ids=lambda s: s.value)
def test_lanczos_lists_match_arpack(sym, n, count):
    """The Lanczos lists equal the ARPACK reference to 1e-11 (measured <= 6.1e-12 under the gap
    test): both resolve theta = 1/(1 + lambda) to a few eps, about 2e-12 in lambda near 100."""
    for abc, l in (((1, 2, 3), 1), ((5, 7, 13), 7)):
        problem = sl_problem(validate(Case.GENERALIZED, *abc), l, sym)
        ev = sl_spectrum(problem, n, count).eigenvalues
        assert np.max(np.abs(ev - _untrimmed_merge(problem, n, count))) <= 1e-11


@pytest.mark.parametrize("sym", list(Symmetry), ids=lambda s: s.value)
def test_list_of_all_but_one_eigenvalue(sym):
    """count = m - 1 at grid 256 (sectors of m = 64 cells) against the dense matrix.
    Shift-invert resolves theta = 1/(1 + lambda) to a multiple of eps, so lambda to about
    eps (1 + lambda)^2; the bar 1e-10 (1 + lambda)^2 (measured <= 1e-11 (1 + lambda)^2) also
    covers eigvalsh's eps ||B|| ~ 4e-12 at lambda ~ 0."""
    t, m = validate(Case.GENERALIZED, 1, 2, 3), spectral._sector_cells(256)
    for l in (0, 1):
        ev, dense = _spec(t, l, sym, n=256, count=m - 1), _dense_oracle(t, l, 256, sym, m - 1)
        assert np.all(np.abs(ev - dense) <= 1e-10 * (1 + dense) ** 2)


def test_sector_solved_to_its_size_spans_it(monkeypatch):
    """A single sector asked for m - 1 = 63 of its 64 eigenvalues runs into the step cap m,
    where the basis spans the sector and the Ritz values are its eigenvalues."""
    lapack = spectral.lapack
    dpttrs, steps = lapack.dpttrs, []

    def counted(*args, **kwargs):
        steps.append(1)
        return dpttrs(*args, **kwargs)

    monkeypatch.setattr(lapack, "dpttrs", counted)
    t = validate(Case.GENERALIZED, 1, 2, 3)
    for sector in spectral._ALL_SECTORS:
        steps.clear()
        (ev,), = spectral._sector_eigenvalues(t, 256, (1,), (sector,), 63)
        dense = np.linalg.eigvalsh(_dense_sector(t, 1, 256, sector))[:63]
        assert len(steps) == 64
        assert np.all(np.abs(ev - dense) <= 1e-11 * (1 + dense) ** 2)


@pytest.mark.parametrize("l", [10**3, 10**5, 10**7])
def test_lists_at_large_frequency_match_arpack(l):
    """lambda ~ l^2 / max P: the shift to that floor, less at most 16, keeps the wanted
    eigenvalues within a few times l + 16 of it, so Lanczos converges as fast as at small l;
    relative to 1e-13 (measured 1.7e-16)."""
    for sym in (Symmetry.FULL_PERIODIC, Symmetry.ODD_Y):
        problem = sl_problem(validate(Case.GENERALIZED, 1, 2, 3), l, sym)
        ev, oracle = sl_spectrum(problem, 2048).eigenvalues, _untrimmed_merge(problem, 2048, 8)
        assert np.max(np.abs(ev - oracle) / oracle) <= 1e-13


def test_long_list_of_one_sector_within_the_step_cap():
    """A sector of 4096 cells asked for 90 at l = 1000 takes 217 steps with one or two BLAS
    threads (420-450 under a residual test at eps theta), within the cap 8 count + 64, and
    its list matches ARPACK to 1e-11 relative (measured 1.5e-14)."""
    t = validate(Case.GENERALIZED, 1, 2, 3)
    (ev,), = spectral._sector_eigenvalues(t, 16384, (1000,), ("NN",), 90)
    oracle = _untrimmed_merge(sl_problem(t, 1000), 16384, 90, ("NN",))
    assert np.max(np.abs(ev - oracle) / oracle) <= 1e-11


@pytest.mark.parametrize("sym,most", [(Symmetry.FULL_PERIODIC, [12, 12, 12, 12]),
                                      (Symmetry.ODD_Y, [15, 14])], ids=["full", "odd"])
def test_steps_per_sector_of_a_list_of_8(monkeypatch, sym, most):
    """T_(5,7,13) at l = 7, grid 16384: each sector stops once the Ritz values of its share pass
    the gap test, NN, ND, DN and DD (shares 3, 2, 2, 2) within 12 steps each and DD, DN (4, 4)
    within 15 and 14.  Asked for ceil(8 / sectors) + 1 each, they took 12, 12, 13, 13 and 17,
    16; a residual test at eps theta took 16-18 and 22-23."""
    lapack = spectral.lapack
    dpttrs, lanczos, steps = lapack.dpttrs, spectral._lanczos, []

    def counted(*args, **kwargs):
        steps[-1] += 1
        return dpttrs(*args, **kwargs)

    def per_sector(*args):
        steps.append(0)
        return lanczos(*args)

    monkeypatch.setattr(lapack, "dpttrs", counted)
    monkeypatch.setattr(spectral, "_lanczos", per_sector)
    _spec(validate(Case.GENERALIZED, 5, 7, 13), 7, sym, n=16384)
    assert len(steps) == len(most)
    assert min(steps) > 0
    assert all(s <= bound for s, bound in zip(steps, most))


@pytest.mark.parametrize("coupling", [1e-7, 1e-10])
@pytest.mark.parametrize("l", [1, 4])
def test_near_degenerate_pairs_are_both_found(l, coupling):
    """A hand-built sector: the NN sector of T_(1,2,3) at grid 256 and its mirror image, wells
    at the outer ends, joined across the barrier by ``coupling`` times the off-diagonal there.
    Its eigenvalues come in pairs split by less than 1000 coupling relative, where the distance
    to the nearest other Ritz value can overstate a value's gap.  Every list of 1 to 8 holds
    both members of each pair to 1e-11 (measured <= 2e-12).  A deeper barrier breaks this
    (l >= 8 here): the first Ritz value of a pair passes the test before its partner appears."""
    from scipy.linalg.lapack import dpttrf

    half = _dense_sector(validate(Case.GENERALIZED, 1, 2, 3), l, 256, "NN")
    d, e = np.diag(half), np.diag(half, 1)
    d, e = np.r_[d, d[::-1]], np.r_[e, coupling * e[-1], e[::-1]]
    dense = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))[:8]
    assert np.all(dense[1::2] - dense[::2] < 1000 * coupling * dense[::2])
    ld, le, _ = dpttrf(d + 1.0, e)
    V = np.empty((len(d) + 1, len(d)))
    V[0] = spectral._start(len(d))
    for k in range(1, 9):
        ev = spectral._lanczos("the hand-built sector", ld, le, -1.0, k, V)  # ascending
        assert np.max(np.abs(ev - dense[:k])) <= 1e-11


def _splitmix64(seed, n):
    """The top 53 bits of splitmix64's first n outputs as floats in [0, 1), in Python integers."""
    mask, state, values = 2**64 - 1, seed, []
    for _ in range(n):
        state = z = (state + 0x9E3779B97F4A7C15) & mask
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
        values.append(((z ^ z >> 31) >> 11) / 2**53)
    return values


def test_fixed_draws_are_pinned_bit_for_bit():
    """The Lanczos start (seed _START_SEED) and unit_norm's sample points (seed 731) are
    splitmix64's outputs, the same bits on every platform and numpy: pinned as float.hex, and
    equal to a pure-Python splitmix64 over all the values either one draws."""
    assert spectral._START_SEED == 20260808
    first = {spectral._START_SEED: ["0x1.710d49e70a010p-5", "0x1.ad24f9851083fp-1",
                                    "0x1.c7e9654217d1cp-1"],
             731: ["0x1.3309049e62ea0p-3", "0x1.3a1742e092370p-2", "0x1.627f9dcc369bfp-1"]}
    for seed, hexes in first.items():
        assert [float(v).hex() for v in spectral._uniform(seed, 3)] == hexes
    for seed, n in ((spectral._START_SEED, 32768), (731, 2000)):
        u = spectral._uniform(seed, n)
        assert u.dtype == np.float64 and u.tolist() == _splitmix64(seed, n)


def test_a_list_starts_every_column_from_the_pinned_start_vector(monkeypatch):
    """Each sector of a list starts from the same unit vector, u - 1/2 of the seed's values
    normalized: its leading entries are pinned as float.hex."""
    starts, lanczos = [], spectral._lanczos

    def recorded(where, ld, le, sigma, k, V):
        starts.append(V[0].copy())
        return lanczos(where, ld, le, sigma, k, V)

    monkeypatch.setattr(spectral, "_lanczos", recorded)
    _spec(validate(Case.GENERALIZED, 1, 2, 3), 1, Symmetry.FULL_PERIODIC, n=2048)
    m = spectral._sector_cells(2048)
    u = np.array(_splitmix64(spectral._START_SEED, m)) - 0.5
    assert len(starts) >= 4 and all(np.array_equal(v, starts[0]) for v in starts)
    assert [float(v).hex() for v in starts[0][:3]] == [
        "-0x1.1a53b148d10c2p-4", "0x1.a3b7c66a82026p-5", "0x1.e49aaacf05b0bp-5"]
    assert np.max(np.abs(starts[0] - u / math.sqrt(math.fsum(u * u)))) <= 1e-15


def test_breakdown_and_step_cap_raise_naming_the_sector(monkeypatch):
    """A basis of 4 rows allows 3 steps, too few for 2 eigenvalues of a 512-cell sector; a
    sector whose op is the identity (unit pivots, no coupling) makes the Krylov space invariant
    at step 1.  Both errors name grid, l and sector."""
    t = validate(Case.GENERALIZED, 1, 2, 3)
    (d, e), sigma = spectral._factors(t, 2048, [(2, "DN")])
    where = spectral._where(2048, 2, "DN")
    message = r"did not converge within 3 steps at grid_n=2048 \(l=2, sector DN\)"
    with pytest.raises(EigensolverError, match=message):
        spectral._lanczos(where, d[0], e[0, :-1], sigma[0], 2, np.full((4, 512), 512**-0.5))
    factors = spectral._factors

    def identity(t, grid_n, columns):
        F, sigma = factors(t, grid_n, columns)
        F[0], F[1] = 1.0, 0.0
        return F, sigma

    monkeypatch.setattr(spectral, "_factors", identity)
    message = r"broke down after 1 steps at grid_n=1024 \(l=2, sector DD\)"
    with pytest.raises(EigensolverError, match=message):
        _spec(t, 2, Symmetry.ODD_Y, n=1024)


def test_basis_of_a_list_at_the_finest_grid_is_orthonormal(monkeypatch):
    """T_(1,2,3) at l = 1, even in y, grid 262144 (two sectors of 65536 cells): the rows each
    sector's Lanczos used, one per dpttrs step, satisfy max |V V^T - I| <= 1e-13 (measured
    6.7e-16).  One full Gram-Schmidt pass without the local one reads 4.1e-12, the local pass
    alone 0.98."""
    lapack = spectral.lapack
    dpttrs, lanczos, steps, worst = lapack.dpttrs, spectral._lanczos, [0], []

    def counted(*args):
        steps[0] += 1
        return dpttrs(*args)

    def checked(where, ld, le, sigma, k, V):
        steps[0] = 0
        ev = lanczos(where, ld, le, sigma, k, V)
        used = V[:steps[0]]
        worst.append(np.max(np.abs(used @ used.T - np.eye(len(used)))))
        return ev

    monkeypatch.setattr(lapack, "dpttrs", counted)
    monkeypatch.setattr(spectral, "_lanczos", checked)
    _spec(validate(Case.GENERALIZED, 1, 2, 3), 1, Symmetry.EVEN_Y, n=262144)
    assert len(worst) == 2
    assert max(worst) <= 1e-13


def test_a_thread_reuses_its_basis_and_grows_it_only_when_needed():
    """Requests from small to large sectors and back map the thread's basis once and grow it
    once; a longer list, which needs more rows, gets a basis of its own and leaves the thread's
    as it was.  Each list is bit for bit the one a fresh process computes: what an earlier request
    left in the basis is never read."""
    queries = [((1, 2, 3), 1, Symmetry.EVEN_Y, 2048, 8),
               ((5, 7, 13), 7, Symmetry.FULL_PERIODIC, 32768, 8),
               ((1, 2, 3), 1, Symmetry.EVEN_Y, 2048, 8),
               ((5, 7, 13), 7, Symmetry.FULL_PERIODIC, 32768, 8),
               ((1, 2, 3), 2, Symmetry.PI_PERIODIC, 32768, 16),
               ((5, 7, 13), 7, Symmetry.FULL_PERIODIC, 32768, 8)]

    def requests():
        lists, bases = [], []
        for abc, l, sym, n, count in queries:
            lists.append(_cold_spec(validate(Case.GENERALIZED, *abc), l, sym, n, count).tobytes())
            bases.append(spectral._THREAD.basis)
        return lists, bases

    out = []  # a new thread starts without a basis of its own
    thread = threading.Thread(target=lambda: out.append(requests()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    (lists, bases), = out
    assert [x is not y for x, y in zip(bases[1:], bases)] == [True, False, False, False, False]
    assert len(bases[1]) == 8 * (8 * 8 + 64 + 1) * 8192  # bytes: the 8192-cell sectors' list of 8
    assert lists[2] == lists[0] and lists[3] == lists[5] == lists[1]
    for (abc, l, sym, n, count), ev in dict(zip(queries, lists)).items():
        fresh = _fresh_python(
            f"print(sl_spectrum(sl_problem(validate(Case.GENERALIZED, *{abc}), {l}, "
            f"Symmetry.{sym.name}), {n}, {count}).eigenvalues.tobytes().hex())")
        assert fresh == ev.hex()


def test_threads_solving_at_once_get_the_serial_lists():
    """Four threads, more than a small machine's cores, each solving a different list three times
    with the interpreter switching threads every microsecond, get bit for bit the lists solved
    one after another: each thread Lanczos-steps in its own basis."""
    t = validate(Case.GENERALIZED, 5, 7, 13)
    queries = [(3, Symmetry.FULL_PERIODIC, 16384), (7, Symmetry.ODD_Y, 16384),
               (13, Symmetry.PI_ANTIPERIODIC, 32768), (0, Symmetry.EVEN_Y, 8192)]
    serial = [_spec(t, l, sym, n).tobytes() for l, sym, n in queries]
    start, results = threading.Barrier(len(queries)), [[] for _ in queries]

    def solve(i):
        l, sym, n = queries[i]
        start.wait(timeout=60)
        for _ in range(3):
            results[i].append(_cold_spec(t, l, sym, n).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(queries))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[ev] * 3 for ev in serial]


def test_threads_making_one_cold_request_at_once_get_the_serial_list():
    """Four threads make the same request at once into an empty memo, with the interpreter
    switching threads every microsecond: each gets bit for bit the list that one thread solves
    alone, and the memo ends with that one request."""
    query = (validate(Case.GENERALIZED, 5, 7, 13), 3, Symmetry.FULL_PERIODIC, 16384)
    serial = _spec(*query).tobytes()
    spectral._sector_eigenvalues.cache_clear()
    start, results = threading.Barrier(4), [None] * 4

    def solve(i):
        start.wait(timeout=60)
        results[i] = _spec(*query).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [serial] * 4
    assert spectral._sector_eigenvalues.cache_info().currsize == 1


@pytest.mark.parametrize("sym", list(Symmetry), ids=lambda s: s.value)
def test_a_repeated_list_is_read_from_the_memo(monkeypatch, sym):
    """A second identical list makes no Lanczos call, and its values are bit for bit those of a
    solve after the memo is emptied.  A caller's list is its own array: writing into it leaves the
    next answer as it was, and the memo's arrays are read-only."""
    lanczos, calls = spectral._lanczos, []

    def counted(*args):
        calls.append(1)
        return lanczos(*args)

    monkeypatch.setattr(spectral, "_lanczos", counted)
    problem = sl_problem(validate(Case.GENERALIZED, 5, 7, 13), 7, sym)
    first = sl_spectrum(problem, 2048).eigenvalues
    solved = len(calls)
    second = sl_spectrum(problem, 2048).eigenvalues
    assert solved == len(spectral._SYMMETRY_SECTORS[sym]) and len(calls) == solved
    spectral._sector_eigenvalues.cache_clear()
    fresh = sl_spectrum(problem, 2048).eigenvalues
    assert len(calls) == 2 * solved
    assert second.tobytes() == first.tobytes() == fresh.tobytes()
    fresh[:] = second[:] = -1.0
    assert sl_spectrum(problem, 2048).eigenvalues.tobytes() == first.tobytes()
    sectors = spectral._SYMMETRY_SECTORS[sym]
    memo, = spectral._sector_eigenvalues(problem.triple, 2048, (7,), sectors, 8)
    assert len(calls) == 2 * solved and not any(ev.flags.writeable for ev in memo)
    with pytest.raises(ValueError, match="read-only"):
        memo[0][0] = 0.0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_and_its_parent_solving_at_once_get_the_serial_lists():
    """A process that holds a basis forks; the child and the parent then solve different lists at
    the same time, five times each, and get bit for bit the serial lists: the child writes its
    own copy of the basis, not the parent's pages."""
    t = validate(Case.GENERALIZED, 5, 7, 13)
    queries = [(3, Symmetry.FULL_PERIODIC, 32768), (7, Symmetry.FULL_PERIODIC, 32768)]
    serial = [_spec(t, l, sym, n).tobytes() for l, sym, n in queries]  # this thread's basis
    go_r, go_w = os.pipe()
    out_r, out_w = os.pipe()
    with warnings.catch_warnings():  # fork of a process that runs BLAS threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(go_w)
            os.read(go_r, 1)
            data = b"".join(_cold_spec(t, *queries[1]).tobytes() for _ in range(5))
            os.write(out_w, data)
            status = 0
        finally:
            os._exit(status)
    try:
        os.close(out_w)
        os.write(go_w, b"x")
        mine = [_cold_spec(t, *queries[0]).tobytes() for _ in range(5)]
        child = b""
        while chunk := os.read(out_r, 4096):
            child += chunk
    finally:
        _, status = os.waitpid(pid, 0)
        for fd in (go_r, go_w, out_r):
            os.close(fd)
    assert status == 0
    assert mine == [serial[0]] * 5
    assert child == serial[1] * 5


def _fresh_python(code: str) -> str:
    """stdout of ``code`` run by a new interpreter after ``from lawson import *``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(spectral.__file__)))
    code = f"import sys; sys.path.insert(0, {src!r}); from lawson import *; {code}"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return proc.stdout.strip()


_VERIFY_AND_LIST = ("t = validate(Case.GENERALIZED, 5, 7, 13); run_verification(t, deep=True); "
                    "sl_spectrum(sl_problem(t, 3, Symmetry.EVEN_Y), 2048); ")


def test_lists_load_no_sparse_solver():
    """A verification and an eigenvalue list load two scipy modules, the compiled extensions
    scipy.linalg._flapack and _fblas: no scipy package, no scipy.sparse."""
    loaded = _fresh_python(_VERIFY_AND_LIST + "print(sorted(m for m in sys.modules if "
                           "m == 'scipy' or m.startswith('scipy.')))")
    assert loaded == "['scipy.linalg._fblas', 'scipy.linalg._flapack']"


def test_public_scipy_linalg_reuses_the_loaded_extensions():
    """After a verification, ``import scipy.linalg.lapack`` (and .blas) runs scipy's packages
    around the registered extensions and exposes the very functions the spectral core called."""
    same = _fresh_python(
        _VERIFY_AND_LIST + "from lawson import spectral; lapack, blas = (sys.modules["
        "'scipy.linalg.' + m] for m in ('_flapack', '_fblas')); "
        "import scipy.linalg.blas, scipy.linalg.lapack; "
        "print(sys.modules['scipy.linalg._flapack'] is lapack, sys.modules['scipy.linalg._fblas'] "
        "is blas, *(getattr(scipy.linalg.lapack, f) is getattr(lapack, f) is "
        "getattr(spectral.lapack, f) for f in ('dpttrf', 'dpttrs', 'dstev')), "
        "*(getattr(scipy.linalg.blas, f) is getattr(blas, f) is getattr(spectral.blas, f) "
        "for f in ('dgemv', 'dnrm2')))")
    assert same == " ".join(["True"] * 7)


def test_loader_falls_back_to_the_public_import():
    """Without the extension files (no extension suffix to look for), the loader takes the public
    scipy.linalg.lapack, whose import registers _fblas for the BLAS, and a list of 8 is
    bit-identical."""
    out = _fresh_python(
        "import importlib.machinery; importlib.machinery.EXTENSION_SUFFIXES.clear(); "
        "from lawson import spectral; t = validate(Case.GENERALIZED, 5, 7, 13); "
        "ev = sl_spectrum(sl_problem(t, 3, Symmetry.EVEN_Y), 2048).eigenvalues; "
        "import scipy.linalg.blas, scipy.linalg.lapack; "
        "print(spectral.lapack.__name__, *(getattr(spectral.blas, f) is "
        "getattr(scipy.linalg.blas, f) for f in ('dgemv', 'dnrm2')), ev.tobytes().hex())")
    problem = sl_problem(validate(Case.GENERALIZED, 5, 7, 13), 3, Symmetry.EVEN_Y)
    assert out.split() == ["scipy.linalg.lapack", "True", "True",
                           sl_spectrum(problem, 2048).eigenvalues.tobytes().hex()]


def test_shares_of_the_rank_one_theorem():
    """The shares that :func:`_table` forms lambda_0..lambda_3 from, and those of a list of 8."""
    shares = {sym: spectral._shares(spectral._SYMMETRY_SECTORS[sym], 8) for sym in Symmetry}
    assert spectral._shares(spectral._ALL_SECTORS, 4) == (2, 1, 1, 1)
    assert shares[Symmetry.FULL_PERIODIC] == (3, 2, 2, 2)
    assert shares[Symmetry.PI_PERIODIC] == (5, 4)
    assert all(shares[sym] == (4, 4) for sym in (Symmetry.PI_ANTIPERIODIC, Symmetry.EVEN_Y,
                                                  Symmetry.ODD_Y))


@pytest.mark.parametrize("sym", list(Symmetry), ids=lambda s: s.value)
def test_a_list_solves_each_column_once_at_its_share(monkeypatch, sym):
    """A list factors the (l, sector) columns of positive share only and makes one Lanczos call
    per column, asked for exactly its share; a sector of share 0 is neither factored nor solved,
    and the request gives it an empty array."""
    lanczos, factors = spectral._lanczos, spectral._factors
    asked, factored = [], []

    def recorded(where, ld, le, sigma, k, basis):
        asked.append(k)
        return lanczos(where, ld, le, sigma, k, basis)

    def recorded_factors(t, grid_n, columns):
        factored.extend(columns)
        return factors(t, grid_n, columns)

    monkeypatch.setattr(spectral, "_lanczos", recorded)
    monkeypatch.setattr(spectral, "_factors", recorded_factors)
    sectors = spectral._SYMMETRY_SECTORS[sym]
    for count in (1, 3, 8, 13):
        asked.clear()
        factored.clear()
        _spec(validate(Case.GENERALIZED, 5, 7, 13), 7, sym, n=1024, count=count)
        solved = [(s, k) for s, k in zip(sectors, spectral._shares(sectors, count)) if k]
        assert factored == [(7, s) for s, _ in solved]
        assert asked == [k for _, k in solved]
        spectra, = spectral._sector_eigenvalues(validate(Case.GENERALIZED, 5, 7, 13), 1024, (7,),
                                                sectors, count)
        assert tuple(map(len, spectra)) == spectral._shares(sectors, count)


SHARE_TRIPLES = [validate(Case.GENERALIZED, 1, 2, 3), validate(Case.GENERALIZED, 5, 7, 13),
                 validate(Case.LAWSON, 2, 1)]


@pytest.mark.parametrize("sym", list(Symmetry), ids=lambda s: s.value)
def test_no_sector_holds_more_of_a_list_than_its_share(sym):
    """Against the dense sector matrices at grid 256 (m = 64 cells), for counts 1..24 at
    l = 0, 1, 7, 40: no sector holds more of the union's lowest ``count`` than its share, and each
    sector holds all of its share in some list, so a share lowered by one fails.  A sector holds
    the eigenvalues below the union's next one less a rounding band of 64 eps max |lambda|: at
    tau_(2,1), l = 40, NN_0 and DN_0 differ by 1.2e-12 (tunnelling), and eigvalsh puts DN_0 first.
    At counts 1, 2, 3, 5 and 13 each list equals the untrimmed merge to 1e-11."""
    sectors = spectral._SYMMETRY_SECTORS[sym]
    reached = set()
    for t in SHARE_TRIPLES:
        for l in (0, 1, 7, 40):
            dense = [np.linalg.eigvalsh(_dense_sector(t, l, 256, s)) for s in sectors]
            band = 64 * sys.float_info.epsilon * max(np.max(np.abs(ev)) for ev in dense)
            union = np.sort(np.concatenate(dense))
            for count in range(1, 25):
                shares = spectral._shares(sectors, count)
                held = [int(np.sum(ev < union[count] - band)) for ev in dense]
                assert all(h <= k for h, k in zip(held, shares)), (t.label(), l, count)
                reached.update(s for s, h, k in zip(sectors, held, shares) if h == k > 0)
                if count in (1, 2, 3, 5, 13):
                    problem = sl_problem(t, l, sym)
                    ev = sl_spectrum(problem, 256, count).eigenvalues
                    assert np.max(np.abs(ev - _untrimmed_merge(problem, 256, count))) <= 1e-11
    assert reached == set(sectors)


@pytest.mark.parametrize("l", [0, 1])
@pytest.mark.parametrize(
    "sym,n,shift",
    [(Symmetry.FULL_PERIODIC, 131072, 0.0), (Symmetry.PI_ANTIPERIODIC, 131072, 0.5)],
    ids=["full", "anti"],
)
def test_clifford_closed_form_spectrum_at_fine_grid(sym, n, shift, l):
    """T_(0,0,1) has constant coefficients, so the discrete spectrum is known in
    closed form: 8 sin^2(pi k/N)/h^2 + 2 l^2 on the N = L/h cells of the domain, over integer k
    (periodic, N = n on [0, 2 pi)) or half-integer k (antiperiodic, N = n/2 on [0, pi)).  Both
    have cell width h = pi / (2 m) = 2 pi/131072 and sectors of m = 32768 cells, where LAPACK
    stebz missed by 3e-7."""
    h = math.pi / (2 * spectral._sector_cells(n))
    cells = n if sym is Symmetry.FULL_PERIODIC else n // 2
    k = np.arange(-8, 8) + shift
    exact = np.sort(8.0 * np.sin(math.pi * k / cells) ** 2 / h**2 + 2.0 * l * l)[:8]
    ev = _spec(validate(Case.GENERALIZED, 0, 0, 1), l, sym, n=n)
    assert np.max(np.abs(ev - exact)) <= 1e-9


def test_failed_factor_raises_before_iterating(monkeypatch):
    """If B - sigma I does not factor (a negated flux coefficient p makes B indefinite; a
    negative q would lower sigma with it), the sector is reported and no Lanczos step (dpttrs)
    runs."""
    coefficients_of = spectral._flux_and_weight

    def indefinite(t, y):
        p, w = coefficients_of(t, y)
        return -p, w

    monkeypatch.setattr(spectral, "_flux_and_weight", indefinite)
    monkeypatch.setattr(spectral.lapack, "dpttrs", lambda *a, **k: pytest.fail("dpttrs ran"))
    with pytest.raises(EigensolverError, match=r"grid_n=1024 \(l=2, sector NN\)"):
        _spec(validate(Case.GENERALIZED, 1, 2, 3), 2, n=1024)


def _dense_sector(t, l, n, sector):
    """The w^(-1/2)-symmetrized matrix of one quarter-period sector of the grid n, assembled
    densely: m = n/4 cells of width 2 pi/n on [0, pi/2]; an N end reflects evenly (no flux), a D
    end oddly (twice it)."""
    m = spectral._sector_cells(n)
    h = math.pi / (2 * m)
    pf = sl_coefficients(t, l, h * np.arange(m + 1))[0]
    _, q, w = sl_coefficients(t, l, h * (np.arange(m) + 0.5))
    A = np.diag((pf[:-1] + pf[1:]) / h**2 + q)
    A[0, 0] += (1.0 if sector[0] == "D" else -1.0) * pf[0] / h**2
    A[-1, -1] += (1.0 if sector[1] == "D" else -1.0) * pf[m] / h**2
    i = np.arange(m - 1)
    A[i, i + 1] = A[i + 1, i] = -pf[1:m] / h**2
    d = 1.0 / np.sqrt(w)
    return d[:, None] * A * d[None, :]


def _per_l_factors(t, l, n, sectors):
    """The reference assembly: every coefficient of the full-periodic grid n evaluated at l, then
    factored per sector as ``_factors`` does; yields (d, e, sigma)."""
    from scipy.linalg.lapack import dpttrf

    m, h = n // 4, 2 * math.pi / n
    p, q, w = sl_coefficients(t, l, 0.5 * h * np.arange(2 * m + 1))
    pf = p[::2]
    main = (pf[:-1] + pf[1:]) / h**2 + q[1::2]
    s = 1.0 / np.sqrt(w[1::2])
    off = -pf[1:m] / h**2 * s[:-1] * s[1:]
    shift = 16.0 * np.floor(np.min(q[1::2] / w[1::2]) / 16.0)
    for sector in sectors:
        d = main.copy()
        d[0] += (1.0 if sector[0] == "D" else -1.0) * pf[0] / h**2
        d[-1] += (1.0 if sector[1] == "D" else -1.0) * pf[m] / h**2
        ld, le, info = dpttrf(d * s * s + 1.0 - shift, off)
        assert info == 0
        yield ld, le, shift - 1.0


@pytest.mark.parametrize("n", [256, 512, 1024, 2048])
@pytest.mark.parametrize("t", SUITE, ids=SUITE_IDS)
def test_factors_equal_a_per_l_assembly(t, n):
    """The l-independent part built once gives bit for bit the factors of a sector assembled
    anew at each l, in every sector; the last l, 4 (floor(c) + 1), factors with sigma + 1 >= 16.
    The 16 to 20 columns share one dpttrf call: a column factored within their block-diagonal
    matrix equals its own factor."""
    ls = sorted({0, 1, math.floor(t.c_real), 4 * math.floor(t.c_real) + 4, t.c_real})
    columns = [(l, sector) for l in ls for sector in spectral._ALL_SECTORS]
    (d, e), sigma = spectral._factors(t, n, columns)
    want = [f for l in ls for f in _per_l_factors(t, l, n, spectral._ALL_SECTORS)]
    assert len(d) == len(e) == len(sigma) == len(want) == 4 * len(ls)
    assert sigma[-1] >= 15.0
    for ld, le, sg, (d_ref, e_ref, sigma_ref) in zip(d, e, sigma, want):
        assert np.array_equal(ld, d_ref) and np.array_equal(le[:-1], e_ref) and sg == sigma_ref
        assert le[-1] == 0.0


@pytest.mark.parametrize("abc", [(5, 7, 13), (2, 1)], ids=["T_(5,7,13)", "tau_(2,1)"])
def test_a_request_solves_each_l_as_if_alone(abc):
    """An l's spectra are bit for bit the same solved alone or in one request with 0, the
    anchors and l_max, the real c of a Lawson pair included: the request's columns share one
    dpttrf call, and every column's Lanczos reuses the request's basis.  Each l gives the four
    sectors' shares of four (NN 2, ND, DN and DD 1; 20 columns), ascending, from which
    :func:`_lambdas` forms lambda_0..lambda_3; the memo's rows at the anchors' frequencies are
    those of each l solved alone."""
    t = validate(Case.LAWSON if len(abc) == 2 else Case.GENERALIZED, *abc)
    ls = (0, t.a, t.b, t.c_real, math.isqrt(t.c_squared) + 1)
    solve = functools.partial(spectral._sector_eigenvalues, t, 2048)
    together = solve(ls, spectral._ALL_SECTORS, 4)
    assert [[len(ev) for ev in spectra] for spectra in together] == [[2, 1, 1, 1]] * 5
    alone = {}
    for l, spectra in zip(ls, together):
        alone[l], = solve((l,), spectral._ALL_SECTORS, 4)
        assert [ev.tobytes() for ev in spectra] == [ev.tobytes() for ev in alone[l]]
        assert all(np.all(np.diff(ev) > 0) for ev in spectra)
    rows = spectral._table(t, 2048)
    assert [l for l, *_ in rows] == [t.c_real, max(t.a, t.b), min(t.a, t.b)]
    for l, lam, names in rows:
        assert (lam, names) == spectral._lambdas(alone[l])


def _moduli(t):
    """(k^2, k'^2, E_0) of the Lame operator of the canonical ``t``, from its integers."""
    a2, b2 = sorted((t.a * t.a, t.b * t.b))
    c2 = t.c_squared
    return (b2 - a2) / (c2 - a2), (c2 - b2) / (c2 - a2), (c2 + b2 - a2) / (c2 - a2)


def _dense_lame_sector(k2, m, sector):
    """L = -d^2/dv^2 + 2 k^2 sn^2(v | k^2) on m cells of [0, K], assembled densely with sn and K
    from scipy.special (not the AGM of the count): an N end reflects evenly, a D end oddly."""
    from scipy.special import ellipj, ellipk

    h = ellipk(k2) / m
    sn = ellipj(h * (np.arange(m) + 0.5), k2)[0]
    A = np.diag(2.0 / h**2 + 2.0 * k2 * sn * sn)
    A[0, 0] += (1.0 if sector[0] == "D" else -1.0) / h**2
    A[-1, -1] += (1.0 if sector[1] == "D" else -1.0) / h**2
    i = np.arange(m - 1)
    A[i, i + 1] = A[i + 1, i] = -1.0 / h**2
    return A


@pytest.mark.parametrize("n", [256, 260, 512, 1024, 1028])
@pytest.mark.parametrize("t", SUITE, ids=SUITE_IDS)
def test_inertia_count_matches_dense_eigenvalues(t, n):
    """The dstebz count of each of L's sectors (m = 64..257 cells, odd at n = 260 and 1028)
    equals the count of dense eigvalsh eigenvalues below the shift, at midpoints of its lowest
    eigenvalues, at E_0 and below the lowest, and its values match them to 1e-10 relative to the
    norm: sn and K of the count's AGM and Landen descent agree with scipy.special's."""
    k2, kp2, e0 = _moduli(t)
    m, mod = n // 4, Modulus(k2, kp2)
    dense = {s: np.linalg.eigvalsh(_dense_lame_sector(k2, m, s)) for s in spectral._ALL_SECTORS}
    for x in [e0, *sorted({(ev[j] + ev[j + 1]) / 2 for ev in dense.values() for j in range(3)}),
              -0.5]:
        got = spectral._lame_sectors(mod, m, x)
        for sector, ev in zip(spectral._ALL_SECTORS, got):
            want = dense[sector]
            assert np.sum(ev < x) == np.searchsorted(want, x)
            assert np.all(np.abs(ev - want[:len(ev)]) <= 1e-10 * (4.0 * m * m + 2.0))
    assert [len(ev) for ev in spectral._lame_sectors(mod, m, e0)][3] >= 1  # DD's lowest


def _list_counts(t, n, guard):
    """The former count: per l up to one past c, the eigenvalues below 2 - guard in lists of 8 per
    counted sector of the y-grid, each list reaching past 2 + guard; none past c."""
    by_parity = spectral._COUNT_SECTORS[expected_symmetry(t)]
    counts = []
    for l in range(math.isqrt(t.c_squared) + 2):
        lists = [spectral._sector_eigenvalues(t, n, (l,), (s,), 8)[0][0]
                 for s in by_parity[l % 2]]
        assert all(ev[-1] > 2.0 + guard for ev in lists)
        counts.append((l, sum(int(np.sum(ev < 2.0 - guard)) for ev in lists)))
    assert counts.pop() == (math.isqrt(t.c_squared) + 1, 0)
    return tuple(counts)


# At l = l_edge, E_l equals the edge exactly (T_(2,4,5): E_2 = 1 + k^2 = 11/7), which a float
# comparison decides by rounding: E_l against the edges in floats miscounts 199 of the 3486
# census surfaces, T_(1,3,4) of the suite and the last two here among them.
EDGE_CASES = [validate(Case.GENERALIZED, *abc) for abc in ((2, 4, 5), (0, 3, 5), (5, 6, 8))]


@pytest.mark.parametrize("n", [2048, 4096])
@pytest.mark.parametrize("t", SUITE + EDGE_CASES, ids=SUITE_IDS + [t.label() for t in EDGE_CASES])
def test_inertia_counts_match_eigenvalue_lists(t, n):
    """The integer rule of the count in v gives the per-l counts of the y-grid's Lanczos lists:
    those its stops and parity sectors hold."""
    report = count_N2(t, n)
    assert per_l_counts(report, t) == _list_counts(t, n, spectral.anchor_tolerance(n))


@pytest.mark.parametrize("l", [0, 1])
def test_clifford_inertia_count_at_fine_grid(l):
    """T_(0,0,1) at full-periodic 131072: the count at l is the number of the y-grid's
    closed-form eigenvalues 8 sin^2(pi k/n)/h_y^2 + 2 l^2 below 2 - g, g the guard 1e-4: k = 0
    at l = 0, none at l = 1 (k = +-1 lies within 2e-9 below 2, inside the guard).  It has k = 0:
    L = -d^2/dv^2 on [0, pi/2], whose sectors on m = 32768 cells have the closed-form spectra
    4 sin^2(pi j / (2m)) / h^2, j = 0, 1 in NN and DD, j = 1/2 in ND and DN.  The count's edge
    errors and gap are those of the closed forms within the Sturm count's accuracy, eps times
    the norm 4 / h^2: about 4e-7, far inside the guard."""
    n, m = 131072, 32768
    h_y = 2 * math.pi / n
    y_grid = 8.0 * np.sin(math.pi * np.arange(-4, 5) / n) ** 2 / h_y**2 + 2.0 * l * l
    t = validate(Case.GENERALIZED, 0, 0, 1)
    report = count_N2(t, n)
    below = int(np.sum(y_grid < 2.0 - spectral.anchor_tolerance(n)))
    assert per_l_counts(report, t)[l] == (l, below) and below == 1 - l
    h = math.pi / 2 / m
    closed = lambda j: 4.0 * math.sin(math.pi * j / (2 * m)) ** 2 / h**2  # noqa: E731
    accuracy = 4 * np.finfo(float).eps * 4.0 / h**2
    assert report.cells == m
    assert report.edge_errors[0] <= accuracy
    assert abs(report.edge_errors[1] - (1.0 - closed(0.5))) <= accuracy
    assert abs(report.edge_errors[2] - (1.0 - closed(0.5))) <= accuracy
    assert abs(report.gap - (closed(1) - 1.0)) <= accuracy


@pytest.mark.parametrize("case,params", [
    (Case.GENERALIZED, (5, 7, 13)), (Case.GENERALIZED, (1, 2, 150)),
    (Case.GENERALIZED, (98, 835, 919)), (Case.GENERALIZED, (2, 1531, 2871)),
    (Case.LAWSON, (3000, 1)),
], ids=["c=13", "c=150", "c=919", "c=2871", "c=3000"])
def test_count_memory_does_not_grow_with_c(case, params):
    """Besides its report, a count at grid 2048 holds L's four sectors: 4 m = 2048 cells of a few
    arrays, at most 256 KiB whatever c is (the former count factored 4 (c + 1) columns)."""
    t = validate(case, *params)
    count_N2(t, 2048)
    tracemalloc.start()
    try:
        report = count_N2(t, 2048)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.agree
    assert peak - held <= 2**18


@pytest.mark.parametrize("guard,message", [
    (2.5, r"inertia \(2, 1, 1, 1\) of L's sectors NN, ND, DN, DD at E_0 \+ 2\.50e\+00"),
    (1e-9, r"edge errors .*; want \(1, 1, 1, 0\) and errors up to 1\.00e-09; grid_n=2048"),
], ids=["guard-past-the-gap", "guard-below-the-edge-errors"])
def test_guard_outside_the_evidence_is_indeterminate(monkeypatch, guard, message):
    """The count needs its guard g between the edge errors and the gap: T_(3,4,6) has the gap
    2.13 from E_0 to L's next eigenvalue, and edge errors of about 5e-7 at grid 2048."""
    t = validate(Case.GENERALIZED, 3, 4, 6)
    report = count_N2(t, 2048)
    assert 1e-9 < max(report.edge_errors) < 1e-6 and 2.0 < report.gap < 2.5
    monkeypatch.setattr(spectral, "anchor_tolerance", lambda grid_n: guard)
    with pytest.raises(IndeterminateCountError, match=message):
        count_N2(t, 2048)


def test_coefficients_evaluated_once_per_grid(monkeypatch):
    """A count evaluates no coefficient of the y-grid (its operator in v is the same at every l),
    and a deep verification evaluates them as often at c = 150 as at c = 13."""
    import lawson.surface
    import lawson.verify

    calls = []

    def counted(f):
        return lambda *args: calls.append(1) or f(*args)

    t = validate(Case.GENERALIZED, 1, 2, 150)
    count_N2(t, 2048)
    monkeypatch.setattr(spectral, "sl_coefficients", counted(spectral.sl_coefficients))
    count_N2(t, 2048)
    assert len(calls) == 0
    monkeypatch.undo()
    coefficients_calls = counted(lawson.surface.coefficients)
    for module in (lawson.surface, spectral, lawson.verify):
        monkeypatch.setattr(module, "coefficients", coefficients_calls)
    per_triple = []
    for abc in ((5, 7, 13), (1, 2, 150)):
        calls.clear()
        lawson.verify.run_verification(validate(Case.GENERALIZED, *abc), 2048, deep=True)
        per_triple.append(len(calls))
    assert per_triple[0] == per_triple[1]


@pytest.mark.parametrize("t", [validate(Case.GENERALIZED, 1, 2, 3),
                               validate(Case.GENERALIZED, 0, 1, 2), validate(Case.LAWSON, 3, 1)],
                         ids=["T_(1,2,3)", "T_(0,1,2)", "tau_(3,1)"])
def test_count_computes_no_area(monkeypatch, t):
    """The count compares with the closed-form index, an integer rule: it evaluates no area."""
    import lawson.surface

    calls, area_closed = [], lawson.surface.area_closed
    monkeypatch.setattr(lawson.surface, "area_closed",
                        lambda *args: calls.append(1) or area_closed(*args))
    assert count_N2(t, 2048).agree
    assert calls == []


class TestAnchors:
    def test_clifford_ground_anchor_is_exact(self):
        # l = c = 1 with constant ground profile: the discretization is exact
        r0, r1, r2 = anchor_check(validate(Case.GENERALIZED, 0, 0, 1), 1024)[0]
        assert r0 <= 1e-10
        assert r1 <= 1e-4
        assert r2 <= 1e-4

    @pytest.mark.parametrize("abc", [(1, 1, 2), (1, 2, 4)])
    def test_generalized_anchors(self, abc):
        res = anchor_check(validate(Case.GENERALIZED, *abc), 4096)[0]
        assert max(res) <= 1e-4

    def test_lawson_anchor_at_real_frequency(self):
        res = anchor_check(validate(Case.LAWSON, 2, 1), 2048)[0]
        assert max(res) <= 1e-4

    @pytest.mark.parametrize("params", [(1, 2, 3), (0, 1, 2)])
    def test_second_order_over_three_doublings(self, params):
        t = validate(Case.GENERALIZED, *params)
        ladder = [anchor_check(t, n)[0] for n in (512, 1024, 2048, 4096)]
        for coarse, fine in zip(ladder, ladder[1:]):
            for rc, rf in zip(coarse, fine):
                if rc > 1e-11 and rf > 1e-11:  # skip anchors converged to roundoff
                    assert 3.2 <= rc / rf <= 4.8


class TestSeparatedOdeResidual:
    @pytest.mark.parametrize("t", SUITE, ids=SUITE_IDS)
    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_all_components_satisfy_ode_at_two(self, t, which):
        assert eq35_residual(t)[which - 1] <= 1e-10

    def test_non_canonical_ordering_also_exact(self):
        t = Triple(Case.GENERALIZED, 1, 0, 2)
        for which in (1, 2, 3):
            assert eq35_residual(t)[which - 1] <= 1e-10

    def test_lawson_third_component_vanishes(self):
        assert eq35_residual(validate(Case.LAWSON, 3, 1))[2] == 0.0


class TestLameResidual:
    @pytest.mark.parametrize("h_index", [0, 1, 2])
    def test_harmonic_limit(self, h_index):
        assert lame_residual(0.0)[0][h_index] <= 1e-15

    def test_half_modulus_dn_branch(self):
        assert lame_residual(0.5)[0][0] <= 1e-12

    def test_negative_modulus_sn_branch(self):
        assert lame_residual(-1.0 / 3.0)[0][2] <= 1e-12

    @pytest.mark.parametrize("k2", [-2.0, -0.5, 0.3, 0.9])
    @pytest.mark.parametrize("h_index", [0, 1, 2])
    def test_sweep(self, k2, h_index):
        assert lame_residual(k2)[0][h_index] <= 1e-12

    @pytest.mark.parametrize("k2", [-1e4, -181.25, -100.0, -2.0, 0.0, 0.3, 0.998, 1.0 - 1e-10])
    def test_residual_within_its_rounding_bound(self, k2):
        """The residual is rounding error below gamma_36 max sum |terms| at every modulus, also
        where it exceeds the former absolute 1e-12 (tau_(27,2) has k^2 = -181.25 and 1.36e-12)."""
        residuals, bound = lame_residual(k2)
        assert all(residuals[i] <= bound for i in (0, 1, 2))
        assert bound <= 1e-7 * max(1.0, k2 * k2)

    def test_domain(self):
        with pytest.raises(ValueError):
            lame_residual(1.0)


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


def _roll_stencil_residual(t, grid_n):
    """The two-dimensional five-point residual max |Delta_h F - 2 F| on the
    full grid_n x grid_n array of immersion values, by periodic rolls."""
    co = coefficients(t)
    h = 2.0 * math.pi / grid_n
    x = h * np.arange(grid_n)
    y = h * np.arange(grid_n)
    xg, yg = np.meshgrid(x, y, indexing="ij")
    F = immersion(t, xg, yg)
    p_nodes = co.P(y)
    p_plus = co.P(y + 0.5 * h)
    t_coef = np.sqrt(2.0 / (co.q + 2.0 * p_nodes))  # sqrt(g) g^xx
    s_plus = np.sqrt((co.q + 2.0 * p_plus) / 2.0)  # sqrt(g) g^yy at upper faces
    s_minus = np.roll(s_plus, 1)
    inv_sqrt_g = np.sqrt((co.q + 2.0 * p_nodes) / 2.0) / p_nodes
    d2x = (np.roll(F, -1, axis=1) - 2.0 * F + np.roll(F, 1, axis=1)) / h**2
    flux_y = (
        s_plus[None, None, :] * (np.roll(F, -1, axis=2) - F)
        - s_minus[None, None, :] * (F - np.roll(F, 1, axis=2))
    ) / h**2
    lap = -inv_sqrt_g[None, None, :] * (t_coef[None, None, :] * d2x + flux_y)
    return float(np.max(np.abs(lap - 2.0 * F)))


@pytest.mark.parametrize("n", [128, 256, 512])
@pytest.mark.parametrize(
    "t", SUITE + [validate(Case.LAWSON, 3, 2)], ids=SUITE_IDS + ["tau_(3,2)"]
)
def test_separable_residual_matches_two_dimensional_stencil(t, n):
    """The separable residual equals the 2-D stencil to 1e-9 relative, or to
    the 2-D stencil's own rounding: its x-difference of float64 immersion
    values of size <= 1 carries up to about 4 eps/h^2, which exceeds 1e-9
    relative where the residual is ~1e-5 (T_(0,0,1) at 512: 1.3e-12)."""
    h = 2.0 * math.pi / n
    expected = _roll_stencil_residual(t, n)
    got = takahashi_residual(t, n)
    assert abs(got - expected) <= 1e-9 * expected + 4.0 * np.finfo(float).eps / h**2


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
        """The report holds the stops and parity sectors, which give the per-l counts, and the
        evidence for them: the gap from E_0 past the guard, the three edge errors within it, and
        the cells of each of L's sectors."""
        t = validate(Case.GENERALIZED, 1, 2, 3)
        report = count_N2(t, 2048)
        assert report.stops == {"NN": 3, "ND": 2, "DN": 1, "DD": 0}
        assert report.sectors == (spectral._ALL_SECTORS, spectral._ALL_SECTORS)
        assert per_l_counts(report, t) == ((0, 3), (1, 2), (2, 1), (3, 0))
        guard = spectral.anchor_tolerance(2048)
        assert report.gap > guard and len(report.edge_errors) == 3
        assert max(report.edge_errors) <= guard
        assert report.cells == 512

    def test_grid_stability(self):
        t = validate(Case.GENERALIZED, 1, 2, 4)
        assert count_N2(t, 2048).n2 == count_N2(t, 4096).n2

    def test_lawson_count(self):
        report = count_N2(validate(Case.LAWSON, 2, 1), 2048)
        assert report.n2 == 4
        assert report.agree

    @pytest.mark.parametrize("case,params,l_max", [
        (Case.LAWSON, (4, 3), 6), (Case.LAWSON, (12, 5), 14), (Case.LAWSON, (15, 8), 18),
        (Case.LAWSON, (24, 7), 26), (Case.LAWSON, (21, 20), 30), (Case.LAWSON, (3, 1), 4),
        (Case.GENERALIZED, (5, 7, 13), 14),
    ])
    def test_count_runs_to_c(self, case, params, l_max):
        """NN's edge c stops the count: l = 0 .. c, the last l below c when c is irrational, so
        NN's stop is floor c + 1 (``l_max``), and one less at an integer c, that of a Pythagorean
        Lawson pair or a generalized triple, where E_c equals the edge and does not count."""
        t = validate(case, *params)
        report = count_N2(t, 2048)
        exact = math.isqrt(t.c_squared) ** 2 == t.c_squared
        assert max(report.stops.values()) == report.stops["NN"] == l_max - exact
        assert not exact or per_l_counts(report, t)[-1] == (l_max - 1, 0)
        assert report.n2 == report.j_closed

    @pytest.mark.parametrize("case,params", [(Case.LAWSON, (10**9, 1)),
                                             (Case.GENERALIZED, (1, 2, 10**12)),
                                             (Case.GENERALIZED, (1, 2, 2**64 - 1)),
                                             (Case.GENERALIZED, (1, 2, 2**64 + 1))])
    def test_count_at_a_huge_c_is_the_index(self, case, params):
        """The count is integer arithmetic on its stops, so c = 10^9 and 10^12 count as fast as
        c = 3 (a per-l array of c + 1 entries would take 7.45 GiB and 7.28 TiB), and past
        c = 2^63, where the length of a range of l overflowed."""
        t = validate(case, *params)
        report = count_N2(t, 2048)
        assert report.n2 == classify(t).j == report.j_closed
        assert report.stops["NN"] == math.isqrt(t.c_squared - 1) + 1

    def test_grid_preconditions(self):
        t = validate(Case.GENERALIZED, 0, 0, 1)
        with pytest.raises(ValueError, match=">= 256"):
            count_N2(t, 252)
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
        assert interlacing_check(validate(Case.GENERALIZED, 0, 0, 1), 1024).holds

    def test_equilateral(self):
        assert interlacing_check(validate(Case.GENERALIZED, 1, 1, 2), 1024).holds

    def test_subcase_ii_wide(self):
        assert interlacing_check(validate(Case.GENERALIZED, 1, 2, 4), 1024).holds

    @pytest.mark.parametrize("params", [(1, 2, 1500), (1, 4, 5000)])
    def test_high_frequency_triples(self, params):
        """The step lambda_i(l+1) - lambda_i(l) is about (2l + 1)/max P, below 1e-6 for
        c >~ 1415, yet the strict gaps at the anchors' frequencies stand far above the bar."""
        assert interlacing_check(validate(Case.GENERALIZED, *params), 2048).holds


@pytest.mark.parametrize("t", SUITE, ids=SUITE_IDS)
def test_assembled_diagonal_is_monotone_in_l(t, monkeypatch):
    """The premise of interlacing's theorem, in the matrices dpttrf factors, at every l up to one
    past c: the four sectors' diagonals agree but at an end whose conditions differ, where the D
    end's entry exceeds the N end's by 2 p / h^2 s^2 > 0 (p at the end face, s = w^(-1/2) in the
    end cell), and their couplings are equal and nonzero, so no sector matrix splits.  From l to
    l + 1 only the diagonal changes, and it rises: only the potential depends on l.  On the one
    grid of every symmetry (grid / 4 cells, h = 2 pi / grid), whose lists take their shares by the
    theorem."""
    lapack = spectral.lapack
    dpttrf, seen = lapack.dpttrf, []

    def recorded(d, e, **kwargs):
        seen.append((d.copy(), np.append(e, 0.0)))
        return dpttrf(d, e, **kwargs)

    monkeypatch.setattr(lapack, "dpttrf", recorded)
    l_max = math.isqrt(t.c_squared) + 1
    m = spectral._sector_cells(2048)
    h = math.pi / (2 * m)
    for l in range(l_max + 1):  # one dpttrf call factors the four sectors of an l
        spectral._factors(t, 2048, [(l, s) for s in spectral._ALL_SECTORS])
    assert len(seen) == l_max + 1
    p, _, w = sl_coefficients(t, 0, 0.5 * h * np.arange(2 * m + 1))  # faces even, centres odd
    rise = 2.0 * p[[0, -1]] / h**2 / w[[1, -2]]  # at y = 0 and at y = pi/2
    assert np.all(rise > 0.0)
    for d, e in seen:
        nn, nd, dn, dd = d.reshape(4, m)
        couplings = e.reshape(4, m)
        assert np.all(couplings[:, -1] == 0.0)  # between the sectors' blocks
        assert np.all(couplings[:, :-1] != 0.0)
        assert np.all(couplings[1:, :-1] == couplings[0, :-1])
        assert np.array_equal(nn[1:-1], nd[1:-1]) and np.array_equal(nn[1:-1], dn[1:-1])
        assert np.array_equal(nn[1:-1], dd[1:-1])
        assert nd[0] == nn[0] and dd[0] == dn[0] and dn[-1] == nn[-1] and dd[-1] == nd[-1]
        for upper, lower, end in ((dn, nn, 0), (dd, nd, 0), (nd, nn, -1), (dd, dn, -1)):
            assert upper[end] - lower[end] == pytest.approx(rise[end], rel=1e-12)
    for (d0, e0), (d1, e1) in zip(seen, seen[1:]):
        assert np.all(d1 >= d0) and np.array_equal(e1, e0)


def _beyond_suite():
    """8 seeded canonical generalized triples with 31 <= c <= 60 and 4 Lawson pairs with
    31 <= sqrt(a^2 + b^2) <= 60."""
    rng = random.Random(2048)
    generalized = [(a, b, c) for c in range(31, 61) for b in range(c) for a in range(b + 1)
                   if a * a + b * b < c * c and math.gcd(a, b, c) == 1]
    pairs = [(a, b) for a in range(1, 61) for b in range(1, a + 1)
             if 31 * 31 <= a * a + b * b <= 60 * 60 and math.gcd(a, b) == 1]
    return ([validate(Case.GENERALIZED, *abc) for abc in rng.sample(generalized, 8)]
            + [validate(Case.LAWSON, *ab) for ab in rng.sample(pairs, 4)])


BEYOND_SUITE = _beyond_suite()


def _assert_theorem_at_every_l(t, ls):
    """At every l of ``ls``, lambda_0..lambda_3 as the theorem forms them from each sector's
    share (:func:`_lambdas`) equal the lowest four of the union of the four sectors, each solved
    for 4, within the bar, and both strict gaps exceed the bar."""
    solve = functools.partial(spectral._sector_eigenvalues, t, 2048, tuple(ls))
    shares = solve(spectral._ALL_SECTORS, 4)
    alone = [[ev for ev, in solve((s,), 4)] for s in spectral._ALL_SECTORS]
    bar = interlacing_check(t, 2048).bar
    for spectra, *whole in zip(shares, *alone):
        ev = np.sort(np.concatenate(whole))[:4]
        lam, _ = spectral._lambdas(spectra)
        assert np.all(np.abs(np.array(lam) - ev) <= bar)
        assert lam[1] - lam[0] > bar and lam[3] - lam[2] > bar


@pytest.mark.parametrize("t", SUITE + BEYOND_SUITE,
                         ids=SUITE_IDS + [t.label() for t in BEYOND_SUITE])
def test_brackets_agree_with_every_l_sweep(t):
    """The theorem's brackets, lambda_0 = NN_0 < lambda_1 <= lambda_2 < lambda_3 =
    min(NN_1, DD_0), hold on a sweep of every l = 0..l_max: what the check reads at the anchors'
    frequencies holds at every l of the count's range and one past it, and the check passes."""
    t = spectral.canonicalize(t)
    _assert_theorem_at_every_l(t, range(math.isqrt(t.c_squared) + 2))
    assert interlacing_check(t, 2048).holds


@pytest.mark.parametrize("abc,l_max", [((5, 7, 13), 4), ((5, 7, 13), 6), ((5, 7, 13), 10),
                                       ((1, 2, 150), 100), ((2, 1), 2)])
def test_brackets_agree_with_every_l_sweep_below_the_anchors(abc, l_max):
    """On a sweep of l = 0..l_max, which ends below max(a, b, c), the theorem's brackets hold at
    frequencies the check, reading only the anchors', never solves: still its verdict."""
    t = spectral.canonicalize(validate(Case.LAWSON if len(abc) == 2 else Case.GENERALIZED, *abc))
    assert l_max < max(t.a, t.b, t.c_real)
    _assert_theorem_at_every_l(t, range(l_max + 1))
    assert interlacing_check(t, 2048).holds


@pytest.mark.parametrize("t", SUITE, ids=SUITE_IDS)
def test_interlacing_bar_is_the_rounding_of_a_difference(t):
    """The bar is gamma_28 G, u = 2^-53: two eigenvalues, each within the anchors' floor gamma_14 G,
    with G = 3 max p / (h^2 min w) + 2 l_max^2 / min P + 1 read off the coefficients, whose
    extremes lie at y = 0 and y = pi/2."""
    t = spectral.canonicalize(t)
    h, u = 2.0 * math.pi / 2048, 2.0**-53
    y = np.linspace(0.0, math.pi / 2, 4097)
    p, _, w = sl_coefficients(t, 0, y)
    P = coefficients(t).P(y)
    l_max = math.isqrt(t.c_squared) + 1
    G = 3.0 * p.max() / (h * h * w.min()) + 2.0 * l_max**2 / P.min() + 1
    report = interlacing_check(t, 2048)
    assert report.bar == pytest.approx(28 * u / (1 - 28 * u) * G, rel=1e-12)
    assert report.bar == pytest.approx(2.0 * anchor_check(t, 2048)[2], rel=1e-13)


@pytest.mark.parametrize("case,params", [(Case.GENERALIZED, (1, 2, 150)), (Case.LAWSON, (1000, 1))])
def test_interlacing_solves_only_the_anchors_frequencies(monkeypatch, case, params):
    """One request of 12 columns, c, max(a, b) and min(a, b) in the four sectors, each sector
    asked for its share: NN 2, ND, DN and DD 1.  The former brackets solved 594 frequencies at
    tau_(1000,1)."""
    t = spectral.canonicalize(validate(case, *params))
    factors, lanczos, columns, asked = spectral._factors, spectral._lanczos, [], []

    def factored(t, grid_n, cols):
        columns.append(list(cols))
        return factors(t, grid_n, cols)

    def recorded(where, ld, le, sigma, k, V):
        asked.append(k)
        return lanczos(where, ld, le, sigma, k, V)

    monkeypatch.setattr(spectral, "_factors", factored)
    monkeypatch.setattr(spectral, "_lanczos", recorded)
    report = interlacing_check(t, 2048)
    ls = (t.c_real, max(t.a, t.b), min(t.a, t.b))
    assert columns == [[(l, s) for l in ls for s in spectral._ALL_SECTORS]]
    assert asked == [2, 1, 1, 1] * 3
    assert report.holds and {l for _, l, *_ in report.gaps} <= set(ls)


def test_a_gap_below_the_bar_fails_with_its_record():
    """tau_(3000,1) at 2048: lambda_1 - lambda_0 at l = c, 7.4e-7 between NN_0 and the lower of
    ND_0 and DN_0, tunnelling between P's two wells, lies below the bar 3.0e-6."""
    t = validate(Case.LAWSON, 3000, 1)
    report = interlacing_check(t, 2048)
    (gap, l, upper, lower), _ = report.gaps
    assert not report.holds and report.margin > 1.0
    assert 7.0e-7 < gap < 7.8e-7 and 2.9e-6 < report.bar < 3.1e-6 and l == t.c_real
    assert lower == "NN_0" and upper in ("ND_0", "DN_0")


@pytest.mark.parametrize("abc,columns", [((5, 7, 13), 12), ((1, 1, 2), 8), ((0, 0, 1), 8)],
                         ids=["T_(5,7,13)", "T_(1,1,2)", "T_(0,0,1)"])
def test_checks_share_one_request_per_grid_in_either_order(monkeypatch, abc, columns):
    """From an empty memo, anchors then interlacing and interlacing then anchors each make one
    factoring call per grid, of the four sectors at each distinct anchor frequency: 12 columns
    for T_(5,7,13), 8 where max(a, b) = min(a, b).  Both orders give the same values."""
    t = validate(Case.GENERALIZED, *abc)
    factors, calls, results = spectral._factors, [], []

    def counted(t, grid_n, cols):
        calls.append((grid_n, len(cols)))
        return factors(t, grid_n, cols)

    monkeypatch.setattr(spectral, "_factors", counted)
    for order in ((anchor_check, interlacing_check), (interlacing_check, anchor_check)):
        spectral._sector_eigenvalues.cache_clear()
        calls.clear()
        results.append({(check.__name__, n): check(t, n) for n in (1024, 2048) for check in order})
        assert calls == [(1024, columns), (2048, columns)]
    assert results[0] == results[1]


@pytest.mark.parametrize("scale,holds,margin", [(10.0, True, 0.1), (1.0, False, 1.0),
                                                 (-1.0, False, None)])
def test_margin_is_the_bar_over_the_smaller_gap(monkeypatch, scale, holds, margin):
    """On stand-in rows of the memo whose smallest gap, lambda_1 - lambda_0 at l = 2, is 10, 1
    and -1 times the bar: the margin is bar / gap, below 1 only when the gap passes, and None when
    the gap is not positive (crossed eigenvalues, whose bar / gap would read as a pass)."""
    t = validate(Case.GENERALIZED, 1, 2, 3)
    bar, names = spectral._rounding(t, 2048, 28), ("NN_0", "DN_0", "ND_0", "NN_1")
    rows = ((3.0, (0.0, 1.0, 2.0, 3.0), names), (2, (0.0, scale * bar, 2.0, 3.0), names),
            (1, (0.0, 1.0, 2.0, 3.0), names))
    monkeypatch.setattr(spectral, "_table", lambda t, grid_n: rows)
    report = interlacing_check(t, 2048)
    assert report.gaps == ((scale * bar, 2, "DN_0", "NN_0"), (1.0, 1, "NN_1", "ND_0"))
    assert report.bar == bar and report.holds is holds
    assert report.margin == (None if margin is None else pytest.approx(margin, rel=1e-15))


@pytest.mark.parametrize("t", BEYOND_SUITE, ids=[t.label() for t in BEYOND_SUITE])
def test_count_above_the_census_range(t):
    """The count gives n2 = j for c > 30."""
    assert count_N2(t, 2048).agree
