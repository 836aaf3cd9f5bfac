"""Separated spectral problem of the induced metric, and its residual checks.

Separation of variables in the Laplace eigenvalue problem of the metric
g = P dx^2 + 2P/(Q + 2P) dy^2 with the ansatz phi(y) {sin, cos}(l x)
yields, for each frequency l, the periodic ODE

    (1 + Q/(2P)) phi'' + (P'/(2P)) phi' + (lambda - l^2/P) phi = 0.   (*)

Multiplying by -2P/sqrt(2P + Q) turns (*) into the self-adjoint pencil

    -(p phi')' + q phi = lambda w phi,
    p = sqrt(2P + Q),  q = 2 l^2 / sqrt(2P + Q),  w = 2P / sqrt(2P + Q),

an algebraically exact reduction (the integrating factor is
sqrt(2P + Q), since the first-order coefficient of (*) divided by the
second-order one is P'/(2P + Q) = (log sqrt(2P + Q))').  The pencil is
discretized in conservative flux form on a cell-centered grid against a
positive diagonal weight, so eigenvalues are real and variationally
ordered, which the counting logic requires.

p, q and w depend on y only through cos 2y, so they are even about
y = 0 and y = pi/2.  With both axes on cell faces (grid_n divisible by
4 on [0, 2 pi), by 2 on a pi-domain), each spectrum is exactly a union
of quarter-period sectors: symmetric tridiagonal problems on [0, pi/2]
named by their end conditions at 0 and pi/2, N (even reflection, zero
flux) or D (odd reflection, zero value):

    full-periodic    NN + ND + DN + DD      even-in-y    NN + ND
    pi-periodic      NN + DD                odd-in-y     DD + DN
    pi-antiperiodic  ND + DN

Sectors are solved by shift-invert Lanczos (ARPACK): Sturm bisection
(LAPACK stebz) was no faster on eigenvalue lists and less accurate at
fine grids (5.9e-8 against 1.6e-10, Clifford torus, l = 0, grid 131072).

Three eigenvalues equal 2 exactly in the continuum: the amplitude
profiles sin y, cos y, c3 sqrt(1 - k^2 sin^2 y) solve (*) with
lambda = 2 at l = a, b, c respectively, and oscillation counting places
them at lambda_1(max(a,b)), lambda_2(min(a,b)), lambda_0(c).  These
anchors calibrate the strict-inequality guard used when counting
eigenvalues below 2.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EigensolverError, IndeterminateCountError
from .surface import (
    Phi,
    Triple,
    canonicalize,
    coefficients,
    expected_symmetry,
    extremal_index,
    immersion,
)

__all__ = [
    "CountReport",
    "SLProblem",
    "SpectrumResult",
    "Symmetry",
    "anchor_check",
    "count_N2",
    "eq35_residual",
    "interlacing_check",
    "lame_residual",
    "sl_coefficients",
    "sl_problem",
    "sl_spectrum",
    "takahashi_residual",
]

_EIGSH_SEED = 20260808  # fixed Lanczos start vector: byte-stable spectra
_TABLE_COUNT = 8        # eigenvalues kept per (l, sector) for the verification checks


class Symmetry(enum.Enum):
    """Boundary condition / sector of the y-circle."""

    FULL_PERIODIC = "full-periodic"        # [0, 2 pi) cyclic
    EVEN_Y = "even-in-y"                   # [0, pi], zero flux at both ends
    ODD_Y = "odd-in-y"                     # [0, pi], zero value at both ends
    PI_PERIODIC = "pi-periodic"            # [0, pi) cyclic
    PI_ANTIPERIODIC = "pi-antiperiodic"    # [0, pi), sign-flipped wraparound

    @property
    def domain_length(self) -> float:
        return 2.0 * math.pi if self is Symmetry.FULL_PERIODIC else math.pi


# Quarter-period sectors: end condition at y = 0, then at y = pi/2.
_ALL_SECTORS = ("NN", "ND", "DN", "DD")
_SYMMETRY_SECTORS = {
    Symmetry.FULL_PERIODIC: _ALL_SECTORS,
    Symmetry.PI_PERIODIC: ("NN", "DD"),
    Symmetry.PI_ANTIPERIODIC: ("ND", "DN"),
    Symmetry.EVEN_Y: ("NN", "ND"),
    Symmetry.ODD_Y: ("DD", "DN"),
}


@dataclass(frozen=True)
class SLProblem:
    """One separated eigenvalue problem: triple, frequency, sector.

    ``l`` is an integer for spectra entering the eigenvalue count; real
    values are admitted so the boundary-case anchor at l = sqrt(a^2+b^2)
    can be evaluated directly.
    """

    triple: Triple
    l: float
    symmetry: Symmetry


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray  # ascending


def sl_coefficients(t: Triple, l: float, y: np.ndarray):
    """Self-adjoint coefficients (p, q, w) for frequency l at the points y.

    p = sqrt(2P + Q) > 0, q = 2 l^2 / sqrt(2P + Q) >= 0,
    w = 2P / sqrt(2P + Q) > 0; all pi-periodic and even in y.
    """
    if l < 0:
        raise ValueError(f"l must be non-negative, got {l}")
    co = coefficients(t)
    P = co.P(y)
    root = np.sqrt(2.0 * P + co.q)
    return root, 2.0 * (float(l) * float(l)) / root, 2.0 * P / root


def sl_problem(t: Triple, l: float, symmetry: Symmetry = Symmetry.FULL_PERIODIC) -> SLProblem:
    if l < 0:
        raise ValueError(f"l must be non-negative, got {l}")
    return SLProblem(triple=t, l=l, symmetry=symmetry)


def _sector_cells(grid_n: int, sym: Symmetry) -> int:
    parts = 4 if sym is Symmetry.FULL_PERIODIC else 2
    if grid_n < 256 or grid_n % parts:
        raise ValueError(
            f"grid_n must be >= 256 and divisible by {parts} on the {sym.value} domain "
            f"(y = pi/2 must be a cell face), got {grid_n}"
        )
    return grid_n // parts


def check_count_grid(grid_n: int) -> None:
    """The grid rule of :func:`count_N2`: divisible by 4, at least 2048 cells."""
    _sector_cells(grid_n, Symmetry.FULL_PERIODIC)
    if grid_n < 2048:
        raise ValueError(f"grid_n must be >= 2048, got {grid_n}")


def _sector_eigenvalues(problem: SLProblem, grid_n: int, sectors, k: int) -> list[np.ndarray]:
    """Lowest ``k`` eigenvalues, ascending, of each sector on [0, pi/2] at the cell width of
    ``grid_n`` cells on the problem's domain, by shift-invert at sigma = -1 < all of them."""
    from scipy.sparse import diags
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

    sym = problem.symmetry
    m = _sector_cells(grid_n, sym)
    if k >= m:
        raise ValueError(f"count must be smaller than the sector size {m}, got {k}")
    h = sym.domain_length / grid_n
    # Faces at even, cell centres at odd indices of the half-grid.
    p, q, w = sl_coefficients(problem.triple, problem.l, 0.5 * h * np.arange(2 * m + 1))
    pf = p[::2]
    main = (pf[:-1] + pf[1:]) / h**2 + q[1::2]
    s = 1.0 / np.sqrt(w[1::2])  # w^(-1/2) symmetrizes; sectors differ only in the two ends
    off = -pf[1:m] / h**2 * s[:-1] * s[1:]
    v0 = np.random.default_rng(_EIGSH_SEED).standard_normal(m)
    spectra = []
    for sector in sectors:
        d = main.copy()
        d[0] += (1.0 if sector[0] == "D" else -1.0) * pf[0] / h**2
        d[-1] += (1.0 if sector[1] == "D" else -1.0) * pf[m] / h**2
        B = diags([off, d * s * s, off], [-1, 0, 1], format="csc")
        try:
            ev = eigsh(B, k=k, sigma=-1.0, which="LM", v0=v0, return_eigenvectors=False)
        except (ArpackNoConvergence, ArpackError) as exc:
            raise EigensolverError(
                f"eigensolver failed to converge at grid_n={grid_n} "
                f"(l={problem.l}, {sym.value}, sector {sector})"
            ) from exc
        spectra.append(np.sort(ev))
    return spectra


def sl_spectrum(problem: SLProblem, grid_n: int, count: int = 8) -> SpectrumResult:
    """Lowest ``count`` eigenvalues of the discretized pencil, ascending:
    the merged quarter-period sectors of the problem's symmetry."""
    ev = _sector_eigenvalues(problem, grid_n, _SYMMETRY_SECTORS[problem.symmetry], count)
    return SpectrumResult(eigenvalues=np.sort(np.concatenate(ev))[:count])


# One table per (canonical triple, grid): the anchors, the count and the
# interlacing check read it, and a deep verification keeps grid_n and 2 grid_n.
@functools.lru_cache(maxsize=2)
def _table(t: Triple, grid_n: int) -> dict[tuple[float, str], np.ndarray]:
    return {}


def _sectors(t: Triple, grid_n: int, l: float, sectors=_ALL_SECTORS) -> list[np.ndarray]:
    """Lowest eigenvalues of the canonical triple's sectors at frequency l;
    each (l, sector) is solved once per grid."""
    table = _table(t, grid_n)
    missing = [s for s in sectors if (l, s) not in table]
    if missing:
        solved = _sector_eigenvalues(sl_problem(t, l), grid_n, missing, _TABLE_COUNT)
        table.update(((l, s), ev) for s, ev in zip(missing, solved))
    return [table[l, s] for s in sectors]


def _full(t: Triple, grid_n: int, l: float) -> np.ndarray:
    """The full periodic spectrum of ``_sectors``, ascending."""
    return np.sort(np.concatenate(_sectors(t, grid_n, l)))


def anchor_check(t: Triple, grid_n: int = 4096) -> tuple[float, float, float]:
    """Residuals of the three exact-2 eigenvalues in full periodic spectra:

        |lambda_0(c) - 2|, |lambda_1(max(a,b)) - 2|, |lambda_2(min(a,b)) - 2|.

    Zero entries of the triple read their anchor at l = 0 at the same
    index; the boundary case reads lambda_0 at the real frequency
    c = sqrt(a^2 + b^2).  All three shrink at second order in the mesh.
    The spectra are those of the canonical triple; ``grid_n`` must be
    divisible by 4.
    """
    t = canonicalize(t)
    r0 = abs(_full(t, grid_n, t.c_real)[0] - 2.0)
    r1 = abs(_full(t, grid_n, max(t.a, t.b))[1] - 2.0)
    r2 = abs(_full(t, grid_n, min(t.a, t.b))[2] - 2.0)
    return float(r0), float(r1), float(r2)


def _profile(which: int, amp: float, k2: float, y: np.ndarray):
    """(phi, phi', phi'') of ``amp`` times the profile selected by ``which``:
    1: sin y, 2: cos y, 3: sqrt(1 - k^2 sin^2 y)."""
    s, c = np.sin(y), np.cos(y)
    if which == 1:
        return amp * s, amp * c, -amp * s
    if which == 2:
        return amp * c, -amp * s, -amp * c
    u = np.sqrt(1.0 - k2 * s * s)
    d2 = -amp * k2 * (np.cos(2.0 * y) * u * u + k2 * s * s * c * c) / u**3
    return amp * u, -amp * k2 * s * c / u, d2


def eq35_residual(t: Triple, which: int) -> float:
    """Residual of the separated ODE at lambda = 2 for one amplitude profile.

    Substitutes, with analytic derivatives, the profile selected by
    ``which`` (1: c1 sin y, 2: c2 cos y, 3: c3 sqrt(1 - k^2 sin^2 y)) at
    its own frequency (l = a, b, c) and returns max |residual| over a
    1024-point grid.  This identity is the machine-checkable statement
    that all six immersion components are eigenfunctions with eigenvalue
    2, i.e. that the surface is minimal in the unit sphere.
    """
    if which not in (1, 2, 3):
        raise ValueError(f"which must be 1, 2 or 3, got {which}")
    co = coefficients(t)
    if which == 3 and co.c3_sq == 0.0:
        return 0.0  # boundary case: the third profile vanishes identically
    amp, l2 = ((co.c1, co.a_sq), (co.c2, co.b_sq), (co.c3, co.c_sq))[which - 1]
    y = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    phi, dphi, d2phi = _profile(which, amp, co.k2, y)
    p = co.P(y)
    res = (1.0 + co.q / (2.0 * p)) * d2phi + co.P_prime(y) / (2.0 * p) * dphi
    res += (2.0 - float(l2) / p) * phi
    return float(np.max(np.abs(res)))


def lame_residual(k2: float, h_index: int) -> float:
    """Residual of the degree-one trigonometric Lame equation

        (1 - k^2 sin^2 y) phi'' - k^2 sin y cos y phi' + (h - 2 k^2 sin^2 y) phi = 0

    for its three classical solutions, selected by ``h_index``:
    0: sqrt(1 - k^2 sin^2 y) at h = k^2; 1: cos y at h = 1;
    2: sin y at h = 1 + k^2.  Max |residual| over a 1024-point grid.
    """
    if h_index not in (0, 1, 2):
        raise ValueError(f"h_index must be 0, 1 or 2, got {h_index}")
    if not k2 < 1.0:
        raise ValueError(f"k^2 must be < 1, got {k2!r}")
    y = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    s, c = np.sin(y), np.cos(y)
    phi, dphi, d2phi = _profile(3 - h_index, 1.0, k2, y)
    h = (k2, 1.0, 1.0 + k2)[h_index]
    res = (1.0 - k2 * s * s) * d2phi - k2 * s * c * dphi + (h - 2.0 * k2 * s * s) * phi
    return float(np.max(np.abs(res)))


def takahashi_residual(t: Triple, grid_n: int = 256) -> float:
    """max |Delta_h F^i - 2 F^i| over a periodic grid_n x grid_n grid.

    Assembles the Laplace-Beltrami operator of the induced metric in
    coordinates (five-point stencil, conservative flux form in y) and
    applies it to all six immersion components.  The continuum identity
    Delta F = 2 F is exact, so the residual is pure second-order
    truncation error: it drops by a factor of about 4 per mesh doubling.
    """
    if grid_n < 128:
        raise ValueError(f"grid_n must be >= 128, got {grid_n}")
    co = coefficients(t)
    h = 2.0 * math.pi / grid_n
    x = h * np.arange(grid_n)
    y = h * np.arange(grid_n)
    xg, yg = np.meshgrid(x, y, indexing="ij")
    F = immersion(t, xg, yg)

    p_nodes = co.P(y)
    p_plus = co.P(y + 0.5 * h)
    t_coef = np.sqrt(2.0 / (co.q + 2.0 * p_nodes))       # sqrt(g) g^xx
    s_plus = np.sqrt((co.q + 2.0 * p_plus) / 2.0)        # sqrt(g) g^yy at upper faces
    s_minus = np.roll(s_plus, 1)
    inv_sqrt_g = np.sqrt((co.q + 2.0 * p_nodes) / 2.0) / p_nodes

    d2x = (np.roll(F, -1, axis=1) - 2.0 * F + np.roll(F, 1, axis=1)) / h**2
    flux_y = (
        s_plus[None, None, :] * (np.roll(F, -1, axis=2) - F)
        - s_minus[None, None, :] * (F - np.roll(F, 1, axis=2))
    ) / h**2
    lap = -inv_sqrt_g[None, None, :] * (t_coef[None, None, :] * d2x + flux_y)
    return float(np.max(np.abs(lap - 2.0 * F)))


@dataclass(frozen=True)
class CountReport:
    """Outcome of the independent eigenvalue count N(2)."""

    n2: int
    per_l_counts: tuple[tuple[int, int], ...]
    epsilon: float
    j_closed: int
    agree: bool
    lambda0_beyond: float  # lambda_0 at the first frequency past the cutoff; > 2


# Sectors counted at even and odd l.  A degree-2 surface admits only the
# phi(y) {sin, cos}(l x) invariant under its half-period map; x -> x + pi
# gives (-1)^l, so phi has parity (-1)^l under the map's action on y.
_COUNT_SECTORS = {
    None: (_ALL_SECTORS, _ALL_SECTORS),
    Phi.PHI1: (("NN", "DN"), ("ND", "DD")),  # y -> pi - y: reflection about pi/2
    Phi.PHI2: (("NN", "ND"), ("DD", "DN")),  # y -> -y: reflection about 0
    Phi.PHI3: (("NN", "DD"), ("ND", "DN")),  # y -> y + pi: pi-(anti)periodic
}


def count_N2(t: Triple, grid_n: int = 2048) -> CountReport:
    """Count Laplace eigenvalues below 2 and compare with the closed-form index.

    N(2) = #{lambda_i(0) < 2} + 2 sum_{l >= 1} #{lambda_i(l) < 2} over the
    sector-filtered separated spectra (each l >= 1 profile yields the two
    eigenfunctions phi sin(lx), phi cos(lx)).  The sum stops at l = c:
    lambda_0 is strictly increasing in l and equals 2 at l = c, which the
    report re-verifies by checking lambda_0 past the cutoff.

    Counting is strict below 2 - epsilon with the guard epsilon
    calibrated at 10x the worst measured anchor residual (floor 1e-6),
    so the three continuum-exact eigenvalues straddling 2 under
    discretization are never miscounted.  A spectrum value inside the
    guard window at a frequency where no anchor lives raises
    :class:`IndeterminateCountError`.
    """
    check_count_grid(grid_n)
    t = canonicalize(t)
    j_closed, _, _ = extremal_index(t)
    by_parity = _COUNT_SECTORS[expected_symmetry(t)]

    residuals = anchor_check(t, grid_n)
    eps = max(10.0 * max(residuals), 1e-6)

    c_real = t.c_real
    l_stop = int(math.floor(c_real + 1e-9))
    anchor_freqs = {t.a, t.b}
    if abs(c_real - round(c_real)) < 1e-12:
        anchor_freqs.add(int(round(c_real)))

    total = 0
    per_l = []
    for l in range(l_stop + 1):
        sectors = _sectors(t, grid_n, l, by_parity[l % 2])
        if any(ev[-1] <= 2.0 + eps for ev in sectors):
            raise EigensolverError(
                f"{_TABLE_COUNT} eigenvalues per sector do not bracket 2 at l={l}, grid_n={grid_n}"
            )
        ev = np.sort(np.concatenate(sectors))
        cnt = int(np.sum(ev < 2.0 - eps))
        in_window = ev[(ev >= 2.0 - eps) & (ev <= 2.0 + eps)]
        if in_window.size and l not in anchor_freqs:
            raise IndeterminateCountError(
                f"indeterminate count; refine grid (eigenvalue {in_window[0]:.9f} "
                f"within {eps:.2e} of 2 at non-anchor l={l}, grid_n={grid_n})"
            )
        per_l.append((l, cnt))
        total += cnt if l == 0 else 2 * cnt

    beyond = float(_full(t, grid_n, l_stop + 1)[0])
    if beyond <= 2.0:
        raise IndeterminateCountError(
            f"indeterminate count; refine grid (lambda_0({l_stop + 1}) = {beyond:.9f} "
            "did not clear the cutoff bound 2)"
        )
    return CountReport(
        n2=total,
        per_l_counts=tuple(per_l),
        epsilon=eps,
        j_closed=j_closed,
        agree=total == j_closed,
        lambda0_beyond=beyond,
    )


def interlacing_check(t: Triple, grid_n: int = 2048, l_max: int | None = None,
                      tol: float = 1e-6) -> bool:
    """Numerically confirm the two oscillation-theory eigenvalue orderings.

    Within each full periodic spectrum: lambda_0 < lambda_1 <= lambda_2
    < lambda_3 <= lambda_4; across frequencies, lambda_i(l) is strictly
    increasing in l for i <= 3.  Strict inequalities are required to hold
    with margin ``tol``; the possibly-degenerate pairs only up to -tol.
    ``grid_n`` must be divisible by 4.
    """
    t = canonicalize(t)
    if l_max is None:
        l_max = int(math.floor(t.c_real)) + 1
    spectra = [_full(t, grid_n, l) for l in range(l_max + 1)]
    for ev in spectra:
        strict = (ev[1] - ev[0] > tol) and (ev[3] - ev[2] > tol)
        loose = (ev[2] - ev[1] > -tol) and (ev[4] - ev[3] > -tol)
        if not (strict and loose):
            return False
    for i in range(4):
        for l in range(l_max):
            if not spectra[l + 1][i] - spectra[l][i] > tol:
                return False
    return True
