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
ordered, which the Weyl bounds of the checks require.

p, q and w depend on y only through cos 2y, so they are even about
y = 0 and y = pi/2.  With both axes on cell faces (grid_n at least 256
and divisible by 4 on [0, 2 pi), by 2 on a pi-domain), each spectrum is
exactly a union of quarter-period sectors: symmetric tridiagonal problems
on [0, pi/2] named by their end conditions at 0 and pi/2, N (even
reflection, zero flux) or D (odd reflection, zero value), all from one
stencil (:func:`_stencil`):

    full-periodic    NN + ND + DN + DD      even-in-y    NN + ND
    pi-periodic      NN + DD                odd-in-y     DD + DN
    pi-antiperiodic  ND + DN

Each (l, sector) is factored as B - sigma I = L D L^T (LAPACK dpttrf), in place and all of a
request's sectors in one call: their block-diagonal matrix has zero couplings, so each factor is
bit for bit its own.  Only the potential q is formed per l, the rest of B once per request: the
columns a list or a verification's spectra at one grid lack, which share one Lanczos basis and
start vector.  sigma + 1 is the floor l^2 / max P of B rounded down to a multiple of 16, so the
wanted eigenvalues sit within a few times l + 16 of sigma at any l.  Lanczos on
(B - sigma I)^-1 over the factor (dpttrs, dstev; stopped by a gap bound; each step
reorthogonalized against the recurrence's two vectors, then once against the whole basis,
which each thread keeps and reuses for lists of up to 8) gives the eigenvalues the checks read,
the lowest 4 of the union, memoized per (triple, grid) and l, each rising in l by at least the
Weyl bound that brackets interlacing; each sector is asked only for its share of a list.  The minimality residual is separable, O(grid_n).

The count N(2) needs no y-grid.  With A = min(a, b), B = max(a, b), y taken from pi/2 when
a > b and v = F(y | k^2), k^2 = (B^2 - A^2) / (c^2 - A^2), the metric is conformally flat,
g = P (dx^2 + dv^2 / (c^2 - A^2)), so by min-max the lambda_i(l) < 2 are as many as the
eigenvalues below E_l = (c^2 + B^2 - A^2 - l^2) / (c^2 - A^2) of one operator for every l, the
degree-one Lame operator L = -d^2/dv^2 + 2 k^2 sn^2(v | k^2) (Whittaker & Watson, *Modern
Analysis*, sec. 23.7; Ince, *Proc. R. Soc. Edinb.* 60, 1940).  Its edges k^2, 1, 1 + k^2 (dn, cn,
sn: the profiles f3, f2, f1) lead its sectors NN, ND, DN on [0, K], and E_l minus an edge is
(l_edge^2 - l^2) / (c^2 - A^2), l_edge = c, B, A: an edge counts in integers.  :func:`count_N2`
checks that nothing else lies below max E_l.  The six compiled routines (dpttrf, dpttrs, dstev,
dstebz; dgemv, dnrm2) come from scipy.linalg's extensions _flapack and _fblas, loaded straight
from their files on first use (:mod:`lawson._lazy`): scipy's package imports never run.

Three eigenvalues equal 2 exactly in the continuum: the amplitude
profiles sin y, cos y, c3 sqrt(1 - k^2 sin^2 y) solve (*) with
lambda = 2 at l = a, b, c respectively, and oscillation counting places
them at lambda_1(max(a,b)), lambda_2(min(a,b)), lambda_0(c).  Their
residuals on the grid are bounded by :func:`anchor_tolerance`, and their
rounding by :func:`anchor_floor`.
"""

from __future__ import annotations

import enum
import functools
import math
import mmap
import sys
import threading
from dataclasses import dataclass

from ._lazy import blas, lapack, np
from .elliptic import _agm
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
    "lame_bound",
    "lame_residual",
    "sl_coefficients",
    "sl_problem",
    "sl_spectrum",
    "takahashi_residual",
]

_START_SEED = 20260808  # fixed Lanczos start vector: byte-stable spectra
_TABLE_COUNT = 4        # of the union per l: interlacing reads up to lambda_3
INTERLACING_TOL = 1e-6  # margin of the strict oscillation gaps


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

    ``l >= 0`` is an integer for spectra entering the eigenvalue count;
    real values are admitted so the boundary-case anchor at
    l = sqrt(a^2+b^2) can be evaluated directly.
    """

    triple: Triple
    l: float
    symmetry: Symmetry = Symmetry.FULL_PERIODIC

    def __post_init__(self):
        if self.l < 0:
            raise ValueError(f"l must be non-negative, got {self.l}")


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
    root, w = _flux_and_weight(t, y)
    return root, _potential(l, root), w


def _flux_and_weight(t: Triple, y: np.ndarray):
    """(p, w) of :func:`sl_coefficients`: the coefficients that do not depend on l."""
    co = coefficients(t)
    P = co.P(y)
    root = np.sqrt(2.0 * P + co.q)
    return root, 2.0 * P / root


def _potential(l: float, root: np.ndarray) -> np.ndarray:
    """q = 2 l^2 / root, root = sqrt(2P + Q): the one coefficient that depends on l."""
    return 2.0 * (float(l) * float(l)) / root


sl_problem = SLProblem  # sl_problem(t, l[, symmetry]), full-periodic by default


def _sector_cells(grid_n: int, sym: Symmetry) -> int:
    parts = 4 if sym is Symmetry.FULL_PERIODIC else 2
    if grid_n < 256 or grid_n % parts:
        raise ValueError(
            f"grid_n must be >= 256 and divisible by {parts} on the {sym.value} domain "
            f"(y = pi/2 must be a cell face), got {grid_n}"
        )
    return grid_n // parts


def _where(grid_n: int, sym: Symmetry, l: float, sector: str) -> str:
    return f"grid_n={grid_n} (l={l}, {sym.value}, sector {sector})"


def _stencil(d: np.ndarray, e: np.ndarray, pf: np.ndarray, s: np.ndarray, h: float, sectors):
    """Add to each sector's row of ``d`` (its potential) the cell-centred stencil of -(p phi')',
    p = ``pf`` at the faces, an N end reflecting evenly (no flux) and a D end oddly (twice it); its
    couplings go to ``e[:, :-1]``; both are scaled by ``s`` = w^(-1/2) on each side."""
    ends = np.array([[1.0 if end == "D" else -1.0 for end in sector] for sector in sectors])
    d += (pf[:-1] + pf[1:]) / h**2
    d[:, [0, -1]] += ends * pf[[0, -1]] / h**2
    d *= s
    d *= s
    e[:, :-1] = -pf[1:-1] / h**2 * s[:-1] * s[1:]


def _factors(t: Triple, sym: Symmetry, grid_n: int, columns):
    """``(F, sigma)`` for the ``(l, sector)`` columns on [0, pi/2], cells as wide as ``grid_n`` on
    the domain: dpttrf's B - sigma I = L D L^T of column i has pivots ``F[0, i]`` and the
    subdiagonal of L in ``F[1, i, :-1]``, B the w^(-1/2)-symmetrized matrix.  sigma + 1 is B's
    floor min q/w = l^2 / max P rounded down to a multiple of 16 (0 at l <= c + 1, as
    max P >= c^2 / 2): an exact shift of B + I.  One dpttrf call factors the block-diagonal
    matrix of all columns in place: its zero couplings leave each block's factor bit for bit that
    of its own call."""
    m = _sector_cells(grid_n, sym)
    h = sym.domain_length / grid_n
    # Only q depends on l: the rest is built once.  Faces at even, cell centres at odd indices.
    p, w = _flux_and_weight(t, 0.5 * h * np.arange(2 * m + 1))
    pf, root, w = p[::2], p[1::2], w[1::2]
    ls = np.array([float(l) for l, _ in columns])
    F = np.zeros((2, len(columns), m))
    d, e = F
    np.divide((2.0 * (ls * ls))[:, None], root, out=d)  # q, as _potential(l, root) gives it
    shift = 16.0 * np.floor(np.min(d / w, axis=1) / 16.0)
    _stencil(d, e, pf, 1.0 / np.sqrt(w), h, [sector for _, sector in columns])
    d += 1.0
    d -= shift[:, None]
    info = lapack.dpttrf(d.reshape(-1), e.reshape(-1)[:-1], overwrite_d=1, overwrite_e=1)[2]
    if info:
        l, sector = columns[(info - 1) // m]
        raise EigensolverError(
            f"B - sigma I is not positive definite at {_where(grid_n, sym, l, sector)}")
    return F, shift - 1.0


def _lanczos(where: str, ld: np.ndarray, le: np.ndarray, sigma: float, k: int,
             V: np.ndarray) -> np.ndarray:
    """The ``k`` lowest eigenvalues of a sector's B from the factor of B - sigma I: Lanczos on
    (B - sigma I)^-1 from the unit ``V[0]``, Ritz values theta of T_s by dstev.  Each step makes
    two classical Gram-Schmidt passes, the first against the recurrence's two vectors, where the
    large components of the new vector lie, the second against the whole basis: a step reads the
    basis twice.  Twice is enough once the large components are gone (Giraud, Langou & Rozloznik,
    *Comput. Math. Appl.* 50, 2005; Parlett, *The Symmetric Eigenvalue Problem*, ch. 6); measured,
    the full pass removes at most 3.3e-12 of what the local one leaves (median 8.5e-15) over
    52,324 steps of lists at grids 16384-131072 and deep verifications at 2048, so no third pass
    is made.  A theta with residual r and distance g to the nearest other passes at
    r^2 < eps theta (g - r), never at g <= r: its error bound r^2 / (g - r) (Parlett, ch. 11) is
    then below eps theta, sound while eigenvalues stand apart, as in a sector (one well,
    separated ends).  The rows of ``V`` hold the basis and cap the steps; tests run from step 12,
    thin out past 32 (dstev is O(s^3)), end at m steps.  alpha, beta and both tests run on Python
    floats: the IEEE operations of numpy scalars, at less overhead per step."""
    # Positional, as f2py parses them faster than keywords: dpttrs(d, e, b, overwrite_b) and
    # dgemv(alpha, a, x, beta, y, offx, incx, offy, incy, trans[, overwrite_y]).
    dpttrs, dgemv, dnrm2 = lapack.dpttrs, blas.dgemv, blas.dnrm2
    steps, m = V.shape[0] - 1, len(ld)
    alpha, beta = np.empty(steps), np.empty(steps)
    eps = sys.float_info.epsilon
    tol = math.sqrt(eps)
    for s in range(1, steps + 1):
        v = V[s]  # op v_(s-1) is solved into the next row, orthogonalized, normalized
        v[:] = V[s - 1]
        dpttrs(ld, le, v, 1)
        size, a = dnrm2(v), 0.0
        for basis in (V[max(0, s - 2):s].T, V[:s].T):  # the recurrence's two rows, then all
            h = dgemv(1.0, basis, v, 0.0, None, 0, 1, 0, 1, 1)  # basis^T v
            dgemv(-1.0, basis, h, 1.0, v, 0, 1, 0, 1, 0, 1)  # v - basis h, in place
            a += float(h[-1])
        alpha[s - 1] = a
        beta[s - 1] = b = dnrm2(v)
        if s < m and b <= tol * size:
            raise EigensolverError(f"Lanczos broke down after {s} steps at {where}")
        if s == steps or (s >= max(k, 12) and s % (1 + s // 32) == 0):
            theta, z, _ = lapack.dstev(alpha[:s], beta[:s - 1])
            th, zs = [-math.inf, *theta.tolist(), math.inf], z[-1, -k:].tolist()
            tests = ((b * abs(zi), min(th[i] - th[i - 1], th[i + 1] - th[i]), th[i])  # r, g, theta
                     for i, zi in zip(range(s + 1 - len(zs), s + 1), zs))
            if s == m or all(r * r < eps * theta_i * (g - r) for r, g, theta_i in tests):
                return sigma + 1.0 / theta[-k:]
        v /= b
    raise EigensolverError(f"Lanczos did not converge within {steps} steps at {where}")


_THREAD = threading.local()
_KEPT_ROWS = 8 * 8 + 64 + 1  # the rows of a list of 8, sl_spectrum's default


def _basis(rows: int, m: int) -> np.ndarray:
    """A ``(rows, m)`` basis: the prefix of an anonymous private (copy-on-write) mapping, whose
    pages are mapped on first touch, 4 KB at a time.  :func:`_lanczos` writes each row before it
    reads it, so what an earlier request left there is never seen.  Up to :data:`_KEPT_ROWS` rows
    it is this thread's mapping, replaced only when it holds fewer than ``rows * m`` doubles; its
    rows once touched stay resident, 4.1 MB after T_(5,7,13)'s list of 8 at l = 7, grid 131072.
    A longer list maps its own, which dies with its request: kept, a list of 60 at l = 1000 there
    would leave 13.9 MB.  Private, so a child made by fork writes its own copy of the pages."""
    size = 8 * rows * m
    memory = getattr(_THREAD, "basis", None)
    if rows > _KEPT_ROWS:
        memory = mmap.mmap(-1, size, access=mmap.ACCESS_COPY)
    elif memory is None or len(memory) < size:
        memory = _THREAD.basis = mmap.mmap(-1, size, access=mmap.ACCESS_COPY)
    return np.frombuffer(memory, dtype=float, count=rows * m).reshape(rows, m)


def _sector_eigenvalues(t: Triple, sym: Symmetry, grid_n: int, ls, sectors, count: int) -> list:
    """The lowest ``count`` eigenvalues of the union of the sectors, ascending, at each l of ``ls``:
    :func:`_lanczos` from one basis, this thread's (:func:`_basis`), and one start vector on one
    :func:`_factors` call's columns.  At each l every sector is first asked for
    ceil(count / sectors) + 1.  Let v be the count-th of the merge: a sector whose largest
    computed eigenvalue is >= v has no uncomputed one below v, so only a sector whose largest is
    < v is solved again for ``count``."""
    m = _sector_cells(grid_n, sym)
    if not 1 <= count < m:
        raise ValueError(f"count must be >= 1 and smaller than the sector size {m}, got {count}")
    columns = [(l, sector) for l in ls for sector in sectors]
    (d, e), sigma = _factors(t, sym, grid_n, columns)
    factors = [(_where(grid_n, sym, l, sector), d[i], e[i, :-1], sigma[i])
               for i, (l, sector) in enumerate(columns)]
    # The steps grow with count, not l: measured <= 4 count + 8 for l <= 10^7.
    rows = min(m, 8 * count + 64) + 1
    V = _basis(rows, m)
    V[0] = np.random.default_rng(_START_SEED).standard_normal(m)  # the start of every column
    V[0] /= blas.dnrm2(V[0])
    k = min(count, -(-count // len(sectors)) + 1)
    lists = []
    for i in range(0, len(factors), len(sectors)):
        at_l = factors[i:i + len(sectors)]
        spectra = [_lanczos(*f, k, V) for f in at_l]
        v = np.sort(np.concatenate(spectra))[count - 1]
        spectra = [_lanczos(*f, count, V) if k < count and ev.max() < v else ev
                   for f, ev in zip(at_l, spectra)]
        lists.append(np.sort(np.concatenate(spectra))[:count])
    return lists


def sl_spectrum(problem: SLProblem, grid_n: int, count: int = 8) -> SpectrumResult:
    """Lowest ``count`` eigenvalues of the discretized pencil, ascending: the merged
    quarter-period sectors of the problem's symmetry.  ``count`` must be at least 1 and
    below the sector size."""
    ev, = _sector_eigenvalues(problem.triple, problem.symmetry, grid_n, [problem.l],
                              _SYMMETRY_SECTORS[problem.symmetry], count)
    return SpectrumResult(eigenvalues=ev)


@functools.lru_cache(maxsize=128)
def _full(t: Triple, grid_n: int) -> dict:
    """Memo of the canonical triple's full periodic lambda_0..lambda_3 at ``grid_n`` by l, as
    :func:`_table` solves them: only these arrays.  No factor outlives its request; the Lanczos
    basis of a list of up to 8 stays with its thread (:func:`_basis`)."""
    return {}


def _table(t: Triple, grid_n: int, ls) -> dict:
    """:func:`_full` of ``t`` at ``grid_n`` once one request has solved the l of ``ls`` it lacks."""
    table = _full(t, grid_n)
    missing = [l for l in dict.fromkeys(ls) if l not in table]
    if missing:
        table.update(zip(missing, _sector_eigenvalues(t, Symmetry.FULL_PERIODIC, grid_n, missing,
                                                      _ALL_SECTORS, _TABLE_COUNT)))
    return table


def anchor_check(t: Triple, grid_n: int = 4096) -> tuple[float, float, float]:
    """Residuals of the three exact-2 eigenvalues in full periodic spectra:

        |lambda_0(c) - 2|, |lambda_1(max(a,b)) - 2|, |lambda_2(min(a,b)) - 2|.

    Zero entries of the triple read their anchor at l = 0 at the same index; the boundary case
    reads lambda_0 at the real frequency c = sqrt(a^2 + b^2).  All three shrink at second order in
    the mesh down to the rounding floor :func:`anchor_floor`, below which a residual measures no
    order.  The spectra are those of the canonical triple, from :func:`_table` (in a
    verification, interlacing has solved them); ``grid_n`` must be divisible by 4.
    """
    t = canonicalize(t)
    ls = t.c_real, max(t.a, t.b), min(t.a, t.b)
    ev = _table(t, grid_n, ls)
    return tuple(float(abs(ev[l][i] - 2.0)) for i, l in enumerate(ls))


def _profile(which: int, amp: float, k2: float, y: np.ndarray):
    """``(sin y, cos y, (phi, phi', phi''))`` of ``amp`` times the profile selected by ``which``:
    1: sin y, 2: cos y, 3: sqrt(1 - k^2 sin^2 y)."""
    s, c = np.sin(y), np.cos(y)
    if which == 1:
        return s, c, (amp * s, amp * c, -amp * s)
    if which == 2:
        return s, c, (amp * c, -amp * s, -amp * c)
    u = np.sqrt(1.0 - k2 * s * s)
    d2 = -amp * k2 * (np.cos(2.0 * y) * u * u + k2 * s * s * c * c) / u**3
    return s, c, (amp * u, -amp * k2 * s * c / u, d2)


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
    amp, l2 = ((co.c1, co.a_sq), (co.c2, co.b_sq), (co.c3, co.c_sq))[which - 1]
    y = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    _, _, (phi, dphi, d2phi) = _profile(which, amp, co.k2, y)
    p = co.P(y)
    res = (1.0 + co.q / (2.0 * p)) * d2phi + co.P_prime(y) / (2.0 * p) * dphi
    res += (2.0 - float(l2) / p) * phi
    return float(np.max(np.abs(res)))


@functools.lru_cache(maxsize=3)
def _lame_terms(k2: float, h_index: int):
    """The Lame residual of one solution on the 1024-point grid, and its sum of |terms| there:
    read-only and kept for the last three (k^2, h_index), which :func:`lame_residual` and
    :func:`lame_bound` of one k^2 share."""
    if h_index not in (0, 1, 2):
        raise ValueError(f"h_index must be 0, 1 or 2, got {h_index}")
    if not k2 < 1.0:
        raise ValueError(f"k^2 must be < 1, got {k2!r}")
    y = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    s, c, (phi, dphi, d2phi) = _profile(3 - h_index, 1.0, k2, y)
    h = (k2, 1.0, 1.0 + k2)[h_index]
    res = (1.0 - k2 * s * s) * d2phi - k2 * s * c * dphi + (h - 2.0 * k2 * s * s) * phi
    size = abs(k2)
    if h_index == 0:  # dn's phi'' = -k^2 (cos 2y u^2 + k^2 s^2 c^2) / u^3 holds a sum of its own
        d2phi = size * (np.abs(np.cos(2.0 * y)) * phi * phi + size * s * s * c * c) / phi**3
    terms = ((1.0 + size * s * s) * np.abs(d2phi) + np.abs(k2 * s * c * dphi)
             + (abs(h) + 2.0 * size * s * s) * np.abs(phi))
    res.flags.writeable = terms.flags.writeable = False
    return res, terms


def lame_residual(k2: float, h_index: int) -> float:
    """Residual of the degree-one trigonometric Lame equation

        (1 - k^2 sin^2 y) phi'' - k^2 sin y cos y phi' + (h - 2 k^2 sin^2 y) phi = 0

    for its three classical solutions, selected by ``h_index``:
    0: sqrt(1 - k^2 sin^2 y) at h = k^2; 1: cos y at h = 1;
    2: sin y at h = 1 + k^2.  Max |residual| over a 1024-point grid.
    """
    return float(np.max(np.abs(_lame_terms(k2, h_index)[0])))


def lame_bound(k2: float) -> float:
    """gamma_36 max sum |terms| of :func:`lame_residual` at ``k2`` over the grid and the three
    solutions: the exact residual is 0, so the computed one is rounding error (Higham, *Accuracy
    and Stability of Numerical Algorithms*, sec. 3.1, 3.3).  Its terms are the monomials in k^2,
    h, s = sin y, c = cos y, cos 2y and u^(+-1) (u = dn); sum |terms| evaluates it on absolute
    values, each difference a sum.  A term meets at most 36 relative errors of eps / 2: 15
    roundings (dn's (1 - k^2 s^2) phi''), 2 for each of up to six s, c, cos 2y (one ulp each), and
    9 from u, which enters dn's residual only as ((1 - k^2 s^2) - u^2) phi'', so it carries the
    error of 1 - k^2 s^2, within gamma_9 (1 + |k^2| s^2) (:func:`_gamma`): C = gamma_36 / eps,
    about 18.  Measured: residual <= 1.1 eps max sum |terms| for k^2 in [-1e4, 1 - 1e-10]."""
    return _gamma(36) * max(float(np.max(_lame_terms(k2, i)[1])) for i in (0, 1, 2))


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u = eps / 2, bounds n compounded roundings (Higham, *Accuracy
    and Stability of Numerical Algorithms*, sec. 3.1)."""
    u = sys.float_info.epsilon / 2
    return n * u / (1 - n * u)


def takahashi_residual(t: Triple, grid_n: int = 256) -> float:
    """max |Delta_h F^i - 2 F^i| over a periodic grid_n x grid_n grid.

    The Laplace-Beltrami operator -(1/P) d_xx - (1/w) d_y p d_y (five-point
    stencil, flux form in y) acts on the immersion components trig(l x) f(y),
    l in {a, b, c}, with f3 = 0 where c is not an integer.  The periodic
    x-difference of trig(l x) is exactly -L^2 trig(l x), L = 2 sin(l h/2)/h,
    so a residual is trig(l x) R_l(y), R_l = (-(p f')' + q f)/w - 2 f the
    pencil residual at frequency L, with grid maximum max |R_l| (cos = 1 at
    x = 0): O(grid_n).  Delta F = 2 F is exact in the continuum, so the
    residual is second-order truncation error, about 4x less per doubling.
    """
    if grid_n < 128:
        raise ValueError(f"grid_n must be >= 128, got {grid_n}")
    h = 2.0 * math.pi / grid_n
    y = 0.5 * h * np.arange(2 * grid_n)  # nodes at even, faces y + h/2 at odd indices
    p, w = _flux_and_weight(t, y)
    pf, worst = p[1::2], 0.0
    for l, f in zip((t.a, t.b, t.c_real), immersion(t, 0.0, y[::2])[1::2]):  # cos rows: f1, f2, f3
        q = _potential(2.0 * abs(math.sin(0.5 * l * h)) / h, p[::2])
        flux = (pf * (np.roll(f, -1) - f) - np.roll(pf, 1) * (f - np.roll(f, 1))) / h**2
        worst = max(worst, float(np.max(np.abs((q * f - flux) / w[::2] - 2.0 * f))))
    return worst


def anchor_tolerance(grid_n: int) -> float:
    """The bound on the anchors' residuals at ``grid_n``, stated at grid 4096 and scaled as
    (4096 / grid_n)^2 below it (second order); also the guard of :func:`count_N2`."""
    return 1e-4 * max(1.0, (4096.0 / grid_n) ** 2)


@dataclass(frozen=True)
class CountReport:
    """Outcome of the independent eigenvalue count N(2) over l = 0 .. c, and its evidence."""

    n2: int
    per_l_counts: tuple[tuple[int, int], ...]
    gap: float
    edge_errors: tuple[float, float, float]
    cells: int
    j_closed: int
    agree: bool


# Sectors counted at even and odd l.  A degree-2 surface admits only the
# phi(y) {sin, cos}(l x) invariant under its half-period map; x -> x + pi
# gives (-1)^l, so phi has parity (-1)^l under the map's action on y.
_COUNT_SECTORS = {
    None: (_ALL_SECTORS, _ALL_SECTORS),
    Phi.PHI1: (("NN", "DN"), ("ND", "DD")),  # y -> pi - y: reflection about pi/2
    Phi.PHI2: (("NN", "ND"), ("DD", "DN")),  # y -> -y: reflection about 0
    Phi.PHI3: (("NN", "DD"), ("ND", "DN")),  # y -> y + pi: pi-(anti)periodic
}


def _lame_sectors(k2: float, kp2: float, m: int, below: float) -> list:
    """Eigenvalues of L in its sectors NN, ND, DN, DD on ``m`` cells of [0, K], k'^2 = 1 - k^2,
    each ascending: all below ``below`` (>= 1 + k^2) and DD's lowest, under (pi / K)^2 + 2 k^2 by
    the Rayleigh quotient of sin(pi v / K).  :func:`_stencil` with p = w = 1, whose scalings by 1
    are exact, makes each sector tridiagonal.  sn at the cell centres descends from the AGM of
    (1, k') by Landen (DLMF 22.20(ii)): phi_N = 2^N a_N v, phi_(n-1) =
    (phi_n + arcsin(c_n / a_n sin phi_n)) / 2, sn v = sin phi_0, the limit as a_N so that sn K = 1.
    One dstebz call bisects the four blocks of one matrix on Sturm counts (L >= 0)."""
    limit, an, cn = _agm(1.0, math.sqrt(kp2))
    h = math.pi / (2.0 * limit) / m
    phi = (2.0 ** len(an) * limit * h) * (np.arange(m) + 0.5)
    for a, c in zip(an[::-1], cn[::-1]):
        phi = 0.5 * (phi + np.arcsin(c / a * np.sin(phi)))
    d, e = np.zeros((2, 4, m))
    d += 2.0 * k2 * np.sin(phi) ** 2
    _stencil(d, e, np.ones(m + 1), np.ones(m), h, _ALL_SECTORS)
    found, w, block, _, info = lapack.dstebz(d.reshape(-1), e.reshape(-1)[:-1], 1, -1.0,
                                             below + (2.0 * limit) ** 2, 0, 0, 0.0, b"B")
    if info:
        raise EigensolverError(f"dstebz failed (info {info}) on L's sectors of {m} cells")
    return [w[:found][block[:found] == i] for i in (1, 2, 3, 4)]


def count_N2(t: Triple, grid_n: int = 2048) -> CountReport:
    """Count Laplace eigenvalues below 2 and compare with the closed-form index.

    N(2) = #{lambda_i(0) < 2} + 2 sum_{l >= 1} #{lambda_i(l) < 2} over the sector-filtered
    separated spectra (each l >= 1 profile yields the two eigenfunctions phi sin(lx), phi cos(lx)),
    that is the eigenvalues of the Lame operator L below E_l (module docstring).  On L's sectors,
    m = grid_n / 4 cells (:func:`_lame_sectors`), the inertia at E_0 + g must be (1, 1, 1, 0) in
    (NN, ND, DN, DD) and those three eigenvalues within g of k^2, 1 and 1 + k^2, with g the
    anchors' tolerance (:func:`anchor_tolerance`), else :class:`IndeterminateCountError`.  Then
    only the edges count, each at the l with l^2 < l_edge^2, and the sum ends at l = c.  In y, ND
    carries cos y at frequency b and DN sin y at a: v's ND and DN (l_edge = B, A) are y's when
    a <= b and swapped when a > b.  The report gives the gap from E_0 to L's next eigenvalue, the
    three edge errors and m.  ``grid_n`` follows the y-grid's rule (:func:`_sector_cells`): at
    least 256 and divisible by 4.
    """
    m = _sector_cells(grid_n, Symmetry.FULL_PERIODIC)
    t = canonicalize(t)
    j_closed, _, _ = extremal_index(t)
    a2, b2 = sorted((t.a * t.a, t.b * t.b))  # A^2, B^2
    c2 = t.c_squared
    k2, e0 = (b2 - a2) / (c2 - a2), (c2 + b2 - a2) / (c2 - a2)
    g = anchor_tolerance(grid_n)
    nn, nd, dn, dd = _lame_sectors(k2, (c2 - b2) / (c2 - a2), m, e0 + g)
    inertia = tuple(int(np.sum(ev < e0 + g)) for ev in (nn, nd, dn, dd))
    errors = tuple(float(abs(ev[0] - edge)) for ev, edge in ((nn, k2), (nd, 1.0), (dn, 1.0 + k2)))
    gap = float(np.concatenate([nn[1:], nd[1:], dn[1:], dd]).min()) - e0
    if inertia != (1, 1, 1, 0) or max(errors) > g:
        raise IndeterminateCountError(
            f"indeterminate count; refine grid (inertia {inertia} of L's sectors NN, ND, DN, DD "
            f"at E_0 + {g:.2e}, gap {gap:.2e}, edge errors "
            f"{', '.join(f'{x:.2e}' for x in errors)}; want (1, 1, 1, 0) and errors up to "
            f"{g:.2e}; grid_n={grid_n})"
        )
    # l_edge^2 of y's sectors: an edge counts at each l with l^2 < l_edge^2, l < stops[sector]
    stops = {s: math.isqrt(e - 1) + 1 if e else 0
             for s, e in (("NN", c2), ("ND", t.b * t.b), ("DN", t.a * t.a))}
    counts = np.zeros(interlacing_l_max(t), dtype=int)
    for parity, sectors in enumerate(_COUNT_SECTORS[expected_symmetry(t)]):
        for sector in sectors:
            counts[parity:stops.get(sector, 0):2] += 1
    per_l = tuple(enumerate(counts.tolist()))
    n2 = 2 * sum(counts.tolist()) - per_l[0][1]
    return CountReport(n2=n2, per_l_counts=per_l, gap=gap, edge_errors=errors, cells=m,
                       j_closed=j_closed, agree=n2 == j_closed)


def interlacing_l_max(t: Triple) -> int:
    """The default last frequency of :func:`interlacing_check`: one past c (floor c + 1)."""
    return math.isqrt(t.c_squared) + 1


def _rounding(t: Triple, grid_n: int, l_max: int, n: int) -> tuple[float, float]:
    """``(max P, gamma_n G)`` for the canonical ``t`` (:func:`_gamma`): G = 3 max p / (h^2 min w)
    + 2 l_max^2 / min P + 1 bounds every partial result of a diagonal entry of a sector matrix at
    ``grid_n`` and l <= l_max, which meets 7 roundings (q = 2 l^2 / root, + flux, +- end, * s
    twice, + 1, - shift).  The couplings are at most G / 3, so ||B - sigma I|| <= 5/3 G, and a
    Lanczos stop errs by at most eps (lambda - sigma) <= 5/3 eps G, within gamma_7 G."""
    co = coefficients(t)
    spread = abs(co.b_sq - co.a_sq)
    top, low = (co.c_sq + spread) / 2, (co.c_sq - spread) / 2  # max P, min P
    h = 2.0 * math.pi / grid_n
    largest = (3.0 * math.sqrt((2 * top + co.q) * (2 * low + co.q)) / (2 * low * h * h)
               + 2 * l_max * l_max / low + 1.0)
    return top, _gamma(n) * largest


def anchor_floor(t: Triple, grid_n: int) -> float:
    """gamma_14 G at ``grid_n`` (:func:`_rounding`): how far rounding may move a computed anchor
    eigenvalue from the grid's exact one, so a residual at or below it measures no order.  It
    counts, as :func:`interlacing_check` does, one matrix's 7 roundings of an entry and one
    Lanczos stop, whose gamma_7 G leaves room for a row's two couplings (4 roundings each);
    Weyl's inequality carries them to the eigenvalue.  Like interlacing, it leaves out the
    factor's rounding."""
    t = canonicalize(t)
    return _rounding(t, grid_n, interlacing_l_max(t), 14)[1]


def interlacing_check(t: Triple, grid_n: int = 2048, l_max: int | None = None) -> bool:
    """Confirm the oscillation orderings numerically for l = 0..l_max.

    The strict gaps lambda_1 - lambda_0 and lambda_3 - lambda_2 exceed INTERLACING_TOL at every
    l, and from each solved frequency l to the next, l', each lambda_i, i <= 3, rises by at least
    R = (l'^2 - l^2) / max P - delta.  From l to l' the sector matrix B changes only by the
    diagonal (l'^2 - l^2) / P_i, and every cell-centre P_i <= max P = (c^2 + |b^2 - a^2|) / 2, so
    by Weyl (Horn & Johnson, *Matrix Analysis*, Cor. 4.3.12) each lambda_i rises by at least R.
    On [l_a, l_b] then lambda_1 - lambda_0 >= lambda_1(l_a) - lambda_0(l_b) + R(l_a, l_b),
    likewise lambda_3 - lambda_2.  The brackets start from 0, l_max and the integer anchors a, b,
    c up to l_max, solved in one request with a real c (its 2 c^2 rounds, which delta does not
    count, so it is no end); each round solves in one request the midpoints of the brackets
    where this bound is <= INTERLACING_TOL, which finds every l whose gap fails.  delta =
    gamma_33 G (:func:`_rounding`) allows for rounding: 7 roundings per entry in each of the four
    matrices a bracket compares (l_a, l_b and l twice), and 5 in the coefficient 2 s^2 / root of
    l^2 that stands for 1 / P_i.  The rise test compares two matrices, 19 roundings; the other
    gamma_14 G bounds the Lanczos stops of both eigenvalues.  Like a sweep of every l, the check
    inherits the rounding of the factors and their solves, and the gaps' solver error.  ``grid_n``
    must be divisible by 4.
    """
    t = canonicalize(t)
    l_max = interlacing_l_max(t) if l_max is None else l_max
    top, delta = _rounding(t, grid_n, l_max, 33)
    wanted = (0, t.a, t.b, t.c_real, l_max)
    ev = _table(t, grid_n, wanted)
    ls = sorted({int(l) for l in wanted if l <= l_max and float(l).is_integer()})
    pending = list(zip(ls, ls[1:]))
    while pending:
        split = [(la, lb) for la, lb in pending if lb - la > 1
                 and min(ev[la][1::2] - ev[lb][0::2]) + (lb * lb - la * la) / top - delta
                 <= INTERLACING_TOL]
        mids = [(la + lb) // 2 for la, lb in split]
        ev = _table(t, grid_n, mids)
        ls += mids
        pending = [pair for (la, lb), mid in zip(split, mids) for pair in ((la, mid), (mid, lb))]
    ls.sort()
    rows = np.array([ev[l] for l in ls])
    rise = np.array([(lb * lb - la * la) / top - delta for la, lb in zip(ls, ls[1:])])
    return bool(np.all(rows[:, 1::2] - rows[:, 0::2] > INTERLACING_TOL)
                and np.all(np.diff(rows, axis=0) >= rise[:, None]))
