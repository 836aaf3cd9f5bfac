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
ordered, which the interlacing theorem and Weyl's inequality require.

p, q and w depend on y only through cos 2y, so they are even about
y = 0 and y = pi/2.  grid_n counts the cells of the whole y-circle
[0, 2 pi), each 2 pi / grid_n wide, for every symmetry; with both axes on
cell faces (grid_n at least 256 and divisible by 4), each spectrum is
exactly a union of quarter-period sectors of grid_n / 4 cells: symmetric
tridiagonal problems on [0, pi/2] named by their end conditions at 0 and
pi/2, N (even reflection, zero flux) or D (odd reflection, zero value),
all from one stencil (:func:`_stencil`), so the lists of the five
symmetries at one grid split one spectrum:

    full-periodic    NN + ND + DN + DD      even-in-y    NN + ND
    pi-periodic      NN + DD                odd-in-y     DD + DN
    pi-antiperiodic  ND + DN

Every spectrum comes from one request (:func:`_sector_eigenvalues`): per l, each sector's exact
share of the union's lowest eigenvalues by the rank-one theorem (:func:`_shares`), ascending.
Its (l, sector) columns of positive share are factored as B - sigma I = L D L^T (LAPACK dpttrf)
in place by one call: their block-diagonal matrix has zero couplings, so each factor is bit for
bit its own.  Only the potential q is formed per l, the rest of B once per request, and the
columns share one Lanczos basis and one start vector, white noise from a splitmix64 hash
(:func:`_uniform`; no numpy.random).  sigma + 1 is the floor l^2 / max P of B rounded down to a
multiple of 16, so the wanted eigenvalues sit within a few times l + 16 of sigma at any l.
Lanczos on (B - sigma I)^-1 over the factor (dpttrs, dstev; stopped by a gap bound; each step
reorthogonalized against the recurrence's two vectors, then once against the whole basis, which
each thread keeps and reuses for lists of up to 8) solves each column once.  A request's answer
depends on its arguments alone (triple, grid, the l, sectors, count), so each is solved
at most once per process: a memo of the 128 most recently used requests keeps their eigenvalues,
read-only, and no factor or basis.  A list merges the sectors' shares into a fresh array; the
checks read lambda_0..lambda_3 at the anchors' frequencies, one request per (triple, grid)
(:func:`_table`), whichever check asks first.  The minimality residual is separable, O(grid_n).

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
them at lambda_1(max(a,b)), lambda_2(min(a,b)), lambda_0(c).
:func:`anchor_check` returns their residuals on the grid with the bound
they must meet (:func:`_anchor_tolerance`) and their rounding floor.
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
from .elliptic import Modulus, _agm
from .errors import EigensolverError, IndeterminateCountError
from .surface import (
    Phi,
    Triple,
    _dn2,
    _gamma,
    _index,
    _modulus,
    canonicalize,
    coefficients,
    expected_symmetry,
    immersion,
)

__all__ = [
    "CountReport",
    "InterlacingReport",
    "SLProblem",
    "SpectrumResult",
    "Symmetry",
    "anchor_check",
    "count_N2",
    "eq35_residual",
    "interlacing_check",
    "lame_residual",
    "sl_problem",
    "sl_spectrum",
    "takahashi_residual",
]

_START_SEED = 20260808  # of the Lanczos start vector (:func:`_start`): byte-stable spectra


class Symmetry(enum.Enum):
    """A parity subspace of the functions on the y-circle [0, 2 pi): a union of sectors."""

    FULL_PERIODIC = "full-periodic"        # every phi
    EVEN_Y = "even-in-y"                   # phi(-y) = phi(y)
    ODD_Y = "odd-in-y"                     # phi(-y) = -phi(y)
    PI_PERIODIC = "pi-periodic"            # phi(y + pi) = phi(y)
    PI_ANTIPERIODIC = "pi-antiperiodic"    # phi(y + pi) = -phi(y)


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
    """One separated eigenvalue problem of :func:`sl_spectrum`: triple, frequency, sector.

    ``l`` is any real from 0 to the largest double (:func:`_check_frequency`), not only the
    integers of a Fourier mode in x.  Neither the count (:func:`count_N2`, on the Lame operator's
    sectors) nor the anchors (:func:`_table`, which requests the sectors directly) go through it.
    """

    triple: Triple
    l: float
    symmetry: Symmetry = Symmetry.FULL_PERIODIC

    def __post_init__(self):
        _check_frequency(self.l)


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray  # ascending


def _check_frequency(l: float) -> None:
    """A frequency must be a double: 0 <= l <= the largest one (not NaN, not infinite)."""
    if not 0 <= l <= sys.float_info.max:
        raise ValueError(f"l must be non-negative, got {l}" if l < 0 else
                         f"l must be finite and at most {sys.float_info.max!r}, got {l}")


def _flux_and_weight(t: Triple, y: np.ndarray):
    """(p, w) of the pencil at the points y: p = sqrt(2P + Q) > 0 and w = 2P / sqrt(2P + Q) > 0,
    the coefficients that do not depend on l, both pi-periodic and even in y."""
    co = coefficients(t)
    P = co.P(y)
    root = np.sqrt(2.0 * P + co.q)
    return root, 2.0 * P / root


def _potential(l: float, root: np.ndarray) -> np.ndarray:
    """q = 2 l^2 / root, root = sqrt(2P + Q): the one coefficient that depends on l."""
    return 2.0 * (float(l) * float(l)) / root


sl_problem = SLProblem  # sl_problem(t, l[, symmetry]), full-periodic by default


def _sector_cells(grid_n: int) -> int:
    """The cells of a sector, grid_n / 4: the one grid rule of every spectral entry point."""
    if grid_n < 256 or grid_n % 4:
        raise ValueError(
            f"grid_n must be >= 256 and divisible by 4 (y = pi/2 must be a cell face), "
            f"got {grid_n}")
    return grid_n // 4


def _where(grid_n: int, l: float, sector: str) -> str:
    return f"grid_n={grid_n} (l={l}, sector {sector})"


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


def _factors(t: Triple, grid_n: int, columns):
    """``(F, sigma)`` for the ``(l, sector)`` columns on [0, pi/2], grid_n / 4 cells of width
    2 pi / grid_n: dpttrf's B - sigma I = L D L^T of column i has pivots ``F[0, i]`` and the
    subdiagonal of L in ``F[1, i, :-1]``, B the w^(-1/2)-symmetrized matrix.  sigma + 1 is B's
    floor min q/w = l^2 / max P rounded down to a multiple of 16 (0 at l <= c + 1, as
    max P >= c^2 / 2): an exact shift of B + I.  One dpttrf call factors the block-diagonal
    matrix of all columns in place: its zero couplings leave each block's factor bit for bit that
    of its own call."""
    m = _sector_cells(grid_n)
    h = math.pi / (2 * m)  # 2 pi / grid_n, the same double
    # Only q depends on l: the rest is built once.  Faces at even, cell centres at odd indices.
    p, w = _flux_and_weight(t, 0.5 * h * np.arange(2 * m + 1))
    pf, root, w = p[::2], p[1::2], w[1::2]
    ls = np.array([float(l) for l, _ in columns])
    F = np.zeros((2, len(columns), m))
    d, e = F
    np.divide((2.0 * (ls * ls))[:, None], root, out=d)  # q = 2 l^2 / p, bit for bit _potential
    shift = 16.0 * np.floor(np.min(d / w, axis=1) / 16.0)
    _stencil(d, e, pf, 1.0 / np.sqrt(w), h, [sector for _, sector in columns])
    d += 1.0
    d -= shift[:, None]
    info = lapack.dpttrf(d.reshape(-1), e.reshape(-1)[:-1], overwrite_d=1, overwrite_e=1)[2]
    if info:
        l, sector = columns[(info - 1) // m]
        raise EigensolverError(
            f"B - sigma I is not positive definite at {_where(grid_n, l, sector)}")
    return F, shift - 1.0


def _lanczos(where: str, ld: np.ndarray, le: np.ndarray, sigma: float, k: int,
             V: np.ndarray) -> np.ndarray:
    """The ``k`` lowest eigenvalues of a sector's B, ascending, from the factor of B - sigma I:
    Lanczos on (B - sigma I)^-1 from the unit ``V[0]``, Ritz values theta of T_s by dstev, the
    largest k of them inverted in reverse, so no caller sorts.  Each step makes two classical
    Gram-Schmidt passes, the first against the recurrence's two vectors, where the large
    components of the new vector lie, the second against the whole basis: a step reads the basis
    twice.  Twice is enough once the large components are gone (Giraud, Langou & Rozloznik,
    *Comput. Math. Appl.* 50, 2005; Parlett, *The Symmetric Eigenvalue Problem*, ch. 6); measured,
    the full pass removes at most 3.3e-12 of what the local one leaves (median 8.5e-15) over
    52,324 steps of lists at grids 16384-131072 and deep verifications at 2048, so no third pass
    is made.  A theta with residual r and distance g to the nearest other passes at
    r^2 < eps theta (g - r), never at g <= r: its error bound r^2 / (g - r) (Parlett, ch. 11) is
    then below eps theta, sound while the wanted eigenvalues stand apart in their sector, as a
    verification's do (:func:`_table`).  A list now wants only its sectors' shares, and measured,
    its wanted eigenvalues stand apart too: the smallest gap between two of one sector is 4.33, and
    the smallest relative to the larger less sigma 0.28, over the 157 list records of
    ``tools/same_behaviour.py``, and 4.0 and 0.050 over the test suite's, but no theorem bounds
    it.  The rows of ``V`` hold the basis and cap the steps; tests run from step 12, thin out past
    32 (dstev is O(s^3)), end at m steps.  alpha, beta and both tests run on Python floats: the IEEE operations of numpy
    scalars, at less overhead per step."""
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
                return sigma + 1.0 / theta[:-k - 1:-1]
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


def _uniform(seed: int, n: int) -> np.ndarray:
    """n fixed values in [0, 1), the same bits on every platform: the top 53 bits of splitmix64's
    first n outputs from ``seed`` (Steele, Lea & Flood, OOPSLA 2014), its finalizer of
    seed + i 0x9E3779B97F4A7C15, i = 1..n, in wrapping uint64 arithmetic.  Every operand is a
    np.uint64: numpy 1.x promotes uint64 with a Python int to float64."""
    u64 = np.uint64
    z = np.arange(1, n + 1, dtype=u64) * u64(0x9E3779B97F4A7C15) + u64(seed)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> u64(shift)
        z *= u64(factor)
    z ^= z >> u64(31)
    return (z >> u64(11)).astype(float) * 2.0**-53


def _start(m: int) -> np.ndarray:
    """The unit start vector of every Lanczos column of ``m`` cells: :func:`_uniform` of
    :data:`_START_SEED` less 1/2, normalized."""
    v = _uniform(_START_SEED, m) - 0.5
    return v / blas.dnrm2(v)


@functools.lru_cache(maxsize=128)
def _shares(sectors: tuple, count: int) -> tuple:
    """How many of the lowest ``count`` eigenvalues of the union of ``sectors`` each sector may
    hold, by the rank-one theorem of :func:`interlacing_check`.  Sector Y is sector X with a
    positive rank-one term added at each of the r(Y, X) ends where Y has D and X has N, and one
    subtracted, which only lowers Y, where Y has N and X has D, so Y_j <= X_(j + r(Y, X)) (Horn &
    Johnson, *Matrix Analysis*, Cor. 4.3.9): X_i has at least i + sum over Y != X of
    max(0, i + 1 - r(Y, X)) eigenvalues of the union at or below it, and X's share is
    #{i : that bound < count}.  At count 4 the four sectors' shares are (2, 1, 1, 1), at count 8
    (3, 2, 2, 2); two sectors share 8 as (5, 4) (NN, DD) or (4, 4).  Kept per (sectors, count):
    every request reads them once, and forming them anew takes 64-115 us, about 1% of a census
    verification."""
    def below(x: str, i: int) -> int:
        return i + sum(max(0, i + 1 - sum(ends == ("D", "N") for ends in zip(y, x)))
                       for y in sectors if y != x)
    return tuple(sum(below(x, i) < count for i in range(count)) for x in sectors)


@functools.lru_cache(maxsize=128)
def _sector_eigenvalues(t: Triple, grid_n: int, ls: tuple, sectors: tuple, count: int) -> tuple:
    """Per l of the tuple ``ls``, one ascending array per sector of ``sectors``: the sector's share
    (:func:`_shares`) of the lowest ``count`` eigenvalues of their union, empty for a share of 0.
    One request: the columns of positive share factored by one :func:`_factors` call, each solved
    once by :func:`_lanczos` from one start vector in this thread's basis (:func:`_basis`).  The
    answer is a function of the arguments alone, so it is memoized per request, 128 of them: the
    memo holds these read-only eigenvalue arrays only, never a factor or a basis."""
    m = _sector_cells(grid_n)
    if not 1 <= count < m:
        raise ValueError(f"count must be >= 1 and smaller than the sector size {m}, got {count}")
    shares = _shares(sectors, count)
    wanted = [(l, sector, k) for l in ls for sector, k in zip(sectors, shares) if k]
    (d, e), sigma = _factors(t, grid_n, [(l, sector) for l, sector, _ in wanted])
    # The steps grow with count, not l: measured <= 4 count + 8 for l <= 10^7.
    V = _basis(min(m, 8 * count + 64) + 1, m)
    V[0] = _start(m)
    solved = iter([_lanczos(_where(grid_n, l, sector), d[i], e[i, :-1], sigma[i], k, V)
                   for i, (l, sector, k) in enumerate(wanted)])
    spectra = tuple(tuple(next(solved) if k else np.empty(0) for k in shares) for _ in ls)
    for ev in (ev for per_l in spectra for ev in per_l):
        ev.flags.writeable = False
    return spectra


def sl_spectrum(problem: SLProblem, grid_n: int, count: int = 8) -> SpectrumResult:
    """Lowest ``count`` eigenvalues of the discretized pencil, ascending: the merged
    quarter-period sectors of the problem's symmetry.  ``count`` must be at least 1 and
    below the sector size."""
    spectra, = _sector_eigenvalues(problem.triple, grid_n, (problem.l,),
                                   _SYMMETRY_SECTORS[problem.symmetry], count)
    return SpectrumResult(eigenvalues=np.sort(np.concatenate(spectra))[:count])


def _lambdas(spectra) -> tuple:
    """``(lambda_0..lambda_3, their names)`` from NN, ND, DN and DD's shares of four (2, 1, 1, 1),
    formed as the theorem of :func:`interlacing_check` orders them, not sorted, so that a violated
    ordering shows as a gap that is not positive."""
    (nn0, nn1), (nd,), (dn,), (dd,) = (ev.tolist() for ev in spectra)
    lo, hi = sorted([(nd, "ND_0"), (dn, "DN_0")])
    top = min((nn1, "NN_1"), (dd, "DD_0"))
    return (nn0, lo[0], hi[0], top[0]), ("NN_0", lo[1], hi[1], top[1])


def _table(t: Triple, grid_n: int) -> tuple:
    """Rows ``(l, lambda_0..lambda_3, their names)`` (:func:`_lambdas`) of the canonical ``t``'s
    full periodic spectra at ``grid_n``, at the anchors' frequencies c, max(a, b) and min(a, b) in
    that order, which :func:`anchor_check` and :func:`interlacing_check` read: one memoized
    request (:func:`_sector_eigenvalues`) that solves each distinct l once, for whichever check
    asks first; the rows are formed anew from it on every call.  Every column wants eigenvalues
    that stand apart in its sector, as :func:`_lanczos`'s stop test requires: ND, DN and DD one
    each, NN two, whose NN_1 - NN_0 is at least the sum of the two strict gaps (at the anchors'
    frequencies of the census, c <= 30, grid 2048, measured: the sum >= 1.07e-2, NN_1 - NN_0 >=
    4.0).  tau_(a,1)'s near-degenerate lambda_0, lambda_1 lie in two."""
    ls = t.c_real, max(t.a, t.b), min(t.a, t.b)
    distinct = tuple(dict.fromkeys(ls))
    solved = _sector_eigenvalues(t, grid_n, distinct, _ALL_SECTORS, 4)
    rows = dict(zip(distinct, map(_lambdas, solved)))
    return tuple((l, *rows[l]) for l in ls)


def anchor_check(t: Triple, grid_n: int) -> tuple[tuple[float, float, float], float, float]:
    """``(residuals, tolerance, floor)`` of the three exact-2 eigenvalues in full periodic spectra.

    The residuals are

        |lambda_0(c) - 2|, |lambda_1(max(a,b)) - 2|, |lambda_2(min(a,b)) - 2|.

    Zero entries of the triple read their anchor at l = 0 at the same index; the boundary case
    reads lambda_0 at the real frequency c = sqrt(a^2 + b^2).  All three shrink at second order in
    the mesh, each at most ``tolerance`` (:func:`_anchor_tolerance`), down to the rounding
    ``floor``, below which a residual measures no order.  The floor is gamma_14 G at ``grid_n``
    (:func:`_rounding`): how far rounding may move a computed full periodic eigenvalue from the
    grid's exact one, one matrix's 7 roundings of an entry and one Lanczos stop, whose gamma_7 G
    leaves room for a row's two couplings (4 roundings each), by Weyl; not the factor's rounding.
    The spectra are the canonical triple's rows of :func:`_table`, which :func:`interlacing_check`
    reads too; ``grid_n`` must be divisible by 4.
    """
    t = canonicalize(t)
    residuals = tuple(abs(lam[i] - 2.0) for i, (_, lam, _) in enumerate(_table(t, grid_n)))
    return residuals, _anchor_tolerance(grid_n), _rounding(t, grid_n, 14)


def _profiles(amps, mod: Modulus, y: np.ndarray):
    """``(sin y, cos y, profiles)``: ``(phi, phi', phi'')`` of a1 sin y, a2 cos y and
    a3 u, u = sqrt(1 - k^2 sin^2 y), in that order, for ``amps`` = (a1, a2, a3).  Each amplitude is
    the first factor of its products (a3 * u, -a3 * k^2 * ...), which fixes the rounding of the
    separated-ODE residuals.  u^2 comes from non-negative terms with the carried k'^2
    (:func:`lawson.surface._dn2`), so u >= sqrt(k'^2) > 0 also where k^2 rounds to 1.  The
    third phi'' divides its bracket, at most 1 + |k^2| in size, by u three times before the
    factor k^2: for k^2 <= 0, u >= 1 and no partial result exceeds 2 max(1, |k^2|) in size, so it
    is finite at every |k^2| < 2^1020 a triple admits."""
    a1, a2, a3 = amps
    k2 = mod.k2
    s, c = np.sin(y), np.cos(y)
    u = np.sqrt(_dn2(k2, mod.kp2, y))
    d2 = -a3 * k2 * ((np.cos(2.0 * y) * u * u + k2 * s * s * c * c) / u / u / u)
    return s, c, ((a1 * s, a1 * c, -a1 * s), (a2 * c, -a2 * s, -a2 * c),
                  (a3 * u, -a3 * k2 * s * c / u, d2))


def eq35_residual(t: Triple) -> tuple[float, float, float]:
    """Residuals of the separated ODE at lambda = 2 for the three amplitude profiles.

    Substitutes, with analytic derivatives, c1 sin y at l = a, c2 cos y at
    l = b and c3 sqrt(1 - k^2 sin^2 y) at l = c (k^2 and k'^2 in the stored
    order, from integers), and returns each one's max |residual| over one
    1024-point grid, in that order.  This identity
    is the machine-checkable statement that all six immersion components
    are eigenfunctions with eigenvalue 2, i.e. that the surface is minimal
    in the unit sphere.
    """
    co = coefficients(t)
    y = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    _, _, profiles = _profiles((co.c1, co.c2, co.c3), Modulus(co.k2, co.kp2), y)
    p = co.P(y)
    second, first = 1.0 + co.q / (2.0 * p), co.P_prime(y) / (2.0 * p)
    return tuple(float(np.max(np.abs(second * d2phi + first * dphi + (2.0 - float(l2) / p) * phi)))
                 for (phi, dphi, d2phi), l2 in zip(profiles, (co.a_sq, co.b_sq, co.c_sq)))


def lame_residual(mod: Modulus) -> tuple[tuple[float, float, float], float]:
    """Residuals of the degree-one trigonometric Lame equation

        (1 - k^2 sin^2 y) phi'' - k^2 sin y cos y phi' + (h - 2 k^2 sin^2 y) phi = 0

    for its three classical solutions, and the rounding bound they must meet.  The residuals are
    max |residual| over one 1024-point grid of sqrt(1 - k^2 sin^2 y) at h = k^2, cos y at h = 1
    and sin y at h = 1 + k^2, in that order, of the equation divided by K = max(1, |k^2|): each
    coefficient is then at most 3 in size, so no term overflows at any k^2 a triple admits
    (:func:`_profiles`), and dividing by 1 is exact.

    The bound is gamma_37 max sum |terms| over the grid and the three solutions: the exact
    residual is 0, so the computed one is rounding error (Higham, *Accuracy and Stability of
    Numerical Algorithms*, sec. 3.1, 3.3).  Its terms are the monomials in k^2, h, s = sin y,
    c = cos y, cos 2y and u^(+-1) (u = dn), over K; sum |terms| evaluates them on absolute values,
    each difference a sum.  A term meets at most 37 relative errors of eps / 2: 16 roundings
    (dn's (1 - k^2 s^2) / K phi''), 2 for each of up to six s, c, cos 2y (one ulp each), and 9
    from u, which enters dn's residual only as ((1 - k^2 s^2) - u^2) phi'': u^2 is k'^2 + k^2 c^2
    or 1 - k^2 s^2 (:func:`_profiles`), the rounded k'^2 or k^2, one product, the sum, the root
    and its square, within gamma_9 (1 + |k^2| s^2) of 1 - k^2 s^2 (:func:`_gamma`): C = gamma_37 /
    eps, about 18.5.  Measured: residual <= 1.2 eps max sum |terms| over 400 k^2 from
    -1e306 to 1 - 1e-10.  ``mod`` carries k'^2 > 0 (:class:`lawson.elliptic.Modulus`, whose
    k'^2 from integers stays positive where k^2 rounds to 1); k'^2 = 0 is no Lame equation of
    this form (its leading coefficient vanishes at y = pi/2) and raises ``ValueError``.
    """
    if not mod.kp2 > 0.0:
        raise ValueError(f"k'^2 must be > 0, got {mod.kp2!r}")
    k2 = mod.k2
    y = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    s, c, (sn, cs, dn) = _profiles((1.0, 1.0, 1.0), mod, y)
    size, scale, u = abs(k2), max(1.0, abs(k2)), dn[0]
    # dn's phi'' = -k^2 (cos 2y u^2 + k^2 s^2 c^2) / u^3 holds a sum of its own
    dn_sum = size * ((np.abs(np.cos(2.0 * y)) * u * u + size * s * s * c * c) / u / u / u)
    lead, ksc, pot = (1.0 - k2 * s * s) / scale, k2 * s * c / scale, 2.0 * k2 * s * s
    lead_sum, pot_sum = (1.0 + size * s * s) / scale, 2.0 * size * s * s
    residuals, sums = [], []
    for h, (phi, dphi, d2phi), d2_sum in ((k2, dn, dn_sum), (1.0, cs, cs[2]),
                                          (1.0 + k2, sn, sn[2])):
        lame = lead * d2phi - ksc * dphi + (h - pot) / scale * phi
        residuals.append(float(np.max(np.abs(lame))))
        terms = (lead_sum * np.abs(d2_sum) + np.abs(ksc * dphi)
                 + (abs(h) + pot_sum) / scale * np.abs(phi))
        sums.append(float(np.max(terms)))
    return tuple(residuals), _gamma(37) * max(sums)


def takahashi_residual(t: Triple, grid_n: int) -> float:
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
        face = pf * np.diff(f, append=f[:1])  # p (f' at the face y + h/2), times h
        flux = np.diff(face, prepend=face[-1:]) / h**2
        worst = max(worst, float(np.max(np.abs((q * f - flux) / w[::2] - 2.0 * f))))
    return worst


def _anchor_tolerance(grid_n: int) -> float:
    """The bound on the anchors' residuals at ``grid_n``, stated at grid 4096 and scaled as
    (4096 / grid_n)^2 below it (second order); also the guard of :func:`count_N2`."""
    return 1e-4 * max(1.0, (4096.0 / grid_n) ** 2)


@dataclass(frozen=True)
class CountReport:
    """Outcome of the independent eigenvalue count N(2) over l = 0 .. c, and its evidence: the
    stop of each sector (NN, ND, DN, DD) and the sectors counted at even and odd l, from which
    :func:`count_N2` forms n2."""

    n2: int
    stops: dict[str, int]
    sectors: tuple[tuple[str, ...], tuple[str, ...]]
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


def _lame_sectors(mod: Modulus, m: int, below: float) -> list:
    """Eigenvalues of L of modulus ``mod`` in its sectors NN, ND, DN, DD on ``m`` cells of [0, K],
    each ascending: all below ``below`` (>= 1 + k^2) and DD's lowest, under (pi / K)^2 + 2 k^2 by
    the Rayleigh quotient of sin(pi v / K).  :func:`_stencil` with p = w = 1, whose scalings by 1
    are exact, makes each sector tridiagonal.  sn at the cell centres descends from the AGM of
    (1, k') by Landen (DLMF 22.20(ii)): phi_N = 2^N a_N v, phi_(n-1) =
    (phi_n + arcsin(c_n / a_n sin phi_n)) / 2, sn v = sin phi_0, the limit as a_N so that sn K = 1.
    One dstebz call bisects the four blocks of one matrix on Sturm counts (L >= 0)."""
    limit, an, cn = _agm(1.0, math.sqrt(mod.kp2))
    h = math.pi / (2.0 * limit) / m
    phi = (2.0 ** len(an) * limit * h) * (np.arange(m) + 0.5)
    for a, c in zip(an[::-1], cn[::-1]):
        phi = 0.5 * (phi + np.arcsin(c / a * np.sin(phi)))
    d, e = np.zeros((2, 4, m))
    d += 2.0 * mod.k2 * np.sin(phi) ** 2
    _stencil(d, e, np.ones(m + 1), np.ones(m), h, _ALL_SECTORS)
    found, w, block, _, info = lapack.dstebz(d.reshape(-1), e.reshape(-1)[:-1], 1, -1.0,
                                             below + (2.0 * limit) ** 2, 0, 0, 0.0, b"B")
    if info:
        raise EigensolverError(f"dstebz failed (info {info}) on L's sectors of {m} cells")
    return [w[:found][block[:found] == i] for i in (1, 2, 3, 4)]


def count_N2(t: Triple, grid_n: int) -> CountReport:
    """Count Laplace eigenvalues below 2 and compare with the closed-form index.

    N(2) = #{lambda_i(0) < 2} + 2 sum_{l >= 1} #{lambda_i(l) < 2} over the sector-filtered
    separated spectra (each l >= 1 profile yields the two eigenfunctions phi sin(lx), phi cos(lx)),
    that is the eigenvalues of the Lame operator L of the surface's modulus below E_l (module
    docstring).  On L's sectors, m = grid_n / 4 cells (:func:`_lame_sectors`), the inertia at
    E_0 + g must be (1, 1, 1, 0) in (NN, ND, DN, DD) and those three eigenvalues within g of k^2,
    1 and 1 + k^2, with g the anchors' tolerance (:func:`_anchor_tolerance`), else
    :class:`IndeterminateCountError`.  Then only the edges count, each at the l with
    l^2 < l_edge^2, and the sum ends at l = c.  In y, ND carries cos y at frequency b and DN sin y
    at a: v's ND and DN (l_edge = B, A) are y's when a <= b and swapped when a > b.  The report
    gives the gap from E_0 to L's next eigenvalue, the three edge errors and m.  ``grid_n``
    follows the y-grid's rule (:func:`_sector_cells`): at least 256 and divisible by 4.

    The count is integer arithmetic on three stops: an edge counts in y's sector s at each
    l < stops[s] = isqrt(l_edge^2 - 1) + 1 (0 for DD) whose parity admits s (``sectors``, by the
    expected symmetry), each l >= 1 twice, so with no numpy and no work that grows with c

        n2 = sum over p = 0, 1 and s in sectors[p] of 2 #{l = p mod 2 : l < stops[s]}
             - [p = 0 and stops[s] > 0],

    each # formed as max(0, (stops[s] - p + 1) // 2) in Python integers, of no size limit.

    The count at each l follows exactly: count(l) = #{s in sectors[l mod 2] : l < stops[s]}.
    """
    m = _sector_cells(grid_n)
    t = canonicalize(t)
    j_closed = _index(t)
    a2, b2 = sorted((t.a * t.a, t.b * t.b))  # A^2, B^2
    c2, mod = t.c_squared, _modulus(t)
    e0, g = (c2 + b2 - a2) / (c2 - a2), _anchor_tolerance(grid_n)
    nn, nd, dn, dd = _lame_sectors(mod, m, e0 + g)
    inertia = tuple(int(np.sum(ev < e0 + g)) for ev in (nn, nd, dn, dd))
    errors = tuple(float(abs(ev[0] - edge))
                   for ev, edge in ((nn, mod.k2), (nd, 1.0), (dn, 1.0 + mod.k2)))
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
             for s, e in (("NN", c2), ("ND", t.b * t.b), ("DN", t.a * t.a), ("DD", 0))}
    sectors = _COUNT_SECTORS[expected_symmetry(t)]
    n2 = sum(2 * max(0, (stops[s] - p + 1) // 2) - (p == 0 and stops[s] > 0)
             for p in (0, 1) for s in sectors[p])
    return CountReport(n2=n2, stops=stops, sectors=sectors, gap=gap, edge_errors=errors,
                       cells=m, j_closed=j_closed, agree=n2 == j_closed)


def _rounding(t: Triple, grid_n: int, n: int) -> float:
    """gamma_n G for the canonical ``t`` (:func:`_gamma`): G = 3 max p / (h^2 min w)
    + 2 l_max^2 / min P + 1 bounds every partial result of a diagonal entry of a sector matrix
    at ``grid_n`` and l <= l_max, which meets 7 roundings (q = 2 l^2 / root, + flux, +- end, * s
    twice, + 1, - shift).  The couplings are at most G / 3, so a Lanczos stop errs by at most
    eps (lambda - sigma) <= 5/3 eps G, within gamma_7 G.  p and w rise with P, so max p / min w =
    sqrt(c^2 - A^2) sqrt(c^2 - B^2) / min P, each root taken before the product: finite for every
    c^2 < 2^1020."""
    a2, b2 = sorted((t.a * t.a, t.b * t.b))  # A^2, B^2
    c2 = t.c_squared
    low = (c2 - b2 + a2) / 2  # min P
    # l_max = floor c + 1 lies above every l solved: the anchors' frequencies are at most c
    h, l_max = 2.0 * math.pi / grid_n, math.isqrt(c2) + 1
    largest = (3.0 * math.sqrt(c2 - a2) * math.sqrt(c2 - b2) / (low * h * h)
               + 2 * l_max * l_max / low + 1.0)
    return _gamma(n) * largest


@dataclass(frozen=True)
class InterlacingReport:
    """Outcome of :func:`interlacing_check`: the smallest lambda_1 - lambda_0 and lambda_3 -
    lambda_2 over the solved l, each (gap, l, upper, lower), the bar both must exceed, and the
    margin bar / smaller gap, below 1 when both do (None if a gap is <= 0)."""

    gaps: tuple[tuple[float, float, str, str], ...]
    bar: float
    holds: bool
    margin: float | None


def interlacing_check(t: Triple, grid_n: int) -> InterlacingReport:
    """The strict oscillation gaps lambda_1 - lambda_0 and lambda_3 - lambda_2 of the full periodic
    spectrum at the anchors' frequencies c, max(a, b) and min(a, b), against a rounding bar.

    The orderings hold at every l by a theorem, so no l is swept.  In :func:`_stencil` a D end is
    an N end plus 2 p / h^2 s^2 > 0 on its end's diagonal entry: ND and DN are NN plus a positive
    rank-one term, DD either plus one more.  A positive rank-one update's eigenvalues interlace the
    matrix's (Horn & Johnson, *Matrix Analysis*, Cor. 4.3.9), strictly for a tridiagonal with no
    zero coupling, whose eigenvectors have nonzero end components (Parlett, *The Symmetric
    Eigenvalue Problem*, ch. 7).  So at every l, as :func:`_table` forms them,

        lambda_0 = NN_0 < min(ND_0, DN_0) = lambda_1 <= lambda_2 = max(ND_0, DN_0)
                 < min(NN_1, DD_0) = lambda_3.

    Each computed eigenvalue lies within the anchors' rounding floor gamma_14 G
    (:func:`anchor_check`) of the grid's exact one, so a gap within gamma_28 G (:func:`_rounding`):
    the bar.  ``grid_n`` divisible by 4.
    """
    t = canonicalize(t)
    rows = _table(t, grid_n)
    gaps = tuple(min((lam[i + 1] - lam[i], l, names[i + 1], names[i]) for l, lam, names in rows)
                 for i in (0, 2))
    bar = _rounding(t, grid_n, 28)
    smallest = min(gaps)[0]
    return InterlacingReport(gaps, bar, smallest > bar, bar / smallest if smallest > 0 else None)
