"""Complete elliptic integrals via the arithmetic-geometric mean.

Conventions follow the modulus (not the parameter):

    K(k) = integral_0^1 dt / (sqrt(1 - t^2) sqrt(1 - k^2 t^2))
    E(k) = integral_0^1 sqrt(1 - k^2 t^2) / sqrt(1 - t^2) dt

Both are evaluated as functions of k^2, which keeps the real analytic
continuation to k^2 < 0 available without any imaginary-modulus
transformation: after the substitution t = sin(theta) the integrands
stay real for every k^2 < 1.

K is computed as pi / (2 agm(1, k')), k' = sqrt(k'^2) with k'^2 = 1 - k^2
carried by the :class:`Modulus` (DLMF 19.8), and E by the classical
companion sum

    E = K (1 - sum_{n >= 0} 2^(n-1) c_n^2),   c_0^2 = k^2,

with c_n = (a_{n-1} - b_{n-1}) / 2 the AGM half-differences.  Both
identities are analytic in k^2 on (-inf, 1), so they hold verbatim for
the negative-k^2 continuation.

A Gauss-Kronrod adaptive quadrature of the defining integrals is kept
alongside as an independent oracle; it shares no code path with the AGM
evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import LawsonError

__all__ = [
    "Modulus",
    "adaptive_quadrature",
    "agm",
    "complete_E",
    "complete_E_quadrature",
    "complete_K",
    "complete_K_quadrature",
    "landen_gap",
]

_AGM_MAX_ITER = 40


@dataclass(frozen=True)
class Modulus:
    """Elliptic modulus, stored as k^2 and the complementary k'^2.

    k^2 is the primary representation because the negative values that a
    modulus picks up on non-canonical parameter orderings have no real k.
    For k^2 >= 0 the derived field ``k`` equals sqrt(k2); otherwise it is
    NaN.  k'^2 defaults to 1 - k^2; :meth:`from_ratio` forms it from
    integers instead, so it stays positive where k^2 rounds to 1.
    """

    k2: float
    kp2: float | None = None
    k: float = field(init=False)

    def __post_init__(self) -> None:
        k2 = float(self.k2)
        kp2 = 1.0 - k2 if self.kp2 is None else float(self.kp2)
        if math.isnan(k2) or k2 > 1.0 or not kp2 >= 0.0:
            raise ValueError(f"modulus out of domain: need k^2 = {k2!r} <= 1, k'^2 = {kp2!r} >= 0")
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "kp2", kp2)
        object.__setattr__(self, "k", math.sqrt(k2) if k2 >= 0.0 else math.nan)

    @classmethod
    def from_k(cls, k: float) -> "Modulus":
        return cls(k2=float(k) * float(k))

    @classmethod
    def from_ratio(cls, num: int, den: int) -> "Modulus":
        """k^2 = num / den and k'^2 = (den - num) / den from integers, one division each."""
        return cls(k2=num / den, kp2=(den - num) / den)


def _agm(a: float, b: float) -> tuple[float, list[float], list[float]]:
    """The AGM of (a, b), run until c_n = 0: its limit and the a_n, c_n of n = 1 .. N, with
    a_n = (a_(n-1) + b_(n-1)) / 2, b_n = sqrt(a_(n-1) b_(n-1)), c_n = (a_(n-1) - b_(n-1)) / 2."""
    an, cn = [], []
    for _ in range(_AGM_MAX_ITER):
        cn.append(0.5 * (a - b))
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        an.append(a)
        if abs(cn[-1]) <= 1e-17 * a:
            break
    return 0.5 * (a + b), an, cn


def agm(x: float, y: float) -> float:
    """Common limit of the arithmetic-geometric mean iteration (quadratically convergent)."""
    if not (x > 0.0 and y > 0.0):
        raise ValueError(f"agm requires positive arguments, got ({x!r}, {y!r})")
    return _agm(float(x), float(y))[0]


def complete_K(m: Modulus) -> float:
    """Complete elliptic integral of the first kind, K(k) = pi/(2 agm(1, k')).

    Diverges as k'^2 -> 0, hence the strict domain k'^2 > 0.
    """
    if m.kp2 <= 0.0:
        raise ValueError(f"K(k) diverges for k'^2 <= 0 (got k^2 = {m.k2!r}, k'^2 = {m.kp2!r})")
    return math.pi / (2.0 * _agm(1.0, math.sqrt(m.kp2))[0])


def complete_E(m: Modulus) -> float:
    """Complete elliptic integral of the second kind.

    Defined on k'^2 >= 0; E = 1 exactly at k'^2 = 0 (the integrand degenerates
    to cos(theta), outside the reach of the AGM recursion).
    """
    if m.kp2 == 0.0:
        return 1.0
    limit, _, cn = _agm(1.0, math.sqrt(m.kp2))
    s = 0.5 * m.k2
    for n, c in enumerate(cn):
        s += 2.0**n * c * c
    return (math.pi / (2.0 * limit)) * (1.0 - s)


def landen_gap(k: float) -> float:
    """Defect of the descending Landen identity for E,

        E(2 sqrt(k) / (1 + k)) - (2 E(k) - (1 - k^2) K(k)) / (1 + k),

    which vanishes identically on 0 <= k < 1.  Returned unrounded so the
    caller can assert the analytic identity at floating-point scale.
    """
    k = float(k)
    if not (0.0 <= k < 1.0):
        raise ValueError(f"landen_gap requires 0 <= k < 1, got {k!r}")
    m = Modulus.from_k(k)
    up = Modulus.from_k(2.0 * math.sqrt(k) / (1.0 + k))
    lhs = complete_E(up)
    rhs = (2.0 * complete_E(m) - (1.0 - k * k) * complete_K(m)) / (1.0 + k)
    return lhs - rhs


# ---------------------------------------------------------------------------
# Quadrature oracle (independent of the AGM path).
#
# 7-point Gauss / 15-point Kronrod pair, applied after the substitution
# t = sin(theta), which removes the 1/sqrt(1 - t^2) endpoint singularity:
#
#     K(k) = integral_0^{pi/2} dtheta / sqrt(1 - k^2 sin^2 theta)
#     E(k) = integral_0^{pi/2} sqrt(1 - k^2 sin^2 theta) dtheta
# ---------------------------------------------------------------------------

_KRONROD_NODES = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_KRONROD_WEIGHTS = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
# Gauss weights attach to the odd-indexed Kronrod nodes.
_GAUSS_WEIGHTS = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _gauss_kronrod(f, a: float, b: float) -> tuple[float, float]:
    """One G7/K15 panel on [a, b]; returns (K15 value, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    gauss = 0.0
    kron = 0.0
    for i, x in enumerate(_KRONROD_NODES):
        if x == 0.0:
            fx = f(mid)
            kron += _KRONROD_WEIGHTS[i] * fx
            gauss += _GAUSS_WEIGHTS[3] * fx
        else:
            fp = f(mid + half * x)
            fm = f(mid - half * x)
            kron += _KRONROD_WEIGHTS[i] * (fp + fm)
            if i % 2 == 1:
                gauss += _GAUSS_WEIGHTS[i // 2] * (fp + fm)
    kron *= half
    gauss *= half
    # Standard QUADPACK-style sharpened error estimate.
    err = abs(kron - gauss)
    err = min(err, (200.0 * err) ** 1.5) if err > 0.0 else err
    return kron, err


def adaptive_quadrature(f, a: float, b: float, tol: float = 1e-13, max_depth: int = 48) -> float:
    """Adaptive bisection with G7/K15 panels to absolute tolerance ``tol``."""

    def recurse(lo: float, hi: float, budget: float, depth: int) -> float:
        value, err = _gauss_kronrod(f, lo, hi)
        if err <= budget or depth >= max_depth:
            if depth >= max_depth and err > budget:
                raise LawsonError(
                    f"adaptive quadrature stalled on [{lo}, {hi}] (err {err:.2e})"
                )
            return value
        mid = 0.5 * (lo + hi)
        half_budget = 0.5 * budget
        return recurse(lo, mid, half_budget, depth + 1) + recurse(mid, hi, half_budget, depth + 1)

    return recurse(float(a), float(b), float(tol), 0)


def complete_K_quadrature(m: Modulus, tol: float = 1e-13) -> float:
    """Quadrature oracle for K; shares no code with :func:`complete_K`."""
    if m.k2 >= 1.0:
        raise ValueError(f"K(k) diverges for k^2 >= 1 (got k^2 = {m.k2!r})")
    k2 = m.k2
    return adaptive_quadrature(
        lambda t: 1.0 / math.sqrt(1.0 - k2 * math.sin(t) ** 2), 0.0, math.pi / 2.0, tol
    )


def complete_E_quadrature(m: Modulus, tol: float = 1e-13) -> float:
    """Quadrature oracle for E; shares no code with :func:`complete_E`."""
    k2 = m.k2
    return adaptive_quadrature(
        lambda t: math.sqrt(1.0 - k2 * math.sin(t) ** 2), 0.0, math.pi / 2.0, tol
    )
