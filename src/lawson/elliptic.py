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

An independent oracle shares no code path with the AGM evaluation: the
periodic rectangle rule on

    K = (1/4) integral_0^{2 pi} dtheta / sqrt(k'^2 + k^2 cos^2 theta),

and E likewise, with its node count from the integrand's strip of
analyticity (:func:`_strip`, :func:`_periodic_nodes`), which the area quadrature shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import np

__all__ = [
    "Modulus",
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
    k'^2 defaults to 1 - k^2; :meth:`from_ratio` forms it from integers
    instead, so it stays positive where k^2 rounds to 1.
    """

    k2: float
    kp2: float | None = None

    def __post_init__(self) -> None:
        k2 = float(self.k2)
        kp2 = 1.0 - k2 if self.kp2 is None else float(self.kp2)
        if math.isnan(k2) or k2 > 1.0 or not kp2 >= 0.0:
            raise ValueError(f"modulus out of domain: need k^2 = {k2!r} <= 1, k'^2 = {kp2!r} >= 0")
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "kp2", kp2)

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
# Quadrature oracle (independent of the AGM path): the periodic rectangle rule.
# ---------------------------------------------------------------------------

_STRIP = -math.log(math.ulp(1.0) / 2)  # n d at which e^(-n d) is the unit roundoff u
_NODE_CAP = 2**20  # 8 MB per array of nodes


def _strip(m: Modulus) -> float:
    """Half-width d of the strip |Im theta| < d free of zeros of 1 - k^2 sin^2(theta): sinh d =
    sqrt(k'^2 / k^2) for k^2 > 0 and 1 / sqrt(-k^2) for k^2 < 0, accurate near k = 1 from the
    carried k'^2; inf at k^2 = 0, where it is constant."""
    if m.k2 == 0.0:
        return math.inf
    return math.asinh(math.sqrt(m.kp2 / m.k2) if m.k2 > 0.0 else 1.0 / math.sqrt(-m.k2))


def _periodic_nodes(d: float) -> int:
    """Nodes of the rectangle rule for a periodic integrand analytic in the strip |Im| < d
    (:func:`_strip`): the least power of two n >= 4096 with n d >= ln(1 / u), at most 2^20; 4096
    at d = inf.  The rule then errs by O(e^(-n d)) (Trefethen & Weideman, *SIAM Rev.* 56, 2014,
    Thm. 3.2), here pushed to rounding; the cap binds from d < 3.5e-5 on."""
    return min(_NODE_CAP, 2 ** math.ceil(math.log2(max(_STRIP / d, 4096.0))))


def _radicand(m: Modulus):
    """k'^2 + k^2 cos^2(theta) = 1 - k^2 sin^2(theta) at the rule's n equispaced theta in
    [0, 2 pi) for the strip of ``m``.  Raises ``ValueError`` where even 2^20 nodes leave
    n d < ln(1 / u), below k'^2 ~ 1.2e-9."""
    d = _strip(m)
    if d * _NODE_CAP < _STRIP:
        raise ValueError(f"the periodic rule needs more than 2^20 nodes at k'^2 = {m.kp2!r}")
    theta = np.linspace(0.0, 2.0 * math.pi, _periodic_nodes(d), endpoint=False)
    return m.kp2 + m.k2 * np.cos(theta) ** 2


def complete_K_quadrature(m: Modulus) -> float:
    """Quadrature oracle for K = (pi/2) mean 1 / sqrt(k'^2 + k^2 cos^2 theta) over the periodic
    rule's nodes; shares no code with :func:`complete_K`."""
    return 0.5 * math.pi * float(np.mean(1.0 / np.sqrt(_radicand(m))))


def complete_E_quadrature(m: Modulus) -> float:
    """Quadrature oracle for E = (pi/2) mean sqrt(k'^2 + k^2 cos^2 theta) over the periodic
    rule's nodes; shares no code with :func:`complete_E`."""
    return 0.5 * math.pi * float(np.mean(np.sqrt(_radicand(m))))
