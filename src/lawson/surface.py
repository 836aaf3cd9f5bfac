"""The three-parameter family of minimal tori and Klein bottles in S^5.

A surface of the family is the image of the doubly periodic map

    F(x, y) = (sin(a x) f1(y), cos(a x) f1(y),
               sin(b x) f2(y), cos(b x) f2(y),
               sin(c x) f3(y), cos(c x) f3(y)),

    f1 = c1 sin(y),  f2 = c2 cos(y),  f3 = c3 sqrt(1 - k^2 sin^2 y),

with integer frequencies.  Two regimes are admissible: the generalized
case c^2 > a^2 + b^2, and the boundary case c^2 = a^2 + b^2 (the
classical tau-surfaces of Lawson, where f3 vanishes identically and the
image lies in an equatorial S^3).

The squared amplitudes c1^2, c2^2, c3^2 and the modulus k^2 are fixed
rational functions of (a^2, b^2, c^2); they are computed here in exact
integer arithmetic with a single final division, so quantities such as
c2^2 = 5/8 are bit-reproducible.

The induced metric is diagonal,

    g = P(y) dx^2 + 2 P(y) / (Q + 2 P(y)) dy^2,
    P(y) = (c^2 + (b^2 - a^2) cos 2y) / 2,   Q = c^2 - a^2 - b^2,

and the total area of the 2 pi-periodic parameter torus has the closed
form

    S = 4 pi / sqrt(c^2 - A^2) * (2 (c^2 - A^2) E(k) - Q K(k)),
    k^2 = (B^2 - A^2) / (c^2 - A^2),   A = min(a, b),  B = max(a, b),

which on the Lawson boundary Q = 0 is S = 8 pi B E(k).  The
surface area is S divided by the covering degree of the parameter torus
over the image, which is 2 exactly when a half-period deck
transformation survives (subcases I and II below, and every Lawson
surface) and 1 otherwise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from math import gcd

from ._lazy import np
from .elliptic import Modulus, _periodic_nodes, _strip, complete_E, complete_K
from .errors import DegenerateTripleError, InvalidTripleError, NotInFamilyError

__all__ = [
    "Case",
    "Coefficients",
    "Functional",
    "Phi",
    "Subcase",
    "SurfaceClass",
    "Topology",
    "Triple",
    "area_closed",
    "area_quadrature",
    "canonicalize",
    "classify",
    "coefficients",
    "expected_symmetry",
    "immersion",
    "metric",
    "symmetry_residual",
    "validate",
]


class Case(enum.Enum):
    GENERALIZED = "generalized"
    LAWSON = "lawson"


class Topology(enum.Enum):
    TORUS = "torus"
    KLEIN_BOTTLE = "klein-bottle"


class Subcase(enum.Enum):
    LAWSON = "lawson"
    I = "I"
    II = "II"
    III = "III"


class Functional(enum.Enum):
    TORUS = "torus-functional"
    KLEIN = "klein-functional"


class Phi(enum.Enum):
    """The three candidate half-period identifications of the parameter plane."""

    PHI1 = "phi1"  # (x, y) -> (x + pi, pi - y)
    PHI2 = "phi2"  # (x, y) -> (x + pi, -y)
    PHI3 = "phi3"  # (x, y) -> (x + pi, y + pi)

    def apply(self, x, y, half=math.pi):
        """The map on points, or on grid indices with ``half`` the index of pi."""
        if self is Phi.PHI1:
            return x + half, half - y
        if self is Phi.PHI2:
            return x + half, -y
        return x + half, y + half


@dataclass(frozen=True)
class Triple:
    """Admissible frequency triple.

    Direct construction accepts any admissible ordering (the coefficient
    formulas are order-sensitive, and the non-canonical orderings are
    legitimate descriptions of the same surface).  ``validate`` and
    ``canonicalize`` produce the canonical representative: gcd-reduced,
    generalized case ordered a <= b, Lawson case ordered a >= b.
    c^2 (a^2 + b^2 for a Lawson pair) must be below 2^1020: the closed
    forms then stay below pi (c^2 - a^2) < 2^1022, since E <= pi/2 and
    |Q| K <= (pi/2)(c^2 - a^2).

    In the Lawson case c is determined by c^2 = a^2 + b^2 and is not
    stored (it is an integer only for Pythagorean pairs).
    """

    case: Case
    a: int
    b: int
    c: int | None = None

    def __post_init__(self) -> None:
        for name in ("a", "b", "c") if self.case is Case.GENERALIZED else ("a", "b"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidTripleError(f"{name} must be an integer, got {v!r}")
            if v < 0:
                raise InvalidTripleError(
                    f"{name} must be non-negative (use validate() to fold signs), got {v}"
                )
        if self.case is Case.GENERALIZED:
            if self.a == 0 and self.b == 0 and self.c == 0:
                raise DegenerateTripleError("degenerate: (0, 0, 0) is not a surface")
            if self.c * self.c <= self.a * self.a + self.b * self.b:
                raise NotInFamilyError(
                    "not in family: c^2 must exceed a^2 + b^2 "
                    f"(got c^2 = {self.c * self.c}, a^2 + b^2 = {self.a**2 + self.b**2}; "
                    "the boundary c^2 = a^2 + b^2 must be requested as the Lawson case)"
                )
        elif self.case is Case.LAWSON:
            if self.c is not None:
                raise InvalidTripleError("Lawson case determines c; do not pass it")
            if self.a == 0 or self.b == 0:
                raise DegenerateTripleError(
                    "degenerate: Lawson surfaces require nonzero a and b"
                )
        else:
            raise InvalidTripleError(f"unknown case {self.case!r}")
        if self.c_squared >= 2**1020:
            name = "a^2 + b^2" if self.case is Case.LAWSON else "c^2"
            raise InvalidTripleError(f"{name} must be below 2^1020 for float closed forms")

    @property
    def c_squared(self) -> int:
        return self.a * self.a + self.b * self.b if self.case is Case.LAWSON else self.c * self.c

    @property
    def c_real(self) -> float:
        """The third frequency as a real number (sqrt(a^2 + b^2) on the boundary)."""
        return math.sqrt(self.c_squared) if self.case is Case.LAWSON else float(self.c)

    def label(self) -> str:
        if self.case is Case.LAWSON:
            return f"tau_({self.a},{self.b})"
        return f"T_({self.a},{self.b},{self.c})"


def validate(case: Case | str, a: int, b: int, c: int | None = None) -> Triple:
    """Validate raw integers and return the canonical Triple.

    Signs are folded (each sign flip is an ambient isometry), the gcd is
    divided out, and the canonical ordering is applied.  Inadmissible
    parameters raise :class:`NotInFamilyError` or
    :class:`DegenerateTripleError`.
    """
    if isinstance(case, str):
        case = Case(case.lower())
    for name, v in (("a", a), ("b", b)) + ((("c", c),) if c is not None else ()):
        if not isinstance(v, int) or isinstance(v, bool):
            raise InvalidTripleError(f"{name} must be an integer, got {v!r}")
    if c is None and case is not Case.LAWSON:
        raise InvalidTripleError("generalized case requires c")
    return canonicalize(Triple(case, abs(a), abs(b), None if c is None else abs(c)))


def canonicalize(t: Triple) -> Triple:
    """Gcd-reduce and order the triple canonically.  Idempotent.

    The ordering uses the a <-> b isometry of the family.  It picks no
    area modulus (:func:`_modulus` sorts a and b itself); it fixes the
    label and the sign of the y-profiles' k^2 (``Coefficients.k2``):
    generalized triples are ordered a <= b (k^2 >= 0), Lawson pairs
    a >= b (k^2 <= 0, the paper's tau_(a,b)).  One rule covers both
    cases: divide by d = gcd(a, b, c), c counting as 0 for a Lawson
    pair, and sort (a, b) descending on the boundary and ascending
    otherwise.
    """
    d = gcd(t.a, t.b, t.c or 0)
    a, b = sorted((t.a // d, t.b // d), reverse=t.case is Case.LAWSON)
    return Triple(t.case, a, b, None if t.c is None else t.c // d)


@dataclass(frozen=True)
class Coefficients:
    """Squared immersion amplitudes and metric data of a triple.

    All four rationals are exact to the last bit: numerators and
    denominators are formed in integer arithmetic and divided once.
    ``q`` is the integer Q = c^2 - a^2 - b^2 (zero exactly on the Lawson
    boundary) and ``P`` evaluates the metric coefficient
    (c^2 + (b^2 - a^2) cos 2y) / 2.
    """

    c1_sq: float
    c2_sq: float
    c3_sq: float
    k2: float
    q: int
    a_sq: int
    b_sq: int
    c_sq: int

    @property
    def c1(self) -> float:
        return math.sqrt(self.c1_sq)

    @property
    def c2(self) -> float:
        return math.sqrt(self.c2_sq)

    @property
    def c3(self) -> float:
        return math.sqrt(self.c3_sq)

    def P(self, y):
        return 0.5 * (self.c_sq + (self.b_sq - self.a_sq) * np.cos(2.0 * np.asarray(y)))

    def P_prime(self, y):
        return -(self.b_sq - self.a_sq) * np.sin(2.0 * np.asarray(y))


def coefficients(t: Triple) -> Coefficients:
    """Amplitudes (c1^2, c2^2, c3^2) and modulus k^2 of the triple.

    The formulas are applied to the triple in its stored order; for a > b the modulus k^2 comes
    out negative, which is admissible everywhere downstream.  Denominators cannot vanish: the
    family condition gives c^2 - a^2 > b^2 >= 0 and c^2 - b^2 > a^2 >= 0 in the generalized
    case, and equal b^2, a^2 > 0 on the Lawson boundary, where Q = 0 makes c1^2 = c2^2 = 1 and
    c3^2 = +0.0 exactly: the third solution drops out.
    """
    a2, b2, c2 = t.a * t.a, t.b * t.b, t.c_squared
    assert c2 - a2 > 0 and c2 - b2 > 0
    return Coefficients(
        c1_sq=(b2 + c2 - a2) / (2 * (c2 - a2)),
        c2_sq=(a2 + c2 - b2) / (2 * (c2 - b2)),
        c3_sq=(c2 - a2 - b2) / (2 * (c2 - b2)),
        k2=(b2 - a2) / (c2 - a2),
        q=c2 - a2 - b2,
        a_sq=a2,
        b_sq=b2,
        c_sq=c2,
    )


def immersion(t: Triple, x, y) -> np.ndarray:
    """Evaluate the immersion; output shape is (6,) + broadcast(x, y).

    Image points lie on the unit sphere to machine accuracy: the
    amplitude normalization makes |F|^2 - 1 an exact trigonometric
    identity, leaving only rounding.
    """
    co = coefficients(t)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    f1 = co.c1 * np.sin(y)
    f2 = co.c2 * np.cos(y)
    f3 = co.c3 * np.sqrt(1.0 - co.k2 * np.sin(y) ** 2)
    a, b, c = t.a, t.b, t.c_real
    return np.stack([np.sin(a * x) * f1, np.cos(a * x) * f1, np.sin(b * x) * f2,
                     np.cos(b * x) * f2, np.sin(c * x) * f3, np.cos(c * x) * f3])


def metric(t: Triple, y):
    """Diagonal metric components (g_xx, g_yy) at y; both strictly positive.

    Positivity needs no runtime branch: with a <= b the admissibility
    condition gives min P = (c^2 + a^2 - b^2)/2 > 0 and
    min (Q + 2P) = 2(c^2 - b^2) > 0.
    """
    co = coefficients(t)
    p = co.P(y)
    return p, 2.0 * p / (co.q + 2.0 * p)


def _covering_degree(t: Triple) -> int:
    return 1 if _subcase(t) is Subcase.III else 2


def _parity_class(t: Triple) -> Subcase:
    """Subcase I, II or III by the parities; a Lawson pair behaves as one with c even."""
    if t.case is Case.LAWSON or t.c % 2 == 0:
        if t.a % 2 == 1 and t.b % 2 == 1:
            return Subcase.II
        if (t.a + t.b) % 2 == 1:
            return Subcase.I
    return Subcase.III


def _subcase(t: Triple) -> Subcase:
    return Subcase.LAWSON if t.case is Case.LAWSON else _parity_class(t)


def _topology(t: Triple) -> Topology:
    return Topology.KLEIN_BOTTLE if _parity_class(t) is Subcase.I else Topology.TORUS


def _modulus(t: Triple) -> Modulus:
    """k^2 = (B^2 - A^2) / (c^2 - A^2) and k'^2 = (c^2 - B^2) / (c^2 - A^2) from integers, A =
    min(a, b), B = max(a, b): Q + 2P = 2 (c^2 - A^2) (1 - k^2 sin^2 y), y from pi/2 if a > b."""
    lo, hi = sorted((t.a * t.a, t.b * t.b))
    return Modulus.from_ratio(hi - lo, t.c_squared - lo)


def area_closed(t: Triple) -> tuple[float, float]:
    """Closed-form (S, area): the parameter-torus area and the surface area, by the module
    docstring's one formula over the surface's modulus (:func:`_modulus`), in either order of a
    and b; Q = 0 makes it 8 pi B E on the Lawson boundary."""
    a2, c2 = min(t.a, t.b) ** 2, t.c_squared
    m = _modulus(t)
    s = (4.0 * math.pi / math.sqrt(c2 - a2)) * (
        2.0 * (c2 - a2) * complete_E(m) - (c2 - t.a * t.a - t.b * t.b) * complete_K(m)
    )
    return s, s / _covering_degree(t)


def area_quadrature(t: Triple, n: int | None = None) -> float:
    """Quadrature oracle for the area.

    Integrates the area element sqrt(g_xx g_yy) = P sqrt(2/(Q + 2P)) over
    the periodic y-circle with an n-node rectangle rule (spectrally
    accurate for this smooth periodic integrand) and multiplies by the
    2 pi extent in x; divides by the covering degree.  ``n`` defaults to
    :func:`_area_nodes`.
    """
    n = _area_nodes(t) if n is None else n
    if n < 64:
        raise ValueError(f"n must be >= 64, got {n}")
    co = coefficients(t)
    y = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    p = co.P(y)
    integrand = p * np.sqrt(2.0 / (co.q + 2.0 * p))
    cover = 2.0 * math.pi * (2.0 * math.pi / n) * float(np.sum(integrand))
    return cover / _covering_degree(t)


def _area_nodes(t: Triple) -> int:
    """Nodes of :func:`area_quadrature`: :func:`lawson.elliptic._periodic_nodes` of the strip of
    1 - k^2 sin^2 y (:func:`lawson.elliptic._strip`) for the surface's modulus, as Q + 2P is
    (:func:`_modulus`): d ~ 1/a on a thin tau_(a,1), 4096 nodes for a = b and every c <= 30."""
    return _periodic_nodes(_strip(_modulus(t)))


def _index(t: Triple) -> int:
    """The extremal index j of the canonical ``t`` (:func:`classify`), in Python integers."""
    if t.case is Case.LAWSON:
        return 2 * (math.isqrt(t.c_squared) // 2) + t.a + t.b - 1
    m = 2 if _subcase(t) is Subcase.III else 1
    return m * (t.a + t.b + t.c) - 3 + (t.a, t.b).count(0)


@dataclass(frozen=True)
class SurfaceClass:
    """Topological and spectral classification of one surface."""

    topology: Topology
    subcase: Subcase
    covering_degree: int
    area: float
    j: int
    functional: Functional
    lambda_value: float


def classify(t: Triple) -> SurfaceClass:
    """Full classification; canonicalizes internally.

    The induced metric is extremal for the j-th normalized eigenvalue
    functional on the torus or Klein bottle (``functional`` by the
    topology); Lambda_j = 2 * area always (the coordinate functions are
    eigenfunctions with eigenvalue 2 on the unit sphere).  The paper's
    closed forms:

      Lawson pair (a >= b):  j = 2 floor(sqrt(a^2+b^2)/2) + a + b - 1,
                             Lambda_j = 8 pi a E(sqrt(a^2-b^2)/a) = S;
      subcase I:   j = a + b + c - 3, or b + c - 2 when one of a, b is 0;
      subcase II:  j = a + b + c - 3;
      subcase III: j = 2(a + b + c) - 3, with the zero-entry family at
                   2(b + c) - 2 and the Clifford triple (0, 0, 1) at 1.

    One rule (:func:`_index`) reproduces the generalized rows: j =
    m (a + b + c) - 3 plus the number of zeros among a, b, with m = 2 in
    subcase III and 1 otherwise.  The Lawson floor is taken exactly, as
    isqrt(a^2 + b^2) // 2.

    Lambda_j equals S in subcases I and II (and Lawson) and 2 S in
    subcase III, consistently with Lambda_j = 2 * area.
    """
    t = canonicalize(t)
    _, area = area_closed(t)
    topology = _topology(t)
    return SurfaceClass(
        topology=topology,
        subcase=_subcase(t),
        covering_degree=_covering_degree(t),
        area=area,
        j=_index(t),
        functional=Functional.KLEIN if topology is Topology.KLEIN_BOTTLE else Functional.TORUS,
        lambda_value=2.0 * area,
    )


def expected_symmetry(t: Triple) -> Phi | None:
    """Which half-period identification the surface carries, if any.

    Determined by the parities of the canonical triple: the a-even
    member of subcase I carries (x + pi, pi - y), the a-odd member
    (x + pi, -y); subcase II carries (x + pi, y + pi); subcase III none.
    Lawson pairs follow the same parity rules with c playing no role.
    """
    t = canonicalize(t)
    parity = _parity_class(t)
    if parity is Subcase.I:
        return Phi.PHI1 if t.a % 2 == 0 else Phi.PHI2
    return Phi.PHI3 if parity is Subcase.II else None


def symmetry_residual(t: Triple, n: int = 32) -> dict[Phi, float]:
    """``{Phi: residual}``: max over y = 2 pi j / n, j < n, of |F(Phi(x, y)) - F(x, y)| in R^6 for
    each half-period map, the same at every x.

    At most machine-zero for the surface's identification, order-one otherwise.  Phi maps (x, y) to
    (x + pi, psi(y)), which multiplies each pair (sin l x, cos l x) f(y) by (-1)^l, so
    |F(Phi(x, y)) - F(x, y)|^2 = sum_i ((-1)^(l_i) f_i(psi(y)) - f_i(y))^2: the profiles f1, f2, f3,
    from one :func:`immersion` call, compared with their permutation, which with n even maps the
    y-grid onto itself.  On the Lawson boundary f3 = 0, so a c that is not an integer needs no sign.
    """
    if n < 16 or n % 2:
        raise ValueError(f"n must be even and >= 16, got {n}")
    f = immersion(t, 0.0, 2.0 * math.pi * np.arange(n) / n)[1::2]  # cos rows at x = 0: f1, f2, f3
    sign = np.array([[1 - 2 * (l % 2)] for l in (t.a, t.b, t.c or 0)])
    residuals = {}
    for phi in Phi:
        diff = sign * f[:, phi.apply(0, np.arange(n), n // 2)[1] % n] - f
        residuals[phi] = float(np.max(np.sqrt(np.sum(diff * diff, axis=0))))
    return residuals
