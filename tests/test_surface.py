"""Family construction: validation, coefficients, metric, area, classification."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lawson.surface as surface
from lawson import (
    Case,
    DegenerateTripleError,
    Functional,
    InvalidTripleError,
    NotInFamilyError,
    Phi,
    Subcase,
    Topology,
    Triple,
    area_closed,
    area_quadrature,
    canonicalize,
    classify,
    coefficients,
    expected_symmetry,
    immersion,
    metric,
    symmetry_residual,
    validate,
)
from lawson.elliptic import _strip
from conftest import SUITE, SUITE_IDS


def generalized_triples():
    """Hypothesis strategy producing valid generalized triples of the census range c <= 30."""
    return st.builds(
        lambda a, b, c: (a, b, c),
        st.integers(0, 29),
        st.integers(0, 29),
        st.integers(1, 30),
    ).filter(lambda abc: abc[2] ** 2 > abc[0] ** 2 + abc[1] ** 2)


def gcd_and_order(t):
    """The canonical form stated directly: gcd 1, a <= b (a >= b for a Lawson pair)."""
    vals = [v for v in (t.a, t.b, t.c) if v is not None]
    return math.gcd(*vals) == 1 and (t.a >= t.b if t.case is Case.LAWSON else t.a <= t.b)


def paper_index(a, b, c=None):
    """The paper's subcase table of j for a canonical triple; c is None for a Lawson pair."""
    if c is None:
        return 2 * math.floor(math.sqrt(a * a + b * b) / 2.0) + a + b - 1
    if c % 2 == 0 and a % 2 == 1 and b % 2 == 1:  # subcase II
        return a + b + c - 3
    if c % 2 == 0 and (a + b) % 2 == 1:  # subcase I
        return b + c - 2 if a == 0 else a + b + c - 3
    if (a, b, c) == (0, 0, 1):  # subcase III: the Clifford torus
        return 1
    return 2 * (b + c) - 2 if a == 0 else 2 * (a + b + c) - 3


class TestValidate:
    def test_klein_bottle_triple(self):
        t = validate(Case.GENERALIZED, 1, 0, 2)
        assert (t.a, t.b, t.c) == (0, 1, 2)

    def test_not_in_family(self):
        with pytest.raises(NotInFamilyError):
            validate(Case.GENERALIZED, 1, 1, 1)

    def test_boundary_must_be_lawson(self):
        with pytest.raises(NotInFamilyError, match="Lawson"):
            validate(Case.GENERALIZED, 3, 4, 5)

    def test_lawson_pair(self):
        t = validate(Case.LAWSON, 3, 1)
        assert (t.a, t.b) == (3, 1)
        assert t.c is None
        assert t.c_squared == 10

    def test_lawson_degenerate(self):
        with pytest.raises(DegenerateTripleError):
            validate(Case.LAWSON, 0, 2)
        with pytest.raises(DegenerateTripleError):
            validate(Case.LAWSON, 3, 0)

    def test_all_zero(self):
        with pytest.raises(DegenerateTripleError):
            validate(Case.GENERALIZED, 0, 0, 0)

    def test_signs_folded(self):
        assert validate(Case.GENERALIZED, -1, 2, -3) == validate(Case.GENERALIZED, 1, 2, 3)

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidTripleError):
            validate(Case.GENERALIZED, 1.5, 0, 2)

    def test_size_bound(self):
        """c^2 (a^2 + b^2 on the boundary) must stay below 2^1020, where every closed-form
        intermediate is below 2^1022; just below the bound the area is finite."""
        with pytest.raises(InvalidTripleError, match=r"c\^2 must be below 2\^1020"):
            Triple(Case.GENERALIZED, 0, 1, 2**510)
        with pytest.raises(InvalidTripleError, match=r"a\^2 \+ b\^2 must be below 2\^1020"):
            validate(Case.LAWSON, 2**510, 1)
        for t in (Triple(Case.GENERALIZED, 0, 1, 2**510 - 1), Triple(Case.LAWSON, 2**510 - 1, 1)):
            s, area = area_closed(t)
            assert math.isfinite(s) and math.isfinite(area) and area > 0


class TestCanonicalize:
    def test_gcd_reduction_and_swap(self):
        t = canonicalize(Triple(Case.GENERALIZED, 2, 0, 4))
        assert (t.a, t.b, t.c) == (0, 1, 2)

    def test_plain_swap(self):
        t = canonicalize(Triple(Case.GENERALIZED, 2, 1, 4))
        assert (t.a, t.b, t.c) == (1, 2, 4)

    def test_lawson_orders_descending(self):
        t = canonicalize(Triple(Case.LAWSON, 1, 3))
        assert (t.a, t.b) == (3, 1)

    @given(generalized_triples())
    @settings(max_examples=60)
    def test_idempotent(self, abc):
        t = validate(Case.GENERALIZED, *abc)
        assert canonicalize(t) == t

    def test_gcd_ignores_zeros(self):
        # (0, 0, 3) reduces by gcd 3, not by zero-gcd accidents
        t = canonicalize(Triple(Case.GENERALIZED, 0, 0, 3))
        assert (t.a, t.b, t.c) == (0, 0, 1)

    @given(
        st.one_of(
            generalized_triples().map(lambda abc: (Case.GENERALIZED, *abc)),
            st.tuples(st.integers(1, 30), st.integers(1, 30)).map(lambda ab: (Case.LAWSON, *ab, None)),
        ),
        st.integers(1, 4),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_canonical_form_is_a_fixed_point(self, raw, scale, swap):
        """Scaled and reordered entries canonicalize to one fixed point, and being that fixed point
        agrees with the gcd-and-order rule on the raw triple and on its canonical form."""
        case, a, b, c = raw
        if swap:
            a, b = b, a
        t = Triple(case, scale * a, scale * b, None if c is None else scale * c)
        u = canonicalize(t)
        assert canonicalize(u) == u
        assert u == canonicalize(Triple(case, a, b, c))
        assert gcd_and_order(u)
        assert (t == canonicalize(t)) == gcd_and_order(t)


class TestCoefficients:
    def test_klein_bottle_exact_rationals(self):
        co = coefficients(Triple(Case.GENERALIZED, 1, 0, 2))
        assert co.c1_sq == 1 / 2
        assert co.c2_sq == 5 / 8
        assert co.c3_sq == 3 / 8
        assert co.k2 == -1 / 3

    def test_equilateral(self):
        co = coefficients(validate(Case.GENERALIZED, 1, 1, 2))
        assert co.c1_sq == 2 / 3
        assert co.c2_sq == 2 / 3
        assert co.c3_sq == 1 / 3
        assert co.k2 == 0.0

    def test_clifford(self):
        co = coefficients(validate(Case.GENERALIZED, 0, 0, 1))
        assert co.c1_sq == co.c2_sq == co.c3_sq == 1 / 2
        assert co.k2 == 0.0

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (3, 1)])
    def test_lawson_drops_third_solution(self, a, b):
        co = coefficients(validate(Case.LAWSON, a, b))
        assert co.c1_sq == 1.0
        assert co.c2_sq == 1.0
        assert co.c3_sq == 0.0
        assert co.q == 0

    def test_lawson_amplitudes_bit_for_bit(self):
        """On the boundary c^2 = a^2 + b^2 the generalized formulas give exactly c1^2 = c2^2 = 1,
        c3^2 = +0.0, k^2 = (b^2 - a^2)/b^2 and Q = 0, in either stored order: every pair with
        a^2 + b^2 <= 900.  A c3^2 of -0.0 would flip the sign of zeros in CSV and OBJ exports."""
        pairs = [(a, b) for a in range(1, 31) for b in range(1, a + 1)
                 if math.gcd(a, b) == 1 and a * a + b * b <= 900]
        for a, b in pairs + [(b, a) for a, b in pairs]:
            co = coefficients(Triple(Case.LAWSON, a, b))
            assert co.c1_sq == co.c2_sq == 1.0
            assert co.c3_sq == 0.0 and math.copysign(1.0, co.c3_sq) == 1.0
            assert co.k2 == (b * b - a * a) / (b * b)
            assert co.q == 0

    @pytest.mark.parametrize("t", SUITE, ids=SUITE_IDS)
    def test_unit_sphere_identity(self, t):
        co = coefficients(t)
        y = np.linspace(0.0, 2.0 * math.pi, 97)
        s2 = np.sin(y) ** 2
        total = co.c1_sq * s2 + co.c2_sq * (1 - s2) + co.c3_sq * (1.0 - co.k2 * s2)
        assert np.max(np.abs(total - 1.0)) <= 1e-15

    @pytest.mark.parametrize("t", SUITE, ids=SUITE_IDS)
    def test_coefficient_system_consistency(self, t):
        """Denominator-cleared forms of the derivation's three relations.

        With (a, b, c) the frequencies and s = c3^2, k2 the modulus:
          (i)   c^2 (1 - 2s) = a^2 + b^2 - 2 b^2 s
          (ii)  c^2 s^2 k2 (k2 - 1) = b^2 (s - 1)^2 (k2 - 1) + a^2 (1 + s (k2 - 1))^2
          (iii) k2 (2 a^2 s + b^2 (1 - 2s)) = (a^2 - b^2) (2s - 1)
        (ii) and (iii) degenerate when a = b (k2 = 0) and are skipped there.
        """
        co = coefficients(t)
        a2, b2, c2 = co.a_sq, co.b_sq, co.c_sq
        s, k2 = co.c3_sq, co.k2
        assert c2 * (1 - 2 * s) == pytest.approx(a2 + b2 - 2 * b2 * s, abs=1e-12 * max(1, c2))
        if t.a != t.b:
            lhs = c2 * s * s * k2 * (k2 - 1)
            rhs = b2 * (s - 1) ** 2 * (k2 - 1) + a2 * (1 + s * (k2 - 1)) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1, c2))
            lhs = k2 * (2 * a2 * s + b2 * (1 - 2 * s))
            rhs = (a2 - b2) * (2 * s - 1)
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1, c2))


class TestImmersion:
    @given(generalized_triples(), st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
    @settings(max_examples=100)
    def test_unit_norm(self, abc, x, y):
        t = validate(Case.GENERALIZED, *abc)
        F = immersion(t, x, y)
        assert abs(float(F @ F) - 1.0) <= 1e-12

    @pytest.mark.parametrize("t", SUITE, ids=SUITE_IDS)
    def test_unit_norm_on_suite(self, t):
        rng = np.random.default_rng(42)
        x = rng.uniform(0, 2 * math.pi, 1000)
        y = rng.uniform(0, 2 * math.pi, 1000)
        F = immersion(t, x, y)
        assert np.max(np.abs(np.sum(F * F, axis=0) - 1.0)) <= 1e-12

    def test_clifford_torus_components(self):
        t = validate(Case.GENERALIZED, 0, 0, 1)
        x, y = 0.7, 1.9
        F = immersion(t, x, y)
        r = 1.0 / math.sqrt(2.0)
        expected = [0.0, r * math.sin(y), 0.0, r * math.cos(y), r * math.sin(x), r * math.cos(x)]
        assert F == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize(
        "x,y",
        [
            (0.3, 1.1),
            (np.linspace(0.0, 6.0, 5), 0.7),
            (0.7, np.linspace(0.0, 6.0, 4)),
            tuple(np.meshgrid(np.linspace(0.0, 6.0, 5), np.linspace(0.0, 6.0, 4), indexing="ij")),
            (np.linspace(0.0, 6.0, 5)[:, None], np.linspace(0.0, 6.0, 4)[None, :]),
        ],
        ids=["scalar-scalar", "1d-scalar", "scalar-1d", "meshgrid", "column-row"],
    )
    def test_output_shape_is_six_by_broadcast(self, x, y):
        """F has shape (6,) + broadcast(x, y), and each point equals its scalar evaluation."""
        for t in (validate(Case.GENERALIZED, 1, 0, 2), validate(Case.LAWSON, 3, 1)):
            F = immersion(t, x, y)
            assert F.shape == (6,) + np.broadcast_shapes(np.shape(x), np.shape(y))
            xs, ys = (np.ravel(v) for v in np.broadcast_arrays(x, y))
            for k, point in enumerate(F.reshape(6, -1).T):
                assert np.array_equal(point, immersion(t, xs[k], ys[k]))

    def test_klein_bottle_five_component_form(self):
        # for the (1, 0, 2) ordering the second frequency is 0: the third
        # immersion slot is sqrt(5/8) cos y paired with an identical zero
        t = Triple(Case.GENERALIZED, 1, 0, 2)
        y = np.linspace(0, 2 * math.pi, 17)
        F = immersion(t, 0.33, y)
        assert np.max(np.abs(F[2])) == 0.0
        assert F[3] == pytest.approx(math.sqrt(5.0 / 8.0) * np.cos(y), abs=1e-15)
        assert F[4] == pytest.approx(
            math.sqrt(3.0 / 8.0) * math.sin(0.66) * np.sqrt(1 + np.sin(y) ** 2 / 3.0), abs=1e-15
        )


class TestMetric:
    def test_equilateral_is_flat(self):
        t = validate(Case.GENERALIZED, 1, 1, 2)
        for y in (0.0, 0.4, 2.2):
            gxx, gyy = metric(t, y)
            assert gxx == pytest.approx(2.0, abs=1e-15)
            assert gyy == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_clifford_is_half_metric(self):
        t = validate(Case.GENERALIZED, 0, 0, 1)
        gxx, gyy = metric(t, 1.234)
        assert gxx == pytest.approx(0.5, abs=1e-15)
        assert gyy == pytest.approx(0.5, abs=1e-15)

    def test_lawson_profile(self):
        t = validate(Case.LAWSON, 3, 1)
        y = np.linspace(0, 2 * math.pi, 50)
        gxx, gyy = metric(t, y)
        assert gxx == pytest.approx(9 * np.sin(y) ** 2 + np.cos(y) ** 2, abs=1e-12)
        assert gyy == pytest.approx(np.ones_like(y), abs=1e-15)

    @pytest.mark.parametrize("t", SUITE, ids=SUITE_IDS)
    def test_positivity_with_closed_form_minima(self, t):
        co = coefficients(t)
        y = np.linspace(0.0, 2.0 * math.pi, 4001)
        p = co.P(y)
        a2, b2, c2 = co.a_sq, co.b_sq, co.c_sq
        lo, hi = min(a2, b2), max(a2, b2)
        assert np.min(p) >= (c2 + lo - hi) / 2.0 - 1e-12
        assert np.min(co.q + 2 * p) >= 2.0 * (c2 - hi) - 1e-12
        assert np.min(p) > 0
        assert np.min(co.q + 2 * p) > 0


# S of a sample from k^2 and 1 - k^2 in floats, as area_closed formed them before Modulus carried
# k'^2 from integers.
S_FROM_FLOAT_MODULI = [
    ((0, 0, 1), 19.739208802178716),
    ((0, 1, 2), 41.987050357708426),
    ((1, 1, 2), 45.585750062112446),
    ((1, 2, 3), 69.02331879430437),
    ((1, 1, 4), 81.54626875535894),
    ((1, 2, 4), 85.70733846144782),
    ((0, 1, 3), 60.874315508715355),
    ((1, 3, 4), 93.15192238524726),
    ((2, 3, 6), 130.62477149223488),
    ((1, 2, 5), 103.9131677662479),
    ((3, 4, 6), 146.13266269499172),
    ((5, 7, 13), 289.86630641073896),
    ((12, 74, 77), 1939.3386317060576),
    ((1, 2, 150), 2961.045823329799),
    ((60, 80, 101), 2778.189603724934),
    ((98, 835, 919), 22309.571091321286),
    ((1, 2, 1500), 29608.82965261833),
    ((1, 4, 5000), 98696.0607892226),
    ((1, 1000, 1001), 25145.378134002098),
    ((1, 1), 39.47841760435743),
    ((2, 1), 60.87431550871536),
    ((3, 1), 83.97410071541685),
    ((171, 1), 4298.141735085682),
    ((188, 1), 4725.364613299035),
    ((300, 1), 7540.098414156877),
    ((3000, 1), 75398.26093565157),
]

# S = 8 pi a E((a^2 - b^2) / a^2) of tau_(a, b) by mpmath.ellipe at 45 digits.
LAWSON_S = {
    (2, 1): "60.87431550871536886576080865900144210357",
    (19, 1): "480.0579189450684801529535147463975533225",
    (188, 1): "4725.364613299038283237214688030667459935",
    (1000, 1): "25132.8391716686898634678769800702533377",
    (3000, 1): "75398.260935651669683835264851123596037",
    (10000, 1): "251327.4249749889052970551874283777199192",
    (7, 3): "205.3701010656343322924350865247098158406",
    (99, 70): "3360.529029185014700254774544619090014481",
}


class TestArea:
    def test_clifford_landmark(self):
        s, area = area_closed(validate(Case.GENERALIZED, 0, 0, 1))
        assert s == pytest.approx(2.0 * math.pi**2, rel=1e-12)
        assert area == pytest.approx(2.0 * math.pi**2, rel=1e-12)

    def test_equilateral_landmark(self):
        s, area = area_closed(validate(Case.GENERALIZED, 1, 1, 2))
        assert s == pytest.approx(8.0 * math.pi**2 / math.sqrt(3.0), rel=1e-12)
        assert area == pytest.approx(4.0 * math.pi**2 / math.sqrt(3.0), rel=1e-12)

    def test_klein_bottle_landmark(self):
        from lawson.elliptic import Modulus, complete_E, complete_K

        s, area = area_closed(validate(Case.GENERALIZED, 0, 1, 2))
        m = Modulus.from_k(0.5)
        expected = 2.0 * math.pi * (8.0 * complete_E(m) - 3.0 * complete_K(m))
        assert s == pytest.approx(expected, rel=1e-14)
        assert s == pytest.approx(41.987050357708426, rel=1e-12)
        assert area == pytest.approx(s / 2.0, rel=1e-15)

    def test_order_invariance_via_negative_continuation(self):
        # S is symmetric in a, b; area_closed sorts a and b, so the (1, 0, 2)
        # ordering lands on the same value bit for bit.  K and E at its
        # negative continuation, k^2 = -1/3, stay checked by test_elliptic's
        # K_NEG_THIRD.
        s_canonical, _ = area_closed(validate(Case.GENERALIZED, 0, 1, 2))
        s_swapped, _ = area_closed(Triple(Case.GENERALIZED, 1, 0, 2))
        assert s_swapped == s_canonical

    def test_lawson_value(self):
        from lawson.elliptic import Modulus, complete_E

        s, area = area_closed(validate(Case.LAWSON, 3, 1))
        expected = 24.0 * math.pi * complete_E(Modulus.from_k(2.0 * math.sqrt(2.0) / 3.0))
        assert s == pytest.approx(expected, rel=1e-13)
        assert area == pytest.approx(s / 2.0, rel=1e-15)

    def test_quadrature_trapezoid_exact_for_clifford(self):
        t = validate(Case.GENERALIZED, 0, 0, 1)
        assert area_quadrature(t, 64) == pytest.approx(2.0 * math.pi**2, rel=1e-12)

    @pytest.mark.parametrize("t", SUITE, ids=SUITE_IDS)
    def test_oracle_agreement(self, t):
        _, closed = area_closed(t)
        quad = area_quadrature(t, 4096)
        assert abs(closed - quad) / closed <= 1e-8

    def test_grid_precondition(self):
        with pytest.raises(ValueError):
            area_quadrature(SUITE[0], 32)

    @pytest.mark.parametrize("a,area,nodes", [(3000, 37699.1304678258348, 131072),
                                              (10**4, 125663.712487494453, 524288)])
    def test_thin_lawson_surfaces_get_the_nodes_their_strip_needs(self, a, area, nodes):
        """tau_(a,1) is analytic only within d ~ 1/a of the real axis: 4096 nodes err by 6.0e-8
        and 1.4e-7 relative, above the area check's 1e-8, while the derived count reaches
        rounding (measured 1.2e-15 and 3.5e-16) against the closed form and its value by mpmath
        at 30 digits, 4 pi a E((a^2 - 1) / a^2)."""
        t = validate(Case.LAWSON, a, 1)
        _, closed = area_closed(t)
        assert surface._area_nodes(t) == nodes
        assert abs(area_quadrature(t, 4096) - closed) / closed > 1e-8
        assert abs(area_quadrature(t) - closed) / closed <= 1e-14
        assert abs(closed - area) / area <= 1e-14

    @pytest.mark.parametrize("abc,s", S_FROM_FLOAT_MODULI,
                             ids=[str(abc) for abc, _ in S_FROM_FLOAT_MODULI])
    def test_S_within_16_ulps_of_the_float_moduli(self, abc, s):
        """S from k^2 and k'^2 = 1 - k^2 rounded in floats (``S_FROM_FLOAT_MODULI``) and from
        both formed from integers differ by rounding: measured at most 8 ulps over the 193,547
        generalized triples with c <= 120 and 10 over the 12,152 Lawson pairs with a <= 199."""
        t = validate(Case.LAWSON, *abc) if len(abc) == 2 else validate(Case.GENERALIZED, *abc)
        assert abs(area_closed(t)[0] - s) <= 16 * math.ulp(s)

    @pytest.mark.parametrize("ab", list(LAWSON_S), ids=[f"tau_{ab}" for ab in LAWSON_S])
    def test_lawson_S_within_16_ulps_of_the_reference(self, ab):
        """S = 8 pi a E keeps E's companion-sum rounding, which grows as k -> 1 (measured at most
        9.9 ulps over the Lawson pairs with a <= 199, before and after k'^2 came from integers)."""
        s, _ = area_closed(validate(Case.LAWSON, *ab))
        assert abs(Fraction(s) - Fraction(LAWSON_S[ab])) <= 16 * Fraction(math.ulp(s))

    def test_modulus_rounding_to_one_classifies(self):
        """T_(0, 2^56 - 1, 2^56): k^2 = b^2 / c^2 rounds to 1.0, k'^2 = (2c - 1) / c^2 does not."""
        c = 2**56
        t = validate(Case.GENERALIZED, 0, c - 1, c)
        s, area = area_closed(t)
        assert classify(t).area == area == s / 2
        assert s == pytest.approx(8.0 * math.pi * (c - 1), rel=1e-15)  # 4 pi / c * 2 c^2 E, E -> 1

    @pytest.mark.parametrize("t", [Triple(Case.GENERALIZED, 1, 2, 3),
                                   Triple(Case.GENERALIZED, 5, 7, 13),
                                   Triple(Case.GENERALIZED, 7, 5, 13), Triple(Case.LAWSON, 3, 1),
                                   Triple(Case.LAWSON, 1000, 1),
                                   Triple(Case.GENERALIZED, 98, 835, 919)],
                             ids=["T_(1,2,3)", "T_(5,7,13)", "T_(7,5,13)", "tau_(3,1)",
                                  "tau_(1000,1)", "T_(98,835,919)"])
    def test_the_nodes_strip_is_the_area_integrands(self, t):
        """The strip of the surface's modulus (:func:`lawson.elliptic._strip`), which sets the
        area's nodes, ends where the integrand's Q + 2P = c^2 + Q + (b^2 - a^2) cos 2y vanishes:
        at y = x + i d with x = 0 (a > b) or pi/2 (a < b), in either order of a and b.  Measured
        at most 1.1e-16 of its scale 2 (c^2 - A^2)."""
        co = coefficients(t)
        d = _strip(surface._modulus(t))
        at = [co.c_sq + co.q + (co.b_sq - co.a_sq) * cmath.cos(2.0 * complex(x, d))
              for x in (0.0, math.pi / 2)]
        scale = 2 * (co.c_sq - min(co.a_sq, co.b_sq))
        assert min(abs(v) for v in at) / scale <= 4 * math.ulp(1.0)

    def test_every_surface_up_to_c_30_keeps_4096_nodes(self):
        """Up to c = 30 the strip is wide: every generalized triple and Lawson pair there, in
        either order, keeps the former fixed 4096 nodes, so its area record is unchanged."""
        for c in range(1, 31):
            for b in range(c):
                for a in range(c):
                    if a * a + b * b < c * c:
                        assert surface._area_nodes(Triple(Case.GENERALIZED, a, b, c)) == 4096
        for a in range(1, 31):
            for b in range(1, 31):
                if a * a + b * b <= 900:
                    assert surface._area_nodes(Triple(Case.LAWSON, a, b, None)) == 4096


class TestClassify:
    @pytest.mark.parametrize(
        "abc,subcase,topology,degree",
        [
            ((0, 1, 2), Subcase.I, Topology.KLEIN_BOTTLE, 2),
            ((1, 1, 2), Subcase.II, Topology.TORUS, 2),
            ((1, 2, 3), Subcase.III, Topology.TORUS, 1),
            ((0, 0, 1), Subcase.III, Topology.TORUS, 1),
            ((1, 2, 4), Subcase.I, Topology.KLEIN_BOTTLE, 2),
            ((1, 3, 4), Subcase.II, Topology.TORUS, 2),
        ],
    )
    def test_generalized_parity_rules(self, abc, subcase, topology, degree):
        sc = classify(validate(Case.GENERALIZED, *abc))
        assert sc.subcase is subcase
        assert sc.topology is topology
        assert sc.covering_degree == degree

    @pytest.mark.parametrize(
        "ab,topology",
        [((1, 1), Topology.TORUS), ((2, 1), Topology.KLEIN_BOTTLE), ((3, 1), Topology.TORUS)],
    )
    def test_lawson_topology(self, ab, topology):
        sc = classify(validate(Case.LAWSON, *ab))
        assert sc.topology is topology
        assert sc.covering_degree == 2
        assert sc.subcase is Subcase.LAWSON

    @pytest.mark.parametrize("t", SUITE, ids=SUITE_IDS)
    def test_structural_invariants(self, t):
        sc = classify(t)
        assert sc.lambda_value == pytest.approx(2.0 * sc.area, rel=1e-15)
        assert (sc.covering_degree == 2) == (
            sc.subcase in (Subcase.LAWSON, Subcase.I, Subcase.II)
        )
        assert (sc.functional is Functional.KLEIN) == (sc.topology is Topology.KLEIN_BOTTLE)


class TestExtremalIndex:
    @pytest.mark.parametrize(
        "case,params,j",
        [
            (Case.GENERALIZED, (0, 1, 2), 1),
            (Case.GENERALIZED, (1, 1, 2), 1),
            (Case.GENERALIZED, (0, 0, 1), 1),
            (Case.GENERALIZED, (1, 2, 3), 9),
            (Case.GENERALIZED, (0, 1, 3), 6),
            (Case.GENERALIZED, (1, 2, 5), 13),
            (Case.GENERALIZED, (1, 1, 4), 3),
            (Case.GENERALIZED, (1, 2, 4), 4),
            (Case.LAWSON, (1, 1), 1),
            (Case.LAWSON, (2, 1), 4),
            (Case.LAWSON, (3, 1), 5),
            # a^2 + b^2 > 2^53: its float sqrt rounds up to 134234114, but floor(c) = 134234113
            (Case.LAWSON, (134234113, 16385), 268484609),
        ],
    )
    def test_closed_forms(self, case, params, j):
        assert classify(validate(case, *params)).j == j

    def test_one_rule_matches_the_paper_table(self):
        """Every canonical generalized triple with c <= 60 and every canonical Lawson pair with
        a^2 + b^2 <= 3600 gets the j of the paper's subcase table."""
        triples = [(a, b, c) for c in range(1, 61) for b in range(c) for a in range(b + 1)
                   if a * a + b * b < c * c and math.gcd(a, b, c) == 1]
        pairs = [(a, b) for a in range(1, 61) for b in range(1, a + 1)
                 if math.gcd(a, b) == 1 and a * a + b * b <= 3600]
        for params in triples + pairs:
            case = Case.GENERALIZED if len(params) == 3 else Case.LAWSON
            assert classify(Triple(case, *params)).j == paper_index(*params), params

    def test_clifford_value(self):
        sc = classify(validate(Case.GENERALIZED, 0, 0, 1))
        assert sc.j == 1
        assert sc.functional is Functional.TORUS
        assert sc.lambda_value == pytest.approx(4.0 * math.pi**2, rel=1e-12)

    def test_lawson_clifford_value(self):
        sc = classify(validate(Case.LAWSON, 1, 1))
        assert sc.j == 1
        assert sc.lambda_value == pytest.approx(4.0 * math.pi**2, rel=1e-12)

    def test_klein_functional(self):
        sc = classify(validate(Case.GENERALIZED, 0, 1, 2))
        assert sc.functional is Functional.KLEIN
        s, _ = area_closed(validate(Case.GENERALIZED, 0, 1, 2))
        assert sc.lambda_value == pytest.approx(s, rel=1e-15)

    @given(generalized_triples(), st.integers(1, 3))
    @settings(max_examples=40)
    def test_isometry_invariance(self, abc, scale):
        """Swaps, sign flips and common scaling are ambient isometries."""
        a, b, c = abc
        reference = validate(Case.GENERALIZED, a, b, c)
        for variant in [(b, a, c), (-a, b, -c), (scale * a, scale * b, scale * c)]:
            t = validate(Case.GENERALIZED, *variant)
            assert t == reference
            assert area_closed(t) == area_closed(reference)
            assert classify(t) == classify(reference)


SYMMETRY_SET = SUITE + [validate(Case.GENERALIZED, 1, 2, 1500),
                        validate(Case.GENERALIZED, 1, 4, 5000), validate(Case.LAWSON, 10**4, 1)]


def _image_residual(t, phi, n):
    """max |F(Phi p) - F(p)| over the n x n grid of [0, 2 pi)^2, F evaluated on the whole grid with
    each integer phase l x_i = 2 pi (l i mod n) / n reduced exactly (f3 = 0 on the boundary, where
    c is not stored)."""
    i = np.arange(n)
    profiles = immersion(t, 0.0, 2.0 * math.pi * i / n)[1::2]
    phases = [2.0 * math.pi / n * (l * i % n) for l in (t.a, t.b, t.c or 0)]
    F = np.array([trig(x)[:, None] * f for x, f in zip(phases, profiles)
                  for trig in (np.sin, np.cos)])
    xi, yj = phi.apply(i, i, n // 2)
    diff = F[:, xi % n][:, :, yj % n] - F
    return float(np.max(np.sqrt(np.sum(diff * diff, axis=0))))


class TestSymmetry:
    @pytest.mark.parametrize(
        "case,params,phi",
        [
            (Case.GENERALIZED, (0, 1, 2), Phi.PHI1),
            (Case.GENERALIZED, (1, 2, 4), Phi.PHI2),
            (Case.GENERALIZED, (2, 3, 6), Phi.PHI1),
            (Case.GENERALIZED, (1, 1, 2), Phi.PHI3),
            (Case.GENERALIZED, (1, 2, 3), None),
            (Case.GENERALIZED, (0, 0, 1), None),
            (Case.LAWSON, (1, 1), Phi.PHI3),
            (Case.LAWSON, (3, 1), Phi.PHI3),
            (Case.LAWSON, (2, 1), Phi.PHI1),
        ],
    )
    def test_expected_identification(self, case, params, phi):
        assert expected_symmetry(validate(case, *params)) is phi

    @pytest.mark.parametrize(
        "t",
        SUITE + [validate(Case.GENERALIZED, 1, 2, 1500), validate(Case.GENERALIZED, 1, 4, 5000)],
        ids=SUITE_IDS + ["T_(1,2,1500)", "T_(1,4,5000)"],
    )
    def test_dichotomy(self, t):
        """The match stays at roundoff for large c: the residual compares the y-profiles alone and
        forms no phase c x (measured 5.0e-16 at c = 1500 and 4.5e-16 at c = 5000)."""
        expected = expected_symmetry(t)
        for phi in Phi:
            r = symmetry_residual(t, 32)[phi]
            if phi is expected:
                assert r <= 1e-12
            else:
                assert r >= 0.1

    def test_parity_table_matches_the_immersion(self):
        """On every canonical generalized triple with c <= 20 and every canonical Lawson pair with
        a^2 + b^2 <= 400 the immersion carries exactly the map the parity table names, the Klein
        bottles are the surfaces of an orientation-reversing map (phi1, phi2), and the covering
        degree is 2 exactly when a map exists."""
        triples = [Triple(Case.GENERALIZED, a, b, c) for c in range(1, 21) for b in range(c)
                   for a in range(b + 1) if a * a + b * b < c * c and math.gcd(a, b, c) == 1]
        pairs = [Triple(Case.LAWSON, a, b) for a in range(1, 21) for b in range(1, a + 1)
                 if math.gcd(a, b) == 1 and a * a + b * b <= 400]
        assert (len(triples), len(pairs)) == (1033, 96)
        for t in triples + pairs:
            expected = expected_symmetry(t)
            for phi in Phi:
                r = symmetry_residual(t, 32)[phi]
                assert r <= 1e-12 if phi is expected else r >= 0.1, (t.label(), phi)
            sc = classify(t)
            klein = sc.topology is Topology.KLEIN_BOTTLE
            assert klein == (expected in (Phi.PHI1, Phi.PHI2)), t.label()
            assert (sc.covering_degree == 2) == (expected is not None), t.label()

    @pytest.mark.parametrize("t", SYMMETRY_SET, ids=[t.label() for t in SYMMETRY_SET])
    def test_profiles_give_the_residual_of_the_whole_image(self, t):
        """The residual from the y-profiles equals the one of F on the n x n grid compared with
        its permutation under Phi, within 1e-15, at every Phi and n = 32, 48."""
        for n in (32, 48):
            for phi in Phi:
                assert abs(symmetry_residual(t, n)[phi] - _image_residual(t, phi, n)) <= 1e-15

    def test_grid_precondition(self):
        with pytest.raises(ValueError):
            symmetry_residual(SUITE[0], 8)
        with pytest.raises(ValueError, match="even"):
            symmetry_residual(SUITE[0], 33)
