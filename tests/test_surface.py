"""Family construction: validation, coefficients, metric, area, classification."""

import math

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
    extremal_index,
    immersion,
    injectivity_scan,
    metric,
    symmetry_residual,
    validate,
)
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
        assert t.is_canonical

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
        """Scaled and reordered entries canonicalize to one fixed point, and is_canonical agrees
        with the gcd-and-order rule on the raw triple and on its canonical form."""
        case, a, b, c = raw
        if swap:
            a, b = b, a
        t = Triple(case, scale * a, scale * b, None if c is None else scale * c)
        u = canonicalize(t)
        assert canonicalize(u) == u
        assert u == canonicalize(Triple(case, a, b, c))
        assert u.is_canonical and gcd_and_order(u)
        assert t.is_canonical == gcd_and_order(t)


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
        # S is symmetric in a, b; the (1, 0, 2) ordering routes through
        # K and E at k^2 = -1/3 and must land on the same value.
        s_canonical, _ = area_closed(validate(Case.GENERALIZED, 0, 1, 2))
        s_swapped, _ = area_closed(Triple(Case.GENERALIZED, 1, 0, 2))
        assert s_swapped == pytest.approx(s_canonical, rel=1e-13)

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
        assert extremal_index(validate(case, *params))[0] == j

    def test_one_rule_matches_the_paper_table(self):
        """Every canonical generalized triple with c <= 60 and every canonical Lawson pair with
        a^2 + b^2 <= 3600 gets the j of the paper's subcase table."""
        triples = [(a, b, c) for c in range(1, 61) for b in range(c) for a in range(b + 1)
                   if a * a + b * b < c * c and math.gcd(a, b, c) == 1]
        pairs = [(a, b) for a in range(1, 61) for b in range(1, a + 1)
                 if math.gcd(a, b) == 1 and a * a + b * b <= 3600]
        for params in triples + pairs:
            case = Case.GENERALIZED if len(params) == 3 else Case.LAWSON
            assert extremal_index(Triple(case, *params))[0] == paper_index(*params), params

    def test_clifford_value(self):
        j, functional, lam = extremal_index(validate(Case.GENERALIZED, 0, 0, 1))
        assert j == 1
        assert functional is Functional.TORUS
        assert lam == pytest.approx(4.0 * math.pi**2, rel=1e-12)

    def test_lawson_clifford_value(self):
        j, _, lam = extremal_index(validate(Case.LAWSON, 1, 1))
        assert j == 1
        assert lam == pytest.approx(4.0 * math.pi**2, rel=1e-12)

    def test_klein_functional(self):
        _, functional, lam = extremal_index(validate(Case.GENERALIZED, 0, 1, 2))
        assert functional is Functional.KLEIN
        s, _ = area_closed(validate(Case.GENERALIZED, 0, 1, 2))
        assert lam == pytest.approx(s, rel=1e-15)

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
            assert extremal_index(t) == extremal_index(reference)


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
        """The match stays at roundoff for large c: unreduced phases c x lose
        about c ulp (1.1e-12 at c = 1500, 2.7e-12 at c = 5000)."""
        expected = expected_symmetry(t)
        for phi in Phi:
            r = symmetry_residual(t, phi, 32)
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
                r = symmetry_residual(t, phi, 32)
                assert r <= 1e-12 if phi is expected else r >= 0.1, (t.label(), phi)
            sc = classify(t)
            klein = sc.topology is Topology.KLEIN_BOTTLE
            assert klein == (expected in (Phi.PHI1, Phi.PHI2)), t.label()
            assert (sc.covering_degree == 2) == (expected is not None), t.label()

    def test_grid_precondition(self):
        with pytest.raises(ValueError):
            symmetry_residual(SUITE[0], Phi.PHI1, 8)
        with pytest.raises(ValueError, match="even"):
            symmetry_residual(SUITE[0], Phi.PHI1, 33)


class TestInjectivity:
    @pytest.mark.parametrize("abc", [(0, 0, 1), (1, 2, 3)])
    def test_embedded_cases_have_positive_separation(self, abc):
        t = validate(Case.GENERALIZED, *abc)
        d = injectivity_scan(t, 32)
        # crude floor: shortest grid edge under the metric, halved
        co = coefficients(t)
        y = np.linspace(0, 2 * math.pi, 512)
        gxx, gyy = metric(t, y)
        floor = 0.5 * (2 * math.pi / 32) * math.sqrt(min(np.min(gxx), np.min(gyy)))
        assert d > 0
        assert d > floor

    @pytest.mark.parametrize("abc", [(0, 0, 1), (1, 2, 3), (2, 2, 3), (1, 2, 5)])
    def test_minimum_equals_pdist(self, abc):
        """The row-by-row numpy minimum is the minimum of scipy's pdist, bit for bit."""
        from scipy.spatial.distance import pdist

        t = validate(Case.GENERALIZED, *abc)
        x = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
        pts = immersion(t, *np.meshgrid(x, x, indexing="ij")).reshape(6, -1).T
        assert injectivity_scan(t, 32) == float(np.min(pdist(pts)))

    def test_quotient_rejected(self):
        with pytest.raises(InvalidTripleError, match="quotient"):
            injectivity_scan(validate(Case.GENERALIZED, 1, 1, 2), 32)
