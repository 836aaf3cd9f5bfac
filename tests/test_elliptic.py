"""Elliptic-integral layer: AGM values against the quadrature oracle.

The oracle (the periodic rectangle rule on the theta-substituted defining
integrals, its node count from the strip of analyticity) shares no code
with the AGM evaluation; agreement between the two is the correctness
argument.  The periodic rule at 4096 nodes reproduces the frozen
reference digits below within 4 ulps.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from lawson.elliptic import (
    Modulus,
    complete_E,
    complete_E_quadrature,
    complete_K,
    complete_K_quadrature,
    landen_gap,
)

# Reference values, reproduced within 4 ulps by the periodic rectangle rule at 4096 nodes.
K_HALF = 1.685750354812596
E_HALF = 1.4674622093394272
K_NEG_THIRD = 1.4599026317063393  # k^2 = -1/3, the non-canonical Klein-bottle modulus
E_NEG_THIRD = 1.6944794031754422


class TestCompleteK:
    def test_at_zero(self):
        assert complete_K(Modulus(0.0)) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_frozen_value_at_half(self):
        assert complete_K(Modulus.from_k(0.5)) == pytest.approx(K_HALF, rel=1e-12)

    def test_negative_modulus_squared(self):
        val = complete_K(Modulus(k2=-1.0 / 3.0))
        assert val > 0.0
        assert val == pytest.approx(K_NEG_THIRD, rel=1e-12)
        assert val == pytest.approx(complete_K_quadrature(Modulus(k2=-1.0 / 3.0)), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            complete_K(Modulus(1.0))
        with pytest.raises(ValueError):
            Modulus(1.5)


class TestCompleteE:
    def test_at_zero(self):
        assert complete_E(Modulus(0.0)) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_at_one(self):
        assert complete_E(Modulus(1.0)) == 1.0

    def test_frozen_value_at_half(self):
        assert complete_E(Modulus.from_k(0.5)) == pytest.approx(E_HALF, rel=1e-12)

    def test_negative_modulus_squared(self):
        assert complete_E(Modulus(k2=-1.0 / 3.0)) == pytest.approx(E_NEG_THIRD, rel=1e-12)


class TestMonotonicity:
    def test_K_increasing_E_decreasing(self):
        ks = np.linspace(0.0, 0.995, 60)
        K = np.array([complete_K(Modulus.from_k(float(k))) for k in ks])
        E = np.array([complete_E(Modulus.from_k(float(k))) for k in ks])
        assert np.all(np.diff(K) > 0)
        assert np.all(np.diff(E) < 0)
        assert np.all(E <= math.pi / 2.0 + 1e-15)
        assert np.all(K >= math.pi / 2.0 - 1e-15)
        assert K[0] == pytest.approx(math.pi / 2.0, rel=1e-15)
        assert E[0] == pytest.approx(math.pi / 2.0, rel=1e-15)


class TestLegendreRelation:
    def test_fifty_moduli(self):
        # E(k) K(k') + E(k') K(k) - K(k) K(k') = pi/2: algebraic cross-check
        # of the AGM implementation needing no external reference.
        for k in np.linspace(0.01, 0.99, 50):
            k = float(k)
            kp = math.sqrt(1.0 - k * k)
            m, mp = Modulus.from_k(k), Modulus.from_k(kp)
            lhs = (
                complete_E(m) * complete_K(mp)
                + complete_E(mp) * complete_K(m)
                - complete_K(m) * complete_K(mp)
            )
            assert lhs == pytest.approx(math.pi / 2.0, abs=1e-11)


class TestAgainstQuadratureOracle:
    def test_sweep_including_negative_continuation(self):
        for k2 in np.linspace(-2.0, 0.99, 100):
            k2 = float(k2)
            m = Modulus(k2)
            assert complete_K(m) == pytest.approx(complete_K_quadrature(m), rel=1e-10)
            assert complete_E(m) == pytest.approx(complete_E_quadrature(m), rel=1e-10)

    @pytest.mark.parametrize("k2,kp2", [(0.5, 0.5), (0.9, 0.1), (-1.0 / 3.0, 4.0 / 3.0),
                                        (-100.0, 101.0), (0.0, 1.0), (1.0 - 1e-6, 1e-6),
                                        (1.0 - 1e-8, 1e-8)])
    def test_within_1e_13_of_the_agm(self, k2, kp2):
        """k'^2 = 1e-6 and 1e-8 take 2^16 and 2^19 nodes; there the rule's K and E sit within
        1.1e-14 and 4.4e-16 of the AGM (measured), since the carried k'^2 keeps
        k'^2 + k^2 cos^2 theta from cancelling.  The old G7/K15 oracle was 1.8e-12 off at 1e-6."""
        m = Modulus(k2, kp2)
        assert complete_K_quadrature(m) == pytest.approx(complete_K(m), rel=1e-13)
        assert complete_E_quadrature(m) == pytest.approx(complete_E(m), rel=1e-13)

    def test_raises_where_the_node_cap_cannot_reach_rounding(self):
        """At k'^2 = 1e-10 the strip half-width is 1e-5, and 2^20 nodes give n d = 10.5, not
        ln(1 / u) = 36.7: the capped rule's K was 1.7e-6 off, so the oracle refuses."""
        m = Modulus(1.0 - 1e-10, 1e-10)
        for oracle in (complete_K_quadrature, complete_E_quadrature):
            with pytest.raises(ValueError, match=r"2\^20 nodes at k'\^2 = 1e-10"):
                oracle(m)


class TestLandenGap:
    def test_zero_exactly_at_zero(self):
        assert landen_gap(0.0) == 0.0

    @pytest.mark.parametrize("k", [0.5, 8.0 / 9.0])
    def test_named_points(self, k):
        assert abs(landen_gap(k)) <= 1e-12

    def test_descends_to_target_modulus(self):
        # at k = 1/2 the ascending argument is 2 sqrt(2)/3: the identity
        # instance behind the equality of the two Klein-bottle values
        assert 2.0 * math.sqrt(0.5) / 1.5 == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, rel=1e-15)

    def test_sweep(self):
        for k in np.linspace(0.0, 0.99, 100):
            assert abs(landen_gap(float(k))) <= 1e-10

    @pytest.mark.parametrize("k", [-0.1, 1.0, 1.5])
    def test_domain(self, k):
        with pytest.raises(ValueError):
            landen_gap(k)


class TestModulus:
    def test_from_k(self):
        m = Modulus.from_k(0.5)
        assert m.k2 == 0.25

    def test_from_ratio_forms_both_squares_from_integers(self):
        m = Modulus.from_ratio(3, 4)
        assert (m.k2, m.kp2) == (0.75, 0.25)
        assert Modulus(0.75).kp2 == 0.25  # the default 1 - k^2
        with pytest.raises(ValueError):
            Modulus(0.5, kp2=-1.0)


# K at the modulus of tau_(a, b), k^2 = (a^2 - b^2) / a^2, by mpmath.ellipk at 45 digits.
LAWSON_K = {
    (2, 1): "2.156515647499643235438674998800322028864",
    (19, 1): "4.333043363003263388766128694655507833612",
    (188, 1): "6.622776096069287402508164323740985169027",
    (1000, 1): "8.294051463615439985315519278799438212276",
    (3000, 1): "9.392662161899649664919255854111906371256",
    (10000, 1): "10.5966347570876603202555402974683259687",
    (7, 3): "2.295999812210315689611361661648042040676",
    (99, 70): "1.854117900461309638704504461934721488385",
}


class TestComplementaryModulus:
    """K and E run the AGM from (1, k'), k'^2 formed from integers: 1 - k^2 in floats keeps
    only the bits of k'^2 that survive k^2's rounding, and is 0 once k^2 rounds to 1."""

    @pytest.mark.parametrize("bits", [20, 30, 40, 56])
    def test_K_near_one_follows_its_logarithmic_asymptote(self, bits):
        """k = (2^bits - 1) / 2^bits: K = ln(4/k') + O(k'^2 ln k') (DLMF 19.12.1).  At 56 bits
        k^2 rounds to 1.0, where K from 1 - k^2 diverged."""
        c = 2**bits
        m = Modulus.from_ratio((c - 1) ** 2, c * c)
        log = math.log(4.0) - 0.5 * math.log(m.kp2)
        assert m.kp2 > 0.0
        assert abs(complete_K(m) - log) <= m.kp2 * log + 4 * math.ulp(log)
        assert abs(complete_E(m) - 1.0) <= m.kp2 * log + 4 * math.ulp(1.0)

    @pytest.mark.parametrize("ab", list(LAWSON_K), ids=[f"tau_{ab}" for ab in LAWSON_K])
    def test_lawson_K_within_4_ulps_of_the_reference(self, ab):
        """1 - k^2 in floats would put K 1087 ulps off at tau_(188,1)."""
        a, b = ab
        K = complete_K(Modulus.from_ratio(a * a - b * b, a * a))
        assert abs(Fraction(K) - Fraction(LAWSON_K[ab])) <= 4 * Fraction(math.ulp(K))
