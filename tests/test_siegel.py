"""Tests for degree-2 Siegel Eisenstein series and the Igusa cusp forms."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eiscong.arith import bernoulli
from eiscong.expansion import phi_operator
from eiscong.elliptic import elliptic_eisenstein
from eiscong.errors import InvalidWeight, NotPositiveSemidefinite
from eiscong.siegel import (
    SIEGEL,
    content,
    det4,
    igusa_x10,
    igusa_x12,
    rank,
    siegel_e_coefficient,
    siegel_expansion,
    siegel_g_coefficient,
)

ONE_TWO = (1, 1, 1)  # the matrix with ones on the diagonal and halves off it
IDENTITY = (1, 0, 1)


def unimodular_transform(t, u):
    """Index of U^T T U for U = [[p, q], [r, s]] with det +-1."""
    a, b2, c = t
    p, q, r, s = u
    return (
        p * p * a + p * r * b2 + r * r * c,
        2 * p * q * a + (p * s + q * r) * b2 + 2 * r * s * c,
        q * q * a + q * s * b2 + s * s * c,
    )


class TestIndexHelpers:
    def test_det4_and_rank(self):
        assert det4((1, 1, 1)) == 3
        assert det4((1, 0, 1)) == 4
        assert det4((1, 2, 1)) == 0
        assert rank((0, 0, 0)) == 0
        assert rank((2, 0, 0)) == 1
        assert rank((1, 2, 1)) == 1
        assert rank((1, 1, 1)) == 2

    def test_content(self):
        assert content((2, 2, 4)) == 2
        assert content((1, 1, 1)) == 1
        assert content((3, 0, 0)) == 3

    def test_psd_predicate(self):
        assert SIEGEL.is_psd((0, 0, 0))
        assert SIEGEL.is_psd((1, 2, 1))
        assert not SIEGEL.is_psd((-1, 0, 0))
        assert not SIEGEL.is_psd((1, 3, 1))

    def test_enumeration_bound_and_membership(self):
        got = list(SIEGEL.enumerate_all(2))
        assert all(SIEGEL.is_psd(t) and SIEGEL.trace(t) <= 2 for t in got)
        assert len(got) == len(set(got))
        assert (0, 0, 0) in got and (1, 1, 1) in got and (1, -1, 1) in got

    def test_key_roundtrip(self):
        for t in SIEGEL.enumerate_all(3):
            assert SIEGEL.parse_key(SIEGEL.key_string(t)) == t


class TestEisensteinCoefficients:
    def test_weight_ten_published_values(self):
        assert siegel_g_coefficient(10, ONE_TWO) == Fraction(-1618, 27)
        assert siegel_g_coefficient(10, IDENTITY) == Fraction(-1385, 2)
        assert siegel_g_coefficient(10, (1, 1, 2)) == Fraction(-565184, 7)
        assert siegel_g_coefficient(10, (1, 0, 2)) == Fraction(-250737)

    def test_weight_twelve_published_values(self):
        assert siegel_g_coefficient(12, ONE_TWO) == Fraction(3694, 3)
        assert siegel_g_coefficient(12, IDENTITY) == Fraction(50521, 2)
        assert siegel_g_coefficient(12, (1, 1, 2)) == Fraction(9006448)
        assert siegel_g_coefficient(12, (1, 0, 2)) == Fraction(36581523)

    def test_rank_zero_and_one_reduce_to_classical_data(self):
        for k in (4, 6, 10, 12):
            g0 = siegel_g_coefficient(k, (0, 0, 0))
            assert g0 == Fraction(-bernoulli(k) * bernoulli(2 * k - 2), 4 * k * (k - 1))
            # rank 1 with content 1 carries sigma_{k-1}(1) = 1
            assert siegel_g_coefficient(k, (1, 0, 0)) == bernoulli(2 * k - 2) / (
                2 * k - 2
            )

    def test_normalized_series_has_constant_term_one(self):
        for k in (4, 6, 8, 10, 12):
            e = siegel_expansion("E", k, 2)
            assert e.coefficient((0, 0, 0)) == 1
            # the two normalizations differ by the weight-k constant
            g = siegel_expansion("G", k, 2)
            scale = g.coefficient((0, 0, 0))
            for t in e.support():
                assert g.coefficient(t) == scale * e.coefficient(t)

    def test_boundary_restriction_is_classical_eisenstein(self):
        for k in (4, 6, 10, 12):
            assert phi_operator(siegel_expansion("E", k, 4)) == elliptic_eisenstein(
                k, 4
            )

    def test_unimodular_invariance(self):
        units = [
            (0, 1, 1, 0),
            (1, 1, 0, 1),
            (1, 0, 1, 1),
            (0, -1, 1, 0),
            (-1, 0, 0, 1),
            (1, -2, 0, 1),
        ]
        for k in (10, 12):
            for t in [(1, 1, 1), (1, 0, 1), (1, 1, 2), (2, 1, 3)]:
                base = siegel_g_coefficient(k, t)
                for u in units:
                    t2 = unimodular_transform(t, u)
                    assert SIEGEL.is_psd(t2)
                    assert siegel_g_coefficient(k, t2) == base

    def test_coefficient_depends_only_on_content_and_determinant(self):
        # (1, 1, 2) and (2, 1, 1) share content 1 and det4 = 7
        assert det4((1, 1, 2)) == det4((2, 1, 1)) == 7
        assert siegel_g_coefficient(10, (1, 1, 2)) == siegel_g_coefficient(
            10, (2, 1, 1)
        )

    def test_rank_two_integrality_after_bernoulli_factor(self):
        # stripping the B_{k-1,chi_D}/(k-1) factor from a rank 2
        # coefficient must leave an exact integer (the double divisor sum)
        from eiscong.arith import fundamental_decomposition, generalized_bernoulli

        for k in (10, 12):
            for t in SIEGEL.enumerate_all(4):
                if rank(t) == 2:
                    d, _ = fundamental_decomposition(-det4(t))
                    factor = generalized_bernoulli(k - 1, d) / (k - 1)
                    v = siegel_g_coefficient(k, t) / factor
                    assert v.denominator == 1

    def test_invalid_inputs(self):
        with pytest.raises(InvalidWeight):
            siegel_g_coefficient(7, IDENTITY)
        with pytest.raises(InvalidWeight):  # B_5 = 0: no division first
            siegel_e_coefficient(5, IDENTITY)
        with pytest.raises(NotPositiveSemidefinite):
            siegel_g_coefficient(10, (1, 5, 1))
        with pytest.raises(ValueError):
            siegel_expansion("H", 10, 2)


class TestIgusaCuspForms:
    def test_published_coefficients(self):
        x10 = igusa_x10(3)
        assert x10.coefficient(ONE_TWO) == 1
        assert x10.coefficient(IDENTITY) == -2
        assert x10.coefficient((1, 1, 2)) == -16
        assert x10.coefficient((1, 0, 2)) == 36
        x12 = igusa_x12(3)
        assert x12.coefficient(ONE_TWO) == 1
        assert x12.coefficient(IDENTITY) == 10
        assert x12.coefficient((1, 1, 2)) == -88
        assert x12.coefficient((1, 0, 2)) == -132

    def test_cusp_property(self):
        for x in (igusa_x10(3), igusa_x12(3)):
            assert phi_operator(x).is_zero()
            for t in SIEGEL.enumerate_all(3):
                if rank(t) <= 1:
                    assert x.coefficient(t) == 0

    def test_integral_coefficients(self):
        for x in (igusa_x10(4), igusa_x12(4)):
            for t in x.support():
                assert x.coefficient(t).denominator == 1

    @given(st.sampled_from([(1, 1, 1), (1, 0, 1), (2, 1, 2), (1, 1, 2)]))
    def test_x10_invariance(self, t):
        x10 = igusa_x10(4)
        flipped = (t[2], t[1], t[0])
        assert x10.coefficient(flipped) == x10.coefficient(t)
