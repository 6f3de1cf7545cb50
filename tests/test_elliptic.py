"""Tests for classical level one modular forms on the upper half plane."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eiscong.elliptic import (
    IsobaricPolynomial,
    _BOUNDARY_RELATIONS,
    decompose_into_e4_e6,
    delta_expansion,
    dim_level_one,
    elliptic_eisenstein,
    isobaric_monomials,
    ramanujan_tau,
)
from eiscong.expansion import ELLIPTIC, TruncatedExpansion, exp_multiply, exp_scale
from eiscong.errors import NotInSpace

from .oracles import delta_eta_product
from .records import check_record


class TestDimension:
    def test_small_weights(self):
        expected = {0: 1, 2: 0, 4: 1, 6: 1, 8: 1, 10: 1, 12: 2, 14: 1, 16: 2}
        for k, d in expected.items():
            assert dim_level_one(k) == d
        assert dim_level_one(-2) == 0
        assert dim_level_one(7) == 0

    def test_matches_monomial_count(self):
        for k in range(0, 40, 2):
            assert dim_level_one(k) == len(isobaric_monomials(k))


class TestEisenstein:
    def test_normalization_and_first_coefficients(self):
        e4 = elliptic_eisenstein(4, 5)
        assert e4.coefficient(0) == 1
        assert e4.coefficient(1) == 240
        assert e4.coefficient(2) == 2160
        e6 = elliptic_eisenstein(6, 3)
        assert e6.coefficient(1) == -504
        e8 = elliptic_eisenstein(8, 2)
        assert e8.coefficient(1) == 480

    def test_e8_is_e4_squared(self):
        e4 = elliptic_eisenstein(4, 8)
        assert exp_multiply(e4, e4) == elliptic_eisenstein(8, 8)

    def test_e4_e6_product_is_e10(self):
        # dim M_10 = 1, so the normalized product must coincide with E10
        prod = exp_multiply(elliptic_eisenstein(4, 6), elliptic_eisenstein(6, 6))
        assert prod.weight == 10
        assert prod == elliptic_eisenstein(10, 6)

    def test_odd_weight_rejected(self):
        with pytest.raises(Exception):
            elliptic_eisenstein(5, 3)


class TestDelta:
    def test_against_eta_product_oracle(self):
        d = delta_expansion(30)
        eta = delta_eta_product(30)
        for n in range(31):
            assert d.coefficient(n) == eta[n]

    def test_tau_values(self):
        assert ramanujan_tau(1) == 1
        assert ramanujan_tau(2) == -24
        assert ramanujan_tau(3) == 252
        assert ramanujan_tau(6) == ramanujan_tau(2) * ramanujan_tau(3)
        # Hecke relation at the prime 2: tau(4) = tau(2)^2 - 2^11
        assert ramanujan_tau(4) == ramanujan_tau(2) ** 2 - 2**11

    def test_tau_in_any_order_reads_one_growing_delta(self):
        eta = delta_eta_product(120)
        order = list(range(1, 121))
        random.Random(0).shuffle(order)
        builds = delta_expansion.cache_info().misses
        for n in order:
            assert ramanujan_tau(n) == eta[n]
        # the bound at least doubles on each rebuild
        assert delta_expansion.cache_info().misses - builds <= 8

    def test_tau_691_congruence(self):
        # tau(n) = sigma_11(n) mod 691
        from eiscong.arith import divisor_power_sum

        for n in range(1, 201):
            assert (ramanujan_tau(n) - divisor_power_sum(11, n)) % 691 == 0


class TestIsobaric:
    def test_monomials(self):
        assert isobaric_monomials(12) == [(3, 0), (0, 2)]
        assert isobaric_monomials(10) == [(1, 1)]
        assert isobaric_monomials(2) == []

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IsobaricPolynomial.from_dict(10, {(3, 0): Fraction(1)})

    def test_polynomial_is_an_immutable_record(self):
        terms = (((3, 0), Fraction(441, 691)), ((0, 2), Fraction(250, 691)))
        check_record(IsobaricPolynomial, {"weight": 12, "terms": terms},
                     "IsobaricPolynomial(weight=12, terms=(((3, 0), Fraction(441, 691)), "
                     "((0, 2), Fraction(250, 691))))")
        assert _BOUNDARY_RELATIONS[12] == IsobaricPolynomial(12, terms)
        message = r"monomial \(3,0\) has weight 12, expected 10"
        for build in (lambda: IsobaricPolynomial(weight=10, terms=terms),
                      lambda: IsobaricPolynomial._make((10, terms)),
                      lambda: _BOUNDARY_RELATIONS[12]._replace(weight=10)):
            with pytest.raises(ValueError, match=message):
                build()

    def test_evaluate_single_monomial(self):
        q = IsobaricPolynomial.from_dict(8, {(2, 0): Fraction(1)})
        e4 = elliptic_eisenstein(4, 5)
        e6 = elliptic_eisenstein(6, 5)
        assert q.evaluate(e4, e6) == exp_multiply(e4, e4)


class TestDecomposition:
    def test_e10_decomposes_as_e4_e6(self):
        q = decompose_into_e4_e6(elliptic_eisenstein(10, 4), 10)
        assert q.as_dict() == {(1, 1): Fraction(1)}

    def test_e12_decomposition(self):
        q = decompose_into_e4_e6(elliptic_eisenstein(12, 4), 12)
        assert q.as_dict() == {
            (3, 0): Fraction(441, 691),
            (0, 2): Fraction(250, 691),
        }

    @pytest.mark.parametrize("k", sorted(_BOUNDARY_RELATIONS))
    def test_boundary_relations_are_what_the_solver_finds(self, k):
        # the cusp-form table's Q_k, checked against the linear solver
        q = decompose_into_e4_e6(elliptic_eisenstein(k, 4), k)
        assert _BOUNDARY_RELATIONS[k] == q

    def test_delta_decomposition(self):
        q = decompose_into_e4_e6(delta_expansion(4), 12)
        assert q.as_dict() == {
            (3, 0): Fraction(1, 1728),
            (0, 2): Fraction(-1, 1728),
        }

    @given(
        st.fractions(max_denominator=20),
        st.fractions(max_denominator=20),
    )
    def test_left_inverse(self, a, b):
        # decompose(evaluate(Q)) == Q for arbitrary weight-12 polynomials
        q = IsobaricPolynomial.from_dict(12, {(3, 0): a, (0, 2): b})
        e4 = elliptic_eisenstein(4, 4)
        e6 = elliptic_eisenstein(6, 4)
        f = q.evaluate(e4, e6)
        assert decompose_into_e4_e6(f, 12) == q

    def test_non_modular_input_rejected(self):
        f = TruncatedExpansion(
            ELLIPTIC, 12, 4, {n: Fraction(n * n + 1) for n in range(5)}
        )
        with pytest.raises(NotInSpace):
            decompose_into_e4_e6(f, 12)

    def test_insufficient_truncation_rejected(self):
        f = elliptic_eisenstein(12, 1).restrict(0)
        with pytest.raises(ValueError):
            decompose_into_e4_e6(f, 12)

    def test_wrong_weight_rejected(self):
        with pytest.raises(ValueError):
            decompose_into_e4_e6(elliptic_eisenstein(10, 4), 12)
