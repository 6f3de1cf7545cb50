"""Tests for classical level one modular forms on the upper half plane."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eiscong import elliptic
from eiscong.arith import divisor_power_sums
from eiscong.elliptic import (
    IsobaricPolynomial,
    decompose_into_e4_e6,
    delta_expansion,
    elliptic_eisenstein,
    isobaric_monomials,
    ramanujan_tau,
)
from eiscong.expansion import (
    ELLIPTIC, TruncatedExpansion, eisenstein, exp_add, exp_multiply, exp_scale,
)
from eiscong.errors import InsufficientTruncation, NotInSpace
from eiscong.hermitian import hermitian_lattice
from eiscong.siegel import SIEGEL

from .oracles import (
    _BOUNDARY_RELATIONS,
    decompose_by_elimination,
    delta_by_basis,
    delta_eta_product,
    dim_level_one,
    evaluate_by_monomials,
)
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

    @pytest.mark.parametrize("top, ns", [(64, range(65)), (200, [200])], ids=["n<=64", "n=200"])
    def test_jacobi_delta_against_basis_and_eta_product(self, top, ns):
        eta = delta_eta_product(top)
        for n in ns:
            d = delta_expansion(n)
            assert d == delta_by_basis(n)
            assert [d.coefficient(i) for i in range(n + 1)] == eta[:n + 1]

    def test_tau_loop_builds_delta_by_three_squarings(self, monkeypatch):
        """A shuffled tau loop to 80 from a cold Delta builds no E_k, and each Delta build
        is three ``exp_multiply`` calls."""
        products, eisenstein_calls = [], []
        monkeypatch.setattr(elliptic, "_delta_bound", 0)
        monkeypatch.setattr(elliptic, "delta_expansion", lru_cache(maxsize=None)(delta_expansion.__wrapped__))
        monkeypatch.setattr(elliptic, "exp_multiply", lambda f, g: products.append(1) or exp_multiply(f, g))
        monkeypatch.setattr(elliptic, "elliptic_eisenstein", lambda *a: eisenstein_calls.append(a))
        order = list(range(1, 81))
        random.Random(80).shuffle(order)
        sigma = divisor_power_sums(11, 80)
        for n in order:
            assert (ramanujan_tau(n) - sigma[n]) % 691 == 0
        builds = elliptic.delta_expansion.cache_info().misses
        assert builds >= 1 and len(products) == 3 * builds
        assert eisenstein_calls == []

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

    def test_negative_exponent_rejected(self):
        # 4 * 4 - 6 = 10 passes the weight check; every way of building refuses it
        message = r"monomial \(4,-1\) has a negative exponent"
        for build in (lambda: IsobaricPolynomial(10, (((4, -1), Fraction(1)),)),
                      lambda: IsobaricPolynomial._make((10, (((4, -1), Fraction(1)),))),
                      lambda: _BOUNDARY_RELATIONS[10]._replace(terms=(((4, -1), Fraction(1)),)),
                      lambda: IsobaricPolynomial.from_dict(10, {(4, -1): 1})):
            with pytest.raises(ValueError, match=message):
                build()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_evaluate_agrees_with_monomials(self, data):
        # weights 0..48 (up to 5 monomials) on degree-1, Siegel and disc -3
        # operands; any coefficient may be zero, so sparse Q and the zero
        # polynomial are drawn too
        k = data.draw(st.sampled_from(range(49)), label="k")
        space = data.draw(st.sampled_from(["elliptic", "siegel", "hermitian -3"]), label="space")
        if space == "elliptic":
            e4, e6 = elliptic_eisenstein(4, 6), elliptic_eisenstein(6, 6)
        else:
            lat = SIEGEL if space == "siegel" else hermitian_lattice(-3)
            e4, e6 = (eisenstein(lat, "E", j, 2) for j in (4, 6))
        monos = isobaric_monomials(k)
        coeffs = data.draw(st.lists(st.one_of(st.just(0), st.fractions(max_denominator=12)),
                                    min_size=len(monos), max_size=len(monos)))
        q = IsobaricPolynomial.from_dict(k, dict(zip(monos, coeffs)))
        assert q.evaluate(e4, e6) == evaluate_by_monomials(q, e4, e6)


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
        # the relations Q_k as data, held against the solver that cusp_form reads
        q = decompose_into_e4_e6(elliptic_eisenstein(k, 4), k)
        assert _BOUNDARY_RELATIONS[k] == q

    def test_delta_decomposition(self):
        q = decompose_into_e4_e6(delta_expansion(4), 12)
        assert q.as_dict() == {
            (3, 0): Fraction(1, 1728),
            (0, 2): Fraction(-1, 1728),
        }

    @given(st.data())
    def test_left_inverse(self, data):
        # decompose(evaluate(Q)) == Q for arbitrary weight-k polynomials;
        # k = 24 and 36 have 3 and 4 monomials, so C(j, i) reaches 2 and 3
        k = data.draw(st.sampled_from([12, 24, 36]), label="k")
        monos = isobaric_monomials(k)
        coeffs = data.draw(st.lists(st.fractions(max_denominator=20),
                                    min_size=len(monos), max_size=len(monos)))
        q = IsobaricPolynomial.from_dict(k, dict(zip(monos, coeffs)))
        f = evaluate_by_monomials(q, elliptic_eisenstein(4, 6), elliptic_eisenstein(6, 6))
        assert decompose_into_e4_e6(f, k) == q

    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_agrees_with_elimination(self, data):
        # weights 0..48 (up to 5 monomials), truncations 0..12; Q(E4, E6),
        # E_k, Delta E_(k-12), and series off the space: the same
        # polynomial, or the same exception class, from both solvers
        k = data.draw(st.sampled_from(range(49)), label="k")
        n = data.draw(st.sampled_from(range(13)), label="n")
        kind = data.draw(st.sampled_from(["Q", "E", "Delta E", "perturbed Q", "noise"]))
        modular = k % 2 == 0 and k >= 4
        if kind == "E" and modular:
            f = elliptic_eisenstein(k, n)
        elif kind == "Delta E" and modular and k >= 12 and k != 14:
            f = delta_expansion(n)
            if k > 12:
                f = exp_multiply(f, elliptic_eisenstein(k - 12, n))
        elif kind == "noise":
            f = TruncatedExpansion(ELLIPTIC, k, n, {
                i: data.draw(st.integers(-3, 3)) for i in range(n + 1)})
        else:
            monos = isobaric_monomials(k)
            coeffs = data.draw(st.lists(st.fractions(max_denominator=12),
                                        min_size=len(monos), max_size=len(monos)))
            q = IsobaricPolynomial.from_dict(k, dict(zip(monos, coeffs)))
            f = q.evaluate(elliptic_eisenstein(4, n), elliptic_eisenstein(6, n))
            if kind == "perturbed Q":
                m = data.draw(st.integers(0, n))
                f = exp_add(f, TruncatedExpansion(ELLIPTIC, k, n, {m: 1}))

        def outcome(solve):
            try:
                return solve(f, k)
            except (InsufficientTruncation, NotInSpace) as e:
                return type(e)

        assert outcome(decompose_into_e4_e6) == outcome(decompose_by_elimination)

    def test_not_in_space_names_the_first_q_n_that_does_not_vanish(self):
        e12 = elliptic_eisenstein(12, 6)
        for n in range(2, 7):
            f = exp_add(e12, TruncatedExpansion(ELLIPTIC, 12, 6, {n: Fraction(1, 7)}))
            with pytest.raises(NotInSpace, match=rf"residual does not vanish at q\^{n}$"):
                decompose_into_e4_e6(f, 12)
        # no monomials of weight 2: the first nonzero coefficient is the residual's
        f = TruncatedExpansion(ELLIPTIC, 2, 4, {3: 1, 4: 5})
        with pytest.raises(NotInSpace, match=r"residual does not vanish at q\^3$"):
            decompose_into_e4_e6(f, 2)

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
