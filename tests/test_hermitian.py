"""Tests for degree-2 Hermitian Eisenstein series and cusp forms over the
nine class-number-one imaginary quadratic fields."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eiscong.arith import bernoulli, generalized_bernoulli
from eiscong.elliptic import elliptic_eisenstein
from eiscong.expansion import phi_operator
from eiscong.errors import (
    InvalidWeight,
    NotPositiveSemidefinite,
    UnsupportedFieldForm,
)
from eiscong.hermitian import (
    CLASS_NUMBER_ONE_DISCRIMINANTS,
    content,
    det_scaled,
    hermitian_cusp_form,
    hermitian_e_coefficient,
    hermitian_expansion,
    hermitian_g_coefficient,
    hermitian_lattice,
    imag_quad_field,
    rank,
)

from .oracles import PrimeLocalization, hermitian_e_closed_form

# identity-like indices: diag(1, 1) with and without off-diagonal entries
EISENSTEIN_INDICES = {
    -3: [(1, 1, 0, 1), (1, 0, 0, 1), (1, 1, 0, 2), (1, 0, 0, 2)],
    -4: [(1, 1, 1, 1), (1, 2, 1, 1), (1, 0, 0, 1), (1, 1, 1, 2)],
}


def conj(field, h):
    a, x, y, c = h
    return (a, x + field.disc * y, -y, c)


class TestField:
    def test_norm_form(self):
        f4 = imag_quad_field(-4)
        # omega = (-4 + sqrt(-4))/2 = -2 + i, so N(x + y*omega) with
        # x=2, y=1 is N(i) = 1
        assert f4.norm(2, 1) == 1
        assert f4.norm(1, 1) == 2  # beta = i - 1
        f3 = imag_quad_field(-3)
        assert f3.norm(1, 0) == 1
        assert f3.norm(0, 1) == 3  # beta = omega, N = (9+3)/4

    def test_norm_is_positive_definite(self):
        for d in CLASS_NUMBER_ONE_DISCRIMINANTS:
            f = imag_quad_field(d)
            for x in range(-4, 5):
                for y in range(-4, 5):
                    n = f.norm(x, y)
                    assert n >= 0
                    assert (n == 0) == (x == 0 and y == 0)

    def test_rejects_other_discriminants(self):
        with pytest.raises(Exception):
            imag_quad_field(-15)  # class number two
        with pytest.raises(Exception):
            imag_quad_field(-5)


class TestLattice:
    def test_psd_and_det(self):
        f = imag_quad_field(-4)
        assert det_scaled(f, (1, 1, 1, 1)) == 2
        assert det_scaled(f, (1, 2, 1, 1)) == 3
        assert det_scaled(f, (1, 0, 0, 1)) == 4
        assert det_scaled(f, (1, 2, 1, 0)) == -1
        lat = hermitian_lattice(-4)
        assert lat.is_psd((1, 1, 1, 1))
        assert not lat.is_psd((1, 2, 1, 0))
        assert not lat.is_psd((-1, 0, 0, 0))

    def test_rank_and_content(self):
        f = imag_quad_field(-3)
        assert rank(f, (0, 0, 0, 0)) == 0
        assert rank(f, (1, 0, 0, 0)) == 1
        assert rank(f, (1, 1, 0, 1)) == 2
        assert content((2, 2, 0, 2)) == 2
        assert content((1, 1, 0, 1)) == 1

    def test_enumeration_closed_under_conjugation(self):
        for d in (-3, -4, -7, -11):
            f = imag_quad_field(d)
            lat = hermitian_lattice(d)
            got = set(lat.enumerate_all(2))
            for h in got:
                assert conj(f, h) in got
                a, x, y, c = h
                assert (c,) + tuple(conj(f, h)[1:3]) + (a,) in got

    def test_key_roundtrip(self):
        lat = hermitian_lattice(-7)
        for h in lat.enumerate_all(2):
            assert lat.parse_key(lat.key_string(h)) == h


class TestEisensteinCoefficients:
    def test_published_weight_eight_disc_minus_four(self):
        f = imag_quad_field(-4)
        vals = [
            hermitian_g_coefficient(f, 8, h) for h in EISENSTEIN_INDICES[-4]
        ]
        assert vals == [-63, -728, -4095, -47320]

    def test_published_weight_ten(self):
        f3 = imag_quad_field(-3)
        assert [
            hermitian_g_coefficient(f3, 10, h) for h in EISENSTEIN_INDICES[-3]
        ] == [-255, -6560, -390624, -1673310]
        f4 = imag_quad_field(-4)
        assert [
            hermitian_g_coefficient(f4, 10, h) for h in EISENSTEIN_INDICES[-4]
        ] == [-255, -6560, -65535, -1685920]

    def test_published_weight_twelve_disc_minus_three(self):
        f = imag_quad_field(-3)
        assert [
            hermitian_g_coefficient(f, 12, h) for h in EISENSTEIN_INDICES[-3]
        ] == [-1023, -59048, -9765624, -60408150]

    def test_g_and_e_normalizations_are_proportional(self):
        for d in (-3, -4, -7):
            f = imag_quad_field(d)
            for k in (8, 10):
                scale = bernoulli(k) * generalized_bernoulli(k - 1, d) / (
                    4 * k * (k - 1)
                )
                e_expansion = hermitian_expansion("E", d, k, 2)
                for h in hermitian_lattice(d).enumerate_all(2):
                    e = hermitian_e_closed_form(f, k, h)
                    assert hermitian_e_coefficient(f, k, h) == e
                    assert e_expansion.coefficient(h) == e
                    assert hermitian_g_coefficient(f, k, h) == scale * e

    def test_rank_two_g_coefficients_are_integers(self):
        for d in CLASS_NUMBER_ONE_DISCRIMINANTS:
            f = imag_quad_field(d)
            for k in (8, 10, 12):
                for h in hermitian_lattice(d).enumerate_all(2):
                    if rank(f, h) == 2:
                        assert hermitian_g_coefficient(f, k, h).denominator == 1

    def test_identity_coefficient_closed_form(self):
        # a_{G_k}(diag(1,1)) = 1 - |d|^(k-2) whenever det_scaled = |d|,
        # i.e. the identity matrix index
        for d in CLASS_NUMBER_ONE_DISCRIMINANTS:
            f = imag_quad_field(d)
            h = (1, 0, 0, 1)
            assert det_scaled(f, h) == -d
            for k in (8, 10, 12):
                assert hermitian_g_coefficient(f, k, h) == 1 - (-d) ** (k - 2)

    def test_coefficient_symmetries(self):
        for d in (-3, -4, -8):
            f = imag_quad_field(d)
            for k in (8, 10):
                for h in hermitian_lattice(d).enumerate_all(2):
                    a, x, y, c = h
                    v = hermitian_g_coefficient(f, k, h)
                    assert hermitian_g_coefficient(f, k, (a, -x, -y, c)) == v
                    assert hermitian_g_coefficient(f, k, conj(f, h)) == v
                    ac, xc, yc = conj(f, h)[3], conj(f, h)[1], conj(f, h)[2]
                    assert hermitian_g_coefficient(f, k, (c, xc, yc, a)) == v

    def test_boundary_restriction_is_classical_eisenstein(self):
        for d in (-3, -4, -7, -19):
            for k in (4, 6, 8, 10, 12):
                e = hermitian_expansion("E", d, k, 3)
                assert phi_operator(e) == elliptic_eisenstein(k, 3)

    def test_invalid_inputs(self):
        f = imag_quad_field(-4)
        with pytest.raises(InvalidWeight):
            hermitian_g_coefficient(f, 7, (0, 0, 0, 0))
        with pytest.raises(NotPositiveSemidefinite):
            hermitian_g_coefficient(f, 8, (1, 3, 0, 1))
        with pytest.raises(ValueError):
            hermitian_expansion("X", -4, 8, 2)
        for form in ("G", "E"):  # E is built from G, which rejects the weight first
            with pytest.raises(InvalidWeight):
                hermitian_expansion(form, -3, 7, 2)
        with pytest.raises(InvalidWeight):
            hermitian_e_coefficient(f, 7, (1, 0, 0, 1))


class TestCuspForms:
    def test_published_coefficients(self):
        cases = [
            ("CHI8", -4, [1, -2, 4, -8]),
            ("F10", -4, [1, 4, -20, -80]),
            ("F10", -3, [1, -6, -10, 90]),
            ("F12", -3, [1, 18, -106, -54]),
        ]
        for name, d, expected in cases:
            form = hermitian_cusp_form(name, d, 3)
            got = [form.coefficient(h) for h in EISENSTEIN_INDICES[d]]
            assert got == expected, (name, d)

    def test_cusp_property(self):
        for name, d in (("CHI8", -4), ("F10", -4), ("F10", -3), ("F12", -3)):
            form = hermitian_cusp_form(name, d, 3)
            f = imag_quad_field(d)
            assert phi_operator(form).is_zero()
            for h in form.lattice.enumerate_all(3):
                if rank(f, h) <= 1:
                    assert form.coefficient(h) == 0

    def test_integral_coefficients(self):
        for name, d in (("CHI8", -4), ("F10", -4), ("F10", -3), ("F12", -3)):
            form = hermitian_cusp_form(name, d, 3)
            for h in form.support():
                assert form.coefficient(h).denominator == 1

    def test_unsupported_combinations_rejected(self):
        with pytest.raises(UnsupportedFieldForm):
            hermitian_cusp_form("CHI8", -3, 2)
        with pytest.raises(UnsupportedFieldForm):
            hermitian_cusp_form("F12", -4, 2)
        with pytest.raises(UnsupportedFieldForm):
            hermitian_cusp_form("F10", -7, 2)


class TestLocalIntegrality:
    def test_weight_four_six_coefficients_at_condition_primes(self):
        # for the congruence primes used downstream, the low weight
        # Eisenstein coefficients must be p-integral so that products of
        # E4 and E6 reduce cleanly
        cases = [(-3, 809), (-3, 1847), (-4, 61), (-4, 277)]
        for d, p in cases:
            loc = PrimeLocalization(p)
            for k in (4, 6):
                e = hermitian_expansion("E", d, k, 3)
                for h in e.support():
                    assert loc.is_integral(e.coefficient(h)), (d, p, k, h)
