"""Tests for the exact scalar arithmetic kernel."""

import decimal
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eiscong.arith import (
    KroneckerCharacter,
    _odd_sieve,
    bernoulli,
    divisor_power_sum,
    divisor_power_sums,
    divisors,
    factorize,
    format_rational,
    fundamental_decomposition,
    g_value,
    generalized_bernoulli,
    is_fundamental_discriminant,
    is_prime,
    kronecker_character,
    kronecker_chi,
    mobius,
    p_valuation,
    parse_rational,
    primes,
    squarefree,
)
from eiscong.errors import InvalidDiscriminantResidue, NonFundamentalDiscriminant

from .oracles import (
    PrimeLocalization,
    bernoulli_akiyama_tanigawa,
    bernoulli_binomial_recurrence,
    bernoulli_polynomial,
    bernoulli_tangent,
    chi_via_euler_criterion,
    generalized_bernoulli_by_polynomials,
    is_p_integral,
    kronecker_symbol,
    primes_up_to,
    sigma_bruteforce,
)
from .records import check_record

FIELD_DISCS = (-3, -4, -7, -8, -11, -19, -43, -67, -163)


class TestPrimes:
    def test_small_primality(self):
        known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_prime(n) == (n in known)

    def test_primes_stream_agrees_with_is_prime(self):
        assert list(primes(200)) == [n for n in range(2, 201) if is_prime(n)]
        for limit in [*range(2001), 10**5, 10**5 + 1]:
            assert primes(limit) == [p for p in primes_up_to(limit) if p < limit], limit

    #: segments from 0, as ``primes`` sieves them, and from 10 (mod 210), as
    #: the condition-B walk does, with ends on either side of a square
    SEGMENTS = [(0, 1), (0, 2), (0, 3), (0, 26), (0, 1000), (0, 10**4 + 1), (10, 11),
                (10, 1690), (1690, 5050), (10 + 210 * 56, 109**2), (10 + 210 * 56, 109**2 + 1),
                (10 + 210 * 500, 10 + 210 * 524)]

    @pytest.mark.parametrize("a, b", SEGMENTS)
    def test_odd_sieve_segments_against_the_oracle(self, a, b):
        odd = range(a | 1, b, 2)
        odd_primes = list(primes_up_to(math.isqrt(b - 1)))[1:]
        # every odd prime up to isqrt(b - 1): the flags left are the odd primes, and 1
        prime = set(primes_up_to(b - 1)) | {1}
        assert list(_odd_sieve(a, b, odd_primes)) == [n in prime for n in odd]
        # the walk's base, from 11 on, strikes exactly its odd multiples >= p^2
        base = odd_primes[3:]
        assert list(_odd_sieve(a, b, base)) == [all(n % p or n < p * p for p in base) for n in odd]

    def test_large_known_primes(self):
        assert is_prime(43867)
        assert is_prime(657931)
        assert is_prime(77683) is False  # 131 * 593
        assert is_prime(2**61 - 1)
        assert not is_prime(2**67 - 1)

    def test_factorize_roundtrip(self):
        for n in (1, 2, 12, 77683, 360360, 43867 * 59):
            f = factorize(n)
            prod = 1
            for p, e in f.items():
                assert is_prime(p)
                prod *= p**e
            assert prod == n

    @given(st.integers(min_value=1, max_value=5000))
    def test_divisors_bruteforce(self, n):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    def test_mobius_values(self):
        assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    @given(st.integers(min_value=1, max_value=2000))
    def test_mobius_sum_over_divisors(self, n):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)

    @given(st.integers(min_value=1, max_value=3000))
    def test_squarefree_predicate(self, n):
        expect = all(n % (p * p) != 0 for p in range(2, math.isqrt(n) + 1))
        assert squarefree(n) == expect
        assert squarefree(n) == (mobius(n) != 0)


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_against_akiyama_tanigawa_oracle(self):
        at = bernoulli_akiyama_tanigawa(40)
        for m in range(41):
            assert bernoulli(m) == at[m]

    def test_against_binomial_recurrence_oracle(self):
        for m, value in enumerate(bernoulli_binomial_recurrence(300)):
            assert bernoulli(m) == value

    def test_against_tangent_number_oracle(self):
        for m, value in bernoulli_tangent(60).items():
            assert bernoulli(m) == value

    def test_von_staudt_clausen(self):
        # denominator of B_{2m} is the product of primes p with (p-1) | 2m
        for m in range(1, 21):
            den = 1
            for p in primes(2 * m + 2):
                if (2 * m) % (p - 1) == 0:
                    den *= p
            assert bernoulli(2 * m).denominator == den

    def test_polynomial_endpoints(self):
        # B_n(0) = B_n and B_n(1) = B_n for n != 1
        for n in range(8):
            assert bernoulli_polynomial(n, Fraction(0)) == bernoulli(n)
        assert bernoulli_polynomial(1, Fraction(1)) == Fraction(1, 2)
        assert bernoulli_polynomial(4, Fraction(1)) == bernoulli(4)

    @given(st.integers(min_value=0, max_value=12), st.fractions())
    def test_polynomial_difference_formula(self, n, x):
        # B_n(x+1) - B_n(x) = n x^(n-1)
        lhs = bernoulli_polynomial(n, x + 1) - bernoulli_polynomial(n, x)
        rhs = n * x ** (n - 1) if n >= 1 else Fraction(0)
        assert lhs == rhs


class TestKronecker:
    def test_fundamental_discriminants(self):
        for d in FIELD_DISCS:
            assert is_fundamental_discriminant(d)
        for d in (-9, -12, -16, -27, 0, 2, -2, -6):
            assert not is_fundamental_discriminant(d)
        assert is_fundamental_discriminant(1)
        assert is_fundamental_discriminant(5)

    def test_character_rejects_bad_discriminants(self):
        with pytest.raises(NonFundamentalDiscriminant):
            kronecker_character(-12)
        with pytest.raises(NonFundamentalDiscriminant):
            kronecker_character(-6)

    def test_chi_minus_four(self):
        chi = kronecker_character(-4)
        values = [chi(n) for n in range(1, 9)]
        assert values == [1, 0, -1, 0, 1, 0, -1, 0]

    def test_chi_minus_three(self):
        chi = kronecker_character(-3)
        assert [chi(n) for n in range(1, 7)] == [1, -1, 0, 1, -1, 0]

    def test_periodicity(self):
        for d in FIELD_DISCS:
            chi = kronecker_character(d)
            f = abs(d)
            for n in range(1, 1001):
                assert chi(n) == chi(n + f)

    def test_kernel_is_units_mod_f(self):
        for d in FIELD_DISCS:
            chi = kronecker_character(d)
            f = abs(d)
            for n in range(1, f + 1):
                assert (chi(n) == 0) == (math.gcd(n, f) != 1)

    def test_tables_against_the_reciprocity_oracle(self):
        # every fundamental D down to -1000, past the -144 the Siegel alpha
        # tables read at trace bound 12, and the real fields with D = 1
        discs = [d for d in range(-1000, 1001) if is_fundamental_discriminant(d)]
        assert len(discs) == 608 and {1, 5, 8, -3, -4} <= set(discs)
        for d in discs:
            expected = tuple(kronecker_symbol(d, r) for r in range(abs(d)))
            assert kronecker_character(d).table == expected, d

    def test_against_euler_criterion_oracle(self):
        for d in FIELD_DISCS:
            for q in primes(500):
                if q == 2 or d % q == 0:
                    continue
                assert kronecker_chi(d, q) == chi_via_euler_criterion(d, q)

    @given(
        st.sampled_from(FIELD_DISCS),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_complete_multiplicativity(self, d, m, n):
        assert kronecker_chi(d, m * n) == kronecker_chi(d, m) * kronecker_chi(d, n)

    def test_odd_character_sign(self):
        # chi_d(-1) = -1 for every imaginary quadratic discriminant
        for d in FIELD_DISCS:
            assert kronecker_chi(d, -1) == -1

    def test_character_is_an_immutable_record(self):
        chi = kronecker_character(-4)
        check_record(KroneckerCharacter, {"discriminant": -4, "table": (0, 1, 0, -1)},
                     "KroneckerCharacter(discriminant=-4, table=(0, 1, 0, -1))")
        assert chi == KroneckerCharacter(-4, (0, 1, 0, -1)) and chi.modulus == 4


# (n, factor tuple, denominator) rows for B_{n,chi_d}; the first factor
# carries the sign.  These are frozen reference values for the nine
# class number one imaginary quadratic fields.
def _published_gen_bernoulli(d, n):
    from eiscong.reference_values import table_value

    return table_value(d, n)


class TestGeneralizedBernoulli:
    def test_small_closed_forms(self):
        # B_{1,chi_-4} = -1/2 and B_{1,chi_-3} = -1/3
        assert generalized_bernoulli(1, -4) == Fraction(-1, 2)
        assert generalized_bernoulli(1, -3) == Fraction(-1, 3)

    def test_published_tables(self):
        for d in FIELD_DISCS:
            for n in range(1, 16, 2):
                assert generalized_bernoulli(n, d) == _published_gen_bernoulli(d, n)

    def test_even_indices_vanish(self):
        # odd characters kill the even generalized Bernoulli numbers
        for d in (-3, -4, -7):
            for n in range(2, 11, 2):
                assert generalized_bernoulli(n, d) == 0

    def test_agrees_with_polynomial_oracle(self):
        # every fundamental D in [-120, 60], D = 1 included, against the sum
        # of Bernoulli polynomials over residues that the power sums replace
        discs = [d for d in range(-120, 61) if is_fundamental_discriminant(d)]
        assert 1 in discs and -120 in discs and 60 in discs
        for d in discs:
            for n in range(1, 15):
                assert generalized_bernoulli(n, d) == generalized_bernoulli_by_polynomials(n, d), (n, d)

    @pytest.mark.parametrize("n, d", [(61, -163), (40, -67)])
    def test_agrees_with_polynomial_oracle_at_large_index(self, n, d):
        assert generalized_bernoulli(n, d) == generalized_bernoulli_by_polynomials(n, d)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generalized_bernoulli(0, -4)
        with pytest.raises(ValueError):  # the index is checked first
            generalized_bernoulli(0, -12)
        with pytest.raises(NonFundamentalDiscriminant):
            generalized_bernoulli(3, -12)


class TestDivisorSums:
    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=400))
    def test_plain_sigma_bruteforce(self, m, n):
        assert divisor_power_sum(m, n) == sigma_bruteforce(m, n)

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=150))
    def test_sieve_agrees_with_single_values(self, m, n):
        sums = divisor_power_sums(m, n)
        assert sums == [0, *(divisor_power_sum(m, N) for N in range(1, n + 1))]
        assert sums == [0, *(sigma_bruteforce(m, N) for N in range(1, n + 1))]

    def test_sieve_refuses_a_negative_length(self):
        with pytest.raises(ValueError, match="n >= 0"):
            divisor_power_sums(1, -1)

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=300),
    )
    def test_sigma_multiplicative(self, m, a, b):
        if math.gcd(a, b) == 1:
            assert divisor_power_sum(m, a * b) == divisor_power_sum(
                m, a
            ) * divisor_power_sum(m, b)


class TestGValue:
    def test_integrality_grid(self):
        # the normalized twisted sum is an integer for every field,
        # exponent and argument in a sizable grid
        for d in FIELD_DISCS:
            for m in range(0, 15):
                for n in range(1, 200):
                    v = g_value(d, m, n)
                    assert isinstance(v, int)

    def test_split_inert_examples(self):
        # chi_-4(5) = 1 (split): the two twisted sums coincide, so the
        # normalized difference vanishes
        assert g_value(-4, 2, 5) == 0
        # chi_-4(3) = -1 (inert): sigma = -8, sigma* = 8, halved
        assert g_value(-4, 2, 3) == -8
        # ramified N: chi(N) = 0, the plain difference of the sums of
        # chi(d) d^2 and chi(N/d) d^2 over the divisors d
        chi = kronecker_character(-4)
        assert chi(2) == 0
        assert g_value(-4, 2, 2) == sum((chi(d) - chi(2 // d)) * d**2 for d in (1, 2))


class TestFundamentalDecomposition:
    def test_examples(self):
        assert fundamental_decomposition(-4) == (-4, 1)
        assert fundamental_decomposition(-16) == (-4, 2)
        assert fundamental_decomposition(-12) == (-3, 2)
        assert fundamental_decomposition(-27) == (-3, 3)
        assert fundamental_decomposition(-7) == (-7, 1)

    def test_rejects_bad_residues(self):
        with pytest.raises(InvalidDiscriminantResidue):
            fundamental_decomposition(-6)

    @given(st.integers(min_value=1, max_value=4000))
    def test_reconstruction(self, n):
        m = -n
        if m % 4 in (0, 1):
            d, f = fundamental_decomposition(m)
            assert is_fundamental_discriminant(d)
            assert d * f * f == m


class TestValuations:
    def test_p_valuation(self):
        assert p_valuation(Fraction(12), 2) == 2
        assert p_valuation(Fraction(1, 8), 2) == -3
        assert p_valuation(Fraction(9, 5), 3) == 2
        assert math.isinf(p_valuation(Fraction(0), 7))

    def test_is_p_integral(self):
        assert is_p_integral(Fraction(3, 7), 5)
        assert not is_p_integral(Fraction(3, 7), 7)
        assert is_p_integral(Fraction(0), 11)

    def test_localization(self):
        loc = PrimeLocalization(5)
        assert loc.valuation(Fraction(50, 3)) == 2
        assert loc.is_integral(Fraction(2, 3))
        assert not loc.is_integral(Fraction(1, 5))
        with pytest.raises(ValueError):
            PrimeLocalization(6)

    @given(st.fractions(), st.fractions(), st.sampled_from([2, 3, 5, 7, 11]))
    def test_valuation_of_product(self, a, b, p):
        if a != 0 and b != 0:
            assert p_valuation(a * b, p) == p_valuation(a, p) + p_valuation(b, p)


def parse_outcome(s):
    """The value parse_rational reads from s, or the type of error it raises."""
    try:
        return parse_rational(s)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def grammar_outcome(s):
    """The oracle: a fullmatch of the grammar decides whether s is read, and
    Fraction gives the value of a token that is."""
    m = re.fullmatch(r"-?[0-9]+(/([0-9]+))?", s)
    if m is None:
        return ValueError
    if m[2] is not None and int(m[2]) == 0:
        return ZeroDivisionError
    return Fraction(s)


_numeral = st.one_of(st.from_regex(r"[0-9]{1,30}", fullmatch=True),
                     st.from_regex(r"[0-9]{1,4}(_[0-9]{1,4}){1,3}", fullmatch=True))
_sign = st.sampled_from(["", "-", "+"])
rational_tokens = st.one_of(
    st.builds("{}{}".format, _sign, _numeral),
    st.builds("{}{}/{}".format, _sign, _numeral, _numeral),  # non-reduced, and d = 0
    st.builds("{}{}".format, _sign,
              st.from_regex(r"[0-9]{0,6}\.[0-9]{1,6}([eE][+-]?[0-9]{1,2})?", fullmatch=True)),
    st.text(alphabet="0123456789+-/_.e x\u0663", max_size=12),  # mostly malformed
)


class TestRationalParse:
    """parse_rational reads exactly the tokens -?[0-9]+(/[0-9]+)? of ASCII
    digits, reduced or not, with Fraction's value; it refuses every other
    token, including the signed, exponent, decimal, underscore and non-ASCII
    forms that Fraction reads."""

    @settings(max_examples=400)
    @given(st.sampled_from(["", " ", "\t"]), rational_tokens, st.sampled_from(["", " ", "\n"]))
    def test_matches_fraction(self, before, token, after):
        s = before + token + after  # parse_rational strips s
        assert parse_outcome(s) == grammar_outcome(s.strip())

    @pytest.mark.parametrize("s", ["0", "-0", "007", "-5/10", "5/0", "-5/00", "+3", "1/-2",
                                   "--1", "1/", "/2", "1//2", "1 /2", "", "-", "1_0/2_0",
                                   "\u0663", "3/\u0663", "1e3", ".5", "0x10", "nan", "inf",
                                   "010/020", "0/0"])
    def test_edge_tokens(self, s):
        assert parse_outcome(s) == grammar_outcome(s)

    @pytest.mark.parametrize("s", ["0e600001", "1e1000000", "-1.5E-99999", "2.e+4301",
                                   "1_0e4_301", "\u0663e9999"])
    def test_exponent_beyond_the_bound_is_refused(self, s):
        # refused at once, as every exponent token is, without building 10**e
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(s)

    @pytest.mark.parametrize("s", ["1e4300", "-7.25E-4300", "0e+4300", "1_0e4_300",
                                   "1e4301x", "1/2e9999", "e9999", "1e5e9999"])
    def test_exponent_at_the_bound_or_malformed_is_refused(self, s):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(s)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(4301, 6000), st.integers(1, 6000), st.sampled_from(["", "-"]),
           st.from_regex(r"[1-9][0-9]{19}", fullmatch=True))
    def test_beyond_the_digit_limit_matches_the_decimal_path(self, nlen, dlen, sign, chunk):
        exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                                Emin=decimal.MIN_EMIN)
        num, den = (chunk * 300)[:nlen], ("7" + chunk * 300)[:dlen]
        want = Fraction(int(exact.create_decimal(sign + num)), int(exact.create_decimal(den)))
        assert parse_rational(f"{sign}{num}/{den}") == want
        assert parse_rational(f"{sign}{num}") == int(exact.create_decimal(sign + num))
        with pytest.raises(ZeroDivisionError):
            parse_rational(f"{sign}{num}/0")


class TestRationalFormat:
    def test_format(self):
        assert format_rational(Fraction(3)) == "3"
        assert format_rational(Fraction(-1618, 27)) == "-1618/27"
        assert format_rational(Fraction(0)) == "0"

    @given(st.fractions())
    def test_roundtrip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_roundtrip_beyond_int_str_digit_limit(self):
        # 7**20000 has 16902 digits, far past Python's default limit of 4300
        # on int <-> str conversion
        for q in (Fraction(7**20000), Fraction(-(7**20000), 3), Fraction(5, 7**20000)):
            text = format_rational(q)
            assert parse_rational(text) == q
            assert parse_rational(f" {text}\n") == q
        assert format_rational(Fraction(-(7**20000), 3)).endswith("/3")
        assert format_rational(Fraction(7**20000))[:6] == "913692"

    def test_malformed_long_text_is_rejected(self):
        for text in ("1" * 5000 + "x", "1" * 5000 + "/", "/" + "1" * 5000, "1 " + "1" * 5000):
            with pytest.raises(ValueError):
                parse_rational(text)
        with pytest.raises(ZeroDivisionError):
            parse_rational("1" * 5000 + "/0")
