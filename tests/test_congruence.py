"""Tests for modular reduction, congruence verification and the prime
scanners."""

import bisect
import hashlib
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eiscong import congruence, expansion
from eiscong.arith import (
    MR_DETERMINISTIC_BOUND, bernoulli, generalized_bernoulli, is_prime, primes,
)
from eiscong.congruence import (
    CongruenceReport,
    WitnessReport,
    _prime_factors_bounded,
    bruinier_search,
    condition_a_check,
    condition_b_factors,
    condition_b_primes,
    cusp_correction,
    irregular_pairs,
    nontriviality_witness,
    reduce_mod_p,
    solve_lambda,
    verify_congruence,
)
from eiscong.elliptic import CUSP_FORMS, _maass_factor, cusp_form
from eiscong.expansion import (
    ELLIPTIC, TruncatedExpansion, eisenstein, exp_add, exp_parse, exp_scale, exp_serialize,
    lattice_for, lift, phi_operator,
)
from eiscong.errors import (
    AllZeroRhs,
    NonIntegralCoefficient,
    NonInvertibleReference,
    WeightMismatch,
    WitnessSearchExhausted,
)
from eiscong.hermitian import hermitian_cusp_form, hermitian_expansion, hermitian_lattice
from eiscong.reference_values import CONDITION_B_TABLES, HERMITIAN_EXAMPLES, SIEGEL_EXAMPLES
from eiscong.siegel import SIEGEL, igusa_x10, igusa_x12, siegel_expansion

from .oracles import (
    _maass_product,
    bernoulli_binomial_recurrence,
    bernoulli_tangent,
    prime_factors_by_sieve,
    primes_up_to,
    reduce_mod_p_by_index,
    solve_lambda_by_index,
    verify_congruence_by_index,
)
from .records import check_record


class TestReduction:
    def test_reduce_examples(self):
        g10 = siegel_expansion("G", 10, 2)
        table = reduce_mod_p(g10, 43867)
        # -1618/27 mod 43867
        expected = -1618 * pow(27, -1, 43867) % 43867
        assert table[(1, 1, 1)] == expected
        assert all(0 <= v < 43867 for v in table.values())

    def test_non_integral_coefficient_raises(self):
        g10 = siegel_expansion("G", 10, 2)
        # 27 divides the denominator at (1,1,1)
        with pytest.raises(NonIntegralCoefficient):
            reduce_mod_p(g10, 3)

    def test_composite_modulus(self):
        g12 = siegel_expansion("G", 12, 2)
        table = reduce_mod_p(g12, 77683)
        assert table[(1, 0, 1)] == Fraction(50521, 2).numerator * pow(
            2, -1, 77683
        ) % 77683


# moduli prime and composite, some meeting the denominators below (2, 3, 9,
# 27, 691 and the products), 43867 and 77683 = 131 * 593 from the paper
MODULI = (43867, 77683, 691, 1009, 2, 3, 4, 6, 9, 12, 27, 30, 2 * 691, 1)
MODP_LATTICES = (SIEGEL, hermitian_lattice(-3), hermitian_lattice(-4), hermitian_lattice(-7))
denominators = st.sampled_from((1, 1, 1, 1, 2, 3, 5, 9, 27, 691))


@st.composite
def modp_expansion(draw, lat, integral=False, min_size=0):
    bound = draw(st.integers(0, 3))
    chosen = draw(st.lists(st.sampled_from(lat.enumerate_all(bound)),
                           unique=True, min_size=min_size, max_size=10))
    return TruncatedExpansion(lat, 10, bound, {
        t: Fraction(draw(st.integers(-60, 60)), 1 if integral else draw(denominators))
        for t in chosen})


@st.composite
def congruence_cases(draw):
    """(f, g, modulus, multiplier): f is often lambda g + m h with h integral,
    so that it holds where the denominators allow; terms of the sum cancel."""
    lat = draw(st.sampled_from(MODP_LATTICES))
    m = draw(st.sampled_from(MODULI))
    lam = draw(st.integers(0, 2 * m))
    g = draw(modp_expansion(lat, min_size=1))
    if draw(st.booleans()):
        f = exp_add(exp_scale(lam, g), exp_scale(m, draw(modp_expansion(lat, integral=True))))
    else:
        f = draw(modp_expansion(lat))
    if draw(st.booleans()):
        f, g = exp_add(f, exp_scale(-1, g)), exp_add(g, exp_scale(-1, f))
    return f, g, m, lam


def outcome(fn, *args):
    """A result, or the exception's type with its key or message."""
    try:
        return fn(*args)
    except NonIntegralCoefficient as exc:
        return NonIntegralCoefficient, exc.key, exc.modulus
    except (AllZeroRhs, NonInvertibleReference) as exc:
        return type(exc), str(exc)


class TestAgainstPerIndexOracle:
    """One inverse per expansion against one per coefficient: the same
    reports, tables and exception keys."""

    @settings(max_examples=300, deadline=None)
    @given(congruence_cases())
    def test_random_expansions(self, case):
        f, g, m, lam = case
        assert outcome(solve_lambda, f, g, m) == outcome(solve_lambda_by_index, f, g, m)
        assert outcome(verify_congruence, f, g, m, lam) == outcome(
            verify_congruence_by_index, f, g, m, lam)
        assert outcome(reduce_mod_p, f, m) == outcome(reduce_mod_p_by_index, f, m)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(MODULI + (101, 809, 11, 7 * 43867, 5 * 77683)),
           st.integers(0, 10**6), st.booleans())
    def test_published_forms(self, m, lam, hermitian):
        if hermitian:
            f, g = hermitian_expansion("G", -3, 10, 2), hermitian_cusp_form("F10", -3, 2)
        else:
            f, g = siegel_expansion("G", 10, 2), igusa_x10(2)
        for a, b in ((f, g), (g, f), (f, f)):
            assert outcome(solve_lambda, a, b, m) == outcome(solve_lambda_by_index, a, b, m)
            assert outcome(verify_congruence, a, b, m, lam) == outcome(
                verify_congruence_by_index, a, b, m, lam)
        assert outcome(reduce_mod_p, f, m) == outcome(reduce_mod_p_by_index, f, m)

    def test_error_keys(self):
        g10 = siegel_expansion("G", 10, 2)  # -1618/27 at (1, 1, 1)
        x10 = igusa_x10(2)
        for m in (3, 9, 27):
            with pytest.raises(NonIntegralCoefficient) as exc:
                solve_lambda(g10, x10, m)
            assert exc.value.key == outcome(solve_lambda_by_index, g10, x10, m)[1]
        # the first reference coefficient, at (0, 0, 1), is 2: not invertible mod 4
        g = TruncatedExpansion(SIEGEL, 10, 1, {(0, 0, 1): 2, (1, 0, 0): 1})
        f = exp_scale(3, g)
        assert outcome(solve_lambda, f, g, 4) == outcome(solve_lambda_by_index, f, g, 4) == (
            NonInvertibleReference, "reference coefficient at 0,0,1 is not invertible mod 4")


# the six published pairs: (CUSP_FORMS key, modulus, lambda) of G_k = lambda * F mod p
PUBLISHED = (
    [(("siegel", None, f"X{k}"), d["modulus"], d["lambda"]) for k, d in SIEGEL_EXAMPLES.items()]
    + [(("hermitian", disc, d["cusp_form"]), d["modulus"], d["lambda"])
       for (disc, _), d in HERMITIAN_EXAMPLES.items()])


@st.composite
def random_lift(draw, lat, k, bound, integral=False):
    """lift() of a random alpha series and constant, rational or integral."""
    n = lat.alpha_length(bound) + draw(st.integers(0, 2))
    value = st.builds(Fraction, st.integers(-60, 60), st.just(1) if integral else denominators)
    alpha = draw(st.dictionaries(st.integers(0, n), value, max_size=8))
    return lift(lat, k, bound, TruncatedExpansion(ELLIPTIC, k, n, alpha), draw(value))


@st.composite
def lift_operand(draw, key, bound):
    """A published form or a random lift at trace bound b >= bound, restricted
    to bound or not, and scaled or not: every route that keeps ``lifted_from``."""
    k, lat = CUSP_FORMS[key], lattice_for(*key[:2])
    b = draw(st.integers(bound, 4))
    f = draw(st.sampled_from((cusp_form(key, b), eisenstein(lat, "G", k, b), None)))
    if f is None:
        f = draw(random_lift(lat, k, b))
    if draw(st.booleans()):
        f = f.restrict(bound)
    if draw(st.booleans()):
        f = exp_scale(Fraction(draw(st.integers(-5, 5)), draw(denominators)), f)
    return f


@st.composite
def lift_cases(draw):
    """(f, g, modulus, multiplier) over lifts of one published pair's weight and
    lattice, at trace bounds 0-4: f is often a lift of multiplier * (alpha_g,
    c_g) + modulus * (an integral lift's), so that it holds where the
    denominators allow; the multiplier is often the published one, right or not."""
    key, p, lam = draw(st.sampled_from(PUBLISHED))
    k, lat = CUSP_FORMS[key], lattice_for(*key[:2])
    bound = draw(st.integers(0, 4))
    m = draw(st.sampled_from(MODULI + (p, 7 * p)))
    mult = draw(st.sampled_from((lam, lam + 1, 0)) | st.integers(0, 2 * m))
    g = draw(lift_operand(key, bound))
    if draw(st.booleans()):
        (g_alpha, g_const), (h_alpha, h_const) = g.lifted_from, draw(
            random_lift(lat, k, bound, integral=True)).lifted_from
        f = lift(lat, k, bound, exp_add(exp_scale(mult, g_alpha), exp_scale(m, h_alpha)),
                 mult * g_const + m * h_const)
    else:
        f = draw(lift_operand(key, bound))
    return f, g, m, mult


def text_outcome(fn, *args):
    """A report's text, or the exception's type and message."""
    try:
        return fn(*args).to_text()
    except (NonIntegralCoefficient, AllZeroRhs, NonInvertibleReference) as exc:
        return type(exc), str(exc)


class TestLiftRoute:
    """Two lifts the library built are checked on their alpha series and
    constant terms; the walk, and the per-index oracle, give the same text."""

    @staticmethod
    def both(f, g, m, mult):
        return (text_outcome(solve_lambda, f, g, m),
                text_outcome(verify_congruence, f, g, m, mult))

    @settings(max_examples=250, deadline=None)
    @given(lift_cases())
    def test_against_the_walk_and_the_oracle(self, case):
        f, g, m, mult = case
        with mock.patch.object(congruence, "_lift_report", return_value=None):
            walk = self.both(f, g, m, mult)
        assert self.both(f, g, m, mult) == walk == (
            text_outcome(solve_lambda_by_index, f, g, m),
            text_outcome(verify_congruence_by_index, f, g, m, mult))
        # solve reads the multiplier and nothing more: verify on it gives the same report
        if not isinstance(walk[0], tuple):
            report = solve_lambda(f, g, m)
            assert verify_congruence(f, g, m, report.multiplier) == report

    @pytest.mark.parametrize("key, p, lam", PUBLISHED,
                             ids=[f"{key[0]}{key[1] or ''}/{key[2]}" for key, _, _ in PUBLISHED])
    def test_published_pairs_read_no_index_walk(self, monkeypatch, key, p, lam):
        # at the benchmark's trace bounds the lifts decide, and _residues and
        # _check_at read only alpha series; a parsed file, which carries no
        # lifted_from, takes the walk over the degree-2 indices once
        k, lat = CUSP_FORMS[key], lattice_for(*key[:2])
        bound = 12 if key[0] == "siegel" else 7
        residues, walks = [], []
        real_residues, real_check_at = congruence._residues, congruence._check_at

        def recorded_residues(modulus, *expansions):
            residues.append(tuple(e.lattice.space for e in expansions))
            return real_residues(modulus, *expansions)

        def recorded_check_at(walk_lat, *args):
            walks.append(walk_lat.space)
            return real_check_at(walk_lat, *args)

        monkeypatch.setattr(congruence, "_residues", recorded_residues)
        monkeypatch.setattr(congruence, "_check_at", recorded_check_at)
        g, f = eisenstein(lat, "G", k, bound), cusp_form(key, bound)
        solved, verified = solve_lambda(g, f, p), verify_congruence(g, f, p, lam)
        assert solved == verified == CongruenceReport(p, lam, True, len(lat.indices(bound)))
        assert residues and walks
        assert {*walks, *itertools.chain(*residues)} == {"elliptic"}
        residues.clear()
        walks.clear()
        assert solve_lambda(g, exp_parse(exp_serialize(f)), p) == solved
        assert residues == [(lat.space, lat.space)] and walks == [lat.space]

    @pytest.mark.parametrize("lat", [SIEGEL, hermitian_lattice(-3)], ids=repr)
    def test_every_datum_is_checked(self, lat):
        # G10 with its constant term, or its alpha at N = alpha_length(2), the det
        # of an index of trace 2 and content 1, off by one: the walk finds it
        g = eisenstein(lat, "G", 10, 2)
        alpha, constant = g.lifted_from
        bump = TruncatedExpansion(ELLIPTIC, 10, alpha.trace_bound, {lat.alpha_length(2): 1})
        for f in (lift(lat, 10, 2, alpha, constant + 1), lift(lat, 10, 2, exp_add(alpha, bump), constant)):
            assert not verify_congruence(f, g, 1009, 1).verified
            assert verify_congruence(f, g, 1009, 1) == verify_congruence_by_index(f, g, 1009, 1)
            assert solve_lambda(f, g, 1009) == solve_lambda_by_index(f, g, 1009)


@pytest.mark.parametrize("modulus", [0, -1, -3, -43867])
def test_modulus_below_one_is_refused(modulus):
    g10, x10 = siegel_expansion("G", 10, 2), igusa_x10(2)
    for call in (lambda: solve_lambda(g10, x10, modulus),
                 lambda: verify_congruence(g10, x10, modulus, 11313),
                 lambda: reduce_mod_p(g10, modulus),
                 lambda: bruinier_search(10, modulus, 100)):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            call()


class TestSolveAndVerify:
    SIEGEL_CASES = [
        (10, 43867, 11313, igusa_x10),
        (12, 77683, 53020, igusa_x12),
    ]
    HERMITIAN_CASES = [
        (-3, 10, "F10", 809, 554),
        (-3, 12, "F12", 1847, 824),
        (-4, 8, "CHI8", 61, 59),
        (-4, 10, "F10", 277, 22),
    ]

    def test_siegel_congruences(self):
        for k, p, lam, cusp in self.SIEGEL_CASES:
            report = solve_lambda(siegel_expansion("G", k, 3), cusp(3), p)
            assert report.verified
            assert report.multiplier == lam
            assert report.first_failure is None
            assert report.indices_checked > 0

    def test_hermitian_congruences(self):
        for d, k, name, p, lam in self.HERMITIAN_CASES:
            g = hermitian_expansion("G", d, k, 3)
            cusp = hermitian_cusp_form(name, d, 3)
            report = solve_lambda(g, cusp, p)
            assert report.verified
            assert report.multiplier == lam

    def test_verify_detects_failure(self):
        g = siegel_expansion("G", 10, 3)
        x = igusa_x10(3)
        bad = verify_congruence(g, x, 43867, 11314)
        assert not bad.verified
        assert bad.first_failure is not None

    def test_wrong_modulus_fails(self):
        g = siegel_expansion("G", 10, 3)
        report = solve_lambda(g, igusa_x10(3), 101)
        assert not report.verified

    def test_weight_mismatch_rejected(self):
        with pytest.raises(WeightMismatch):
            solve_lambda(siegel_expansion("G", 10, 2), igusa_x12(2), 43867)

    def test_all_zero_rhs(self):
        z = exp_scale(0, igusa_x10(2))
        with pytest.raises(AllZeroRhs):
            solve_lambda(siegel_expansion("G", 10, 2), z, 43867)

    @given(st.integers(min_value=1, max_value=43866))
    @settings(max_examples=20, deadline=None)
    def test_lambda_respects_scaling(self, c):
        # scaling the cusp form by c scales lambda by c^-1
        g = siegel_expansion("G", 10, 2)
        x = igusa_x10(2)
        base = solve_lambda(g, x, 43867)
        scaled = solve_lambda(g, exp_scale(c, x), 43867)
        assert scaled.verified
        assert scaled.multiplier == base.multiplier * pow(c, -1, 43867) % 43867

    def test_reciprocal_multipliers(self):
        # swapping the roles of f and g inverts lambda mod p
        g = siegel_expansion("G", 10, 2)
        x = igusa_x10(2)
        a = solve_lambda(g, x, 43867).multiplier
        b = solve_lambda(x, g, 43867).multiplier
        assert a * b % 43867 == 1

    def test_report_to_text(self):
        report = solve_lambda(siegel_expansion("G", 10, 2), igusa_x10(2), 43867)
        text = report.to_text()
        assert "modulus 43867" in text
        assert "lambda 11313" in text
        assert "verified true" in text

    def test_report_is_an_immutable_record(self):
        check_record(
            CongruenceReport,
            {"modulus": 7, "multiplier": 2, "verified": False, "indices_checked": 3,
             "first_failure": ("1,0,1", 3, 4)},
            "CongruenceReport(modulus=7, multiplier=2, verified=False, indices_checked=3, "
            "first_failure=('1,0,1', 3, 4))",
        )
        passed = CongruenceReport(43867, 11313, True, 30)
        assert passed.first_failure is None
        assert repr(passed) == ("CongruenceReport(modulus=43867, multiplier=11313, verified=True, "
                                "indices_checked=30, first_failure=None)")
        assert passed.to_text() == "modulus 43867\nlambda 11313\nverified true\nindices_checked 30\n"
        failed = CongruenceReport(7, 2, False, 3, ("1,0,1", 3, 4))
        assert failed.to_text().endswith("indices_checked 3\nfirst_failure 1,0,1 3 4\n")


class TestCuspCorrection:
    def test_siegel_correction_is_cuspidal_and_proportional(self):
        g = siegel_expansion("G", 10, 3)
        corrected = cusp_correction(g)
        assert phi_operator(corrected).is_zero()
        x = igusa_x10(3)
        ratio = corrected.coefficient((1, 1, 1)) / x.coefficient((1, 1, 1))
        for t in x.support():
            assert corrected.coefficient(t) == ratio * x.coefficient(t)

    def test_hermitian_correction(self):
        g = hermitian_expansion("G", -3, 12, 3)
        corrected = cusp_correction(g)
        assert phi_operator(corrected).is_zero()
        f12 = hermitian_cusp_form("F12", -3, 3)
        ratio = corrected.coefficient((1, 1, 0, 1)) / f12.coefficient((1, 1, 0, 1))
        for h in f12.support():
            assert corrected.coefficient(h) == ratio * f12.coefficient(h)

    def test_correction_of_cusp_form_is_identity(self):
        x = igusa_x10(3)
        assert cusp_correction(x) == x

    @pytest.mark.parametrize("form, most", [("X10", 0), (10, 1), (12, 3), (24, 6), (36, 11)])
    def test_degree_2_products(self, monkeypatch, form, most):
        # Q(E4, E6) is summed over the basis E4^(a_j) E6^(b_0) (E4^3 - E6^2)^j,
        # which shares E4^3 and E4^3 - E6^2 between its forms; a cusp form's
        # Q is zero and multiplies nothing
        g = igusa_x10(4) if form == "X10" else siegel_expansion("G", form, 4)
        real, calls = expansion.exp_multiply, []

        def counted(f, h):
            calls.append(f.lattice.space)
            return real(f, h)

        for name, module in list(sys.modules.items()):
            if name.startswith("eiscong") and getattr(module, "exp_multiply", None) is real:
                monkeypatch.setattr(module, "exp_multiply", counted)
        assert phi_operator(cusp_correction(g)).is_zero()
        assert calls.count("siegel") <= most

    @pytest.mark.parametrize("lat, bound", [(SIEGEL, 6), (hermitian_lattice(-3), 3)], ids=repr)
    def test_correction_of_a_form_that_is_no_maass_lift(self, lat, bound):
        # E4^3 is not the Maass lift of its own alpha (the one-variable
        # product rule's), so Q(E4, E6) cannot be built as such lifts; the
        # correction takes the degree-2 products and returns zero
        e4 = eisenstein(lat, "E", 4, bound)
        cube = e4 * e4 * e4
        n = lat.alpha_length(bound)
        factor = _maass_factor(lat, 4, n)
        phi, alpha = _maass_product(_maass_product(factor, factor), factor)
        own = lift(lat, 12, bound, alpha, phi.coefficient(0))
        assert own != cube
        assert cusp_correction(cube).is_zero()


class TestIrregularPairs:
    def test_known_prefix(self):
        got = irregular_pairs(200)
        assert got[:6] == [(37, 32), (59, 44), (67, 58), (101, 68), (103, 24), (131, 22)]

    def test_691_12(self):
        assert (691, 12) in irregular_pairs(691)

    def test_regular_primes_absent(self):
        pairs = irregular_pairs(100)
        irregular = {p for p, _ in pairs}
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 43, 47, 53, 61, 71, 73, 79, 83, 89, 97):
            assert p not in irregular

    def test_agrees_with_tangent_oracle(self):
        # recompute the divisibility with independently derived Bernoulli
        # numerators
        oracle = bernoulli_tangent(100)
        expected = []
        for p in primes(104):
            for m in range(2, p - 2, 2):
                if oracle[m].numerator % p == 0:
                    expected.append((p, m))
        assert irregular_pairs(103) == expected

    def test_agrees_with_binomial_recurrence_oracle(self):
        oracle = bernoulli_binomial_recurrence(400)
        expected = [
            (p, m)
            for p in primes(401)
            for m in range(2, p - 2, 2)
            if oracle[m].numerator % p == 0
        ]
        assert irregular_pairs(400) == expected

    @pytest.mark.parametrize("p_max", [3, 5, 100, 300])
    def test_agrees_with_a_numerator_per_pair(self, p_max):
        expected = [(p, m) for p in primes(p_max + 1) for m in range(2, p - 2, 2)
                    if bernoulli(m).numerator % p == 0]
        assert irregular_pairs(p_max) == expected

    def test_up_to_1000_unchanged(self):
        # sha256 of repr(irregular_pairs(1000)) as computed by the binomial
        # recurrence before the table was built from tangent numbers
        got = irregular_pairs(1000)
        assert len(got) == 81
        assert got[-3:] == [(929, 820), (953, 156), (971, 166)]
        digest = hashlib.sha256(repr(got).encode()).hexdigest()
        assert digest == "ae946d6dd6f3ec55189913f5e0fc05f1f9597a2af982b85502d5f4c21c49ca65"


class TestConditionScanners:
    def test_condition_b_published_rows(self):
        rows = condition_b_primes(-4, 16)
        assert 61 in rows[8]
        assert 277 in rows[10]
        rows3 = condition_b_primes(-3, 16)
        assert 809 in rows3[10]
        assert 1847 in rows3[12]
        rows19 = condition_b_primes(-19, 6)
        assert 11 in rows19[4]

    def test_condition_b_respects_size_filter(self):
        # only primes exceeding k + 1 qualify
        for k, ps in condition_b_primes(-3, 16).items():
            assert all(p > k + 1 for p in ps)

    def test_condition_b_factors_report_the_cofactor(self):
        rows = condition_b_factors(-67, 16)
        assert rows[16] == ([], 27911403950873192228229911)
        assert not is_prime(27911403950873192228229911)
        assert all(rest == 1 for k, (_, rest) in rows.items() if k < 16)
        ps, rest = condition_b_factors(-163, 16)[16]
        assert rest == 1
        assert ps == [358181, 6185071975972339006627199]
        assert ps[-1] > MR_DETERMINISTIC_BOUND

    @pytest.mark.parametrize("disc", [1, 5, 8, 12])
    def test_condition_b_rejects_a_real_quadratic_field(self, disc):
        # an even character: every B_{k-1,chi} with k - 1 odd vanishes
        with pytest.raises(ValueError, match="imaginary quadratic"):
            condition_b_factors(disc, 8)
        with pytest.raises(ValueError, match="imaginary quadratic"):
            condition_b_primes(disc, 8)

    def test_condition_b_unchanged_for_the_nine_fields(self):
        # sha256 of the scan as the candidate-by-candidate wheel walk gave it
        got = [(d, condition_b_primes(d, 16)) for d in CONDITION_B_TABLES]
        digest = hashlib.sha256(repr(got).encode()).hexdigest()
        assert digest == "de3d34af5d1755eb9f9a8a724fdc33832d712faf38d5869cb64f2a46d094ddd2"

    def test_condition_a(self):
        assert condition_a_check(-3, 809)
        assert condition_a_check(-4, 61)
        assert condition_a_check(-4, 277)
        assert condition_a_check(-3, 1847)

    def test_bruinier_examples(self):
        assert bruinier_search(10, 43867, 100) == -3
        assert bruinier_search(12, 131, 100) == -3
        assert bruinier_search(10, 2, 3) is None


def _near(bound, count=5):
    """The ``count`` largest primes <= bound and the ``count`` smallest above."""
    below = itertools.islice(filter(is_prime, range(bound, 1, -1)), count)
    above = itertools.islice(filter(is_prime, itertools.count(bound + 1)), count)
    return [*below, *above]


NEAR_BOUND = {10**3: _near(10**3), 10**5: _near(10**5)}
#: primes around isqrt(bound): a product of three of them holds several
#: factors up to the bound in one piece, which rho must split more than once
NEAR_ROOT = {bound: _near(math.isqrt(bound)) for bound in NEAR_BOUND}
#: 2^89 - 1 is prime and above the deterministic Miller-Rabin range
M89 = 2**89 - 1


@st.composite
def planted_primes(draw):
    """A bound, and two or three primes from near it and near its root."""
    bound = draw(st.sampled_from(sorted(NEAR_BOUND)))
    ps = draw(st.lists(st.sampled_from(NEAR_BOUND[bound] + NEAR_ROOT[bound]),
                       min_size=2, max_size=3))
    return bound, ps


class TestBoundedFactoring:
    """Brent's rho with the trial walk behind it, against trial division
    by the primes of a sieve (the oracle), and the cofactor it reports.
    The walk tests the sieved primes of one odd-only segment at a time;
    segments double from 8 to 2^10 steps of 210 and start at 10 (mod 210),
    so the walk tests below probe primes at and beside every segment start
    and products that span several segments."""

    @staticmethod
    def check(n, bound):
        found, rest = _prime_factors_bounded(n, bound)
        assert found == prime_factors_by_sieve(n, bound), (n, bound)
        if n == 0:
            assert (found, rest) == (set(), 0)
            return
        m = abs(n)
        for p in found:
            assert is_prime(p)
            while m % p == 0:
                m //= p
        assert m == rest, (n, bound)
        if rest > 1:  # unfactored: composite, no prime factor up to the bound
            assert not is_prime(rest)
            assert all(map(rest.__mod__, primes_up_to(bound)))

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(sorted(NEAR_BOUND)),
        st.integers(min_value=1, max_value=10**6),
        st.lists(st.integers(min_value=0, max_value=9), max_size=3),
        st.booleans(),
    )
    def test_planted_factors_near_the_bound(self, bound, small, picks, negative):
        n = small * math.prod(NEAR_BOUND[bound][i] for i in picks)
        self.check(-n if negative else n, bound)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=-10**15, max_value=10**15),
           st.integers(min_value=0, max_value=3000))
    def test_any_value_and_small_bound(self, n, bound):
        self.check(n, bound)

    @pytest.mark.parametrize("bound", [10**3, 10**5])
    def test_edge_values(self, bound):
        above = [p for p in NEAR_BOUND[bound] if p > bound]
        below = [p for p in NEAR_BOUND[bound] if p <= bound]
        values = [0, 1, -1, 2, 3, 5, 7, 25, 1009, 99991, 10**9 + 7, 2**89 - 1,
                  above[0] ** 2, above[0] * above[1], -above[2] * above[3],
                  below[0] ** 2, below[0] * above[0], 2**40 * above[0] ** 2,
                  6 * above[0] * above[1] * above[2]]
        for n in values:
            self.check(n, bound)
        assert _prime_factors_bounded(above[0] * above[1], bound) == (
            set(), above[0] * above[1])

    @settings(max_examples=150, deadline=None)
    @given(planted_primes(), st.integers(min_value=1, max_value=10**4), st.booleans())
    def test_planted_primes_for_rho(self, planted, small, negative):
        bound, ps = planted
        n = small * math.prod(ps)
        self.check(-n if negative else n, bound)

    @pytest.mark.parametrize("bound", [10**3, 10**5])
    def test_rho_path_cases(self, bound):
        below = [p for p in NEAR_BOUND[bound] if p <= bound]
        above = [p for p in NEAR_BOUND[bound] if p > bound]
        roots = NEAR_ROOT[bound]
        assert M89 > MR_DETERMINISTIC_BOUND and is_prime(M89)
        cases = {
            below[0] * above[0]: ({below[0], above[0]}, 1),
            below[1] * M89: ({below[1], M89}, 1),
            above[0] * above[1]: (set(), above[0] * above[1]),
            above[2] * M89: (set(), above[2] * M89),
            # rho's gcd returns n on 100003^2, and on 1019^2 inside 1019^3
            above[0] ** 2: (set(), above[0] ** 2),
            above[2] ** 3: (set(), above[2] ** 3),
            roots[0] * roots[1] * roots[2]: (set(roots[:3]), 1),
            roots[5] * roots[6] * roots[7]: (set(roots[5:8]), 1),
            roots[4] ** 2 * roots[9] * above[3]: ({roots[4], roots[9], above[3]}, 1),
            561 * above[0]: ({3, 11, 17, above[0]}, 1),  # Carmichael numbers
            252601 * above[1] * above[4]: ({41, 61, 101}, above[1] * above[4]),
        }
        for n, expected in cases.items():
            self.check(n, bound)
            assert _prime_factors_bounded(n, bound) == expected, n

    @staticmethod
    def walk_oracle(n, bound):
        return {p for p in prime_factors_by_sieve(n, bound) if p <= bound}

    def test_walk_finds_a_prime_at_every_chunk_boundary(self):
        # The walk alone, since rho would split these products first.  Its
        # chunks are multiples of 210 wide and double, so primes next to
        # 1680 * (2^j - 1) sit at their edges; 52081 = 1680 * 31 + 1.
        big = 10000019  # prime, above the bound
        assert congruence._trial_walk(52081 * big, 10**7) == {52081}
        assert congruence._trial_walk(52081 * big, 10**7) == self.walk_oracle(
            52081 * big, 10**7)
        window = set(primes(12000))
        for j in range(3, 7):
            edge = 1680 * (2**j - 1)
            window |= {p for p in primes(edge + 230) if p >= edge - 230}
        for p in sorted(window - {2, 3, 5, 7}):
            assert congruence._trial_walk(p * big, 10**7) == {p}, p

    def test_walk_keeps_a_prime_cofactor_up_to_the_bound(self):
        # 11 leaves the prime 9999991 <= 10**7 as the cofactor; a prime n
        # itself has no factor up to sqrt(n) and is kept at the end
        assert congruence._trial_walk(11 * 9999991, 10**7) == {11, 9999991}
        assert congruence._trial_walk(9999991, 10**7) == {9999991}
        assert congruence._trial_walk(9999991, 10**6) == set()

    #: the walk's segment starts: 10 + 1680 (2^j - 1) while segments double
    #: from 8 steps of 210, then 2^10 steps apart once they reach the cap
    STARTS = [10 + 1680 * (2**j - 1) for j in range(8)] + [
        10 + 1680 * 127 + 210 * 2**10 * m for m in range(1, 4)]

    def test_walk_finds_a_prime_at_every_segment_start(self):
        big = 10000019  # prime, above the bound
        ps = [p for p in primes_up_to(self.STARTS[-1] + 200) if p > 7]
        for start in self.STARTS:
            i = bisect.bisect_left(ps, start)
            for p in ps[max(i - 3, 0):i + 3]:  # three on each side of the start
                assert congruence._trial_walk(p * big, 10**7) == self.walk_oracle(
                    p * big, 10**7) == {p}, p

    def test_walk_across_several_segments(self):
        # p in the ramp and q past the cap, then a composite above the bound:
        # the walk runs through every segment to the bound
        rest = 10000019 * 10000079
        for p, q in [(1699, 643463), (211, 213383), (53777, 428429)]:
            n = p * q**2 * rest
            assert congruence._trial_walk(n, 10**7) == self.walk_oracle(n, 10**7) == {p, q}

    def test_walk_memory_stays_within_a_few_segments(self):
        # the condition-B walk rho leaves: a segment is at most 105 KiB of flags
        n = 27911403950873192228229911
        congruence._trial_walk(n, 10**4)  # lazy imports and caches outside the trace
        tracemalloc.start()
        try:
            assert congruence._trial_walk(n, 10**7) == set()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, peak

    @pytest.mark.parametrize("bound", [10**3, 10**5])
    def test_walk_past_the_bound_against_the_oracle(self, bound):
        above = [p for p in NEAR_BOUND[bound] if p > bound]
        rest = above[0] * above[1]  # composite, walked all the way to the bound
        edges = [q for q in primes(bound + 1) if q % 210 in (1, 11)
                 and any(abs(q - 1680 * (2**j - 1)) < 2000 for j in range(8))]
        for p, q in zip(edges, edges[1:]):
            n = p * q**2 * rest
            assert congruence._trial_walk(n, bound) == self.walk_oracle(n, bound) == {p, q}

    def test_only_a_cofactor_rho_cannot_split_is_walked(self, monkeypatch):
        walked = []
        real = congruence._trial_walk

        def counted(n, bound):
            walked.append(n)
            return real(n, bound)

        monkeypatch.setattr(congruence, "_trial_walk", counted)
        for d in CONDITION_B_TABLES:
            for k in range(4, 17, 2):
                _prime_factors_bounded(generalized_bernoulli(k - 1, d).numerator, 10**7)
        # (-67, 16): 541355166251 * 51558395838661, both beyond rho's budget
        assert walked == [27911403950873192228229911]

    def test_nine_fields_at_the_condition_b_bound(self):
        for d in CONDITION_B_TABLES:
            for k in range(4, 17, 2):
                self.check(generalized_bernoulli(k - 1, d).numerator, 10**7)


class TestWitness:
    def test_direct_search(self):
        w = nontriviality_witness(-3, 10, 809)
        assert w.method == "direct-search"
        assert w.chi_value == -1
        assert w.pow_residue not in (0, 1)
        from eiscong.arith import kronecker_chi

        assert kronecker_chi(-3, w.q) == -1
        assert pow(w.q, 8, 809) == w.pow_residue

    def test_constructive_fallback(self):
        w = nontriviality_witness(-3, 10, 809, direct_limit=2)
        assert w.method == "crt-construction"
        from eiscong.arith import is_prime, kronecker_chi

        assert is_prime(w.q)
        assert kronecker_chi(-3, w.q) == -1
        assert pow(w.q, 8, 809) == w.pow_residue != 1

    def test_progression_cap_edge(self):
        # the constructed witness 8093 sits at the third progression step
        with pytest.raises(WitnessSearchExhausted, match="no witness within 2 progression steps"):
            nontriviality_witness(-3, 10, 809, direct_limit=2, progression_cap=2)
        assert nontriviality_witness(-3, 10, 809, direct_limit=2, progression_cap=3) == (
            WitnessReport(q=8093, chi_value=-1, pow_residue=89, method="crt-construction"))

    def test_report_is_an_immutable_record(self):
        # the benchmark hashes this repr for its witness operations
        check_record(
            WitnessReport,
            {"q": 2, "chi_value": -1, "pow_residue": 256, "method": "direct-search"},
            "WitnessReport(q=2, chi_value=-1, pow_residue=256, method='direct-search')",
        )
        assert repr(nontriviality_witness(-3, 10, 809)) == (
            "WitnessReport(q=2, chi_value=-1, pow_residue=256, method='direct-search')")
        assert repr(nontriviality_witness(-3, 10, 809, direct_limit=2)) == (
            "WitnessReport(q=8093, chi_value=-1, pow_residue=89, method='crt-construction')")

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            nontriviality_witness(-3, 10, 7)  # k - 2 >= p - 1
        with pytest.raises(ValueError):
            nontriviality_witness(-3, 10, 3)  # p divides disc

    def test_congruence_is_nontrivial_mod_each_prime(self):
        # existence of a witness shows the Eisenstein series is not
        # congruent to a constant: some coefficient is nonzero mod p
        cases = [(-3, 10, 809), (-3, 12, 1847), (-4, 8, 61), (-4, 10, 277)]
        for d, k, p in cases:
            w = nontriviality_witness(d, k, p)
            assert w.pow_residue % p != 1
