"""Tests for the truncated Fourier expansion container and its algebra."""

import copy
import math
import operator
import pickle
import time
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eiscong import expansion
from eiscong.arith import format_rational, parse_rational, primes
from eiscong.congruence import cusp_correction
from eiscong.elliptic import delta_expansion, elliptic_eisenstein
from eiscong.expansion import (
    ELLIPTIC,
    TruncatedExpansion,
    constant_one,
    exp_add,
    exp_multiply,
    exp_parse,
    exp_scale,
    exp_serialize,
    lattice_for,
    lift,
    phi_operator,
    zero_expansion,
)
from eiscong.hermitian import (
    CLASS_NUMBER_ONE_DISCRIMINANTS,
    hermitian_cusp_form,
    hermitian_expansion,
    hermitian_lattice,
)
from eiscong.siegel import SIEGEL, igusa_x10, igusa_x12, siegel_expansion
from eiscong.errors import (
    InsufficientTruncation,
    NotPositiveSemidefinite,
    OutOfTruncation,
    ParseError,
    SpaceMismatch,
    WeightMismatch,
)

from .oracles import (
    enumerate_by_filtering, lift_by_index, reference_product, serialize_by_sorting,
)


def small_elliptic(weight, bound, values):
    return TruncatedExpansion(ELLIPTIC, weight, bound, dict(enumerate(values)))


rational = st.fractions(max_denominator=50)


@st.composite
def elliptic_expansions(draw, weight=None):
    k = weight if weight is not None else draw(st.integers(min_value=0, max_value=20))
    bound = draw(st.integers(min_value=0, max_value=8))
    vals = draw(st.lists(rational, min_size=bound + 1, max_size=bound + 1))
    return small_elliptic(k, bound, vals)


class TestContainer:
    def test_zero_coefficients_dropped(self):
        f = small_elliptic(4, 3, [1, 0, 2, 0])
        assert set(f.coeffs) == {0, 2}
        assert f.coefficient(1) == 0
        assert f.coefficient(3) == 0

    def test_coefficient_beyond_bound_raises(self):
        f = small_elliptic(4, 3, [1, 2, 3, 4])
        with pytest.raises(OutOfTruncation):
            f.coefficient(4)

    def test_negative_index_rejected(self):
        with pytest.raises(NotPositiveSemidefinite):
            TruncatedExpansion(ELLIPTIC, 4, 3, {-1: Fraction(1)})

    def test_siegel_indefinite_index_rejected(self):
        with pytest.raises(NotPositiveSemidefinite):
            TruncatedExpansion(SIEGEL, 10, 3, {(1, 5, 1): Fraction(1)})

    @pytest.mark.parametrize("lat, bad", [
        (SIEGEL, (1, 0, 0, 1)), (SIEGEL, (1, 1)),
        (hermitian_lattice(-3), (1, 0, 0, 0, 1)), (hermitian_lattice(-3), (1, 0, 1)),
    ], ids=repr)
    def test_wrong_length_index_rejected(self, lat, bad):
        with pytest.raises(NotPositiveSemidefinite):
            TruncatedExpansion(lat, 10, 3, {bad: Fraction(1)})
        with pytest.raises(NotPositiveSemidefinite):
            zero_expansion(lat, 10, 3).coefficient(bad)
        with pytest.raises(NotPositiveSemidefinite):
            lat.coefficient(10, bad)

    def test_restrict(self):
        f = small_elliptic(4, 5, [1, 2, 3, 4, 5, 6])
        g = f.restrict(2)
        assert g.trace_bound == 2
        assert g.support() == [0, 1, 2]
        with pytest.raises(OutOfTruncation):
            f.restrict(7)

    def test_support_is_sorted_by_trace(self):
        e = siegel_expansion("E", 4, 2)
        traces = [SIEGEL.trace(t) for t in e.support()]
        assert traces == sorted(traces)


class TestAlgebra:
    @given(elliptic_expansions(weight=6), elliptic_expansions(weight=6))
    def test_addition_commutes(self, f, g):
        assert exp_add(f, g) == exp_add(g, f)

    @given(elliptic_expansions(weight=8))
    def test_additive_identity_and_inverse(self, f):
        z = zero_expansion(ELLIPTIC, 8, f.trace_bound)
        assert f + z == f
        assert (f - f).is_zero()

    @given(elliptic_expansions(), rational, rational)
    def test_scaling_is_linear(self, f, a, b):
        assert exp_scale(a + b, f) == exp_scale(a, f) + exp_scale(b, f)
        assert exp_scale(a * b, f) == exp_scale(a, exp_scale(b, f))

    @given(elliptic_expansions(weight=4), elliptic_expansions(weight=6))
    def test_multiplication_commutes_and_adds_weights(self, f, g):
        fg = exp_multiply(f, g)
        assert fg == exp_multiply(g, f)
        assert fg.weight == 10

    @given(
        elliptic_expansions(weight=4),
        elliptic_expansions(weight=4),
        elliptic_expansions(weight=6),
    )
    def test_distributivity(self, f, g, h):
        assert (f + g) * h == f * h + g * h

    def test_mismatched_weights_rejected(self):
        f = small_elliptic(4, 2, [1, 1, 1])
        g = small_elliptic(6, 2, [1, 1, 1])
        with pytest.raises(WeightMismatch):
            exp_add(f, g)

    def test_mismatched_spaces_rejected(self):
        f = small_elliptic(4, 2, [1, 1, 1])
        g = siegel_expansion("E", 4, 2)
        with pytest.raises(SpaceMismatch):
            exp_add(f, g)
        with pytest.raises(SpaceMismatch):
            exp_multiply(f, g)

    def test_addition_truncates_to_shorter_bound(self):
        f = small_elliptic(4, 5, [1] * 6)
        g = small_elliptic(4, 3, [1] * 4)
        assert (f + g).trace_bound == 3

    def test_one_is_multiplicative_identity(self):
        for lat in (ELLIPTIC, SIEGEL, hermitian_lattice(-4)):
            one = constant_one(lat, 2)
            f = (
                small_elliptic(0, 2, [3, -1, 2])
                if lat is ELLIPTIC
                else exp_scale(1, TruncatedExpansion(lat, 0, 2, dict.fromkeys([lat.zero] if hasattr(lat, "zero") else [0], Fraction(5))))
            )
            assert exp_multiply(one, one) == one

    def test_truncation_coherence(self):
        # multiplying then restricting agrees with restricting then
        # multiplying, for every space
        e4 = siegel_expansion("E", 4, 4)
        e6 = siegel_expansion("E", 6, 4)
        prod = exp_multiply(e4, e6)
        assert prod.restrict(2) == exp_multiply(e4.restrict(2), e6.restrict(2))

        h4 = hermitian_expansion("E", -3, 4, 3)
        h6 = hermitian_expansion("E", -3, 6, 3)
        assert exp_multiply(h4, h6).restrict(2) == exp_multiply(
            h4.restrict(2), h6.restrict(2)
        )

    def test_degree_two_product_matches_known_identity(self):
        # E4 * E4 has weight 8 and the same constant term
        e4 = siegel_expansion("E", 4, 3)
        sq = exp_multiply(e4, e4)
        assert sq.weight == 8
        assert sq.coefficient((0, 0, 0)) == 1


class TestPhi:
    def test_phi_of_eisenstein_is_elliptic_eisenstein(self):
        for k in (4, 6, 10, 12):
            phi = phi_operator(siegel_expansion("E", k, 4))
            assert phi == elliptic_eisenstein(k, 4)

    def test_phi_is_linear(self):
        f = siegel_expansion("E", 4, 3)
        g = siegel_expansion("G", 4, 3)
        assert phi_operator(f + g) == phi_operator(f) + phi_operator(g)
        assert phi_operator(exp_scale(Fraction(3, 7), f)) == exp_scale(
            Fraction(3, 7), phi_operator(f)
        )

    def test_phi_is_multiplicative(self):
        f = siegel_expansion("E", 4, 3)
        g = siegel_expansion("E", 6, 3)
        assert phi_operator(exp_multiply(f, g)) == exp_multiply(
            phi_operator(f), phi_operator(g)
        )

    def test_phi_on_elliptic_rejected(self):
        with pytest.raises(ValueError):
            phi_operator(small_elliptic(4, 2, [1, 1, 1]))


class TestSerialization:
    def test_roundtrip_all_spaces(self):
        forms = [
            elliptic_eisenstein(6, 8),
            siegel_expansion("G", 10, 3),
            hermitian_expansion("G", -7, 8, 3),
        ]
        for f in forms:
            assert exp_parse(exp_serialize(f)) == f

    def test_roundtrip_beyond_int_str_digit_limit(self):
        # a 16902-digit numerator, past Python's default int <-> str limit
        f = small_elliptic(12, 2, [1, Fraction(7**20000, 5), -(7**20000)])
        text = exp_serialize(f)
        assert exp_parse(text) == f
        assert exp_serialize(exp_parse(text)) == text

    def test_byte_determinism(self):
        a = exp_serialize(siegel_expansion("E", 4, 3))
        b = exp_serialize(exp_parse(a))
        assert a == b

    def test_header_layout(self):
        text = exp_serialize(hermitian_expansion("E", -4, 8, 1))
        lines = text.splitlines()
        assert lines[0] == "space hermitian"
        assert lines[1] == "disc -4"
        assert lines[2] == "weight 8"
        assert lines[3] == "trace_bound 1"
        assert lines[4] == "coefficients"

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError):
            exp_parse("space elliptic\nweight 4\n")
        try:
            exp_parse("space elliptic\nweight 4\ntrace_bound 1\ncoefficients\n0 1/0\n")
        except ParseError as exc:
            assert exc.line == 5
        else:
            pytest.fail("expected ParseError")

    def test_parse_rejects_unknown_space(self):
        with pytest.raises(ParseError):
            exp_parse("space quaternionic\nweight 4\ntrace_bound 0\ncoefficients\n")

    @pytest.mark.parametrize("text, line", [
        ("space hermitian\ndisc x\nweight 4\ntrace_bound 1\ncoefficients\n", 2),
        ("space siegel\nweight 4\ntrace_bound -1\ncoefficients\n", 3),
        ("space siegel\nweight x\ntrace_bound 1\ncoefficients\n", 2),
        ("space siegel\nweight 4\ntrace_bound 1.5\ncoefficients\n", 3),
        ("space hermitian\ndisc 5\nweight 4\ntrace_bound 1\ncoefficients\n", 2),
        ("space siegel\nweight 4\n\ntrace_bound 1\ncoefficients\n1,5,1 2\n", 6),
        ("space siegel\nweight 4\ntrace_bound 1\ncoefficients\n0,0,0 1\n1,0,1 2\n", 6),
        ("space siegel\nweight 4\ntrace_bound 1\ncoefficients\n0,0,0 1\n0,0,0 0\n", 6),
        ("space siegel\nweight 4\nweight 6\ntrace_bound 1\ncoefficients\n", 3),
        ("space siegel\nweight 4\nfrobnicate yes\ntrace_bound 1\ncoefficients\n", 3),
        ("space siegel\nweight 4\ndisc -4\ntrace_bound 1\ncoefficients\n", 3),
        ("space elliptic\ndisc -3\nweight 4\ntrace_bound 1\ncoefficients\n", 2),
        ("space quaternionic\ndisc 5\nweight 4\ntrace_bound 1\ncoefficients\n", 1),
    ], ids=["disc-x", "negative-trace-bound", "weight-x", "decimal-trace-bound",
            "disc-of-no-field", "index-not-psd", "index-beyond-bound", "duplicate-key",
            "repeated-field", "unknown-field", "siegel-disc", "elliptic-disc",
            "unknown-space-with-disc"])
    def test_header_and_index_errors_carry_their_line(self, text, line):
        with pytest.raises(ParseError) as exc:
            exp_parse(text)
        assert exc.value.line == line

    def test_parse_drops_zero_values_unchecked(self):
        # as the public constructor does: a zero is never stored or checked
        text = "space siegel\nweight 4\ntrace_bound 1\ncoefficients\n0,0,0 1\n1,5,1 0\n2,0,2 0/7\n"
        assert exp_parse(text) == TruncatedExpansion(SIEGEL, 4, 1, {(0, 0, 0): 1})

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_parse_matches_the_public_constructor(self, data):
        lat = data.draw(st.sampled_from(list(KERNEL_LATTICES)))
        f = data.draw(sparse_expansion(lat, data.draw(st.integers(0, KERNEL_LATTICES[lat])), 6))
        assert exp_parse(exp_serialize(f)) == f
        assert_well_formed(exp_parse(exp_serialize(f)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_parse_of_other_tokens_matches_the_public_constructor(self, data):
        # non-reduced and zero tokens are read as the public constructor reads
        # their values; signed, exponent and decimal tokens are outside the
        # grammar, and the first of them is a ParseError at its line
        lat = data.draw(st.sampled_from(list(KERNEL_LATTICES)))
        bound = data.draw(st.integers(0, KERNEL_LATTICES[lat]))
        chosen = data.draw(st.lists(st.sampled_from(lat.enumerate_all(bound)),
                                    unique=True, max_size=8))
        lines, values, refused = [], {}, []
        for t in chosen:
            token, value = data.draw(st.one_of(other_token, refused_token))
            if value is None:
                refused.append(len(lines))
            lines.append(f"{lat.key_string(t)} {token}")
            values[t] = value
        disc = "" if lat.disc is None else f"disc {lat.disc}\n"
        header = f"space {lat.space}\n{disc}weight 6\ntrace_bound {bound}\ncoefficients\n"
        text = header + "".join(line + "\n" for line in lines)
        if refused:
            with pytest.raises(ParseError, match="not a rational") as exc:
                exp_parse(text)
            assert exc.value.line == header.count("\n") + 1 + refused[0]
            return
        parsed = exp_parse(text)
        assert parsed == TruncatedExpansion(lat, 6, bound, values)
        assert_well_formed(parsed)

    def test_parse_reduces_other_tokens(self):
        text = ("space elliptic\nweight 4\ntrace_bound 5\ncoefficients\n"
                "0 2/4\n1 -6/3\n2 0/5\n3 006/0016\n")
        f = exp_parse(text)
        assert (f.den, f.nums) == (8, {0: 4, 1: -16, 3: 3})
        assert exp_serialize(f).endswith("0 1/2\n1 -2\n3 3/8\n")
        for token in ["+3", "1e2", "-0.25"]:
            with pytest.raises(ParseError, match="not a rational") as exc:
                exp_parse(text + f"4 {token}\n")
            assert exc.value.line == 9

    @staticmethod
    def elliptic_text(tokens):
        return (f"space elliptic\nweight 4\ntrace_bound {len(tokens)}\ncoefficients\n"
                + "".join(f"{i} {token}\n" for i, token in enumerate(tokens)))

    def test_parse_refuses_a_common_denominator_past_the_bound(self):
        # every numerator carries the common denominator, so coprime ones
        # would make the parse quadratic in the file: it stops at the line
        # where their lcm passes 10**4300, without reading the rest
        ps = list(primes(40000))
        crossing = next(i for i, q in enumerate(accumulate(ps, operator.mul)) if q > 10**4300)
        assert crossing < len(ps) // 3
        with pytest.raises(ParseError, match="common denominator") as exc:
            exp_parse(self.elliptic_text([f"1/{p}" for p in ps]))
        assert exc.value.line == 5 + crossing

    def test_parse_bound_counts_reduced_nonzero_denominators(self):
        ps = list(primes(40000))
        assert exp_parse(self.elliptic_text([f"{p}/{p}" for p in ps])).den == 1
        zeros = "space elliptic\nweight 4\ntrace_bound 0\ncoefficients\n"
        zeros += "".join(f"{i} 0/{p}\n" for i, p in enumerate(ps))
        assert exp_parse(zeros).is_zero()
        assert exp_parse(self.elliptic_text([ONE_OVER_10_4300])).den == 10**4300
        with pytest.raises(ParseError, match="common denominator") as exc:
            exp_parse(self.elliptic_text(["1", f"1/{format_rational(Fraction(10**4300 + 1))}"]))
        assert exc.value.line == 6


    def test_parse_refuses_a_denominator_that_every_line_would_carry(self):
        # one 10**4300 denominator over 20000 short lines would keep about
        # 14284 bits per line, some 1225 per character of text
        lines = [ONE_OVER_10_4300] + [str(i * 7919 % 90000 + 10000) for i in range(1, 20000)]
        text = self.elliptic_text(lines)
        assert 204_296 < len(text.encode()) < 234_296
        start = time.perf_counter()
        with pytest.raises(ParseError, match="too large for the file's size") as exc:
            exp_parse(text)
        assert time.perf_counter() - start < 0.1
        assert exc.value.line == 5
        # the same denominator over a few lines is still read
        assert exp_parse(self.elliptic_text([ONE_OVER_10_4300] + ["1"] * 3)).den == 10**4300

    def test_parse_refuses_many_distinct_denominators_in_linear_time(self):
        # the lcm of 1/(10**9 + i) passes 10**4300 at line 630; the bulk
        # route bounds it as it grows, before it tokenizes a line
        text = self.elliptic_text([f"1/{10**9 + i}" for i in range(20000)])
        assert 368_000 < len(text.encode()) < 370_000
        ELLIPTIC.indices(20000).lookup  # built once per process, as by any reader
        start = time.perf_counter()
        with pytest.raises(ParseError, match="common denominator exceeds") as exc:
            exp_parse(text)
        assert time.perf_counter() - start < 0.2
        assert exc.value.line == 630

    def test_benchmark_pipeline_files_still_parse(self):
        for f in pipeline_forms():
            assert exp_parse(exp_serialize(f)) == f


def pipeline_forms():
    """The eight forms whose files the benchmark's CLI pipeline writes and reads."""
    return [
        siegel_expansion("G", 10, 8), igusa_x10(8), siegel_expansion("G", 12, 8),
        igusa_x12(8), hermitian_expansion("G", -4, 10, 5), hermitian_cusp_form("F10", -4, 5),
        hermitian_expansion("G", -3, 12, 5), hermitian_cusp_form("F12", -3, 5),
    ]


def parse_by_loop(text):
    """exp_parse with the bulk route off: the line loop reads every body."""
    with mock.patch.object(expansion, "_parse_canonical", return_value=None):
        return exp_parse(text)


def parse_in_bulk(text):
    """exp_parse with the line loop made to fail: only the bulk route reads."""
    with mock.patch.object(expansion, "_parse_lines", side_effect=AssertionError("line loop")):
        return exp_parse(text)


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return exc.line, str(exc)


class TestIndices:
    LATTICES = [ELLIPTIC, SIEGEL] + [hermitian_lattice(d) for d in CLASS_NUMBER_ONE_DISCRIMINANTS]

    @pytest.mark.parametrize("lat", LATTICES, ids=repr)
    def test_indices_are_every_index_in_canonical_order(self, lat):
        # the oracle is unordered and filters by the norm, so a missing, extra
        # or misplaced index in the ordered enumerator shows here
        bounds = [*range(9), *([16] if lat.disc in (-3, -163) else [])]
        for bound in bounds:
            expected = sorted(enumerate_by_filtering(lat, bound), key=lat.sort_key)
            assert lat.enumerate_all(bound) == expected
            assert list(lat.indices(bound)) == expected

    def test_degree_2_indices_are_one_shared_tuple_in_a_bounded_cache(self):
        lat = hermitian_lattice(-4)
        first = lat.indices(3)
        assert isinstance(first, tuple) and lat.indices(3) is first
        assert type(lat).indices.cache_info().maxsize is not None


class TestLatticeRegistry:
    def test_lookup(self):
        assert lattice_for("elliptic") is ELLIPTIC
        assert lattice_for("siegel") is SIEGEL
        assert lattice_for("hermitian", -3) is hermitian_lattice(-3)

    def test_hermitian_needs_disc(self):
        with pytest.raises(ValueError):
            lattice_for("hermitian")


# index lattices with the largest trace bound the quadratic oracle handles
# quickly on each
KERNEL_LATTICES = {
    ELLIPTIC: 8,
    SIEGEL: 4,
    hermitian_lattice(-3): 3,
    hermitian_lattice(-4): 3,
    hermitian_lattice(-163): 2,
}

# negative values, large denominators and zeros
sparse_value = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.fractions(max_denominator=10**12),
)


def _scaled(n, d, m):
    """n/d written over m times the terms: 2/4 for 1/2 and m = 2."""
    return f"{n * m}/{d * m}", Fraction(n, d)


ONE_OVER_10_4300 = "1/1" + "0" * 4300

# (token, value) for tokens of the grammar other than the canonical reduced n and n/d
other_token = st.one_of(
    st.builds(_scaled, st.integers(-10**6, 10**6), st.integers(1, 10**4), st.integers(1, 50)),
    st.sampled_from([("0/5", 0), ("-0", 0), ("007", 7), ("-6/3", -2), ("2/4", Fraction(1, 2))]),
)
# (token, None) for signed, exponent and decimal tokens, which exp_parse refuses
refused_token = st.one_of(
    st.builds(lambda n: (f"+{n}", None), st.integers(0, 10**6)),
    st.builds(lambda n, e: (f"{n}e{e}", None), st.integers(-999, 999), st.integers(0, 4)),
    st.builds(lambda n: (f"{n / 4}", None), st.integers(-4000, 4000)),
    st.sampled_from([("0e3", None), ("+0/5", None)]),
)


@st.composite
def sparse_expansion(draw, lat, bound, weight):
    indices = lat.enumerate_all(bound)
    chosen = draw(st.lists(st.sampled_from(indices), unique=True, max_size=12))
    return TruncatedExpansion(lat, weight, bound, {t: draw(sparse_value) for t in chosen})


@st.composite
def factor_pairs(draw):
    lat = draw(st.sampled_from(list(KERNEL_LATTICES)))
    top = KERNEL_LATTICES[lat]
    f = draw(sparse_expansion(lat, draw(st.integers(0, top)), 4))
    g = draw(sparse_expansion(lat, draw(st.integers(0, top)), 6))
    return f, g


def parity_twist(f):
    """g[t] = (-1)^trace(t) f[t]: in f * g the pairs (s, r) and (r, s) of
    an odd-trace target cancel, so every odd-trace coefficient is zero."""
    lat = f.lattice
    return TruncatedExpansion(lat, f.weight, f.trace_bound, {
        t: -v if lat.trace(t) % 2 else v for t, v in f.coeffs.items()
    })


# every lattice, at a trace bound where an operand on every index has at
# least 32 terms, and the quadratic oracle stays quick
PRODUCT_LATTICES = {
    ELLIPTIC: 40,
    SIEGEL: 5,
    **{hermitian_lattice(d): 3 if d > -19 else 2 for d in CLASS_NUMBER_ONE_DISCRIMINANTS},
}

# numerators up to 2^256 in size, with the extremes +-(2^k - 1) of k-bit values
EXTREMES = [sign * (2**k - 1) for k in (1, 7, 8, 63, 64, 127, 128, 254, 255, 256) for sign in (1, -1)]
wide_value = st.one_of(
    st.integers(min_value=-(2**256), max_value=2**256),
    st.sampled_from(EXTREMES),
    st.fractions(max_denominator=10**12),
)


@st.composite
def product_operand(draw, lat, bound, weight, dense):
    """Every index of the table or a random part of it; random values, or
    one extreme value at every term."""
    indices = lat.indices(bound)
    if dense:
        chosen = list(indices)
    else:
        chosen = draw(st.lists(st.sampled_from(indices), unique=True, max_size=len(indices)))
    if draw(st.booleans()):
        values = [draw(st.sampled_from(EXTREMES))] * len(chosen)
    else:
        values = draw(st.lists(wide_value, min_size=len(chosen), max_size=len(chosen)))
    return TruncatedExpansion(lat, weight, bound, dict(zip(chosen, values)))


@st.composite
def wide_factor_pairs(draw):
    """Half the time two dense operands, at the lattice's top bound and at
    that bound or one more; else any bounds, dense or not."""
    lat = draw(st.sampled_from(list(PRODUCT_LATTICES)))
    top = PRODUCT_LATTICES[lat]
    if draw(st.booleans()):
        bounds, dense = (top, draw(st.sampled_from([top, top + 1]))), (True, True)
    else:
        bounds, dense = draw(st.tuples(st.integers(0, top), st.integers(0, top))), draw(
            st.tuples(st.booleans(), st.booleans()))
    f = draw(product_operand(lat, bounds[0], 4, dense[0]))
    g = draw(product_operand(lat, bounds[1], 6, dense[1]))
    return (f, g) if draw(st.booleans()) else (g, f)


def constant_operand(lat, bound, weight, value):
    return TruncatedExpansion(lat, weight, bound, dict.fromkeys(lat.indices(bound), value))


def small_products(lat, top):
    """Products of a few terms, of a zero operand or at trace bound 0, by case."""
    table, first = lat.indices(top), lat.indices(1)[1]  # first: an index of trace 1
    last = table[-1]  # an index of trace top
    return {
        "zero-operand": (zero_expansion(lat, 4, top), constant_operand(lat, top, 6, 3)),
        "one-term-operands": (TruncatedExpansion(lat, 4, top, {first: -5}),
                              TruncatedExpansion(lat, 6, top, {first: 7})),
        "both-at-bound-0": (constant_operand(lat, 0, 4, 2), constant_operand(lat, 0, 6, -3)),
        "bounds-0-and-top": (constant_operand(lat, 0, 4, 2), constant_operand(lat, top, 6, -3)),
        "lowest-term-past-the-bound": (TruncatedExpansion(lat, 4, top, {last: 2}),
                                       TruncatedExpansion(lat, 6, top, {first: -3, last: 5})),
    }


class TestProductKernel:
    @pytest.mark.parametrize("case", list(small_products(ELLIPTIC, 40)))
    @pytest.mark.parametrize("lat", list(PRODUCT_LATTICES), ids=repr)
    def test_small_products(self, lat, case):
        f, g = small_products(lat, PRODUCT_LATTICES[lat])[case]
        for a, b in ((f, g), (g, f)):
            ab = exp_multiply(a, b)
            assert ab == reference_product(a, b)
            assert_well_formed(ab)

    @settings(max_examples=100, deadline=None)
    @given(wide_factor_pairs())
    def test_product_matches_reference(self, pair):
        f, g = pair
        fg = exp_multiply(f, g)
        assert fg == reference_product(f, g)
        assert fg == exp_multiply(g, f)
        assert_well_formed(fg)

    @settings(max_examples=40, deadline=None)
    @given(wide_factor_pairs())
    def test_cancelling_terms_are_dropped(self, pair):
        f, _ = pair
        g = parity_twist(f)
        fg = exp_multiply(f, g)
        assert fg == reference_product(f, g)
        assert all(f.lattice.trace(t) % 2 == 0 for t in fg.nums)

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
    def test_slots_at_their_width(self, signs):
        """32 terms of 2^254 - 1 a side: the slot width is 254 + 254 +
        bits(32 * 32) + 1 = 520 bits, a whole number of bytes with no
        slack, and the slot at q^31 sums 32 products, just under 2^513 in
        size, more than a slot one byte narrower holds."""
        f, g = (constant_operand(ELLIPTIC, 31, 4, sign * (2**254 - 1)) for sign in signs)
        fg = exp_multiply(f, g)
        assert fg.nums[31] == signs[0] * signs[1] * 32 * (2**254 - 1) ** 2
        assert fg == reference_product(f, g)

    @pytest.mark.parametrize("lat", list(PRODUCT_LATTICES), ids=repr)
    def test_extreme_dense_products(self, lat):
        top = PRODUCT_LATTICES[lat]
        f = constant_operand(lat, top, 4, 2**256 - 1)
        g = constant_operand(lat, top, 6, -(2**256 - 1))
        assert exp_multiply(f, g) == reference_product(f, g)
        assert exp_multiply(f, f) == reference_product(f, f)

    def test_sparse_products_build_no_index_table(self):
        before = SIEGEL.indices.cache_info()
        f = TruncatedExpansion(SIEGEL, 4, 400, {(100, 3, 100): 5})
        g = TruncatedExpansion(SIEGEL, 6, 400, {(199, -1, 1): -7})
        assert exp_multiply(f, g).nums == {(299, 2, 101): -35}
        # and one row of 40 terms by 40 rows of one
        f = TruncatedExpansion(SIEGEL, 4, 400, {(100, b, 100): b + 21 for b in range(-20, 20)})
        g = TruncatedExpansion(SIEGEL, 6, 400, {(1, 0, c): -c for c in range(1, 41)})
        assert exp_multiply(f, g).nums == {
            (101, b, 100 + c): -(b + 21) * c for b in range(-20, 20) for c in range(1, 41)}
        assert SIEGEL.indices.cache_info() == before

    # Degree-1 products pack the operand of larger stride m as one row, the other one class
    # mod m at a time, each class read up to the bound.  The cases below kill these mutants
    # of the kernel: the class offset r or r' dropped from a class's first exponent, and a
    # class unpacked one slot long or one slot short.

    @pytest.mark.parametrize("lo", [1, 2, 7])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_strided_times_full(self, m, lo):
        """q^lo sum c_i q^(m i) times a full series: an unpack one slot short misses
        q^bound, one slot long writes past it."""
        check_both_orders(series(4, 30, range(lo, 31, m)), series(6, 30, range(31)))

    def test_q4_series_times_the_two_alpha_classes(self):
        """E_j(q^4) alpha, the shape of a Siegel Jacobi level: alpha lives on N = 0, 3
        mod 4, so a dropped class offset puts the 3 mod 4 class on 0 mod 4."""
        check_both_orders(series(4, 48, range(0, 49, 4)),
                          series(6, 48, (N for N in range(49) if N % 4 in (0, 3))))

    @pytest.mark.parametrize("other", [[9], range(21), range(3, 21, 6)], ids=["one", "full", "strided"])
    def test_one_term_operands(self, other):
        """A one-term operand has stride 0: the other one sets m, or m = 1 for two one-term
        operands."""
        check_both_orders(series(4, 20, [5]), series(6, 20, other))
        f, g = series(4, 20, [11]), series(6, 20, [9])
        assert exp_multiply(f, g).nums == {20: f.nums[11] * g.nums[9]}
        assert exp_multiply(f, series(6, 20, [10])).nums == {}
        f, g = series(4, 10**6, [400000]), series(6, 10**6, [400001])  # read from q^800001, not q^0
        assert exp_multiply(f, g).nums == {800001: f.nums[400000] * g.nums[400001]}

    def test_class_first_slot_at_and_past_the_bound(self):
        """f on 2 mod 4; g with a class 2 mod 4 from q^18 and a class 3 mod 4 from q^19.
        Their products start at q^20, the bound, where one slot is kept and none if the
        unpack is one short, and at q^21, which is skipped; g's q^1 class fills 3 mod 4."""
        f = series(4, 20, [2, 6, 10])
        check_both_orders(f, series(6, 20, [1, 5, 18, 19]))
        g = series(6, 20, [18, 19])
        assert exp_multiply(f, g).nums == exp_multiply(g, f).nums == {20: f.nums[2] * g.nums[18]}

    def test_larger_stride_packs_either_side(self):
        check_both_orders(series(4, 40, range(3, 41, 6)), series(6, 40, range(1, 41, 2)))


def series(weight, bound, exponents):
    """A degree-1 operand on the given exponents up to the bound, with numerators of
    both signs and of up to 90 bits."""
    return TruncatedExpansion(ELLIPTIC, weight, bound, {
        e: (-1) ** e * (3 * e + 1) * 2 ** (e * 7 % 90) for e in exponents if e <= bound})


def check_both_orders(f, g):
    """f g and g f equal ``reference_product``, well formed, with ascending exponents."""
    for a, b in ((f, g), (g, f)):
        ab = exp_multiply(a, b)
        assert ab == reference_product(a, b)
        assert list(ab.nums) == sorted(ab.nums)
        assert_well_formed(ab)


def assert_well_formed(f):
    """What every expansion stores: one positive denominator and nonzero
    integer numerators at psd indices within the bound, with no factor
    common to all of them; its ``coeffs`` view reads the same values as
    Fractions."""
    lat = f.lattice
    assert type(f.den) is int and f.den > 0, f.den
    assert math.gcd(f.den, *f.nums.values()) == 1
    for t, n in f.nums.items():
        assert type(n) is int and n != 0, (t, n)
        assert lat.is_psd(t) and lat.trace(t) <= f.trace_bound, t
    assert f.coeffs == {t: Fraction(n, f.den) for t, n in f.nums.items()}
    assert all(type(v) is Fraction for v in f.coeffs.values())


class TestTrustedRingResults:
    """Ring results skip the constructor's checks; they must hold anyway."""

    @given(factor_pairs(), sparse_value)
    def test_sums_scalings_products_and_restrictions(self, pair, c):
        f, g = pair
        g = TruncatedExpansion(f.lattice, f.weight, g.trace_bound, g.coeffs)
        for r in (exp_add(f, g), exp_add(f, exp_scale(-1, f)), exp_scale(c, f),
                  exp_scale(0, f), f - g, exp_multiply(f, parity_twist(f)),
                  exp_multiply(f, g), f.restrict(f.trace_bound // 2)):
            assert_well_formed(r)
        assert exp_scale(0, f).coeffs == {} == exp_add(f, exp_scale(-1, f)).coeffs

    @given(factor_pairs())
    def test_partial_cancellation(self, pair):
        f, _ = pair
        half = {t: v for i, (t, v) in enumerate(sorted(f.coeffs.items())) if i % 2}
        h = TruncatedExpansion(f.lattice, f.weight, f.trace_bound, half)
        r = exp_add(f, exp_scale(-1, h))
        assert_well_formed(r)
        assert set(r.coeffs) == set(f.coeffs) - set(half)

    def test_builders(self):
        forms = [
            siegel_expansion("G", 10, 3), siegel_expansion("E", 4, 3), igusa_x10(3), igusa_x12(3),
            hermitian_expansion("G", -3, 12, 2), hermitian_expansion("E", -4, 8, 2),
            hermitian_cusp_form("F10", -4, 2), hermitian_cusp_form("CHI8", -4, 2),
            elliptic_eisenstein(12, 6), delta_expansion(6), zero_expansion(SIEGEL, 4, 2),
            constant_one(hermitian_lattice(-7), 2), phi_operator(igusa_x10(3)),
            cusp_correction(siegel_expansion("G", 10, 2)),
        ]
        for f in forms:
            assert_well_formed(f)
        assert igusa_x10(3).coeffs and not phi_operator(igusa_x10(3)).coeffs

    def test_negative_bound_is_rejected_everywhere(self):
        with pytest.raises(ValueError):
            zero_expansion(SIEGEL, 4, -1)
        with pytest.raises(ValueError):
            siegel_expansion("E", 4, 2).restrict(-1)
        with pytest.raises(ValueError):
            TruncatedExpansion(ELLIPTIC, 4, -1, {-1: 1})


# values past the int <-> str digit limit, whole and over a denominator
huge_value = st.sampled_from([7**20000, Fraction(-(7**20000), 5), Fraction(3, 10**4400)])


@st.composite
def spelled(draw, n):
    """A spelling of the integer n that int() reads: an optional sign and
    leading zeros."""
    sign = "-" if n < 0 else draw(st.sampled_from(["", "", "+"] + ["-"] * (n == 0)))
    return sign + "0" * draw(st.sampled_from([0, 0, 1, 2])) + str(abs(n))


@st.composite
def lattice_and_bound(draw):
    lat = draw(st.sampled_from(list(KERNEL_LATTICES)))
    return lat, draw(st.integers(0, KERNEL_LATTICES[lat]))


class TestIndexTable:
    """The index table read by lift, exp_serialize and exp_parse, each
    against the per-index route it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(lattice_and_bound())
    def test_table_matches_the_per_index_methods(self, case):
        lat, bound = case
        tab = lat.indices(bound)
        assert lat.indices(bound) is tab
        assert tab.keys == tuple(lat.key_string(t) for t in tab)
        assert [lat.parse_key(key) for key in tab.keys] == list(tab)
        assert tab.lookup == {lat.key_string(t): t for t in tab}
        assert all(t is u for t, u in zip(tab.lookup.values(), tab))  # no copies
        assert copy.deepcopy(tab) == pickle.loads(pickle.dumps(tab)) == tuple(tab)
        if lat is not ELLIPTIC:
            assert tab.dets == tuple(lat.det(t) for t in tab)
            assert tab.contents == tuple(0 if t == lat.zero else lat.content(t) for t in tab)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_lift_matches_lift_coefficient_at_each_index(self, data):
        lat, bound = data.draw(lattice_and_bound().filter(lambda case: case[0] is not ELLIPTIC))
        k = data.draw(st.sampled_from([4, 6, 10, 12]))
        size = lat.fj_stride * bound**2 // 4 + 1
        table = data.draw(st.lists(sparse_value, min_size=size, max_size=size))
        constant = data.draw(sparse_value)
        f = lift(lat, k, bound, small_elliptic(k, size - 1, table), constant)
        assert f == lift_by_index(lat, k, bound, table, constant)
        assert_well_formed(f)

    @pytest.mark.parametrize("lat", [SIEGEL, hermitian_lattice(-3), hermitian_lattice(-163)], ids=repr)
    def test_lift_refuses_an_alpha_short_of_the_largest_det(self, lat):
        # trace bound 4 reads alpha to q^(4 m) at diag(2, 2), m the stride: a longer alpha
        # lifts the same, and one a term short is refused rather than read as a zero there
        n = lat.fj_stride * 4
        assert lat.det((2, *lat.zero[1:-1], 2)) == n
        alpha = lat.g_alpha_table(10, n)
        assert lift(lat, 10, 4, alpha, 1) == lift(lat, 10, 4, lat.g_alpha_table(10, n + 5), 1)
        with pytest.raises(InsufficientTruncation, match=rf"reads alpha to q\^{n}, not q\^{n - 1}"):
            lift(lat, 10, 4, alpha.restrict(n - 1), 1)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_serialize_matches_the_sorted_support(self, data):
        lat, bound = data.draw(lattice_and_bound())
        f = data.draw(sparse_expansion(lat, bound, 6))
        if data.draw(st.booleans()):
            chosen = data.draw(st.lists(st.sampled_from(lat.enumerate_all(bound)),
                                        unique=True, min_size=1, max_size=3))
            f = exp_add(f, TruncatedExpansion(lat, 6, bound, {t: data.draw(huge_value)
                                                              for t in chosen}))
        assert exp_serialize(f) == serialize_by_sorting(f)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_parse_of_other_spellings_and_invalid_indices_reads_parse_key(self, data):
        # keys in any spelling int() reads, at indices within the bound,
        # beyond it or not psd, with zero or nonzero values: the result, or
        # the line of the first fault, follows from parse_key, is_psd and
        # trace line by line, the route every key took before the table
        lat, bound = data.draw(lattice_and_bound())
        disc = "" if lat.disc is None else f"disc {lat.disc}\n"
        header = f"space {lat.space}\n{disc}weight 6\ntrace_bound {bound}\ncoefficients\n"
        entry = st.integers(-2, bound + 2)
        index = st.one_of(st.sampled_from(lat.enumerate_all(bound)),
                          entry if lat is ELLIPTIC else st.tuples(*[entry] * len(lat.zero)))
        lines, values, fault, seen = [], {}, None, set()
        first = header.count("\n") + 1
        for lineno, t in enumerate(data.draw(st.lists(index, max_size=10)), first):
            key = (data.draw(spelled(t)) if lat is ELLIPTIC
                   else ",".join(data.draw(spelled(x)) for x in t))
            token, value = data.draw(st.one_of(st.sampled_from([("0", 0), ("0/7", 0)]),
                                               other_token))
            lines.append(f"{key} {token}\n")
            assert lat.parse_key(key) == t
            if fault is None:
                if t in seen:
                    fault = lineno, "duplicate key"
                elif value and not lat.is_psd(t):
                    fault = lineno, "not psd"
                elif value and lat.trace(t) > bound:
                    fault = lineno, "exceeds trace bound"
            seen.add(t)
            if value:
                values[t] = value
        text = header + "".join(lines)
        if fault is not None:
            with pytest.raises(ParseError, match=fault[1]) as exc:
                exp_parse(text)
            assert exc.value.line == fault[0]
            return
        parsed = exp_parse(text)
        assert parsed == TruncatedExpansion(lat, 6, bound, values)
        assert_well_formed(parsed)


P_2200, Q_2200 = 10**2200 + 1, 10**2200 + 3  # coprime, with an lcm past 10**4300
MUTATIONS = ["duplicate", "delete", "swap", "blank", "double-space", "respell", "scale",
             "zero", "refused", "zero-denominator", "past-the-bound"]


@st.composite
def mutated_text(draw):
    """A serialized expansion with one to four of MUTATIONS made to its body
    lines, then maybe CRLF endings and a truncation."""
    lat, bound = draw(lattice_and_bound())
    f = draw(sparse_expansion(lat, bound, 6))
    keys = lat.indices(bound).keys
    if draw(st.integers(0, 7)) == 0:  # a value past the int <-> str digit limit
        f = exp_add(f, TruncatedExpansion(lat, 6, bound, {draw(st.sampled_from(lat.indices(bound))):
                                                          draw(huge_value)}))
    lines = exp_serialize(f).splitlines()
    head = lines.index("coefficients") + 1
    if head == len(lines):
        lines.append(f"{draw(st.sampled_from(keys))} 1")
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=4)):
        body = st.integers(head, len(lines) - 1)
        i, j = draw(body), draw(body)
        key, _, token = lines[i].strip().partition(" ")
        if kind == "duplicate":
            lines.insert(j, lines[i])
        elif kind == "delete" and len(lines) > head + 1:
            del lines[i]
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "blank":
            k = draw(st.integers(0, len(lines)))
            lines.insert(k, draw(st.sampled_from(["", " ", "\t"])))
            head += k < head
        elif kind == "double-space":
            lines[i] = lines[i].replace(" ", "  ", 1)
        elif kind == "respell" and key:
            t = lat.parse_key(key)
            lines[i] = (draw(spelled(t)) if lat is ELLIPTIC
                        else ",".join(draw(spelled(x)) for x in t)) + " " + token
        elif kind == "scale" and token:
            try:
                v, m = parse_rational(token), draw(st.integers(2, 50))
            except (ValueError, ZeroDivisionError):  # a token already mutated
                continue
            lines[i] = (f"{key} {format_rational(Fraction(v.numerator * m))}/"
                        f"{format_rational(Fraction(v.denominator * m))}")
        elif kind in ("zero", "refused", "zero-denominator"):
            lines[i] = key + " " + draw(st.sampled_from(["0", "0/5", "-0", "00"]) if kind == "zero"
                                        else refused_token.map(lambda r: r[0]) if kind == "refused"
                                        else st.sampled_from(["1/0", "0/0", "-3/00"]))
        elif kind == "past-the-bound":
            lines[i] = f"{key} 1/{P_2200}"
            lines.insert(j, f"{draw(st.sampled_from(keys))} -2/{Q_2200}")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + end
    return text[:draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


class TestBulkParse:
    """exp_parse reads a canonical body in bulk; the line loop reads any other
    body, and is the reference: both give the same expansion or the same error."""

    ONE_FAULT = "space elliptic\nweight 6\ntrace_bound 2\ncoefficients\n0 1\n{}\n"

    @settings(max_examples=60, deadline=None)
    @given(mutated_text())
    @example(ONE_FAULT.format("1 +3"))
    @example(ONE_FAULT.format("0 1"))
    @example(ONE_FAULT.format(f"1 1/{P_2200}\n2 -2/{Q_2200}"))
    def test_bulk_route_matches_the_line_loop(self, text):
        parsed = parse_outcome(exp_parse, text)
        assert parsed == parse_outcome(parse_by_loop, text)
        if isinstance(parsed, TruncatedExpansion):
            assert_well_formed(parsed)

    def test_serialized_files_take_the_bulk_route(self):
        # a CRLF ending or a blank line in the body does not change the route
        forms = pipeline_forms() + [
            TruncatedExpansion(lat, 6, bound, {t: Fraction(i % 7 - 3, i % 4 + 1)
                                               for i, t in enumerate(lat.indices(bound))})
            for lat in KERNEL_LATTICES for bound in range(4)]
        for f in forms:
            text = exp_serialize(f)
            head, _, body = text.partition("coefficients\n")
            for variant in (text, text.replace("\n", "\r\n"),
                            f"{head}coefficients\n\n{body}\n  \n"):
                assert parse_in_bulk(variant) == f == parse_by_loop(variant)
