"""Expansions stored as vectors aligned with their index tables, held to the
index-by-index oracles: products, the text form, lifts, reduction,
verification and solving give the same results and raise the same errors."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from eiscong.congruence import reduce_mod_p, solve_lambda, verify_congruence
from eiscong.errors import AllZeroRhs, NonIntegralCoefficient, NonInvertibleReference
from eiscong.expansion import (
    ELLIPTIC, TruncatedExpansion, constant_one, exp_multiply, exp_parse, exp_scale, exp_serialize,
    lift, zero_expansion,
)
from eiscong.hermitian import hermitian_lattice
from eiscong.siegel import SIEGEL

from .oracles import (
    lift_by_index, reduce_mod_p_by_index, reference_product, serialize_by_sorting,
    solve_lambda_by_index, verify_congruence_by_index,
)

# each lattice with the largest trace bound the quadratic product oracle handles quickly
BOUNDS = {ELLIPTIC: 8, SIEGEL: 3, hermitian_lattice(-3): 3, hermitian_lattice(-163): 2}
MODULI = (2, 3, 5, 7, 691)

# numerators and denominators that meet the moduli, zeros included
value = st.one_of(st.integers(-40, 40), st.builds(
    Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 5, 7, 12, 691])))

KINDS = ("dense", "sparse", "parsed", "restricted", "zero", "one", "lift")


@st.composite
def expansions(draw, lat, bound, weight, kinds=KINDS):
    """One expansion on the lattice: a dense or a sparse one from the public
    constructor, its parsed text, a restriction from bound + 1, zero, a
    multiple of the constant one (weight 0 only) or a lift (degree 2, weight > 0)."""
    kind = draw(st.sampled_from([k for k in kinds if not (
        k == "one" and weight or k == "lift" and (lat is ELLIPTIC or not weight))]))
    indices = lat.indices(bound)
    if kind == "zero":
        return zero_expansion(lat, weight, bound)
    if kind == "one":
        one = constant_one(lat, bound)
        return one if draw(st.booleans()) else exp_scale(draw(value), one)
    if kind == "lift":
        n = lat.alpha_length(bound)
        alpha = dict(enumerate(draw(st.lists(value, min_size=n + 1, max_size=n + 1))))
        return lift(lat, weight, bound, TruncatedExpansion(ELLIPTIC, weight, n, alpha), draw(value))
    if kind == "restricted":
        wider = draw(expansions(lat, bound + 1, weight, ("dense", "sparse", "lift", "one")))
        return wider.restrict(bound)
    if kind == "dense":
        coeffs = dict(zip(indices, draw(st.lists(value, min_size=len(indices),
                                                  max_size=len(indices)))))
    else:
        chosen = draw(st.lists(st.sampled_from(indices), unique=True, max_size=4))
        coeffs = {t: draw(value) for t in chosen}
    f = TruncatedExpansion(lat, weight, bound, coeffs)
    return exp_parse(exp_serialize(f)) if kind == "parsed" else f


@st.composite
def lattice_and_bound(draw):
    lat = draw(st.sampled_from(list(BOUNDS)))
    return lat, draw(st.integers(0, BOUNDS[lat]))


@st.composite
def pairs(draw, same_weight=True):
    """Two expansions on one lattice, of one weight or of two, often at one
    trace bound: each ring result and walk reads both to the lesser."""
    lat, bound = draw(lattice_and_bound())
    other = draw(st.integers(0, BOUNDS[lat])) if draw(st.booleans()) else bound
    weights = st.sampled_from([0, 4, 10])
    k = draw(weights)
    return (draw(expansions(lat, bound, k)),
            draw(expansions(lat, other, k if same_weight else draw(weights))))


def outcome(fn, *args):
    """A result, or the exception's type with its key or message."""
    try:
        return fn(*args)
    except NonIntegralCoefficient as exc:
        return NonIntegralCoefficient, exc.key, exc.modulus
    except (AllZeroRhs, NonInvertibleReference) as exc:
        return type(exc), str(exc)


def assert_aligned(f):
    """The stored form: integers aligned with the table over one denominator
    prime to them, read the same through every view."""
    tab = f.lattice.indices(f.trace_bound)
    assert type(f.vec) is list and len(f.vec) == len(tab)
    assert all(type(n) is int for n in f.vec) and type(f.den) is int and f.den > 0
    assert math.gcd(f.den, *f.vec) == 1
    assert f.nums == {t: n for t, n in zip(tab, f.vec) if n}
    assert f.support() == list(f.nums) == list(f.coeffs)
    assert [f.coefficient(t) for t in tab] == [Fraction(n, f.den) for n in f.vec]


class TestVectorsAgainstOracles:
    @settings(max_examples=80, deadline=None)
    @given(pairs(same_weight=False))
    def test_products(self, pair):
        f, g = pair
        fg = exp_multiply(f, g)
        assert fg == reference_product(f, g)
        assert_aligned(fg)

    @settings(max_examples=80, deadline=None)
    @given(pairs())
    def test_text_form(self, pair):
        for f in pair:
            assert_aligned(f)
            text = exp_serialize(f)
            assert text == serialize_by_sorting(f)
            assert exp_parse(text) == f

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_lifts_of_every_kind_of_alpha(self, data):
        lat, bound = data.draw(lattice_and_bound().filter(lambda case: case[0] is not ELLIPTIC))
        k = data.draw(st.sampled_from([4, 10]))
        n = lat.alpha_length(bound)
        alpha = data.draw(expansions(ELLIPTIC, n, k, ("dense", "sparse", "parsed", "restricted")))
        constant = data.draw(value)
        f = lift(lat, k, bound, alpha, constant)
        assert f == lift_by_index(lat, k, bound, [alpha.coefficient(N) for N in range(n + 1)],
                                  constant)
        assert f.lifted_from == (alpha, constant)
        assert_aligned(f)

    @settings(max_examples=150, deadline=None)
    @given(pairs(), st.sampled_from(MODULI), st.integers(0, 700))
    def test_reduction_verification_and_solving(self, pair, modulus, multiplier):
        f, g = pair
        for h in pair:
            assert outcome(reduce_mod_p, h, modulus) == outcome(reduce_mod_p_by_index, h, modulus)
        assert (outcome(verify_congruence, f, g, modulus, multiplier)
                == outcome(verify_congruence_by_index, f, g, modulus, multiplier))
        assert outcome(solve_lambda, f, g, modulus) == outcome(solve_lambda_by_index, f, g, modulus)

    def test_a_denominator_meeting_the_modulus_is_refused_at_its_first_index(self):
        # f is 3-integral up to (1, 0, 0, 1), g from (0, 0, 0, 1) on: the walk names g's index
        lat = hermitian_lattice(-3)
        f = TruncatedExpansion(lat, 4, 2, {(0, 0, 0, 0): 1, (1, 0, 0, 1): Fraction(1, 3)})
        g = TruncatedExpansion(lat, 4, 2, {(0, 0, 0, 0): 2, (0, 0, 0, 1): Fraction(2, 3)})
        for fn, args in ((verify_congruence, (f, g, 3, 1)), (solve_lambda, (f, g, 3)),
                         (reduce_mod_p, (g, 3))):
            assert outcome(fn, *args) == (NonIntegralCoefficient, "0,0,0,1", 3)
        assert outcome(verify_congruence, f, g, 3, 1) == outcome(
            verify_congruence_by_index, f, g, 3, 1)
        assert outcome(reduce_mod_p, f, 3) == (NonIntegralCoefficient, "1,0,0,1", 3)
        # solve refuses f at the index it reads lambda from, not at an earlier one
        f = TruncatedExpansion(ELLIPTIC, 4, 2, {0: Fraction(1, 3), 1: Fraction(1, 3)})
        g = TruncatedExpansion(ELLIPTIC, 4, 2, {1: 1})
        assert outcome(solve_lambda, f, g, 3) == (NonIntegralCoefficient, "1", 3) == outcome(
            solve_lambda_by_index, f, g, 3)
