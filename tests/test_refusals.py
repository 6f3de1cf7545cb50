"""Public refusals, each pinned to its exception and message."""

import pytest

from eiscong.arith import bernoulli, divisor_power_sum, factorize, mobius
from eiscong.congruence import bruinier_search, irregular_pairs, nontriviality_witness
from eiscong.elliptic import decompose_into_e4_e6, elliptic_eisenstein
from eiscong.reference_values import table_value
from eiscong.siegel import SIEGEL, siegel_expansion

REFUSALS = {
    "irregular-pairs-below-3": (lambda: irregular_pairs(2), ValueError, "p_max must be >= 3"),
    "witness-p-dividing-the-disc": (lambda: nontriviality_witness(-15, 4, 5), ValueError,
                                    "p not dividing the discriminant"),
    "decompose-a-siegel-form": (lambda: decompose_into_e4_e6(siegel_expansion("G", 4, 2), 4),
                                ValueError, "expects a degree-1 expansion"),
    "content-of-zero": (lambda: SIEGEL.content((0, 0, 0)), ValueError,
                        "content of the zero index is undefined"),
    "bernoulli-negative": (lambda: bernoulli(-1), ValueError, "bernoulli expects m >= 0"),
    "mobius-zero": (lambda: mobius(0), ValueError, "mobius expects n >= 1"),
    "factorize-zero": (lambda: factorize(0), ValueError, "factorize expects n >= 1"),
    "divisor-power-sum-zero": (lambda: divisor_power_sum(3, 0), ValueError,
                               "divisor_power_sum expects N >= 1"),
    "table-value-unlisted": (lambda: table_value(-3, 2), KeyError, r"\(-3, 2\)"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=message):
        call()


def test_bruinier_search_walks_past_every_discriminant_to_none():
    # B_5 of chi_D0 is divisible by 5 for every fundamental D0 < 0 down to -60, so the
    # search skips -5, -6, ..., which are not fundamental, and finds none
    assert bruinier_search(6, 5, 60) is None


def test_an_expansion_never_equals_a_number():
    # __eq__ returns NotImplemented for a non-expansion, and Python falls back to identity
    f = elliptic_eisenstein(4, 3)
    assert f.__eq__(0) is NotImplemented
    assert (f == 0) is False and (f != 0) is True
