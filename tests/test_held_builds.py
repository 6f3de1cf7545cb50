"""The one cache policy of the degree-1 builds (``expansion._held``): each key
holds its largest build, a smaller bound is served cut from it, and a larger
one rebuilds at twice the held bound or more.  Every result equals a fresh
build at its bound, and no degree-2 form is cached."""

import tracemalloc
from math import ceil, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eiscong import elliptic, expansion, siegel
from eiscong.elliptic import delta_expansion, elliptic_eisenstein
from eiscong.expansion import (
    ELLIPTIC, TruncatedExpansion, _bound, exp_serialize,
)
from eiscong.hermitian import HermitianLattice, hermitian_lattice
from eiscong.siegel import SIEGEL, SiegelLattice

# builder -> (its keys, the largest bound drawn); Jacobi levels are drawn at n >= k
CASES = {
    "elliptic_eisenstein": (elliptic_eisenstein, [(k,) for k in range(4, 17, 2)], 300),
    "delta_expansion": (delta_expansion, [()], 300),
    "siegel_g_alpha_table": (
        SiegelLattice.g_alpha_table, [(SIEGEL, k) for k in range(4, 13, 2)], 200),
    "hermitian_g_alpha_table": (HermitianLattice.g_alpha_table, [
        (hermitian_lattice(d), k) for d in (-3, -4, -7, -163) for k in range(4, 13, 2)], 200),
    "jacobi_levels": (siegel.jacobi_levels, [(k,) for k in range(6, 17, 2)], 160),
}


def _texts(v):
    """The text of every expansion in a build: an expansion, or tuples of them and pivots."""
    if isinstance(v, TruncatedExpansion):
        return [exp_serialize(v)]
    return [text for w in v if not isinstance(w, int) for text in _texts(w)]


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_held_builds_equal_fresh_builds(name, data):
    cached, keys, top = CASES[name]
    calls = data.draw(st.lists(st.tuples(st.sampled_from(keys), st.integers(1, top)),
                               min_size=1, max_size=8))
    if cached is siegel.jacobi_levels:
        calls = [(key, max(n, key[0])) for key, n in calls]
    # held levels and weight-4 and -6 tables past every bound a build reaches, twice the largest
    # drawn: then no build asks the cache under test for a key of its own
    for k in range(6, 13, 2):
        siegel._held_levels(k, 2 * top)
    for k in (4, 6):
        SIEGEL.g_alpha_table(k, 2 * top)
    cached.cache_clear()
    for key, n in calls:
        got, fresh = cached(*key, n), cached.__wrapped__(*key, n)
        assert got == fresh and _texts(got) == _texts(fresh)
        held = cached.largest(*key, n)
        assert _bound(held) >= n and cached(*key, _bound(held)) is held
    builds = cached.cache_info().builds
    assert cached.cache_info().misses == sum(builds.values())
    for key in builds:
        ns = [n for k, n in calls if k == key]
        assert builds[key] <= 1 + ceil(log2(max(ns) / ns[0]))


@pytest.mark.parametrize("name", CASES)
def test_a_negative_bound_is_refused_before_the_cache(name):
    cached, keys, _ = CASES[name]
    cached(*keys[0], 8)
    with pytest.raises(ValueError, match=f"{cached.__name__} expects n >= 0, got -1"):
        cached(*keys[0], -1)


def test_one_term_series_to_q_to_the_million_hold_only_their_vectors():
    # degree-1 indices are range(n + 1), the position the exponent: two one-term series
    # to q^1000000 and their product hold three vectors of 8 MB, and no index table of
    # 10^6 + 1 ints or position dict
    tracemalloc.start()
    try:
        f = TruncatedExpansion(ELLIPTIC, 0, 10**6, {400000: 3})
        g = TruncatedExpansion(ELLIPTIC, 0, 10**6, {400001: 5})
        h = f * g
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert [f.coefficient(n) for n in (0, 400000, 10**6)] == [0, 3, 0]
    assert (h.coefficient(800001), h.support()) == (15, [800001])


def test_degree_2_forms_are_built_on_every_call():
    # G_k and the cusp forms are lifts of held alpha series, rebuilt on each call
    for build in (lambda: expansion.eisenstein(SIEGEL, "G", 10, 3),
                  lambda: elliptic.cusp_form(("hermitian", -3, "F10"), 3)):
        f, g = build(), build()
        assert f == g and f is not g
    assert not hasattr(expansion.eisenstein, "cache_info")
    assert not hasattr(elliptic.cusp_form, "cache_info")
