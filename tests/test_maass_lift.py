"""Every degree-2 form as a Maass lift, held against the routes it replaced:
the per-index closed forms of G_k and the cusp forms built with full
degree-2 products (``tests/oracles.py``)."""

import sys
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd

import pytest

from eiscong import arith, elliptic, expansion, siegel
from eiscong.congruence import cusp_correction
from eiscong.elliptic import CUSP_FORMS, chain_rule_alpha
from eiscong.errors import InvalidWeight
from eiscong.expansion import (
    TruncatedExpansion, exp_add, exp_multiply, exp_parse, exp_scale, exp_serialize, lift,
    phi_operator,
)
from eiscong.hermitian import (
    CLASS_NUMBER_ONE_DISCRIMINANTS,
    HermitianLattice,
    hermitian_cusp_form,
    hermitian_expansion,
    hermitian_g_coefficient,
    hermitian_lattice,
    imag_quad_field,
)
from eiscong.reference_values import HERMITIAN_EXAMPLES
from eiscong.siegel import (
    SIEGEL,
    SiegelLattice,
    igusa_x10,
    igusa_x12,
    siegel_expansion,
    siegel_g_coefficient,
)

from .oracles import (
    CUSP_FORM_FRONTS,
    closed_form_expansion,
    cusp_form_by_products,
    hermitian_g_closed_form,
    hermitian_g_constant,
    siegel_alpha_table_by_walk,
    siegel_g_closed_form,
    siegel_g_constant,
)
from .test_expansion import assert_well_formed, small_elliptic

WEIGHTS = range(4, 13, 2)


@lru_cache(maxsize=None)
def oracle_g(disc, k, bound):
    """G_k by its closed form index by index; disc None is Siegel."""
    if disc is None:
        return closed_form_expansion(SIEGEL, k, bound, lambda t: siegel_g_closed_form(k, t))
    field = imag_quad_field(disc)
    return closed_form_expansion(hermitian_lattice(disc), k, bound,
                                 lambda h: hermitian_g_closed_form(field, k, h))


def oracle_cusp_form(key, bound):
    _, disc, _ = key

    def eis(k):
        g = oracle_g(disc, k, bound)
        return exp_scale(1 / g.coefficient(g.lattice.zero), g)

    return cusp_form_by_products(key, eis)


@pytest.mark.parametrize("k", WEIGHTS)
def test_siegel_g_is_the_closed_form(k):
    assert siegel_expansion("G", k, 12) == oracle_g(None, k, 12)
    for t in SIEGEL.enumerate_all(5):
        assert siegel_g_coefficient(k, t) == siegel_g_closed_form(k, t)


@pytest.mark.parametrize("disc", CLASS_NUMBER_ONE_DISCRIMINANTS)
def test_hermitian_g_is_the_closed_form(disc):
    field = imag_quad_field(disc)
    for k in WEIGHTS:
        assert hermitian_expansion("G", disc, k, 5) == oracle_g(disc, k, 5)
        for h in hermitian_lattice(disc).enumerate_all(2):
            assert hermitian_g_coefficient(field, k, h) == hermitian_g_closed_form(field, k, h)


@pytest.mark.parametrize("lat", [SIEGEL] + [hermitian_lattice(d) for d in CLASS_NUMBER_ONE_DISCRIMINANTS],
                         ids=repr)
def test_g_constant_is_the_closed_form(lat):
    # -B_k / (2k) alpha(0), derived on Degree2Lattice, against each space's closed form
    for k in range(4, 41, 2):
        want = siegel_g_constant(k) if lat.disc is None else hermitian_g_constant(lat.disc, k)
        assert lat.g_constant(k) == want


@pytest.mark.parametrize("lat", [SIEGEL, hermitian_lattice(-3), hermitian_lattice(-163)], ids=repr)
def test_coefficient_reads_g_constant_at_the_zero_index_only(lat, monkeypatch):
    # G_k's constant term is read at the zero index and nowhere else
    class Unread(Exception):
        pass

    def unread(k):
        raise Unread(k)

    k = 12
    if lat.disc is None:
        constant, closed_form = siegel_g_constant(k), partial(siegel_g_closed_form, k)
    else:
        constant = hermitian_g_constant(lat.disc, k)
        closed_form = partial(hermitian_g_closed_form, imag_quad_field(lat.disc), k)
    monkeypatch.setattr(lat, "g_constant", unread)
    for t in lat.enumerate_all(3)[1:]:
        assert lat.coefficient(k, t) == closed_form(t)
    with pytest.raises(Unread):
        lat.coefficient(k, lat.zero)
    monkeypatch.undo()
    assert lat.coefficient(k, lat.zero) == constant


def test_cusp_forms_have_the_weights_of_the_published_fronts():
    assert CUSP_FORMS == {key: k for key, (k, _) in CUSP_FORM_FRONTS.items()}


@pytest.mark.parametrize("key", CUSP_FORMS, ids=lambda key: f"{key[0]}{key[1] or ''}/{key[2]}")
def test_cusp_forms_at_small_bounds_are_the_product_built_forms(key):
    # below trace bound 2 every coefficient is 0, yet the scale is still found
    for bound in range(4):
        assert elliptic.cusp_form(key, bound) == oracle_cusp_form(key, bound)


@pytest.mark.parametrize("build, key", [
    (igusa_x10, ("siegel", None, "X10")),
    (igusa_x12, ("siegel", None, "X12")),
])
def test_igusa_forms_are_the_product_built_forms(build, key):
    assert build(12) == oracle_cusp_form(key, 12)


@pytest.mark.parametrize("bound", [*range(13), 16])
def test_siegel_cusp_forms_from_the_levels_are_the_chain_rule_forms(monkeypatch, bound):
    # X10 and X12 lift the level-0 cusp generator of G_k's Jacobi levels; the chain rule on
    # Q_k, which the Hermitian rows keep, applied to SIEGEL builds the same forms
    keys = [key for key in CUSP_FORMS if key[0] == "siegel"]
    levels = [elliptic.cusp_form(key, bound) for key in keys]
    with monkeypatch.context() as patched:
        patched.setattr(SiegelLattice, "cusp_alpha", chain_rule_alpha)
        chain = [elliptic.cusp_form(key, bound) for key in keys]
    for f, g in zip(levels, chain):
        assert f == g and exp_serialize(f) == exp_serialize(g)
        assert f.lifted_from == g.lifted_from


def test_siegel_cusp_alpha_is_the_one_cusp_generator_or_refused():
    # k = 10, 12 and 14 have a cusp part of dimension 1, the weights below and k >= 16 have
    # none or more; k = 6 has two generators of quasimodular forms, but no cusp part
    for k in range(41):
        if k not in (10, 12, 14):
            with pytest.raises(InvalidWeight, match=f"weight {k} is not one Jacobi generator"):
                SIEGEL.cusp_alpha(k, 40)
            continue
        levels, chain = SIEGEL.cusp_alpha(k, 40), chain_rule_alpha(SIEGEL, k, 40)
        assert levels.trace_bound == 40 and levels.coefficient(0) == 0
        assert exp_scale(1 / levels.coefficient(3), levels) == exp_scale(1 / chain.coefficient(3), chain)


@pytest.mark.parametrize("bound, builds, reach", [
    (1, {6: 2, 10: 1, 12: 1}, {6: 20, 10: 10, 12: 12}),
    (12, {6: 1, 10: 1, 12: 1}, {6: 144, 10: 144, 12: 144}),
])
def test_siegel_g_and_its_cusp_form_build_the_levels_once(bound, builds, reach):
    # G_k's alpha table and X_k read one held entry per weight, built to q^max(n, k) at least:
    # at trace bound 1, G_k asks for alpha to q^1 and X_k to q^4, the Fourier-Jacobi stride.
    # The levels of weight 6 are G_6's alpha table, which the levels of G_k read: G10's to
    # q^10, then G12's to q^12, which rebuilds them at twice 10
    for cache in (siegel.jacobi_levels, SiegelLattice.g_alpha_table):
        cache.cache_clear()
    for k, cusp in ((10, igusa_x10), (12, igusa_x12)):
        siegel_expansion("G", k, bound)
        cusp(bound)
    assert siegel.jacobi_levels.cache_info().builds == {(k,): m for k, m in builds.items()}
    assert {k: expansion._bound(siegel._held_levels(k, 0)) for k in reach} == reach


def test_siegel_g12_then_g10_build_the_weight_6_levels_once():
    # G12's levels read G_6's alpha table to q^12; G10's read it to q^10, cut from the held one
    for cache in (siegel.jacobi_levels, SiegelLattice.g_alpha_table):
        cache.cache_clear()
    siegel_expansion("G", 12, 1)
    siegel_expansion("G", 10, 1)
    assert siegel.jacobi_levels.cache_info().builds[(6,)] == 1
    assert SiegelLattice.g_alpha_table.cache_info().builds[(SIEGEL, 6)] == 1


@pytest.mark.parametrize("name, disc", [("CHI8", -4), ("F10", -4), ("F10", -3), ("F12", -3)])
def test_hermitian_cusp_forms_are_the_product_built_forms(name, disc):
    assert hermitian_cusp_form(name, disc, 8) == oracle_cusp_form(("hermitian", disc, name), 8)


def _maass_relation_holds(form, det, content, on_slice):
    """The coefficients at the indices with on_slice(t) (the Fourier-Jacobi
    index 1) depend on det alone, and every index t != 0 whose dets det/d^2
    all lie on that slice has a(t) = sum_{d | content} d^(k-1) a(slice at
    det(t)/d^2).  Returns the number of indices checked that way."""
    k = form.weight
    lat = form.lattice
    indices = lat.enumerate_all(form.trace_bound)
    slice_ = {}
    for t in filter(on_slice, indices):
        assert slice_.setdefault(det(t), form.coefficient(t)) == form.coefficient(t)
    assert form.coefficient(lat.zero) == 0
    checked = 0
    for t in indices:
        if t == lat.zero:
            continue
        e = content(t)
        divs = [d for d in range(1, e + 1) if e % d == 0]
        if any(det(t) // (d * d) not in slice_ for d in divs):
            continue
        assert form.coefficient(t) == sum(d ** (k - 1) * slice_[det(t) // (d * d)]
                                          for d in divs), t
        checked += 1
    return checked


def test_maass_relation_of_the_product_built_x10():
    form = oracle_cusp_form(("siegel", None, "X10"), 8)
    checked = _maass_relation_holds(
        form,
        det=lambda t: 4 * t[0] * t[2] - t[1] ** 2,
        content=lambda t: gcd(*t),
        on_slice=lambda t: t[2] == 1,
    )
    assert checked > 100


def test_maass_relation_of_the_product_built_f10_over_gaussian_integers():
    field = imag_quad_field(-4)
    form = oracle_cusp_form(("hermitian", -4, "F10"), 6)
    checked = _maass_relation_holds(
        form,
        det=lambda h: 4 * h[0] * h[3] - field.norm(h[1], h[2]),
        content=lambda h: gcd(*h),
        on_slice=lambda h: h[3] == 1,
    )
    assert checked > 100


def test_cusp_forms_build_without_degree_2_products(monkeypatch):
    calls, lifts = [], []
    real, real_lift = expansion.exp_multiply, expansion.lift

    def counted(f, g):
        calls.append((f.lattice.space, g.lattice.space))
        return real(f, g)

    def counted_lift(lattice, *args):
        lifts.append((lattice.space, lattice.disc))
        return real_lift(lattice, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("eiscong") and getattr(module, "exp_multiply", None) is real:
            monkeypatch.setattr(module, "exp_multiply", counted)
        if name.startswith("eiscong") and getattr(module, "lift", None) is real_lift:
            monkeypatch.setattr(module, "lift", counted_lift)
    assert elliptic.exp_multiply is counted and elliptic.lift is counted_lift
    # no degree-2 form is cached: each call builds its form
    for space, disc, name in CUSP_FORMS:
        if space == "siegel":
            (igusa_x10 if name == "X10" else igusa_x12)(4)
        else:
            hermitian_cusp_form(name, disc, 4)
    # the chain rule multiplies degree-1 series only
    assert calls and set(calls) == {("elliptic", "elliptic")}
    assert lifts == [(space, disc) for space, disc, _ in CUSP_FORMS]


@pytest.mark.parametrize("key, most", [(key, 0 if key[0] == "siegel" else 6 if k == 12 else 3)
                                       for key, k in CUSP_FORMS.items()],
                         ids=lambda v: v if isinstance(v, int) else "-".join(map(str, v)))
def test_cusp_form_degree_1_products(monkeypatch, key, most):
    # with G_4, G_6 and G_k built from cleared caches: a Siegel row lifts G_k's cached level-0
    # cusp generator, with no product; a Hermitian row takes dQ/dE4 and dQ/dE6 on the basis
    # (E4^2 at weight 12), their two products with alpha_4 and alpha_6, and the
    # decomposition of the degree-1 E_k (E4^3 and E6^2 at weight 12)
    space, disc, _ = key
    bound, lat = (12 if space == "siegel" else 7), expansion.lattice_for(space, disc)
    for cache in (type(lat).g_alpha_table, siegel.jacobi_levels):
        cache.cache_clear()
    for j in {4, 6, CUSP_FORMS[key]}:
        expansion.eisenstein(lat, "G", j, bound)
    real, calls = expansion.exp_multiply, []

    def counted(f, g):
        calls.append(f.lattice.space)
        return real(f, g)

    for name, module in list(sys.modules.items()):
        if name.startswith("eiscong") and getattr(module, "exp_multiply", None) is real:
            monkeypatch.setattr(module, "exp_multiply", counted)
    elliptic.cusp_form(key, bound)
    assert calls.count("elliptic") <= most
    assert calls.count(space) == 0


def test_cusp_form_decomposes_each_weight_once(monkeypatch):
    # Q_k, and so dQ/dE4 and dQ/dE6, depend on k alone: one decomposition per weight, all
    # from the Hermitian rows, as the Siegel rows read the Jacobi levels
    real, weights = elliptic.decompose_into_e4_e6, []
    monkeypatch.setattr(elliptic, "decompose_into_e4_e6",
                        lambda f, k: weights.append(k) or real(f, k))
    elliptic._q_partials.cache_clear()
    for space in ("siegel", "hermitian"):
        for key in (key for key in CUSP_FORMS if key[0] == space):
            for bound in (1, 2, 3):
                elliptic.cusp_form(key, bound)
        if space == "siegel":
            assert weights == []
    assert sorted(weights) == [8, 10, 12]


@pytest.mark.parametrize("key", CUSP_FORMS, ids=lambda key: f"{key[0]}{key[1] or ''}/{key[2]}")
def test_lifted_from_is_kept_by_scale_and_restrict_only(key):
    k, lat = CUSP_FORMS[key], expansion.lattice_for(*key[:2])
    g, f = expansion.eisenstein(lat, "G", k, 4), elliptic.cusp_form(key, 4)
    c = Fraction(-7, 3)
    for h in (g, f):
        alpha, constant = h.lifted_from
        assert type(constant) is Fraction and constant == h.coefficient(lat.zero)
        assert lift(lat, k, 4, alpha, constant) == h  # the data are the lift's, exactly
        scaled = exp_scale(c, h)
        assert scaled.lifted_from == (exp_scale(c, alpha), c * constant)
        assert lift(lat, k, 4, *scaled.lifted_from) == scaled
        assert h.restrict(2).lifted_from is h.lifted_from
        assert lift(lat, k, 2, *h.restrict(2).lifted_from) == h.restrict(2)
    e = expansion.eisenstein(lat, "E", k, 4)
    assert e.lifted_from == exp_scale(1 / lat.g_constant(k), g).lifted_from
    assert e.lifted_from[1] == 1
    for dropped in (exp_add(g, f), g - f, exp_multiply(g, f), TruncatedExpansion(lat, k, 4, g.coeffs),
                    exp_parse(exp_serialize(g)), cusp_correction(g), phi_operator(g)):
        assert dropped.lifted_from is None


@pytest.mark.parametrize("lat", [SIEGEL] + [hermitian_lattice(d) for d in CLASS_NUMBER_ONE_DISCRIMINANTS],
                         ids=repr)
def test_alpha_table_agrees_with_alpha_at_each_det(lat):
    # -163 at trace bound 3 reads alpha up to 366; Siegel tables past weight 4 come from the
    # index-1 Jacobi forms, held to the walk over D and f up to weight 40, where M_{k-4} has 4 levels;
    # each table is the series the public constructor builds from the values
    for k in range(4, 41 if lat is SIEGEL else 17, 2):
        for n in (0, 1, 2, 3, 4, 7, 37, 400):
            table = lat.g_alpha_table(k, n)
            assert_well_formed(table)
            if lat is SIEGEL:
                assert table == small_elliptic(k, n, siegel_alpha_table_by_walk(k, n))
            if k <= 16:
                assert table == small_elliptic(k, n, (lat.g_alpha(k, N) for N in range(n + 1)))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 37, 400, 1600])
def test_siegel_weight_4_table_is_the_theta_series(n):
    # alpha_4(0) (theta^7 - 14 theta^3 F_2) against Cohen's walk over -N = D f^2
    assert SIEGEL.g_alpha_table(4, n) == small_elliptic(4, n, siegel_alpha_table_by_walk(4, n))


def test_building_the_benchmark_forms_leaves_the_cached_alpha_tables_unchanged(monkeypatch):
    # consumers read the held alpha tables and Jacobi levels in place: record each one handed
    # out while the benchmark workloads' forms are built, then compare it with a build at its
    # own bound from cleared caches
    tables = (SiegelLattice.g_alpha_table, HermitianLattice.g_alpha_table)
    levels, held_levels = siegel.jacobi_levels, siegel._held_levels
    caches = (levels, *tables)
    handed = []
    for cls, cached in zip((SiegelLattice, HermitianLattice), tables):
        def recorded(self, k, n, cached=cached):
            handed.append((cached.__wrapped__, (self, k), cached(self, k, n)))
            return handed[-1][-1]

        monkeypatch.setattr(cls, "g_alpha_table", recorded)

    def recorded_levels(k, n):
        handed.append((levels.__wrapped__, (k,), held_levels(k, n)))
        return handed[-1][-1]

    monkeypatch.setattr(siegel, "_held_levels", recorded_levels)
    for cache in caches:
        cache.cache_clear()
    for bound in (8, 12):
        for k, cusp in ((10, igusa_x10), (12, igusa_x12)):
            cusp_correction(siegel_expansion("G", k, bound))
            cusp(bound)
    for (disc, k), data in HERMITIAN_EXAMPLES.items():
        for bound in (5, 7):
            cusp_correction(hermitian_expansion("G", disc, k, bound))
            hermitian_cusp_form(data["cusp_form"], disc, bound)
    cusp_correction(hermitian_expansion("G", -163, 10, 3))
    assert len(handed) > 20 and sum(build is levels.__wrapped__ for build, *_ in handed) >= 4
    monkeypatch.undo()
    for cache in caches:
        cache.cache_clear()
    for build, key, value in handed:
        assert value == build(*key, expansion._bound(value))


@pytest.mark.parametrize("lat", [SIEGEL, hermitian_lattice(-3), hermitian_lattice(-4)], ids=repr)
def test_negative_det_and_table_length_refused(lat):
    for N in (-1, -2, -3, -4):
        with pytest.raises(ValueError, match=r"g_alpha expects N >= 0, got -"):
            lat.g_alpha(10, N)
    with pytest.raises(ValueError, match=r"g_alpha_table expects n >= 0, got -1"):
        lat.g_alpha_table(10, -1)


def test_siegel_table_refuses_a_weight_without_jacobi_forms():
    # odd k has no basis levels: the fit would return zeros, not G_k's alpha
    for k in (2, 5, 7):
        with pytest.raises(InvalidWeight):
            SIEGEL.g_alpha_table(k, 10)
    # the levels are built past every pivot, to q^16 at weight 16, and a call at q^1 is served
    # cut from that one build; the readers take the held levels, and no build is refused
    siegel.jacobi_levels.cache_clear()
    cut, held = siegel.jacobi_levels(16, 1), siegel._held_levels(16, 1)
    assert expansion._bound(held) == 16 and cut == expansion._cut(held, 1)
    assert siegel.jacobi_levels.cache_info().builds == {(16,): 1}
    assert siegel.jacobi_levels(16, 16) is held


def test_siegel_tables_read_three_generalized_bernoulli_numbers():
    # weight 4 is a theta series, with none; weights 6, 10 and 12 read the closed form at
    # N = 0, a Bernoulli number, and at N = 3, B_{k-1, chi_-3}: three misses in all
    arith.generalized_bernoulli.cache_clear()
    type(SIEGEL).g_alpha_table.cache_clear()
    for k in (4, 6, 10, 12):
        SIEGEL.g_alpha_table(k, 144)
    assert arith.generalized_bernoulli.cache_info().misses <= 3
