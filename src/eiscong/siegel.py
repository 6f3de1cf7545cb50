"""Degree-2 Siegel Fourier indices and Eisenstein / Igusa expansions, all
Maass lifts in det4(T) = 4 det(T) (``expansion.lift``).

Indices are half-integral symmetric 2x2 matrices stored as integer triples
(a, b2, c) with b2 = twice the off-diagonal entry.  ``SIEGEL`` carries the
alpha of G_k (Cohen's H(k-1, N), Math. Ann. 1975, up to a constant): at
N > 0, with -N = D f^2 and D a fundamental discriminant,
B_{k-1,chi_D} / (k-1) * sum_{g | f} mu(g) chi_D(g) g^(k-2) sigma_{2k-3}(f/g),
tabulated as degree-1 series: alpha_4 is alpha_4(0) (theta^7 - 14 theta^3 F_2),
alpha_6 is alpha_4 under the heat operator, and past 6 alpha_k is fitted on the
cached levels of J_{k,1} = M_{k-4} E_{4,1} + M_{k-6} E_{6,1} (Eichler and Zagier,
*The Theory of Jacobi Forms*, §3), whose level-0 cusp generator is the alpha of
X10 and X12.  The public builders are one call into ``eisenstein`` or ``cusp_form``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest
from math import isqrt

from .arith import (
    bernoulli,
    divisor_power_sum,
    divisor_power_sums,
    divisors,
    fundamental_decomposition,
    generalized_bernoulli,
    kronecker_character,
    mobius,
)
from .elliptic import _basis, _maass_factor, cusp_form, isobaric_monomials
from .errors import InvalidWeight
from .expansion import (ELLIPTIC, Degree2Lattice, TruncatedExpansion, _check_weight, eisenstein,
                        exp_add, exp_multiply, exp_scale, zero_expansion)


class SiegelLattice(Degree2Lattice):
    """Half-integral symmetric 2x2 matrices, indices (a, b2, c)."""

    space = "siegel"
    disc = None
    zero = (0, 0, 0)
    fj_stride = 4  # det4 of (n, r, 1) is 4n - r^2

    def det(self, t) -> int:
        """4 det(T) = 4ac - b2^2."""
        return 4 * t[0] * t[2] - t[1] * t[1]

    def enumerate_all(self, bound):
        """Every index of trace <= bound in canonical order: trace s, then a,
        then b2 with b2^2 <= 4ac for c = s - a."""
        return [(a, b2, s - a) for s in range(bound + 1) for a in range(s + 1)
                for m in (isqrt(4 * a * (s - a)),) for b2 in range(-m, m + 1)]

    def g_alpha(self, k: int, N: int) -> Fraction:
        """alpha of G_k at det4 = N; 0 where no index has that det4."""
        if N < 0:
            raise ValueError(f"g_alpha expects N >= 0, got {N}")
        if N == 0:
            return bernoulli(2 * k - 2) / (2 * k - 2)
        if N % 4 in (1, 2):
            return Fraction(0)
        return _cohen_alpha(k, *fundamental_decomposition(-N))

    @lru_cache(maxsize=64)
    def g_alpha_table(self, k: int, n: int) -> TruncatedExpansion:
        """g_alpha(k, 0..n), even k >= 4, as a degree-1 expansion of weight k to q^n:
        ``_jacobi_alpha`` past 4, and at 4 alpha_4(0) theta^3 (theta^4 - 14 F_2), with
        theta = sum_{m in Z} q^(m^2) and F_2 = sum_{i odd} sigma_1(i) q^i.  Kohnen's plus
        space of M_{7/2}(Gamma_0(4)), where alpha_4 lies (Math. Ann. 1980), is the line
        of its basis theta^7, theta^3 F_2 (Koblitz, *Introduction to Elliptic Curves and
        Modular Forms*, IV §1) that vanishes at q^1."""
        if n < 0:
            raise ValueError(f"g_alpha_table expects n >= 0, got {n}")
        if _check_weight(k) > 4:
            return _jacobi_alpha(k, n).restrict(n)
        theta, f2 = (TruncatedExpansion._of(ELLIPTIC, 0, n, 1, nums) for nums in (
            {m * m: 2 - (m == 0) for m in range(isqrt(n) + 1)},
            {i: s for i, s in enumerate(divisor_power_sums(1, n)) if i % 2}))
        cube = exp_multiply(exp_multiply(theta, theta), theta)
        form = exp_multiply(cube, exp_add(exp_multiply(cube, theta), exp_scale(-14, f2)))
        return exp_scale(self.g_alpha(4, 0), TruncatedExpansion._of(ELLIPTIC, 4, n, 1, form.nums))

    def cusp_alpha(self, k: int, n: int) -> TruncatedExpansion:
        """alpha of the weight-k cusp form to q^n: the level-0 cusp generator of ``jacobi_levels``,
        only where it is the whole cusp part, dim M_{k-4} + dim M_{k-6} = 2 (k = 10, 12, 14)."""
        if len(isobaric_monomials(k - 4)) + len(isobaric_monomials(k - 6)) != 2:
            raise InvalidWeight(f"the Siegel cusp part of weight {k} is not one Jacobi generator")
        return jacobi_levels(k, max(n, k))[0][1][1].restrict(n)

    def __repr__(self):
        return "SiegelLattice()"


SIEGEL = SiegelLattice()
det4, content, rank = SIEGEL.det, SIEGEL.content, SIEGEL.rank


def _cohen_alpha(k: int, D: int, f: int) -> Fraction:
    """alpha of G_k at det4 = -D f^2, D fundamental."""
    chi = kronecker_character(D)
    inner = sum(mobius(g) * chi(g) * g ** (k - 2) * divisor_power_sum(2 * k - 3, f // g)
                for g in divisors(f))
    return generalized_bernoulli(k - 1, D) / (k - 1) * inner


@lru_cache(maxsize=64)
def jacobi_levels(k: int, n: int) -> tuple:
    """The triangular basis of J_{k,1}, even k >= 6, to q^n past every pivot (callers pass
    max(n, k)): level j is (pivot, generator) pairs, u_j(q^4) alpha_4, v_j(q^4) alpha_6 or both
    (u, v the ``_basis`` of M_{k-4}, M_{k-6}), zero below 4j, the first at 4j and a second, less
    the multiple of the first that clears 4j, at 4j + 3: 1728^j [[alpha_4(0), alpha_6(0)],
    [alpha_4(3), alpha_6(3)]] is nonsingular.  Past 6 all generators but the first span the cusp
    part (Eichler and Zagier, §5-6); k = 6 is one level, E2(q^4) alpha_4 and N alpha_4 (the heat
    operator), with E2 = 1 - 24 sum sigma_1(i) q^i."""
    if n < k:
        raise ValueError(f"jacobi_levels expects n >= k, got n = {n} < k = {k}")
    if k == 6:
        _, a4 = _maass_factor(SIEGEL, 4, n)
        e2 = {4 * i: -24 * s if i else 1 for i, s in enumerate(divisor_power_sums(1, n // 4))}
        heat = {N: N * a for N, a in a4.nums.items()}
        us = [exp_multiply(TruncatedExpansion._of(ELLIPTIC, 2, n, 1, e2), a4)]
        vs = [TruncatedExpansion._of(ELLIPTIC, 6, n, a4.den, heat)]
    else:
        (e4, a4), (e6, a6) = (_maass_factor(SIEGEL, j, n) for j in (4, 6))
        us, vs = ([exp_multiply(b, a) for b in _basis(e4, e6, k - j)]
                  for j, a in ((4, a4), (6, a6)))
    levels = []
    for j, level in enumerate(zip_longest(us, vs)):
        first, *rest = (g for g in level if g is not None)
        rest = [exp_add(g, exp_scale(-g.coefficient(4 * j) / first.coefficient(4 * j), first))
                for g in rest]
        levels.append(tuple(zip((4 * j, 4 * j + 3), (first, *rest))))
    return tuple(levels)


def _jacobi_alpha(k: int, n: int) -> TruncatedExpansion:
    """alpha_k, even k >= 6, to q^max(n, k): each ``jacobi_levels`` generator fit at its pivot."""
    alpha = zero_expansion(ELLIPTIC, k, max(n, k))
    for N, g in chain.from_iterable(jacobi_levels(k, max(n, k))):
        c = (SIEGEL.g_alpha(k, N) - alpha.coefficient(N)) / g.coefficient(N)
        alpha = exp_add(alpha, exp_scale(c, g))
    return alpha


def siegel_g_coefficient(k: int, t) -> Fraction:
    """Fourier coefficient of the normalized Eisenstein series G_k at T."""
    return SIEGEL.coefficient(k, t)


def siegel_e_coefficient(k: int, t) -> Fraction:
    """Coefficient of E_k, normalized so the constant term is 1."""
    return SIEGEL.coefficient(k, t) / SIEGEL.g_constant(k)


def siegel_expansion(form: str, k: int, trace_bound: int) -> TruncatedExpansion:
    """Truncated expansion of G_k or E_k over all psd indices; the weight
    is checked before the form."""
    return eisenstein(SIEGEL, form, _check_weight(k), trace_bound)


def igusa_x10(trace_bound: int) -> TruncatedExpansion:
    """Weight-10 Igusa cusp form, normalized to 1 at (1, 1/2; 1/2, 1)."""
    return cusp_form(("siegel", None, "X10"), trace_bound)


def igusa_x12(trace_bound: int) -> TruncatedExpansion:
    """Weight-12 Igusa cusp form."""
    return cusp_form(("siegel", None, "X12"), trace_bound)
