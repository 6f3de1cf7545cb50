"""Degree-1 q-expansions: Eisenstein series, Delta / tau, and the exact
decomposition of a level-1 form into E4^a E6^b monomials; also the table
of degree-2 cusp forms c (E_k - Q_k(E4, E6)), Q_k the degree-1 relation and
c the scale that makes the form's first nonzero alpha 1.  ``_basis`` alone
multiplies out E4 and E6; the decomposition, ``evaluate``, the Siegel
Jacobi levels (``siegel.jacobi_levels``) and the chain rule read it.  Delta
takes no E4 or E6: it is q J^8 by Jacobi's identity for J = prod (1 - q^n)^3.
``cusp_form(key, bound)`` lifts the ``cusp_alpha`` of ``lattice_for(space,
disc)``: Siegel's is read off its Jacobi levels, Hermitian's is the chain rule
below (``chain_rule_alpha``) on Q_k, decomposed from E_k once per weight, and
the lattice's G_j (``g_alpha_table``, ``g_constant``).  A Maass form F is the pair (phi0,
alpha) of its boundary q-series and its coefficients at Fourier-Jacobi index
1 as a function of det N.  An index of Fourier-Jacobi index 1 splits only as
diag(i, 0) plus another of index 1, so F -> phi0_F(q^m) + eps alpha_F, with
eps^2 = 0 and m the lattice's Fourier-Jacobi stride, is a ring map into dual
numbers over degree-1 series in q (Eichler and Zagier, §6).  A polynomial
Q(E4, E6) therefore has, by the chain rule,

    alpha_Q = dQ/dE4(phi_4, phi_6) alpha_4 + dQ/dE6(phi_4, phi_6) alpha_6,

phi_j = phi0_{E_j}(q^m): two ``evaluate`` calls and two ``exp_multiply``.
Every factor of Q_k is E4 or E6, so alpha_Q depends on N alone.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, isqrt

from .arith import bernoulli, divisor_power_sums
from .errors import InsufficientTruncation, InvalidWeight, NotInSpace, UnsupportedFieldForm
from .expansion import (
    ELLIPTIC,
    TruncatedExpansion,
    constant_one,
    exp_add,
    exp_multiply,
    exp_scale,
    lattice_for,
    lift,
    zero_expansion,
)


@lru_cache(maxsize=None)
def elliptic_eisenstein(k: int, n_max: int) -> TruncatedExpansion:
    """E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n, truncated at n_max."""
    if k < 4 or k % 2 == 1:
        raise InvalidWeight(f"elliptic Eisenstein series needs even k >= 4, got {k}")
    scale = Fraction(-2 * k) / bernoulli(k)
    nums = {n: scale.numerator * s for n, s in enumerate(divisor_power_sums(k - 1, n_max))}
    nums[0] = scale.denominator
    return TruncatedExpansion._of(ELLIPTIC, k, n_max, scale.denominator, nums)


@lru_cache(maxsize=None)
def delta_expansion(n_max: int) -> TruncatedExpansion:
    """Delta = q J^8 to q^n_max, J = prod (1 - q^n)^3 = sum_{m >= 0} (-1)^m (2m + 1)
    q^(m(m+1)/2) to q^(n_max - 1) (Jacobi's identity), squared three times: three
    ``exp_multiply`` calls, and no E4 or E6."""
    top = max(n_max - 1, 0)
    j = TruncatedExpansion._of(ELLIPTIC, 0, top, 1, {
        m * (m + 1) // 2: (-1) ** m * (2 * m + 1) for m in range((isqrt(8 * top + 1) + 1) // 2)})
    for _ in range(3):
        j = exp_multiply(j, j)
    return TruncatedExpansion._of(ELLIPTIC, 12, n_max, 1, {e + 1: c for e, c in j.nums.items() if e < n_max})


_delta_bound = 0  # bound of the Delta expansion ramanujan_tau reads


def ramanujan_tau(n: int) -> Fraction:
    """tau(n) from one shared Delta expansion, Jacobi's q J^8, regrown to max(n, 2 * bound)."""
    global _delta_bound
    bound = _delta_bound
    if n > bound:
        bound = _delta_bound = max(n, 2 * bound)
    return delta_expansion(bound).coefficient(n)


def _basis(e4: TruncatedExpansion, e6: TruncatedExpansion, k: int):
    """Yield u_j = E4^(a_j mod 3) (E4^3)^(a_j div 3) E6^(b_0) x^j over e4's
    lattice, x = E4^3 - E6^2 and (a_j, b_j) = (a_0 - 3j, b_0 + 2j) the monomials
    of ``isobaric_monomials(k)``: in degree 1, 1728^j q^j + O(q^(j+1)), a
    triangular basis of M_k (Serre, A Course in Arithmetic, VII §3).  Each u_j
    is multiplied out when asked for, never by the constant one."""
    monos, bound = isobaric_monomials(k), min(e4.trace_bound, e6.trace_bound)
    cube = x = None  # E4^3 and x, read only where there are two monomials or more
    if len(monos) > 1:
        cube = exp_multiply(exp_multiply(e4, e4), e4)
        x = exp_add(cube, exp_scale(-1, exp_multiply(e6, e6)))
    for j, (a, _) in enumerate(monos):
        u = [e4] * (a % 3) + [cube] * (a // 3) + [e6] * monos[0][1] + [x] * j
        yield reduce(exp_multiply, u) if u else constant_one(e4.lattice, bound)


class IsobaricPolynomial(namedtuple("IsobaricPolynomial", "weight terms")):
    """Polynomial in (E4, E6) with every monomial of total weight k: terms, sorted
    ((a, b), Fraction) pairs, maps each a, b >= 0 with 4a + 6b = k to its coefficient."""

    __slots__ = ()

    def __new__(cls, weight: int, terms: tuple):
        for (a, b), _ in terms:
            if a < 0 or b < 0:
                raise ValueError(f"monomial ({a},{b}) has a negative exponent")
            if 4 * a + 6 * b != weight:
                raise ValueError(f"monomial ({a},{b}) has weight {4*a+6*b}, "
                                 f"expected {weight}")
        return super().__new__(cls, weight, terms)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check there too
        return cls(*iterable)

    @staticmethod
    def from_dict(weight: int, coeffs: dict) -> "IsobaricPolynomial":
        terms = tuple(sorted(
            ((ab, Fraction(c)) for ab, c in coeffs.items() if c != 0),
            key=lambda t: (-t[0][0], t[0][1]),
        ))
        return IsobaricPolynomial(weight, terms)

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, e4: TruncatedExpansion, e6: TruncatedExpansion) -> TruncatedExpansion:
        """sum_j c_j u_j over ``_basis`` on weight-4 / weight-6 expansions of any space,
        c_j = (-1)^j sum_i C(i, j) q_i (q_i at the i-th monomial) inverting decompose's
        binomial transform; c_j = 0 past the last q_i, where the basis stops."""
        pos = {m: i for i, m in enumerate(isobaric_monomials(self.weight))}
        cs = [(-1) ** j * sum(comb(pos[m], j) * c for m, c in self.terms)
              for j in range(max((pos[m] for m, _ in self.terms), default=-1) + 1)]
        acc = zero_expansion(e4.lattice, self.weight, min(e4.trace_bound, e6.trace_bound))
        for c, u in zip(cs, _basis(e4, e6, self.weight)):
            acc = exp_add(acc, exp_scale(c, u))
        return acc


# (space, disc, name) -> weight k: the cusp form is c (E_k - Q_k(E4, E6)),
# E_k the degree-2 Eisenstein series and c the scale set by cusp_form
CUSP_FORMS = {
    ("siegel", None, "X10"): 10,
    ("siegel", None, "X12"): 12,
    ("hermitian", -4, "CHI8"): 8,
    ("hermitian", -4, "F10"): 10,
    ("hermitian", -3, "F10"): 10,
    ("hermitian", -3, "F12"): 12,
}


def _maass_factor(lattice, j: int, n: int):
    """The degree-2 E_j as its pair (phi0(q^m), alpha) of degree-1
    expansions truncated at n, m the lattice's Fourier-Jacobi stride: alpha is
    the lattice's cached ``g_alpha_table`` of G_j, scaled into a new expansion."""
    m = lattice.fj_stride
    phi = elliptic_eisenstein(j, n // m)
    return (TruncatedExpansion._of(ELLIPTIC, j, n, phi.den, {m * i: v for i, v in phi.nums.items()}),
            exp_scale(1 / lattice.g_constant(j), lattice.g_alpha_table(j, n)))


@lru_cache(maxsize=None)
def _q_partials(k: int) -> tuple:
    """dQ/dE4 and dQ/dE6, of weights k - 4 and k - 6, for Q = Q_k the decomposition
    of the degree-1 E_k: they depend on k alone, so each weight decomposes once."""
    terms = decompose_into_e4_e6(elliptic_eisenstein(k, len(isobaric_monomials(k)) - 1), k).terms
    return (IsobaricPolynomial.from_dict(k - 4, {(a - 1, b): a * c for (a, b), c in terms if a}),
            IsobaricPolynomial.from_dict(k - 6, {(a, b - 1): b * c for (a, b), c in terms if b}))


def chain_rule_alpha(lattice, k: int, n: int) -> TruncatedExpansion:
    """alpha of E_k - Q_k(E4, E6) over the lattice to q^n, Q = Q_k the decomposition of the
    degree-1 E_k: alpha_k - dQ/dE4(phi_4, phi_6) alpha_4 - dQ/dE6(phi_4, phi_6) alpha_6."""
    (phi4, alpha4), (phi6, alpha6), (_, alpha) = (_maass_factor(lattice, j, n) for j in (4, 6, k))
    for d, a in zip(_q_partials(k), (alpha4, alpha6)):
        alpha = exp_add(alpha, exp_scale(-1, exp_multiply(d.evaluate(phi4, phi6), a)))
    return alpha


@lru_cache(maxsize=None)
def cusp_form(key, trace_bound: int) -> TruncatedExpansion:
    """The CUSP_FORMS entry key = (space, disc, name): the lift of its lattice's ``cusp_alpha`` to
    det at least the Fourier-Jacobi stride, past the first nonzero alpha, scaled to make that 1."""
    if key not in CUSP_FORMS:
        raise UnsupportedFieldForm(f"no cusp form {key[2]!r} over disc {key[1]}")
    k, lattice = CUSP_FORMS[key], lattice_for(*key[:2])
    alpha = lattice.cusp_alpha(k, max(lattice.alpha_length(trace_bound), lattice.fj_stride))
    return lift(lattice, k, trace_bound, exp_scale(1 / alpha.coefficient(min(alpha.nums)), alpha), 0)


def isobaric_monomials(k: int) -> list[tuple[int, int]]:
    """All (a, b) with 4a + 6b = k, ordered by decreasing a."""
    return [(a, (k - 4 * a) // 6)
            for a in range(k // 4, -1, -1)
            if (k - 4 * a) % 6 == 0]


def decompose_into_e4_e6(f: TruncatedExpansion, k: int) -> IsobaricPolynomial:
    """Write a degree-1 weight-k expansion as Q(E4, E6) up to its truncation, by
    forward substitution on ``_basis``: c_j = rest[q^j] / 1728^j, rest -= c_j u_j,
    and a rest left over raises NotInSpace at its first q^n.  By the binomial
    theorem on x^j, Q's coefficient at (a_i, b_i) is (-1)^i sum_j C(j, i) c_j."""
    if f.lattice.space != "elliptic":
        raise ValueError("decomposition expects a degree-1 expansion")
    if f.weight != k:
        raise ValueError(f"expansion has weight {f.weight}, expected {k}")
    monos = isobaric_monomials(k)
    n_max = f.trace_bound
    if n_max + 1 < len(monos):
        raise InsufficientTruncation(f"trace bound {n_max} too small to determine "
                                     f"{len(monos)} monomials")
    e4, e6 = (elliptic_eisenstein(j, n_max) for j in (4, 6))
    rest, cs = f, []
    for j, u in enumerate(_basis(e4, e6, k)):
        cs.append(rest.coefficient(j) / 1728**j)
        rest = exp_add(rest, exp_scale(-cs[j], u))
    if not rest.is_zero():
        raise NotInSpace(f"residual does not vanish at q^{min(rest.nums)}")
    return IsobaricPolynomial.from_dict(k, {
        m: (-1) ** i * sum(comb(j, i) * c for j, c in enumerate(cs)) for i, m in enumerate(monos)})
