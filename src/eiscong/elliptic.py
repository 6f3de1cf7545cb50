"""Degree-1 q-expansions: Eisenstein series, Delta / tau, and the exact
decomposition of a level-1 form into E4^a E6^b monomials; also the table
of degree-2 cusp forms c (E_k - Q_k(E4, E6)), Q_k the degree-1 relation and
c the scale that makes the form's first nonzero alpha 1.  ``cusp_form(key,
bound)`` builds every one of them as a Maass lift over the lattice
``lattice_for(space, disc)``, from the alpha table and constant term of G_j
that the lattice carries (``g_alpha_table``, ``g_constant``).  A Maass form F
is the pair (phi0, alpha) of its boundary q-series and its coefficients at
Fourier-Jacobi index 1 as a function of det N.  An index of Fourier-Jacobi index 1 splits only
as diag(i, 0) plus another of index 1, so (Eichler and Zagier, §6)

    phi0(FG) = phi0(F) phi0(G),
    alpha_FG(N) = sum_{0 <= i <= N/m} phi0_F(i) alpha_G(N - m i) + alpha_F(N - m i) phi0_G(i)

with m the lattice's Fourier-Jacobi stride and alpha = 0 below 0.  Both
rules are products of degree-1 series in q: with phi0 held as phi0(q^m),
alpha_FG = phi0_F(q^m) alpha_G + alpha_F phi0_G(q^m), so ``exp_multiply``
evaluates them.  Every factor of Q_k is E4 or E6, so each monomial's alpha
depends on N alone.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce

from .arith import bernoulli, divisor_power_sum
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


def dim_level_one(k: int) -> int:
    """dim M_k(SL2(Z)) by the classical formula."""
    if k < 0 or k % 2 == 1:
        return 0
    if k % 12 == 2:
        return k // 12
    return k // 12 + 1


@lru_cache(maxsize=None)
def elliptic_eisenstein(k: int, n_max: int) -> TruncatedExpansion:
    """E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n, truncated at n_max."""
    if k < 4 or k % 2 == 1:
        raise InvalidWeight(f"elliptic Eisenstein series needs even k >= 4, got {k}")
    scale = Fraction(-2 * k) / bernoulli(k)
    nums = {0: scale.denominator}
    for n in range(1, n_max + 1):
        nums[n] = scale.numerator * divisor_power_sum(k - 1, n)
    return TruncatedExpansion._of(ELLIPTIC, k, n_max, scale.denominator, nums)


@lru_cache(maxsize=None)
def delta_expansion(n_max: int) -> TruncatedExpansion:
    """Delta = (E4^3 - E6^2) / 1728."""
    e4 = elliptic_eisenstein(4, n_max)
    e6 = elliptic_eisenstein(6, n_max)
    num = exp_add(exp_multiply(exp_multiply(e4, e4), e4),
                  exp_scale(-1, exp_multiply(e6, e6)))
    return exp_scale(Fraction(1, 1728), num)


_delta_bound = 0  # bound of the Delta expansion ramanujan_tau reads


def ramanujan_tau(n: int) -> Fraction:
    """tau(n) from one shared Delta expansion, regrown to max(n, 2 * bound)."""
    global _delta_bound
    bound = _delta_bound
    if n > bound:
        bound = _delta_bound = max(n, 2 * bound)
    return delta_expansion(bound).coefficient(n)


def _monomial(e4: TruncatedExpansion, e6: TruncatedExpansion, a: int, b: int):
    """E4^a E6^b; the constant one only for the empty product."""
    if a == b == 0:
        return constant_one(e4.lattice, min(e4.trace_bound, e6.trace_bound))
    return reduce(exp_multiply, [e4] * a + [e6] * b)


class IsobaricPolynomial(namedtuple("IsobaricPolynomial", "weight terms")):
    """Polynomial in (E4, E6) with every monomial of total weight k: terms,
    sorted ((a, b), Fraction) pairs, maps (a, b) with 4a + 6b = k to its coefficient."""

    __slots__ = ()

    def __new__(cls, weight: int, terms: tuple):
        for (a, b), _ in terms:
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
        """Evaluate on weight-4 / weight-6 expansions of any space."""
        bound = min(e4.trace_bound, e6.trace_bound)
        lat = e4.lattice
        acc = zero_expansion(lat, self.weight, bound)
        for (a, b), c in self.terms:
            acc = exp_add(acc, exp_scale(c, _monomial(e4, e6, a, b)))
        return acc


# E_k = Q_k(E4, E6) in degree 1, for the weights of the cusp forms below
_BOUNDARY_RELATIONS = {
    8: IsobaricPolynomial.from_dict(8, {(2, 0): 1}),
    10: IsobaricPolynomial.from_dict(10, {(1, 1): 1}),
    12: IsobaricPolynomial.from_dict(
        12, {(3, 0): Fraction(441, 691), (0, 2): Fraction(250, 691)}
    ),
}

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
    expansions truncated at n, m the lattice's Fourier-Jacobi stride."""
    m = lattice.fj_stride
    phi = elliptic_eisenstein(j, n // m)
    alpha = TruncatedExpansion(ELLIPTIC, j, n, dict(enumerate(lattice.g_alpha_table(j, n))))
    return (TruncatedExpansion._of(ELLIPTIC, j, n, phi.den, {m * i: v for i, v in phi.nums.items()}),
            exp_scale(1 / lattice.g_constant(j), alpha))


def _maass_product(f, g):
    """The pair (phi0(q^m), alpha) of the product of two Maass forms."""
    (fphi, falpha), (gphi, galpha) = f, g
    return exp_multiply(fphi, gphi), exp_add(exp_multiply(fphi, galpha), exp_multiply(falpha, gphi))


@lru_cache(maxsize=None)
def cusp_form(key, trace_bound: int) -> TruncatedExpansion:
    """The CUSP_FORMS entry key = (space, disc, name), over the lattice
    of that space, from the alpha and constant term of its G_j, scaled so
    that its first nonzero alpha is 1.  Alpha is built to det at least the
    Fourier-Jacobi stride m, where that value lies, so that the scale holds
    at every trace bound."""
    if key not in CUSP_FORMS:
        raise UnsupportedFieldForm(f"no cusp form {key[2]!r} over disc {key[1]}")
    k = CUSP_FORMS[key]
    lattice = lattice_for(*key[:2])
    n = lattice.fj_stride * trace_bound**2 // 4
    factors = {j: _maass_factor(lattice, j, max(n, lattice.fj_stride)) for j in {4, 6, k}}
    alpha = factors[k][1]
    for (a, b), c in _BOUNDARY_RELATIONS[k].terms:
        _, monomial = reduce(_maass_product, [factors[4]] * a + [factors[6]] * b)
        alpha = exp_add(alpha, exp_scale(-c, monomial))
    alpha = exp_scale(1 / alpha.coefficient(min(alpha.nums)), alpha)
    return lift(lattice, k, trace_bound, [*map(alpha.coefficient, range(n + 1))], 0)


def isobaric_monomials(k: int) -> list[tuple[int, int]]:
    """All (a, b) with 4a + 6b = k, ordered by decreasing a."""
    return [(a, (k - 4 * a) // 6)
            for a in range(k // 4, -1, -1)
            if (k - 4 * a) % 6 == 0]


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve the (possibly overdetermined) system rows*x = rhs exactly;
    raises NotInSpace when inconsistent."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pr = aug[r]
        inv = 1 / pr[col]
        aug[r] = [v * inv for v in pr]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            raise NotInSpace("linear system is inconsistent")
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = aug[i][n]
    return x


def decompose_into_e4_e6(f: TruncatedExpansion, k: int) -> IsobaricPolynomial:
    """Write a degree-1 weight-k expansion as Q(E4, E6); the residual must
    vanish identically up to the truncation."""
    if f.lattice.space != "elliptic":
        raise ValueError("decomposition expects a degree-1 expansion")
    if f.weight != k:
        raise ValueError(f"expansion has weight {f.weight}, expected {k}")
    monos = isobaric_monomials(k)
    n_max = f.trace_bound
    if f.is_zero() and not monos:
        return IsobaricPolynomial(k, ())
    if n_max + 1 < len(monos):
        raise InsufficientTruncation(
            f"trace bound {n_max} too small to determine {len(monos)} monomials"
        )
    e4 = elliptic_eisenstein(4, n_max)
    e6 = elliptic_eisenstein(6, n_max)
    columns = []
    for a, b in monos:
        mono = _monomial(e4, e6, a, b)
        columns.append([mono.coefficient(n) for n in range(n_max + 1)])
    rows = [[columns[j][n] for j in range(len(monos))] for n in range(n_max + 1)]
    rhs = [f.coefficient(n) for n in range(n_max + 1)]
    sol = _solve_exact(rows, rhs)
    # residual check over every available coefficient
    for n in range(n_max + 1):
        if sum(sol[j] * columns[j][n] for j in range(len(monos))) != rhs[n]:
            raise NotInSpace(f"residual does not vanish at q^{n}")
    return IsobaricPolynomial.from_dict(
        k, {monos[j]: sol[j] for j in range(len(monos))}
    )
