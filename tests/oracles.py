"""Independent oracles used by the tests.

These deliberately take different routes than the library: Bernoulli
numbers via the binomial-sum recurrence (``bernoulli_binomial_recurrence``,
the library's route before it built its table from tangent numbers), via
the Akiyama-Tanigawa triangle and via Seidel's zigzag triangle, Delta via
the eta product and as (E4^3 - E6^2) / 1728 on the triangular basis
(``delta_by_basis``, the library's route before Jacobi's identity), dim
M_k(SL2(Z)) by its classical formula (``dim_level_one``), decompositions into E4^a E6^b by Gauss-Jordan
elimination on the monomials' coefficients (``decompose_by_elimination``,
the library's route before it substituted forward on a triangular basis),
polynomials in E4 and E6 evaluated monomial by monomial
(``evaluate_by_monomials``, the library's route before it summed over that
basis), the relations E_k = Q_k(E4, E6) of the cusp forms' weights as data
(``_BOUNDARY_RELATIONS``, which the library now takes from the solver),
chi values via Euler's criterion and via quadratic reciprocity at every
residue (``kronecker_symbol``, the library's route before it set chi_D at
primes and spread it by multiplicativity), expansion products target by
target over every index pair, Hermitian E_k coefficients
by their own closed form rather than as a multiple of G_k, generalized
Bernoulli numbers from a Bernoulli polynomial at every residue
(``generalized_bernoulli_by_polynomials``, the library's route before it
summed integer powers), bounded factoring by trial division by the primes
of a sieve of Eratosthenes, with a Miller-Rabin test of its own
(``prime_factors_by_sieve``; the library splits by Brent's rho and walks
sieve segments), and reduction, verification and solving mod m index by
index, one modular inverse per coefficient (``reduce_mod_p_by_index``,
``verify_congruence_by_index`` and ``solve_lambda_by_index``, the library's
route before it reduced each expansion with one inverse), the index
enumeration of every lattice unordered, with a norm filter on Hermitian
lattices (``enumerate_by_filtering``, the library's route before each
lattice enumerated in canonical order and the index table stopped sorting),
the text form by sorting the support (``serialize_by_sorting``) and Maass
lifts by ``lift_coefficient`` at each index (``lift_by_index``), the
library's routes before it read both from one index table.  The degree-2
forms have the library's routes from before it built them as Maass lifts:
G_k coefficients index by index, by the Siegel closed form with its Moebius
inner sum (``siegel_g_closed_form``) and the Hermitian one with its divisor
sum of g values (``hermitian_g_closed_form``), their constant terms in
closed form (``siegel_g_constant``, ``hermitian_g_constant``), and the cusp
forms as front * (E_k - Q_k(E4, E6)) with full degree-2 products and the
published fronts (``cusp_form_by_products``, ``CUSP_FORM_FRONTS``), where
the library scales each form by its first nonzero alpha.  The Siegel alpha
tables of every weight walk -N = D f^2 (``siegel_alpha_table_by_walk``),
the library's route before it read weights past 4 off the index-1 Jacobi
forms and weight 4 off theta^7 - 14 theta^3 F_2.  The pair (phi0(q^m), alpha)
of a product of two Maass forms by the product rule (``_maass_product``) is
the library's route before it took the alpha of Q_k(E4, E6) by the chain
rule.  ``bernoulli_polynomial``,
``is_p_integral`` and ``PrimeLocalization`` were library names that nothing
in the library called; they serve the tests from here.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, compress, islice, tee
from math import comb, gcd, isqrt
from operator import not_

from eiscong.arith import (
    bernoulli,
    divisor_power_sum,
    divisors,
    format_rational,
    fundamental_decomposition,
    g_value,
    generalized_bernoulli,
    is_fundamental_discriminant,
    is_prime,
    kronecker_character,
    mobius,
    p_valuation,
)
from eiscong.congruence import CongruenceReport
from eiscong.elliptic import IsobaricPolynomial, _basis, elliptic_eisenstein, isobaric_monomials
from eiscong.errors import (
    AllZeroRhs, InsufficientTruncation, NonIntegralCoefficient, NonInvertibleReference, NotInSpace,
)
from eiscong.expansion import (
    ELLIPTIC, TruncatedExpansion, _check_compatible, constant_one, exp_add, exp_multiply,
    exp_scale, lift_coefficient, zero_expansion,
)
from eiscong.hermitian import content, det_scaled
from eiscong.siegel import SIEGEL, _cohen_alpha, content as siegel_content, det4


def bernoulli_binomial_recurrence(n: int) -> list[Fraction]:
    """B_0..B_n with the B_1 = -1/2 convention, by the binomial-sum
    recurrence sum_j C(m+1, j) B_j = 0 restricted to even indices (odd ones
    vanish beyond B_1)."""
    even = [Fraction(1)]  # B_0, B_2, B_4, ...
    while 2 * len(even) <= n:
        m = 2 * len(even)
        acc = Fraction(-(m + 1), 2)  # the j = 1 term, B_1 = -1/2
        for j, b in enumerate(even):
            acc += comb(m + 1, 2 * j) * b
        even.append(-acc / (m + 1))
    out = [Fraction(0)] * (n + 1)
    out[0::2] = even
    if n >= 1:
        out[1] = Fraction(-1, 2)
    return out


def bernoulli_akiyama_tanigawa(n: int) -> list[Fraction]:
    """B_0..B_n with the B_1 = -1/2 convention, via the AT triangle."""
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    # AT yields B_1 = +1/2; flip to the library convention
    if n >= 1:
        out[1] = -out[1]
    return out


def zigzag_numbers(count: int) -> list[int]:
    """The first ``count`` zigzag (Euler up/down) numbers 1, 1, 1, 2, 5,
    16, 61, 272, ... via Seidel's boustrophedon triangle."""
    a = {-1: 0, 0: 1}
    out = []
    k = 0
    e = 1
    for i in range(count):
        am = 0
        a[k + e] = 0
        e = -e
        for _ in range(i + 1):
            am += a[k]
            a[k] = am
            k += e
        out.append(am)
    return out


def bernoulli_tangent(n_max: int) -> dict[int, Fraction]:
    """B_{2n} for 2n <= n_max from tangent numbers T_n = zigzag(2n - 1):
    B_{2n} = (-1)^(n-1) * 2n * T_n / (4^n (4^n - 1))."""
    count = n_max // 2
    zz = zigzag_numbers(2 * count)
    out = {0: Fraction(1)}
    for n in range(1, count + 1):
        t_n = zz[2 * n - 1]
        four_n = 4**n
        b = Fraction(2 * n * t_n, four_n * (four_n - 1))
        if n % 2 == 0:
            b = -b
        out[2 * n] = b
    return out


def bernoulli_polynomial(n: int, x: Fraction) -> Fraction:
    """B_n(x) = sum_j C(n, j) B_j x^(n-j), exact."""
    if n < 0:
        raise ValueError("bernoulli_polynomial expects n >= 0")
    x = Fraction(x)
    acc = Fraction(0)
    for j in range(n + 1):
        acc += comb(n, j) * bernoulli(j) * x ** (n - j)
    return acc


def generalized_bernoulli_by_polynomials(n: int, D: int) -> Fraction:
    """B_{n,chi_D} = f^(n-1) sum_{a=1}^{f} chi_D(a) B_n(a/f), f = |D|."""
    if n < 1:
        raise ValueError("generalized_bernoulli expects n >= 1")
    chi = kronecker_character(D)
    f = abs(D)
    acc = Fraction(0)
    for a in range(1, f + 1):
        c = chi(a)
        if c:
            acc += c * bernoulli_polynomial(n, Fraction(a, f))
    return Fraction(f) ** (n - 1) * acc


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


@lru_cache(maxsize=None)
def _odd_sieve(bits: int) -> bytearray:
    """Byte i is 1 when 2i + 1 is prime, for 2i + 1 < 2^bits: a sieve of
    Eratosthenes over the odd numbers."""
    half = 1 << (bits - 1)
    sieve = bytearray([1]) * half
    sieve[0] = 0
    for i in range(1, (isqrt(2 * half - 1) + 1) // 2):
        if sieve[i]:  # strike p^2, p^2 + 2p, ... for p = 2i + 1
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, half, p)))
    return sieve


def primes_up_to(limit: int):
    """The primes up to ``limit``, in increasing order."""
    if limit < 2:
        return iter(())
    odd = compress(range(3, limit + 1, 2), islice(_odd_sieve(limit.bit_length()), 1, None))
    return chain([2], odd)


def is_strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to every prime base up to 71; a proof below 3.3e24,
    where the first 13 of those bases already suffice (Sorenson and
    Webster, Math. Comp. 2017)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    d = (n - 1) >> s
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors_by_sieve(n: int, bound: int) -> set[int]:
    """Prime factors of |n| found by trial division by the sieved primes up
    to ``bound``, plus a leftover cofactor when it is a strong probable
    prime.  Composite leftovers beyond the bound are dropped."""
    n = abs(n)
    found: set[int] = set()
    if n <= 1:
        return found
    # the primes dividing |n|, tested as the iterators are drawn; a prime
    # above p divides |n| exactly when it divides what is left of it after p
    candidates, tested = tee(primes_up_to(min(bound, isqrt(n))))
    for p in compress(candidates, map(not_, map(n.__mod__, tested))):
        found.add(p)
        while n % p == 0:
            n //= p
        if n == 1 or is_strong_probable_prime(n):
            break
    if n > 1 and is_strong_probable_prime(n):
        found.add(n)
    return found


def delta_eta_product(n_max: int) -> list[int]:
    """Coefficients tau(0..n_max) of q prod (1 - q^n)^24 by naive
    polynomial multiplication."""
    poly = [0] * (n_max + 1)
    poly[0] = 1
    for n in range(1, n_max + 1):
        for _ in range(24):
            new = poly[:]
            for i in range(n, n_max + 1):
                new[i] -= poly[i - n]
            poly = new
    out = [0] * (n_max + 1)
    for i in range(1, n_max + 1):
        out[i] = poly[i - 1]
    return out


def delta_by_basis(n_max: int) -> TruncatedExpansion:
    """Delta = x / 1728, x = E4^3 - E6^2 the u_1 of ``_basis(E4, E6, 12)``."""
    _, x = _basis(elliptic_eisenstein(4, n_max), elliptic_eisenstein(6, n_max), 12)
    return exp_scale(Fraction(1, 1728), x)


def dim_level_one(k: int) -> int:
    """dim M_k(SL2(Z)) by the classical formula."""
    if k < 0 or k % 2 == 1:
        return 0
    if k % 12 == 2:
        return k // 12
    return k // 12 + 1


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


def decompose_by_elimination(f: TruncatedExpansion, k: int) -> IsobaricPolynomial:
    """elliptic.decompose_into_e4_e6 by Gauss-Jordan elimination on the
    (n+1) x d matrix of the monomials' coefficients q^0..q^n, with the
    residual checked at every q^n."""
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
        mono = reduce(exp_multiply, [e4] * a + [e6] * b, constant_one(ELLIPTIC, n_max))
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


# E_k = Q_k(E4, E6) in degree 1, for the weights of the cusp forms
_BOUNDARY_RELATIONS = {
    8: IsobaricPolynomial.from_dict(8, {(2, 0): 1}),
    10: IsobaricPolynomial.from_dict(10, {(1, 1): 1}),
    12: IsobaricPolynomial.from_dict(
        12, {(3, 0): Fraction(441, 691), (0, 2): Fraction(250, 691)}
    ),
}


def evaluate_by_monomials(q: IsobaricPolynomial, e4: TruncatedExpansion,
                          e6: TruncatedExpansion) -> TruncatedExpansion:
    """IsobaricPolynomial.evaluate with every monomial E4^a E6^b built from
    scratch."""
    bound = min(e4.trace_bound, e6.trace_bound)
    lat = e4.lattice
    acc = zero_expansion(lat, q.weight, bound)
    for (a, b), c in q.terms:
        factors = [e4] * a + [e6] * b
        product = reduce(exp_multiply, factors) if factors else constant_one(lat, bound)
        acc = exp_add(acc, exp_scale(c, product))
    return acc


def kronecker_symbol(a: int, n: int) -> int:
    """The Kronecker symbol (a/n) with the standard extension at 2, 0 and
    negative arguments."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a == 0:
        return 1 if n in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    # (a/2) factor: 0 for even a, else +1 if a = +-1 mod 8, -1 if a = +-3.
    while n % 2 == 0:
        if a % 2 == 0:
            return 0
        n //= 2
        if a % 8 in (3, 5):
            result = -result
    # Jacobi symbol (a/n) for odd n > 0 by quadratic reciprocity.
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def chi_via_euler_criterion(D: int, q: int) -> int:
    """chi_D(q) for an odd prime q not dividing D, by Euler's criterion."""
    r = pow(D % q, (q - 1) // 2, q)
    return 1 if r == 1 else -1


def sigma_bruteforce(m: int, N: int) -> int:
    return sum(d**m for d in range(1, N + 1) if N % d == 0)


def _norm_points(lat, bound):
    # lattice points with N(x, y) <= bound; the norm form is positive
    # definite so y is bounded by the minimum of the form on y-lines
    d = lat.disc
    out = []
    ymax = isqrt(4 * bound // -d) if bound >= 0 else -1
    for y in range(-ymax, ymax + 1):
        r = 4 * bound + d * y * y
        if r < 0:
            continue
        s = isqrt(r)
        lo = (-d * y - s) // 2 - 1
        hi = (-d * y + s) // 2 + 1
        for x in range(lo, hi + 1):
            if lat.field.norm(x, y) <= bound:
                out.append((x, y))
    return out


def enumerate_by_filtering(lat, bound) -> list:
    """Every index of trace <= bound, unordered, by the library's route before
    each lattice enumerated in canonical order: (a, c) outer loops, and on a
    Hermitian lattice the (x, y) with N(x, y) <= |d| a c found by a norm
    filter over x ranges widened by one on each side."""
    if lat.space == "elliptic":
        return list(range(bound + 1))
    out = []
    for a in range(bound + 1):
        for c in range(bound - a + 1):
            if lat.space == "siegel":
                m = isqrt(4 * a * c)
                out.extend((a, b2, c) for b2 in range(-m, m + 1))
            else:
                for x, y in _norm_points(lat, -lat.disc * a * c):
                    out.append((a, x, y, c))
    return out


def _index_difference(t, s):
    if isinstance(t, int):
        return t - s
    return tuple(x - y for x, y in zip(t, s))


def reference_product(f: TruncatedExpansion, g: TruncatedExpansion) -> TruncatedExpansion:
    """f * g target by target: each in-bound index t collects f[s] g[t - s]
    over every in-bound index s, with t - s taken componentwise.  A
    difference outside the psd cone is simply absent from g."""
    lat = f.lattice
    bound = min(f.trace_bound, g.trace_bound)
    indices = lat.enumerate_all(bound)
    fc, gc = f.coeffs, g.coeffs  # each a view built on access: read once
    coeffs = {}
    for t in indices:
        acc = Fraction(0)
        for s in indices:
            a = fc.get(s)
            if a is not None:
                acc += a * gc.get(_index_difference(t, s), 0)
        coeffs[t] = acc
    return TruncatedExpansion(lat, f.weight + g.weight, bound, coeffs)


def serialize_by_sorting(f: TruncatedExpansion) -> str:
    """exp_serialize's text by the library's route before it walked the index
    table: the support sorted by ``sort_key``, each key joined by
    ``key_string`` and each value a Fraction through ``format_rational``."""
    lines = [f"space {f.lattice.space}"]
    if f.lattice.disc is not None:
        lines.append(f"disc {f.lattice.disc}")
    lines += [f"weight {f.weight}", f"trace_bound {f.trace_bound}", "coefficients"]
    for idx in f.support():
        lines.append(f"{f.lattice.key_string(idx)} {format_rational(Fraction(f.nums[idx], f.den))}")
    return "\n".join(lines) + "\n"


def lift_by_index(lattice, k: int, bound: int, table, constant) -> TruncatedExpansion:
    """expansion.lift index by index: ``lift_coefficient`` over the indices
    of ``enumerate_all``, with Fraction values, through the public
    constructor."""
    return TruncatedExpansion(lattice, k, bound, {
        t: constant if t == lattice.zero else lift_coefficient(lattice, k, t, table.__getitem__)
        for t in lattice.enumerate_all(bound)})


def hermitian_e_closed_form(field, k: int, h) -> Fraction:
    """Coefficient of E_{k,K} at h, rank by rank: 1 at the zero index,
    -2k/B_k sigma_{k-1}(content) in rank 1, and in rank 2 the divisor sum
    of g values times 4k(k-1) / (B_k B_{k-1,chi})."""
    d = field.disc
    if h == (0, 0, 0, 0):
        return Fraction(1)
    det = det_scaled(field, h)
    eps = content(h)
    if det == 0:
        return Fraction(-2 * k) / bernoulli(k) * divisor_power_sum(k - 1, eps)
    total = sum(e ** (k - 1) * g_value(d, k - 2, det // (e * e))
                for e in divisors(eps))
    return Fraction(4 * k * (k - 1)) / (
        bernoulli(k) * generalized_bernoulli(k - 1, d)
    ) * total


def siegel_g_constant(k: int) -> Fraction:
    """The constant term of the Siegel G_k in closed form."""
    return -bernoulli(k) * bernoulli(2 * k - 2) / (4 * k * (k - 1))


def hermitian_g_constant(d: int, k: int) -> Fraction:
    """The constant term of the Hermitian G_{k,K} over disc d in closed form."""
    return bernoulli(k) * generalized_bernoulli(k - 1, d) / (4 * k * (k - 1))


def siegel_alpha_table_by_walk(k: int, n: int) -> tuple:
    """(g_alpha(k, 0), ..., g_alpha(k, n)) on Siegel, walking -N = D f^2."""
    table = [SIEGEL.g_alpha(k, 0), *[0] * n]
    for D in range(-3, -n - 1, -1):
        if D % 4 in (0, 1) and is_fundamental_discriminant(D):
            for f in range(1, isqrt(n // -D) + 1):
                table[-D * f * f] = _cohen_alpha(k, D, f)
    return tuple(table)


def siegel_g_closed_form(k: int, t) -> Fraction:
    """Coefficient of the Siegel G_k at a psd index t: the rank-0 and rank-1
    closed forms, and in rank 2 the divisor sum over the content with the
    Moebius inner sum over the square part f of -det4(t) = D f^2."""
    if t == (0, 0, 0):
        return siegel_g_constant(k)
    if det4(t) == 0:
        return bernoulli(2 * k - 2) / (2 * k - 2) * divisor_power_sum(
            k - 1, siegel_content(t))
    D, f = fundamental_decomposition(-det4(t))
    chi = kronecker_character(D)
    eps = siegel_content(t)
    total = 0
    for d in divisors(eps):
        inner = 0
        for g in divisors(f // d):
            mg = mobius(g)
            if mg == 0:
                continue
            cg = chi(g)
            if cg == 0:
                continue
            inner += mg * cg * g ** (k - 2) * divisor_power_sum(2 * k - 3, f // (g * d))
        total += d ** (k - 1) * inner
    return generalized_bernoulli(k - 1, D) / (k - 1) * total


def hermitian_g_closed_form(field, k: int, h) -> Fraction:
    """Coefficient of the Hermitian G_{k,K} at a psd index h: the rank-0 and
    rank-1 closed forms, and in rank 2 the divisor sum of g values."""
    d = field.disc
    if h == (0, 0, 0, 0):
        return hermitian_g_constant(d, k)
    det = det_scaled(field, h)
    eps = content(h)
    if det == 0:
        return -generalized_bernoulli(k - 1, d) / (2 * k - 2) * divisor_power_sum(
            k - 1, eps
        )
    total = 0
    for e in divisors(eps):
        total += e ** (k - 1) * g_value(d, k - 2, det // (e * e))
    return Fraction(total)


def closed_form_expansion(lattice, k: int, bound: int, coefficient) -> TruncatedExpansion:
    """The expansion of ``coefficient(t)`` over every index of trace <= bound."""
    return TruncatedExpansion(lattice, k, bound, {
        t: coefficient(t) for t in lattice.enumerate_all(bound)})


# (space, disc, name) -> (weight k, front): the published normalizations of
# the cusp forms, whose numerators are the moduli of their congruences
CUSP_FORM_FRONTS = {
    ("siegel", None, "X10"): (10, Fraction(-43867, 2**10 * 3**5 * 5**2 * 7 * 53)),
    ("siegel", None, "X12"): (
        12, Fraction(-691 * 131 * 593, 2**11 * 3**6 * 5**3 * 7**2 * 337)
    ),
    ("hermitian", -4, "CHI8"): (8, Fraction(-61, 230400)),
    ("hermitian", -4, "F10"): (10, Fraction(-277, 2419200)),
    ("hermitian", -3, "F10"): (10, Fraction(-809, 21772800)),
    ("hermitian", -3, "F12"): (12, Fraction(-691 * 1847, 36578304000)),
}


def cusp_form_by_products(key, eis) -> TruncatedExpansion:
    """The cusp form ``key`` as front * (E_k - Q_k(E4, E6)), with its weight
    and front from ``CUSP_FORM_FRONTS`` and the degree-2 products of Q_k
    taken in full; eis(k) gives the degree-2 E_k."""
    k, front = CUSP_FORM_FRONTS[key]
    q = _BOUNDARY_RELATIONS[k]
    e4 = eis(4)
    e6 = eis(6) if any(b for (_, b), _ in q.terms) else e4  # Q_8 = E4^2 needs no E6
    return exp_scale(front, exp_add(eis(k), exp_scale(-1, evaluate_by_monomials(q, e4, e6))))


def _maass_product(f, g):
    """The pair (phi0(q^m), alpha) of the product of two Maass forms."""
    (fphi, falpha), (gphi, galpha) = f, g
    return exp_multiply(fphi, gphi), exp_add(exp_multiply(fphi, galpha), exp_multiply(falpha, gphi))


def is_p_integral(q: Fraction, p: int) -> bool:
    return p_valuation(q, p) >= 0


@dataclass(frozen=True)
class PrimeLocalization:
    """Membership tests for the local ring Z_(p)."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def valuation(self, q: Fraction):
        return p_valuation(q, self.p)

    def is_integral(self, q: Fraction) -> bool:
        return is_p_integral(q, self.p)


def _residue(value: Fraction, modulus: int, key):
    num, den = value.numerator, value.denominator
    if gcd(den, modulus) != 1:
        raise NonIntegralCoefficient(key, modulus)
    return num * pow(den, -1, modulus) % modulus


def reduce_mod_p_by_index(f: TruncatedExpansion, modulus: int) -> dict:
    lat = f.lattice
    out = {}
    for idx in sorted(lat.enumerate_all(f.trace_bound), key=lat.sort_key):
        out[idx] = _residue(f.coefficient(idx), modulus, lat.key_string(idx))
    return out


def verify_congruence_by_index(
    f: TruncatedExpansion, g: TruncatedExpansion, modulus: int, multiplier: int
) -> CongruenceReport:
    _check_compatible(f, g)
    lat = f.lattice
    bound = min(f.trace_bound, g.trace_bound)
    multiplier %= modulus
    checked = 0
    failure = None
    for idx in sorted(lat.enumerate_all(bound), key=lat.sort_key):
        key = lat.key_string(idx)
        lhs = _residue(f.coefficient(idx), modulus, key)
        rhs = _residue(g.coefficient(idx), modulus, key) * multiplier % modulus
        checked += 1
        if lhs != rhs and failure is None:
            failure = (key, lhs, rhs)
    return CongruenceReport(modulus, multiplier, failure is None, checked, failure)


def solve_lambda_by_index(
    f: TruncatedExpansion, g: TruncatedExpansion, modulus: int
) -> CongruenceReport:
    _check_compatible(f, g)
    lat = f.lattice
    bound = min(f.trace_bound, g.trace_bound)
    for idx in sorted(lat.enumerate_all(bound), key=lat.sort_key):
        key = lat.key_string(idx)
        rhs = _residue(g.coefficient(idx), modulus, key)
        if rhs == 0:
            continue
        if gcd(rhs, modulus) != 1:
            raise NonInvertibleReference(
                f"reference coefficient at {key} is not invertible mod {modulus}"
            )
        lam = _residue(f.coefficient(idx), modulus, key) * pow(rhs, -1, modulus)
        return verify_congruence_by_index(f, g, modulus, lam % modulus)
    raise AllZeroRhs(f"rhs vanishes identically mod {modulus}")
