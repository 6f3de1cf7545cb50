"""Independent oracles used by the tests.

These deliberately take different routes than the library: Bernoulli
numbers via the binomial-sum recurrence (``bernoulli_binomial_recurrence``,
the library's route before it built its table from tangent numbers), via
the Akiyama-Tanigawa triangle and via Seidel's zigzag triangle, Delta
via the eta product, chi values via Euler's criterion, expansion products
target by target over every index pair, Hermitian E_k coefficients by their
own closed form rather than as a multiple of G_k, generalized Bernoulli
numbers from a Bernoulli polynomial at every residue
(``generalized_bernoulli_by_polynomials``, the library's route before it
summed integer powers), and bounded factoring by a candidate-by-candidate
walk of the 6k+-1 wheel (``prime_factors_by_wheel``, the library's route
before it tested whole chunks of the wheel at once).
"""

from fractions import Fraction
from math import comb

from eiscong.arith import (
    _wheel_candidates,
    bernoulli,
    bernoulli_polynomial,
    divisor_power_sum,
    divisors,
    g_value,
    generalized_bernoulli,
    is_prime,
    kronecker_character,
)
from eiscong.expansion import TruncatedExpansion
from eiscong.hermitian import content, det_scaled


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


def prime_factors_by_wheel(n: int, bound: int) -> set[int]:
    """Prime factors of |n| found by trial division below ``bound``, plus a
    leftover cofactor when it certifies prime.  Composite leftovers beyond
    the bound are dropped."""
    n = abs(n)
    found: set[int] = set()
    if n <= 1:
        return found
    for c in _wheel_candidates():
        if c > bound or c * c > n:
            break
        if n % c == 0:
            found.add(c)
            while n % c == 0:
                n //= c
            if n == 1:
                break
            if is_prime(n):
                found.add(n)
                n = 1
                break
    if n > 1 and is_prime(n):
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


def chi_via_euler_criterion(D: int, q: int) -> int:
    """chi_D(q) for an odd prime q not dividing D, by Euler's criterion."""
    r = pow(D % q, (q - 1) // 2, q)
    return 1 if r == 1 else -1


def sigma_bruteforce(m: int, N: int) -> int:
    return sum(d**m for d in range(1, N + 1) if N % d == 0)


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
    coeffs = {}
    for t in indices:
        acc = Fraction(0)
        for s in indices:
            a = f.coeffs.get(s)
            if a is not None:
                acc += a * g.coeffs.get(_index_difference(t, s), 0)
        coeffs[t] = acc
    return TruncatedExpansion(lat, f.weight + g.weight, bound, coeffs)


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
