"""Exact scalar kernel.

Bernoulli numbers, Kronecker characters of fundamental discriminants,
character-twisted divisor sums, and p-adic valuations of rationals.
Everything is computed over ``fractions.Fraction`` / Python
integers; no floating point enters anywhere.

The even Bernoulli numbers live in one shared table built from tangent
numbers in integers only, by the in-place recurrence of Brent and Harvey
(*Fast computation of Bernoulli, Tangent and Secant numbers*, 2011), and
each entry is formed once as a ``Fraction``.  Rationals print and parse
exactly at any size, past the interpreter's int/str digit limit.

The generalized Bernoulli numbers B_{n,chi} behind Cohen's function
H(k-1, N) (H. Cohen, *Sums involving the values at negative integers of
L-functions of quadratic characters*, Math. Ann. 1975) are about n/2
integer terms over exact power sums of the character on half the residues
(see ``generalized_bernoulli``), not f*n polynomial evaluations.
"""

from __future__ import annotations

import decimal
import math
import threading
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, gcd, isqrt

from .errors import (
    IntegralityViolation,
    InvalidDiscriminantResidue,
    NonFundamentalDiscriminant,
)

#: Marker returned by p_valuation(0, p).
INFINITE_VALUATION = math.inf

# Witnesses that make Miller-Rabin deterministic for n < 3.317e24.
_MR_BASES_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
# Beyond the deterministic range we add further fixed bases; the answer is
# then "probable prime", and ``scan condition-b`` marks such primes.
_MR_BASES_LARGE = _MR_BASES_SMALL + (41, 43, 47, 53, 59, 61, 67, 71, 73, 79)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (for n < 3.3e24)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = _MR_BASES_SMALL if n < MR_DETERMINISTIC_BOUND else _MR_BASES_LARGE
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _wheel_candidates() -> Iterator[int]:
    # 2, 3 and then the 6k+-1 wheel; composites in the stream are harmless
    # for trial division because their prime factors come first.
    yield 2
    yield 3
    c = 5
    step = 2
    while True:
        yield c
        c += step
        step = 6 - step


def primes(limit: int | None = None) -> Iterator[int]:
    """Yield primes in increasing order, optionally stopping below ``limit``."""
    for c in _wheel_candidates():
        if limit is not None and c >= limit:
            return
        if is_prime(c):
            yield c


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by wheel trial division."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in _wheel_candidates():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius expects n >= 1")
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(abs(n)).values())


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

# B_0, B_2, B_4, ... ; only ever extended, under a lock, so concurrent first
# use cannot interleave appends and an entry once read never changes.
_BERN_EVEN: list[Fraction] = [Fraction(1)]
_BERN_LOCK = threading.Lock()


def _tangent_numbers(n: int) -> list[int]:
    """[0, T_1, ..., T_n], the tangent numbers, by the in-place recurrence of
    Brent and Harvey: O(n^2) integer operations, no fractions."""
    T = [0, 1]
    for k in range(2, n + 1):
        T.append((k - 1) * T[k - 1])
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return T


def bernoulli(m: int) -> Fraction:
    """The m-th Bernoulli number, convention B_1 = -1/2.

    Even indices come from a cached table built from tangent numbers
    (Brent and Harvey, "Fast computation of Bernoulli, Tangent and Secant
    numbers", 2011): B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).  A miss
    rebuilds the tangent numbers up to max(k, len + len // 4) and appends the
    new entries: growing requests cost a few builds, not one each, and one
    just past the table does not double it.
    Odd indices beyond B_1 vanish.
    """
    if m < 0:
        raise ValueError("bernoulli expects m >= 0")
    if m == 1:
        return Fraction(-1, 2)
    if m % 2 == 1:
        return Fraction(0)
    k = m // 2
    if k >= len(_BERN_EVEN):
        with _BERN_LOCK:
            have = len(_BERN_EVEN)
            if k >= have:
                n = max(k, have + have // 4)
                T = _tangent_numbers(n)
                new = []
                for i in range(have, n + 1):
                    four_i = 4**i
                    b = Fraction(2 * i * T[i], four_i * (four_i - 1))
                    new.append(b if i % 2 else -b)
                _BERN_EVEN.extend(new)
    return _BERN_EVEN[k]


# ---------------------------------------------------------------------------
# Kronecker characters
# ---------------------------------------------------------------------------


def is_fundamental_discriminant(D: int) -> bool:
    """Discriminant of a quadratic field: D=1 mod 4 squarefree, or D=4m
    with m=2,3 mod 4 squarefree."""
    if D == 0:
        return False
    if D % 4 == 1:
        return squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and squarefree(m)
    return False


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


class KroneckerCharacter(namedtuple("KroneckerCharacter", "discriminant table")):
    """The real character chi_D = (D/.) of a fundamental discriminant D,
    tabulated over one period: ``table[r]`` is chi_D(r) for 0 <= r < |D|."""

    __slots__ = ()

    @property
    def modulus(self) -> int:
        return abs(self.discriminant)

    def __call__(self, n: int) -> int:
        table = self.table
        return table[n % len(table)]


@lru_cache(maxsize=None)
def kronecker_character(D: int) -> KroneckerCharacter:
    if not is_fundamental_discriminant(D):
        raise NonFundamentalDiscriminant(f"{D} is not a fundamental discriminant")
    table = tuple(kronecker_symbol(D, r) for r in range(abs(D)))
    return KroneckerCharacter(D, table)


def kronecker_chi(D: int, n: int) -> int:
    """chi_D(n) for fundamental D."""
    return kronecker_character(D)(n)


# ---------------------------------------------------------------------------
# Generalized Bernoulli numbers and twisted divisor sums
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def generalized_bernoulli(n: int, D: int) -> Fraction:
    """B_{n,chi_D} for a fundamental discriminant D, f = |D|: the definition
    f^(n-1) sum_{a=1}^{f} chi(a) B_n(a/f) (Washington, *Introduction to
    Cyclotomic Fields*, Prop. 4.1) with B_n(x) expanded once,

        B_{n,chi} = sum_{j=0}^{n} C(n, j) B_j f^(j-1) S_{n-j},  S_i = sum_{a=1}^{f} chi(a) a^i,

    over exact integer power sums and the j = 0, 1 and even j terms only.
    For f > 1 it is 0 unless chi(-1) = (-1)^n, and then the terms at a and
    f - a agree: S_i runs over a <= f/2, doubled, in integers over one lcm.
    """
    if n < 1:
        raise ValueError("generalized_bernoulli expects n >= 1")
    chi = kronecker_character(D)
    f = abs(D)
    if f > 1 and chi(-1) != (-1) ** n:
        return Fraction(0)
    bernoulli(n - n % 2)  # the largest B_j used: one table build, not a chain
    values = chi.table[1:f // 2 + 1] if f > 1 else (1,)  # chi(1), ..., chi(f/2)
    plus = [a for a, c in enumerate(values, 1) if c == 1]
    minus = [a for a, c in enumerate(values, 1) if c == -1]
    bs = [(j, bernoulli(j)) for j in (0, 1, *range(2, n + 1, 2))]
    den = math.lcm(*(b.denominator for _, b in bs))
    acc = 0
    for j, b in bs:
        s = sum(map(pow, plus, repeat(n - j))) - sum(map(pow, minus, repeat(n - j)))
        acc += comb(n, j) * f**j * s * b.numerator * (den // b.denominator)
    return Fraction(acc if f == 1 else 2 * acc, f * den)


def divisor_power_sum(
    m: int,
    N: int,
    char: KroneckerCharacter | None = None,
    star: bool = False,
) -> int:
    """sigma_m(N), or its chi-twists sigma_{m,chi} / sigma*_{m,chi}.

    With a character: star=False sums chi(d) d^m over divisors d, star=True
    sums chi(N/d) d^m.
    """
    if N < 1:
        raise ValueError("divisor_power_sum expects N >= 1")
    if char is None:
        return sum(d**m for d in divisors(N))
    if star:
        return sum(char(N // d) * d**m for d in divisors(N))
    return sum(char(d) * d**m for d in divisors(N))


def g_value(D: int, m: int, N: int) -> int:
    """(sigma_{m,chi_D}(N) - sigma*_{m,chi_D}(N)) / (1 + |chi_D(N)|),
    always an exact integer."""
    chi = kronecker_character(D)
    diff = sum((chi(d) - chi(N // d)) * d**m for d in divisors(N))
    q, r = divmod(diff, 1 + abs(chi(N)))
    if r:
        raise IntegralityViolation(f"g_value({D}, {m}, {N}) is not integral")
    return q


def fundamental_decomposition(N: int) -> tuple[int, int]:
    """Write N < 0 as D*f^2 with D a fundamental discriminant; unique."""
    if N >= 0 or N % 4 not in (0, 1):
        raise InvalidDiscriminantResidue(f"{N} is not 0 or 1 mod 4 and negative")
    for f in range(isqrt(-N), 0, -1):
        if N % (f * f) == 0 and is_fundamental_discriminant(N // (f * f)):
            return N // (f * f), f
    raise InvalidDiscriminantResidue(f"no fundamental decomposition of {N}")


# ---------------------------------------------------------------------------
# p-adic valuations
# ---------------------------------------------------------------------------


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_valuation(q: Fraction, p: int):
    """v_p of a rational; math.inf for 0."""
    q = Fraction(q)
    if q == 0:
        return INFINITE_VALUATION
    return _int_valuation(q.numerator, p) - _int_valuation(q.denominator, p)


# ---------------------------------------------------------------------------
# Rational serialization
# ---------------------------------------------------------------------------


# str(int) and int(str) refuse more digits than sys.get_int_max_str_digits()
# (4300 by default).  decimal converts exactly at any size; a context of its
# own keeps the conversion independent of the caller's decimal settings.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def format_rational(q: Fraction) -> str:
    """"num/den" in lowest terms, denominator positive; integers as "n".
    Exact at any size, past the interpreter's int-to-str digit limit too."""
    q = q if isinstance(q, Fraction) else Fraction(q)  # Fraction(q) copies slowly
    try:
        return str(q)
    except ValueError:  # beyond the digit limit
        num = str(_EXACT.create_decimal(q.numerator))
        if q.denominator == 1:
            return num
        return f"{num}/{_EXACT.create_decimal(q.denominator)}"


def parse_rational(s: str) -> Fraction:
    """Inverse of format_rational, at any size: s, less surrounding
    whitespace, must be a token ``-?[0-9]+(/[0-9]+)?`` (see parse_ratio)."""
    return Fraction(*parse_ratio(s.strip()))


def parse_ratio(s: str) -> tuple[int, int]:
    """(n, d), d > 0, read from a token ``-?[0-9]+(/[0-9]+)?`` of ASCII
    digits at any size; it need not be reduced, and leading zeros are read.
    Any other token is a ValueError, and a zero denominator a
    ZeroDivisionError."""
    num, slash, den = s.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if not (s.isascii() and digits.isdigit() and (den.isdigit() or not slash)):
        raise ValueError(f"not a rational n or n/d: {s[:20]!r}")
    try:
        n, d = int(num), int(den or 1)
    except ValueError:  # past the int-to-str digit limit
        n, d = (int(_EXACT.create_decimal(g)) for g in (num, den or 1))
    if not d:
        raise ZeroDivisionError(f"zero denominator in {s[:20]!r}")
    return n, d
