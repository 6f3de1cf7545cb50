"""Mod-p machinery: reduction of expansions, congruence verification and
multiplier solving, divisibility scanners, non-triviality witnesses, and
the cusp-correction construction.

``solve_lambda`` reads lambda at the first canonical index where the reference
does not vanish mod m, and ``verify_congruence`` decides: between two lifts the
library built (``TruncatedExpansion.lifted_from``) it checks their alpha series
through ``_check_at``, else it walks every index of trace <= B.  A weight-k lift
has a(T) = sum over d | content(T) of d^(k-1) alpha(det(T) / d^2) at T != 0
(Eichler and Zagier, §6; Krieg, Math. Ann. 1991), and every det at trace <= B is
at most ``alpha_length(B)``.  So for lifts f and g of one weight on one lattice,
with the denominators of both alpha series and both constant terms prime to m,
every coefficient is m-integral, and f - lambda g, the lift of (alpha_f - lambda
alpha_g, c_f - lambda c_g), is 0 mod m at every index once c_f = lambda c_g and
alpha_f(N) = lambda alpha_g(N) mod m for every N <= ``alpha_length(B)``: 37 to
145 values at Hermitian B = 7 and Siegel B = 12.  The condition is sufficient,
not necessary: where it fails, the walk gives the report or the error.

The condition-B scanner factors numerators of B_{k-1,chi} up to 10^7.
It divides out 2, 3, 5 and 7, splits the rest with Brent's variant of
Pollard rho (Brent, *An improved Monte Carlo factorization algorithm*, BIT
1980) under a fixed step budget, and walks by trial division only a piece
that rho cannot split, by the primes each segment of the sieve in
``arith`` leaves.  The answer is exact whatever rho does: the primes up to
the bound, plus the leftover when it tests prime, else the leftover as an
unfactored cofactor (see ``_prime_factors_bounded``).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from math import gcd, isqrt

from .arith import (
    _odd_sieve,
    bernoulli,
    factorize,
    generalized_bernoulli,
    is_fundamental_discriminant,
    is_prime,
    kronecker_character,
    p_valuation,
    primes,
)
from .elliptic import decompose_into_e4_e6
from .errors import (
    AllZeroRhs,
    NonIntegralCoefficient,
    NonInvertibleReference,
    SpaceMismatch,
    WitnessSearchExhausted,
)
from .expansion import (
    ELLIPTIC, TruncatedExpansion, _check_compatible, eisenstein, exp_add, exp_scale, phi_operator,
)


class CongruenceReport(namedtuple("CongruenceReport", "modulus multiplier verified "
                                  "indices_checked first_failure", defaults=(None,))):
    """Outcome of a coefficient-wise congruence check f = lambda * g mod m;
    ``first_failure`` is None or (key string, lhs residue, rhs residue)."""

    __slots__ = ()

    def to_text(self) -> str:
        lines = [
            f"modulus {self.modulus}",
            f"lambda {self.multiplier}",
            f"verified {str(self.verified).lower()}",
            f"indices_checked {self.indices_checked}",
        ]
        if self.first_failure is not None:
            key, lhs, rhs = self.first_failure
            lines.append(f"first_failure {key} {lhs} {rhs}")
        return "\n".join(lines) + "\n"


class WitnessReport(namedtuple("WitnessReport", "q chi_value pow_residue method")):
    """A prime q with chi_K(q) = -1 whose power q^(k-2) is not 1 mod p;
    ``method`` is "direct-search" or "crt-construction"."""

    __slots__ = ()


def _require_modulus(modulus: int):
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")


def _residue(num: int, den: int, modulus: int, lat, idx):
    g = gcd(num, den)
    if gcd(den // g, modulus) != 1:
        raise NonIntegralCoefficient(lat.key_string(idx), modulus)
    return num // g * pow(den // g, -1, modulus) % modulus


def _residues(modulus: int, *expansions) -> list:
    """For each expansion, a lookup ``at(idx, 0)`` of its coefficient mod
    ``modulus`` (a ValueError below 1), 0 off the support.

    When the expansion's denominator is prime to the modulus, one inverse
    of it reduces every numerator up front.  Otherwise each lookup reduces
    its own coefficient, so a canonical walk raises NonIntegralCoefficient
    where a walk of per-index reductions would.
    """
    _require_modulus(modulus)
    lookups = []
    for f in expansions:
        if gcd(f.den, modulus) == 1:
            inverse = pow(f.den, -1, modulus)
            lookups.append({idx: n * inverse % modulus for idx, n in f.nums.items()}.get)
        else:
            lookups.append(lambda idx, _, f=f: _residue(
                f.nums.get(idx, 0), f.den, modulus, f.lattice, idx))
    return lookups


def reduce_mod_p(f: TruncatedExpansion, modulus: int) -> dict:
    """Reduce every in-bound coefficient to [0, modulus); raises
    NonIntegralCoefficient at the first index whose denominator meets the
    modulus."""
    [at] = _residues(modulus, f)
    return {idx: at(idx, 0) for idx in f.lattice.indices(f.trace_bound)}


def _check_at(lat, modulus, multiplier, lhs_at, rhs_at, indices) -> CongruenceReport:
    """The report of lhs = multiplier * rhs mod modulus over the indices."""
    failure = None
    for idx in indices:
        lhs = lhs_at(idx, 0)
        rhs = rhs_at(idx, 0) * multiplier % modulus
        if lhs != rhs and failure is None:
            failure = (lat.key_string(idx), lhs, rhs)
    return CongruenceReport(modulus, multiplier, failure is None, len(indices), failure)


def _lift_report(f, g, modulus: int, multiplier: int):
    """The verified report of f = multiplier * g mod modulus on the data of two
    lifts (module docstring): the constant terms, and the alpha series through
    ``_check_at``; None, for the walk, wherever the data do not decide."""
    if f.lifted_from is None or g.lifted_from is None or modulus < 1:
        return None
    (f_alpha, f_const), (g_alpha, g_const) = f.lifted_from, g.lifted_from
    if any(gcd(d, modulus) != 1
           for d in (f_alpha.den, g_alpha.den, f_const.denominator, g_const.denominator)):
        return None
    multiplier %= modulus
    bound = min(f.trace_bound, g.trace_bound)
    if (f_const - multiplier * g_const).numerator % modulus or not _check_at(
            ELLIPTIC, modulus, multiplier, *_residues(modulus, f_alpha, g_alpha),
            range(f.lattice.alpha_length(bound) + 1)).verified:
        return None
    return CongruenceReport(modulus, multiplier, True, len(f.lattice.indices(bound)))


def verify_congruence(
    f: TruncatedExpansion, g: TruncatedExpansion, modulus: int, multiplier: int
) -> CongruenceReport:
    """Check f = multiplier * g mod modulus at every in-bound index: on the data
    of two lifts where they decide (``_lift_report``; the module docstring gives
    the condition and its proof), else by walking the indices."""
    _check_compatible(f, g)
    report = _lift_report(f, g, modulus, multiplier)
    if report is not None:
        return report
    lhs_at, rhs_at = _residues(modulus, f, g)
    indices = f.lattice.indices(min(f.trace_bound, g.trace_bound))
    return _check_at(f.lattice, modulus, multiplier % modulus, lhs_at, rhs_at, indices)


def solve_lambda(
    f: TruncatedExpansion, g: TruncatedExpansion, modulus: int
) -> CongruenceReport:
    """Read the multiplier at the first index (canonical order) where g does
    not vanish mod modulus, as f's residue there over g's, and return
    ``verify_congruence`` with it."""
    _check_compatible(f, g)
    _require_modulus(modulus)
    lat = f.lattice
    for idx in lat.indices(min(f.trace_bound, g.trace_bound)):
        rhs = _residue(g.nums.get(idx, 0), g.den, modulus, lat, idx)
        if rhs == 0:
            continue
        if gcd(rhs, modulus) != 1:
            raise NonInvertibleReference(
                f"reference coefficient at {lat.key_string(idx)} is not invertible mod {modulus}"
            )
        lhs = _residue(f.nums.get(idx, 0), f.den, modulus, lat, idx)
        return verify_congruence(f, g, modulus, lhs * pow(rhs, -1, modulus) % modulus)
    raise AllZeroRhs(f"rhs vanishes identically mod {modulus}")


def cusp_correction(g: TruncatedExpansion) -> TruncatedExpansion:
    """Subtract the Eisenstein polynomial matching the boundary image:
    returns g - Q(E4, E6) where Phi(g) = Q(E4, E6) in degree 1; the result
    has vanishing Phi up to the truncation."""
    if g.lattice.space == "elliptic":
        raise SpaceMismatch("cusp_correction expects a degree-2 expansion, got elliptic")
    q_poly = decompose_into_e4_e6(phi_operator(g), g.weight)
    e4, e6 = (eisenstein(g.lattice, "E", j, g.trace_bound) for j in (4, 6))
    return exp_add(g, exp_scale(-1, q_poly.evaluate(e4, e6)))


# ---------------------------------------------------------------------------
# Scanners
# ---------------------------------------------------------------------------


def irregular_pairs(p_max: int) -> list[tuple[int, int]]:
    """All (p, m) with p <= p_max prime, m even, 1 < m < p and p dividing
    the numerator of B_m."""
    if p_max < 3:
        raise ValueError("p_max must be >= 3")
    ps = primes(p_max + 1)
    if ps[-1] > 3:
        bernoulli(ps[-1] - 3)  # the largest B_m tested: one table build, not a chain
    nums = [bernoulli(m).numerator for m in range(0, ps[-1] - 2, 2)]  # B_m at m // 2
    return [(p, m) for p in ps for m in range(2, p - 2, 2) if nums[m // 2] % p == 0]


# The 48 offsets r in [0, 210) with a + r prime to 210 = 2*3*5*7 for
# a = 10 (mod 210), from 1 to 201: the trial walk keeps every chunk start
# a in that class, so a chunk [a, b) holds exactly the a + r + 210*j < b.
_WHEEL_210 = tuple(r for r in range(210) if gcd(10 + r, 210) == 1)
# Steps of Brent's rho per unit of isqrt(bound); rho meets a prime p after
# about 1.3*sqrt(p) steps on average, and its rounds double.
_RHO_STEPS = 8
_RHO_BATCH = 128  # products |x - y| taken per gcd
CONDITION_B_BOUND = 10**7  # condition-B scans find every prime factor up to it


def _brent_split(n: int, budget: int) -> int:
    """A proper divisor of the composite n by Brent's rho, or 1 once
    ``budget`` steps of y -> y^2 + c mod n are spent.

    Deterministic: y starts at 2 and c runs 1, 2, ... while a round ends
    in gcd = n.
    """
    steps, c = 0, 0
    while steps < budget:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and steps < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys, m = y, min(_RHO_BATCH, r - k)
                for _ in range(m):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m
            steps += r + k
            r *= 2
        if g == n:  # the batch overshot: retake it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g
    return 1


def _trial_walk(n: int, bound: int) -> set[int]:
    """The primes up to ``bound`` that divide n, where n has no factor 2,
    3, 5 or 7 up to the bound, by trial division by primes only.

    A chunk [a, b) is an odd-only segment from ``arith._odd_sieve``, by
    the primes from 11 to isqrt(b) that ``arith.primes`` lists once per
    call.  Each class a + r prime to 210 is the slice seg[(r - 1) / 2::105]
    under ``compress``, tested in C, so only a prime costs a mod (one
    ``compress`` over all odd numbers was no faster: it builds as many more
    integers as it saves mods).  Only a chunk that holds a divisor is
    walked in Python, in increasing order.  Chunks
    double from 8 to 2^10 steps of 210, so a small factor is met early and
    a segment is at most 105 KiB, and start at 10 (mod 210), so no class
    is skipped at an edge.  The walk stops at the bound, once c^2 > n, or
    once the cofactor is prime.
    """
    found: set[int] = set()
    sieving = primes(isqrt(min(bound, isqrt(n))) + 1)[4:]  # from 11 on
    a, width = 10, 8
    while a + 1 <= min(bound, isqrt(n)):
        b = min(a + 210 * width, bound + 1, isqrt(n) + 1)
        seg = _odd_sieve(a, b, sieving)  # seg[i] flags a + 1 + 2i
        if not all(all(map(n.__mod__, compress(range(a + r, b, 210), seg[(r - 1) // 2::105])))
                   for r in _WHEEL_210):
            # the flags pass multiples of 3, 5 and 7 too, which never divide n
            for c in compress(range(a + 1, b, 2), seg):
                if n % c:
                    continue
                found.add(c)
                while n % c == 0:
                    n //= c
                if n == 1 or is_prime(n):
                    if 1 < n <= bound:
                        found.add(n)
                    return found
        del seg  # freed before the next is built: one segment in memory, not two
        a, width = b, min(2 * width, 2**10)
    if 1 < n <= bound:  # no factor up to sqrt(n): n is prime
        found.add(n)
    return found


def _remove_primes(n: int, ps) -> int:
    for p in ps:
        while n % p == 0:
            n //= p
    return n


def _prime_factors_bounded(n: int, bound: int) -> tuple[set[int], int]:
    """Prime factors of |n| up to ``bound``, plus a leftover cofactor when
    it tests prime; and the cofactor left over unfactored: 1 when |n|
    factors completely, a composite with no prime factor up to ``bound``
    otherwise, and 0 for n = 0.

    Exactly: let S be the primes up to ``bound`` dividing |n| and R be |n|
    with their powers removed.  The result is (S, 1) when R = 1,
    (S | {R}, 1) when ``is_prime(R)``, and (S, R) otherwise.

    The factors 2, 3, 5 and 7 are divided out first.  Brent's variant of
    Pollard rho (Brent, *An improved Monte Carlo factorization algorithm*,
    BIT 1980) then splits the rest, with a budget of a small multiple of
    isqrt(bound) steps per piece, enough to meet any prime factor up to
    the bound with high probability.  Each piece is certified with
    ``is_prime``.  Only a piece that rho cannot split is walked by trial
    division to the bound (``_trial_walk``), so the result never depends
    on rho's luck; above ``MR_DETERMINISTIC_BOUND`` it relies on
    ``is_prime`` as the walk's early exit does.
    """
    n = abs(n)
    if n <= 1:
        return set(), n
    found = {p for p in (2, 3, 5, 7) if p <= bound and n % p == 0}
    budget = _RHO_STEPS * isqrt(max(bound, 0))
    pieces = [_remove_primes(n, found)]
    while pieces:
        x = pieces.pop()
        if x == 1:
            continue
        if is_prime(x):
            if x <= bound:
                found.add(x)
            continue
        d = _brent_split(x, budget)
        if d > 1:
            pieces += [d, x // d]
        else:
            found |= _trial_walk(x, bound)
    rest = _remove_primes(n, found)
    if rest > 1 and is_prime(rest):
        return found | {rest}, 1
    return found, rest


def condition_b_factors(disc: int, k_max: int) -> dict[int, tuple[list[int], int]]:
    """For each even weight 4 <= k <= k_max, the primes p > k + 1 found
    dividing the numerator of the (k-1)-th generalized Bernoulli number of
    the field character, and the cofactor of that numerator left unfactored:
    1, or a composite with no prime factor up to ``CONDITION_B_BOUND`` = 10^7
    (0 if it vanishes).  A positive ``disc``, a real field, is a ValueError."""
    if disc > 0:
        raise ValueError(f"condition B needs an imaginary quadratic field, got disc {disc}")
    out: dict[int, tuple[list[int], int]] = {}
    for k in range(4, k_max + 1, 2):
        num = generalized_bernoulli(k - 1, disc).numerator
        ps, rest = _prime_factors_bounded(num, CONDITION_B_BOUND)
        out[k] = (sorted(p for p in ps if p > k + 1), rest)
    return out


def condition_b_primes(disc: int, k_max: int) -> dict[int, list[int]]:
    """The primes of ``condition_b_factors`` for k = 4, 6, ..., k_max,
    without the unfactored cofactors."""
    return {k: ps for k, (ps, _) in condition_b_factors(disc, k_max).items()}


def condition_a_check(disc: int, p: int) -> bool:
    """True iff p divides neither the 3rd nor the 5th generalized Bernoulli
    number of the field character."""
    return (
        p_valuation(generalized_bernoulli(3, disc), p) <= 0
        and p_valuation(generalized_bernoulli(5, disc), p) <= 0
    )


def _primitive_root(p: int) -> int:
    fac = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise ValueError(f"no primitive root mod {p}")


def nontriviality_witness(
    disc: int,
    k: int,
    p: int,
    *,
    direct_limit: int = 10**5,
    progression_cap: int = 10**5,
) -> WitnessReport:
    """A prime q with chi(q) = -1 and q^(k-2) not 1 mod p.

    Searches small primes first (reproducible smallest witness); falls back
    to the constructive route: a primitive root mod p glued by CRT to
    -1 mod |disc|, then a prime scan along that arithmetic progression.
    """
    if not (k - 2 < p - 1):
        raise ValueError("requires k - 2 < p - 1")
    if disc % p == 0:
        raise ValueError("requires p not dividing the discriminant")
    chi = kronecker_character(disc)
    for q in filter(is_prime, range(direct_limit)):  # lazily: a witness is nearly always small
        if chi(q) == -1:
            r = pow(q, k - 2, p)
            if r != 1:
                return WitnessReport(q, -1, r, "direct-search")
    # constructive fallback
    alpha = _primitive_root(p)
    m = abs(disc)
    # a = alpha mod p, a = -1 mod m (p and m are coprime here)
    a = (alpha + p * ((-1 - alpha) * pow(p, -1, m) % m)) % (p * m)
    step = p * m
    for n in range(1, progression_cap + 1):
        q = a + step * n
        if is_prime(q):
            r = pow(q, k - 2, p)
            if chi(q) == -1 and r != 1:
                return WitnessReport(q, -1, r, "crt-construction")
    raise WitnessSearchExhausted(
        f"no witness within {progression_cap} progression steps"
    )


def bruinier_search(k: int, p: int, max_abs_disc: int) -> int | None:
    """Smallest |D0| with D0 < 0 fundamental and p not dividing the
    numerator of the (k-1)-th generalized Bernoulli number of chi_D0."""
    _require_modulus(p)
    for n in range(3, max_abs_disc + 1):
        d0 = -n
        if not is_fundamental_discriminant(d0):
            continue
        if generalized_bernoulli(k - 1, d0).numerator % p != 0:
            return d0
    return None
