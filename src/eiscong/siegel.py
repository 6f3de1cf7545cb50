"""Degree-2 Siegel Fourier indices and Eisenstein / Igusa expansions.

Indices are half-integral symmetric 2x2 matrices stored as integer triples
(a, b2, c) with b2 = twice the off-diagonal entry.  The rank-2 Eisenstein
coefficient involves the character of the fundamental discriminant attached
to -4 det(T); the inner Moebius summation variable is called g here to
avoid colliding with the square part f(T).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .arith import (
    bernoulli,
    divisor_power_sum,
    divisors,
    fundamental_decomposition,
    generalized_bernoulli,
    kronecker_character,
    mobius,
)
from .elliptic import cusp_form
from .errors import InvalidWeight, NotPositiveSemidefinite
from .expansion import TruncatedExpansion, exp_scale


class SiegelLattice:
    """Half-integral symmetric 2x2 matrices, indices (a, b2, c)."""

    space = "siegel"
    disc = None
    zero = (0, 0, 0)

    def trace(self, t):
        return t[0] + t[2]

    def is_psd(self, t):
        a, b2, c = t
        return a >= 0 and c >= 0 and 4 * a * c - b2 * b2 >= 0

    def add(self, t, s):
        return (t[0] + s[0], t[1] + s[1], t[2] + s[2])

    def enumerate_all(self, bound):
        out = []
        for a in range(bound + 1):
            for c in range(bound - a + 1):
                m = isqrt(4 * a * c)
                out.extend((a, b2, c) for b2 in range(-m, m + 1))
        return out

    def sort_key(self, t):
        return (t[0] + t[2], t)

    def key_string(self, t):
        return f"{t[0]},{t[1]},{t[2]}"

    def parse_key(self, s):
        parts = s.split(",")
        if len(parts) != 3:
            raise ValueError(f"bad siegel key {s!r}")
        return tuple(int(p) for p in parts)

    def diag_embed(self, t):
        return (t, 0, 0)

    def __repr__(self):
        return "SiegelLattice()"


SIEGEL = SiegelLattice()


def det4(t) -> int:
    """4 det(T) = 4ac - b2^2."""
    return 4 * t[0] * t[2] - t[1] * t[1]


def content(t) -> int:
    """Largest l with T/l still half-integral; undefined at 0."""
    if t == SIEGEL.zero:
        raise ValueError("content of the zero index is undefined")
    return gcd(gcd(t[0], t[1]), t[2])


def rank(t) -> int:
    if t == SIEGEL.zero:
        return 0
    return 1 if det4(t) == 0 else 2


def _check_weight(k: int):
    if k < 4 or k % 2 == 1:
        raise InvalidWeight(f"even weight >= 4 required, got {k}")


def siegel_g_coefficient(k: int, t) -> Fraction:
    """Fourier coefficient of the normalized Eisenstein series G_k at T."""
    _check_weight(k)
    if not SIEGEL.is_psd(t):
        raise NotPositiveSemidefinite(f"{t} is not psd")
    if t == SIEGEL.zero:
        return -bernoulli(k) * bernoulli(2 * k - 2) / (4 * k * (k - 1))
    if det4(t) == 0:
        return bernoulli(2 * k - 2) / (2 * k - 2) * divisor_power_sum(k - 1, content(t))
    D, f = fundamental_decomposition(-det4(t))
    chi = kronecker_character(D)
    eps = content(t)
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


def _e_scale(k: int) -> Fraction:
    """E_k / G_k: one over the constant term of G_k."""
    return Fraction(4 * k * (k - 1)) / (-bernoulli(k) * bernoulli(2 * k - 2))


def siegel_e_coefficient(k: int, t) -> Fraction:
    """Coefficient of E_k, normalized so the constant term is 1."""
    return siegel_g_coefficient(k, t) * _e_scale(k)


@lru_cache(maxsize=None)
def siegel_expansion(form: str, k: int, trace_bound: int) -> TruncatedExpansion:
    """Truncated expansion of G_k or E_k over all psd indices."""
    _check_weight(k)
    if form not in ("G", "E"):
        raise ValueError(f"form must be 'G' or 'E', got {form!r}")
    if form == "E":
        return exp_scale(_e_scale(k), siegel_expansion("G", k, trace_bound))
    coeffs = {t: siegel_g_coefficient(k, t) for t in SIEGEL.enumerate_all(trace_bound)}
    return TruncatedExpansion(SIEGEL, k, trace_bound, coeffs)


def _siegel_eisenstein(trace_bound: int):
    return lambda k: siegel_expansion("E", k, trace_bound)


@lru_cache(maxsize=None)
def igusa_x10(trace_bound: int) -> TruncatedExpansion:
    """Weight-10 Igusa cusp form, normalized to 1 at (1, 1/2; 1/2, 1)."""
    return cusp_form(("siegel", None, "X10"), _siegel_eisenstein(trace_bound))


@lru_cache(maxsize=None)
def igusa_x12(trace_bound: int) -> TruncatedExpansion:
    """Weight-12 Igusa cusp form."""
    return cusp_form(("siegel", None, "X12"), _siegel_eisenstein(trace_bound))
