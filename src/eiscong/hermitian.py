"""Degree-2 Hermitian Fourier indices over the nine class-number-one
imaginary quadratic fields, with the Eisenstein series and the associated
cusp forms, all Maass lifts (see ``expansion.lift``) in det_scaled.  Each
``HermitianLattice`` carries the alpha of G_{k,K}, at N > 0 g_value(d, k - 2, N)
(Krieg, *The Maaß spaces on the Hermitian half-space of degree 2*, 1991),
whose table ``g_alpha_table`` sieves, and the public builders here are one
call into ``expansion.eisenstein`` and ``elliptic.cusp_form``.

An index is (a, x, y, c): diagonal a, c and off-diagonal entry beta/sqrt(d)
with beta = x + y*omega, omega = (d + sqrt(d))/2 the integral basis
generator.  Positivity is |d| a c >= N(beta) for the norm form
N(x, y) = x^2 + d x y + y^2 (d^2 - d)/4.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .arith import bernoulli, g_value, generalized_bernoulli, kronecker_character
from .errors import IntegralityViolation
from .elliptic import cusp_form
from .expansion import Degree2Lattice, TruncatedExpansion, eisenstein

CLASS_NUMBER_ONE_DISCRIMINANTS = (-3, -4, -7, -8, -11, -19, -43, -67, -163)


class ImagQuadField(namedtuple("ImagQuadField", "disc")):
    """Imaginary quadratic field of class number one, by discriminant."""

    __slots__ = ()

    def __new__(cls, disc: int):
        if disc not in CLASS_NUMBER_ONE_DISCRIMINANTS:
            raise ValueError(f"{disc} is not a class-number-one field discriminant")
        return super().__new__(cls, disc)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check there too
        return cls(*iterable)

    def norm(self, x: int, y: int) -> int:
        d = self.disc
        return x * x + d * x * y + (d * d - d) // 4 * y * y


@lru_cache(maxsize=None)
def imag_quad_field(disc: int) -> ImagQuadField:
    return ImagQuadField(disc)


class HermitianLattice(Degree2Lattice):
    """Hermitian 2x2 indices (a, x, y, c) for a fixed field; ``det`` is
    det_scaled."""

    space = "hermitian"
    zero = (0, 0, 0, 0)

    def __init__(self, field: ImagQuadField):
        self.field = field
        self.disc = field.disc
        self.fj_stride = -field.disc  # det_scaled of (n, x, y, 1) is |d| n - N(x, y)

    def det(self, h) -> int:
        """|d| det(H) = |d| a c - N(beta); an integer by construction."""
        return -self.disc * h[0] * h[3] - self.field.norm(h[1], h[2])

    def is_psd(self, h):
        a, x, y, c = h
        return a >= 0 and c >= 0 and -self.disc * a * c >= self.field.norm(x, y)

    def add(self, h, s):
        return (h[0] + s[0], h[1] + s[1], h[2] + s[2], h[3] + s[3])

    def _norm_points(self, bound):
        # lattice points with N(x, y) <= bound; the norm form is positive
        # definite so y is bounded by the minimum of the form on y-lines
        d = self.disc
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
                if self.field.norm(x, y) <= bound:
                    out.append((x, y))
        return out

    def enumerate_all(self, bound):
        out = []
        for a in range(bound + 1):
            for c in range(bound - a + 1):
                for x, y in self._norm_points(-self.disc * a * c):
                    out.append((a, x, y, c))
        return out

    def g_alpha(self, k: int, N: int) -> Fraction:
        """alpha of G_{k,K} at det_scaled = N."""
        if N == 0:
            return -generalized_bernoulli(k - 1, self.disc) / (2 * k - 2)
        return Fraction(g_value(self.disc, k - 2, N))

    @lru_cache(maxsize=64)
    def g_alpha_table(self, k: int, n: int) -> tuple:
        """(g_alpha(k, 0), ..., g_alpha(k, n)), sieving N = d q <= n."""
        chi = [*map(kronecker_character(self.disc), range(n + 1))]
        acc = [0] * (n + 1)
        for d in range(1, n + 1):
            power = d ** (k - 2)
            for q in range(1, n // d + 1):
                acc[d * q] += (chi[d] - chi[q]) * power
        table = [self.g_alpha(k, 0)]
        for N in range(1, n + 1):
            q, r = divmod(acc[N], 1 + abs(chi[N]))
            if r:
                raise IntegralityViolation(f"g_value({self.disc}, {k - 2}, {N}) is not integral")
            table.append(q)
        return tuple(table)

    def g_constant(self, k: int) -> Fraction:
        return bernoulli(k) * generalized_bernoulli(k - 1, self.disc) / (4 * k * (k - 1))

    def __repr__(self):
        return f"HermitianLattice(disc={self.disc})"


@lru_cache(maxsize=None)
def hermitian_lattice(disc: int) -> HermitianLattice:
    return HermitianLattice(imag_quad_field(disc))


content = Degree2Lattice.content


def det_scaled(field: ImagQuadField, h) -> int:
    """|d| det(H) = |d| a c - N(beta); an integer by construction."""
    return hermitian_lattice(field.disc).det(h)


def rank(field: ImagQuadField, h) -> int:
    return hermitian_lattice(field.disc).rank(h)


def hermitian_g_coefficient(field: ImagQuadField, k: int, h) -> Fraction:
    """Coefficient of the Bernoulli-normalized Eisenstein series: integral
    of rank 2, where it is a plain divisor sum of integer values."""
    return hermitian_lattice(field.disc).coefficient(k, h)


def hermitian_e_coefficient(field: ImagQuadField, k: int, h) -> Fraction:
    """Coefficient of E_{k,K}, normalized to constant term 1."""
    lat = hermitian_lattice(field.disc)
    return lat.coefficient(k, h) / lat.g_constant(k)


def hermitian_expansion(form: str, disc: int, k: int, trace_bound: int) -> TruncatedExpansion:
    """Truncated expansion of G_{k,K} or E_{k,K}."""
    return eisenstein(hermitian_lattice(disc), form, k, trace_bound)


def hermitian_cusp_form(name: str, disc: int, trace_bound: int) -> TruncatedExpansion:
    """The cusp forms CHI8 (disc -4), F10 (disc -3 or -4), F12 (disc -3)."""
    return cusp_form(("hermitian", disc, name), trace_bound)
