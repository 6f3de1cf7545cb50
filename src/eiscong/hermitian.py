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

from .arith import g_value, generalized_bernoulli, kronecker_character
from .errors import IntegralityViolation
from .elliptic import chain_rule_alpha, cusp_form
from .expansion import ELLIPTIC, Degree2Lattice, TruncatedExpansion, _held, eisenstein

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
    cusp_alpha = chain_rule_alpha  # (k, n): Hermitian alpha is no level-1 Jacobi form

    def __init__(self, field: ImagQuadField):
        self.field = field
        self.disc = field.disc
        self.fj_stride = -field.disc  # det_scaled of (n, x, y, 1) is |d| n - N(x, y)

    def det(self, h) -> int:
        """|d| det(H) = |d| a c - N(beta); an integer by construction."""
        return -self.disc * h[0] * h[3] - self.field.norm(h[1], h[2])

    def enumerate_all(self, bound):
        """Every index of trace <= bound in canonical order.  In the cell of
        trace s and first entry a, c = s - a is fixed and 4 N(x, y) =
        (2x - |d| y)^2 + |d| y^2, so row y holds the x with
        (2x - |d| y)^2 <= |d| (4ac - y^2), and the cell is sorted as tuples."""
        D = -self.disc
        out = []
        for s in range(bound + 1):
            for a in range(s + 1):
                c = s - a
                cell = []
                m = isqrt(4 * a * c)
                for y in range(-m, m + 1):
                    r = isqrt(D * (4 * a * c - y * y))
                    cell += [(a, x, y, c) for x in range((D * y - r + 1) // 2, (D * y + r) // 2 + 1)]
                out += sorted(cell)
        return out

    def g_alpha(self, k: int, N: int) -> Fraction:
        """alpha of G_{k,K} at det_scaled = N."""
        if N < 0:
            raise ValueError(f"g_alpha expects N >= 0, got {N}")
        if N == 0:
            return -generalized_bernoulli(k - 1, self.disc) / (2 * k - 2)
        return Fraction(g_value(self.disc, k - 2, N))

    @_held
    def g_alpha_table(self, k: int, n: int) -> TruncatedExpansion:
        """g_alpha(k, 0..n) as a degree-1 expansion of weight k to q^n, sieving
        N = d q <= n: integers over alpha(0)'s denominator."""
        chi = [*map(kronecker_character(self.disc), range(n + 1))]
        acc = [0] * (n + 1)
        for d in range(1, n + 1):
            power = d ** (k - 2)
            for q in range(1, n // d + 1):
                acc[d * q] += (chi[d] - chi[q]) * power
        top = self.g_alpha(k, 0)
        vec = [top.numerator]
        for N in range(1, n + 1):
            q, r = divmod(acc[N], 1 + abs(chi[N]))
            if r:
                raise IntegralityViolation(f"g_value({self.disc}, {k - 2}, {N}) is not integral")
            vec.append(q * top.denominator)
        return TruncatedExpansion._of(ELLIPTIC, k, n, top.denominator, vec)

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
