"""Degree-2 Hermitian Fourier indices over the nine class-number-one
imaginary quadratic fields, with the Eisenstein series and the associated
cusp forms, all Maass lifts (see ``expansion.lift``) in det_scaled: the
alpha of G_{k,K} at N > 0 is g_value(d, k - 2, N) (Krieg, *The Maaß spaces
on the Hermitian half-space of degree 2*, 1991).

An index is (a, x, y, c): diagonal a, c and off-diagonal entry beta/sqrt(d)
with beta = x + y*omega, omega = (d + sqrt(d))/2 the integral basis
generator.  Positivity is |d| a c >= N(beta) for the norm form
N(x, y) = x^2 + d x y + y^2 (d^2 - d)/4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, isqrt

from .arith import bernoulli, g_value, generalized_bernoulli
from .elliptic import CUSP_FORMS, cusp_form
from .errors import NotPositiveSemidefinite, UnsupportedFieldForm
from .expansion import TruncatedExpansion, exp_scale, lift, lift_coefficient
from .siegel import _check_weight

CLASS_NUMBER_ONE_DISCRIMINANTS = (-3, -4, -7, -8, -11, -19, -43, -67, -163)


@dataclass(frozen=True)
class ImagQuadField:
    """Imaginary quadratic field of class number one, by discriminant."""

    disc: int

    def __post_init__(self):
        if self.disc not in CLASS_NUMBER_ONE_DISCRIMINANTS:
            raise ValueError(
                f"{self.disc} is not a class-number-one field discriminant"
            )

    def norm(self, x: int, y: int) -> int:
        d = self.disc
        return x * x + d * x * y + (d * d - d) // 4 * y * y


@lru_cache(maxsize=None)
def imag_quad_field(disc: int) -> ImagQuadField:
    return ImagQuadField(disc)


def content(h) -> int:
    if h == (0, 0, 0, 0):
        raise ValueError("content of the zero index is undefined")
    return gcd(gcd(h[0], h[3]), gcd(h[1], h[2]))


class HermitianLattice:
    """Hermitian 2x2 indices (a, x, y, c) for a fixed field."""

    space = "hermitian"
    zero = (0, 0, 0, 0)
    content = staticmethod(content)

    def __init__(self, field: ImagQuadField):
        self.field = field
        self.disc = field.disc
        self.fj_stride = -field.disc  # det_scaled of (n, x, y, 1) is |d| n - N(x, y)

    def det(self, h):
        return det_scaled(self.field, h)

    def trace(self, h):
        return h[0] + h[3]

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

    def sort_key(self, h):
        return (h[0] + h[3], h)

    def key_string(self, h):
        return f"{h[0]},{h[1]},{h[2]},{h[3]}"

    def parse_key(self, s):
        parts = s.split(",")
        if len(parts) != 4:
            raise ValueError(f"bad hermitian key {s!r}")
        return tuple(map(int, parts))

    def diag_embed(self, t):
        return (t, 0, 0, 0)

    def __repr__(self):
        return f"HermitianLattice(disc={self.disc})"


@lru_cache(maxsize=None)
def hermitian_lattice(disc: int) -> HermitianLattice:
    return HermitianLattice(imag_quad_field(disc))


def det_scaled(field: ImagQuadField, h) -> int:
    """|d| det(H) = |d| a c - N(beta); an integer by construction."""
    a, x, y, c = h
    return -field.disc * a * c - field.norm(x, y)


def rank(field: ImagQuadField, h) -> int:
    if h == (0, 0, 0, 0):
        return 0
    return 1 if det_scaled(field, h) == 0 else 2


@lru_cache(maxsize=None)
def _g_alpha(disc: int, k: int, N: int) -> Fraction:
    """alpha of G_{k,K} at det_scaled = N."""
    if N == 0:
        return -generalized_bernoulli(k - 1, disc) / (2 * k - 2)
    return Fraction(g_value(disc, k - 2, N))


def _g_constant(disc: int, k: int) -> Fraction:
    return bernoulli(k) * generalized_bernoulli(k - 1, disc) / (4 * k * (k - 1))


def hermitian_g_coefficient(field: ImagQuadField, k: int, h) -> Fraction:
    """Coefficient of the Bernoulli-normalized Eisenstein series: integral
    of rank 2, where it is a plain divisor sum of integer values."""
    _check_weight(k)
    lat = hermitian_lattice(field.disc)
    if not lat.is_psd(h):
        raise NotPositiveSemidefinite(f"{h} is not psd over disc {field.disc}")
    return lift_coefficient(lat, k, h, partial(_g_alpha, field.disc, k),
                            _g_constant(field.disc, k))


def hermitian_e_coefficient(field: ImagQuadField, k: int, h) -> Fraction:
    """Coefficient of E_{k,K}, normalized to constant term 1."""
    return hermitian_g_coefficient(field, k, h) / _g_constant(field.disc, k)


@lru_cache(maxsize=None)
def hermitian_expansion(form: str, disc: int, k: int, trace_bound: int) -> TruncatedExpansion:
    """Truncated expansion of G_{k,K} or E_{k,K}."""
    if form not in ("G", "E"):
        raise ValueError(f"form must be 'G' or 'E', got {form!r}")
    if form == "E":  # G first: it rejects an odd weight, where the scale divides by 0
        g = hermitian_expansion("G", disc, k, trace_bound)
        return exp_scale(1 / _g_constant(disc, k), g)
    lat = hermitian_lattice(disc)
    _check_weight(k)
    return lift(lat, k, trace_bound, partial(_g_alpha, disc, k), _g_constant(disc, k))


@lru_cache(maxsize=None)
def hermitian_cusp_form(name: str, disc: int, trace_bound: int) -> TruncatedExpansion:
    """The cusp forms CHI8 (disc -4), F10 (disc -3 or -4), F12 (disc -3)."""
    key = ("hermitian", disc, name)
    if key not in CUSP_FORMS:
        raise UnsupportedFieldForm(f"no cusp form {name!r} over disc {disc}")
    return cusp_form(key, hermitian_lattice(disc), trace_bound,
                     partial(_g_alpha, disc), partial(_g_constant, disc))
