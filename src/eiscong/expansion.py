"""Truncated Fourier expansions over an abstract psd lattice index.

A lattice object supplies index enumeration, index addition and the
canonical ordering; expansions are finite index -> Fraction maps truncated
at a trace bound.  Multiplication sums integer numerators over the support
pairs whose traces add up to at most the bound, which is exact inside the
truncation because psd + psd is psd and the trace is additive.

Every degree-2 form here is a Maass lift (Maass 1979; Eichler and Zagier,
*The Theory of Jacobi Forms*, §6; Krieg, Math. Ann. 1991): for T != 0,
a(T) = sum over d | content(T) of d^(k-1) alpha(det(T) / d^2), with alpha a
function of one integer and det the lattice's integral determinant.  Each
degree-2 lattice (a ``Degree2Lattice``: ``siegel.SIEGEL`` and
``hermitian.hermitian_lattice(d)``) carries the alpha and the constant term
of its Eisenstein series G_k, so ``eisenstein`` builds G_k and E_k on every
lattice, and ``elliptic.cusp_form`` every cusp form.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice
from math import gcd, lcm
from typing import Mapping

from .arith import divisors, format_rational, parse_rational
from .errors import (
    InvalidWeight,
    NotPositiveSemidefinite,
    OutOfTruncation,
    ParseError,
    SpaceMismatch,
    WeightMismatch,
)


class EllipticLattice:
    """Degree-1 index lattice: t in Z>=0, the classical q-expansion index."""

    space = "elliptic"
    disc = None
    zero = 0

    def trace(self, t):
        return t

    def is_psd(self, t):
        return isinstance(t, int) and t >= 0

    def add(self, t, s):
        return t + s

    def enumerate_all(self, bound):
        return list(range(bound + 1))

    def sort_key(self, t):
        return (t, (t,))

    def key_string(self, t):
        return str(t)

    def parse_key(self, s):
        return int(s)

    def __repr__(self):
        return "EllipticLattice()"


ELLIPTIC = EllipticLattice()


class Degree2Lattice:
    """Degree-2 indices: integer tuples with the diagonal entries first and
    last.  A subclass gives ``zero``, ``det``, ``is_psd``, ``add``,
    ``enumerate_all``, ``fj_stride`` and, for G_k, ``g_alpha(k, N)`` and
    ``g_constant(k)``."""

    def trace(self, t):
        return t[0] + t[-1]

    def sort_key(self, t):
        return (t[0] + t[-1], t)

    def key_string(self, t):
        return ",".join(map(str, t))

    def parse_key(self, s):
        parts = s.split(",")
        if len(parts) != len(self.zero):
            raise ValueError(f"bad {self.space} key {s!r}")
        return tuple(map(int, parts))

    def diag_embed(self, t):
        return (t, *self.zero[1:])

    @staticmethod
    def content(t) -> int:
        """Largest l with t / l still an index; undefined at the zero index."""
        e = gcd(*t)
        if not e:
            raise ValueError("content of the zero index is undefined")
        return e

    def rank(self, t) -> int:
        if t == self.zero:
            return 0
        return 1 if self.det(t) == 0 else 2

    def coefficient(self, k: int, t) -> Fraction:
        """The coefficient of G_k at the index t."""
        _check_weight(k)
        if not self.is_psd(t):
            over = "" if self.disc is None else f" over disc {self.disc}"
            raise NotPositiveSemidefinite(f"{t} is not psd{over}")
        return lift_coefficient(self, k, t, partial(self.g_alpha, k), self.g_constant(k))


def _check_weight(k: int):
    if k < 4 or k % 2 == 1:
        raise InvalidWeight(f"even weight >= 4 required, got {k}")
    return k


def _same_lattice(a, b):
    return a.space == b.space and a.disc == b.disc


class TruncatedExpansion:
    """Finite Fourier expansion: map from lattice index to Fraction.

    ``coeffs`` holds a nonzero Fraction at psd indices of trace at most the
    bound, and nothing else; lookups beyond the trace bound raise
    OutOfTruncation rather than returning a silent zero.

    The public constructor takes untrusted input: it converts every value
    to a Fraction and checks each index, raising NotPositiveSemidefinite or
    OutOfTruncation.  Ring results (sums, scalings, products, restrictions,
    lifts and the builders) hold by construction, so they go through
    ``_trusted``, which only drops zeros.
    """

    __slots__ = ("lattice", "weight", "trace_bound", "coeffs")

    def __init__(self, lattice, weight: int, trace_bound: int, coeffs: Mapping):
        self._header(lattice, weight, trace_bound)
        for idx, val in coeffs.items():
            val = Fraction(val)
            if val == 0:
                continue
            if not lattice.is_psd(idx):
                raise NotPositiveSemidefinite(f"index {idx} is not psd")
            if lattice.trace(idx) > trace_bound:
                raise OutOfTruncation(f"index {idx} exceeds trace bound {trace_bound}")
            self.coeffs[idx] = val

    @classmethod
    def _trusted(cls, lattice, weight: int, trace_bound: int, coeffs: Mapping):
        """An expansion from Fraction values at psd indices within the
        bound, unchecked; zeros are dropped."""
        self = object.__new__(cls)
        self._header(lattice, weight, trace_bound)
        self.coeffs = {i: v for i, v in coeffs.items() if v}
        return self

    def _header(self, lattice, weight, trace_bound):
        if trace_bound < 0:
            raise ValueError("trace_bound must be >= 0")
        self.lattice = lattice
        self.weight = weight
        self.trace_bound = trace_bound
        self.coeffs = {}

    def coefficient(self, idx) -> Fraction:
        if not self.lattice.is_psd(idx):
            raise NotPositiveSemidefinite(f"index {idx} is not psd")
        if self.lattice.trace(idx) > self.trace_bound:
            raise OutOfTruncation(
                f"index {idx} is beyond trace bound {self.trace_bound}"
            )
        return self.coeffs.get(idx, Fraction(0))

    def support(self) -> list:
        return sorted(self.coeffs, key=self.lattice.sort_key)

    def is_zero(self) -> bool:
        return not self.coeffs

    def restrict(self, trace_bound: int) -> "TruncatedExpansion":
        if trace_bound > self.trace_bound:
            raise OutOfTruncation("cannot extend a truncated expansion")
        return TruncatedExpansion._trusted(
            self.lattice, self.weight, trace_bound, _within(self, trace_bound))

    def __eq__(self, other):
        if not isinstance(other, TruncatedExpansion):
            return NotImplemented
        return (
            _same_lattice(self.lattice, other.lattice)
            and self.weight == other.weight
            and self.trace_bound == other.trace_bound
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(
            (self.lattice.space, self.lattice.disc, self.weight, self.trace_bound)
        )

    def __add__(self, other):
        return exp_add(self, other)

    def __sub__(self, other):
        return exp_add(self, exp_scale(-1, other))

    def __mul__(self, other):
        if isinstance(other, TruncatedExpansion):
            return exp_multiply(self, other)
        return exp_scale(other, self)

    __rmul__ = __mul__

    def __repr__(self):
        tag = self.lattice.space
        if self.lattice.disc is not None:
            tag += f"[{self.lattice.disc}]"
        return (
            f"<TruncatedExpansion {tag} weight={self.weight} "
            f"bound={self.trace_bound} terms={len(self.coeffs)}>"
        )


def zero_expansion(lattice, weight, trace_bound) -> TruncatedExpansion:
    return TruncatedExpansion._trusted(lattice, weight, trace_bound, {})


def constant_one(lattice, trace_bound) -> TruncatedExpansion:
    return TruncatedExpansion._trusted(lattice, 0, trace_bound, {lattice.zero: Fraction(1)})


def _within(f: TruncatedExpansion, bound: int) -> dict:
    """The coefficients of f at trace <= bound (f's own dict when that is all)."""
    if f.trace_bound <= bound:
        return f.coeffs
    trace = f.lattice.trace
    return {i: v for i, v in f.coeffs.items() if trace(i) <= bound}


def _check_compatible(f: TruncatedExpansion, g: TruncatedExpansion):
    if not _same_lattice(f.lattice, g.lattice):
        raise SpaceMismatch(f"{f.lattice} vs {g.lattice}")
    if f.weight != g.weight:
        raise WeightMismatch(f"{f.weight} vs {g.weight}")


def exp_add(f: TruncatedExpansion, g: TruncatedExpansion) -> TruncatedExpansion:
    _check_compatible(f, g)
    bound = min(f.trace_bound, g.trace_bound)
    coeffs = dict(_within(f, bound))
    for idx, v in _within(g, bound).items():
        coeffs[idx] = coeffs[idx] + v if idx in coeffs else v
    return TruncatedExpansion._trusted(f.lattice, f.weight, bound, coeffs)


def exp_scale(c, f: TruncatedExpansion) -> TruncatedExpansion:
    c = Fraction(c)
    p, q = c.numerator, c.denominator
    # Fraction(p a, q b) is c * (a / b), normalized, without Fraction's operator dispatch
    coeffs = {idx: Fraction(p * v.numerator, q * v.denominator)
              for idx, v in f.coeffs.items()} if p else {}
    return TruncatedExpansion._trusted(f.lattice, f.weight, f.trace_bound, coeffs)


def _common_denominator(f: TruncatedExpansion):
    """(den, [(index, numerator)]) with every coefficient = numerator / den."""
    den = lcm(*(v.denominator for v in f.coeffs.values()))
    return den, [(idx, v.numerator * (den // v.denominator)) for idx, v in f.coeffs.items()]


def exp_multiply(f: TruncatedExpansion, g: TruncatedExpansion) -> TruncatedExpansion:
    if not _same_lattice(f.lattice, g.lattice):
        raise SpaceMismatch(f"{f.lattice} vs {g.lattice}")
    lat = f.lattice
    trace = lat.trace
    add = lat.add
    bound = min(f.trace_bound, g.trace_bound)
    fden, fterms = _common_denominator(f)
    gden, gterms = _common_denominator(g)
    gterms.sort(key=lambda term: trace(term[0]))
    gtraces = [trace(u) for u, _ in gterms]
    acc = defaultdict(int)
    for s, a in fterms:
        # the g terms of trace <= bound - trace(s); islice does not copy them
        for u, b in islice(gterms, bisect_right(gtraces, bound - trace(s))):
            acc[add(s, u)] += a * b
    den = fden * gden
    coeffs = {t: Fraction(n, den) for t, n in acc.items() if n}
    return TruncatedExpansion._trusted(lat, f.weight + g.weight, bound, coeffs)


def lift_coefficient(lattice, k: int, t, alpha, constant):
    """The Maass lift's coefficient at t: ``constant`` at the zero index."""
    if t == lattice.zero:
        return constant
    det, e = lattice.det(t), lattice.content(t)
    if e == 1:
        return alpha(det)
    return sum(d ** (k - 1) * alpha(det // (d * d)) for d in divisors(e))


def lift(lattice, k: int, trace_bound: int, alpha, constant) -> TruncatedExpansion:
    """The weight-k Maass lift of alpha over every index; det <= m B^2 / 4
    with m the lattice's Fourier-Jacobi stride and B the trace bound."""
    at = [alpha(N) for N in range(lattice.fj_stride * trace_bound**2 // 4 + 1)].__getitem__
    coeffs = {t: lift_coefficient(lattice, k, t, at, constant)
              for t in lattice.enumerate_all(trace_bound)}
    return TruncatedExpansion._trusted(lattice, k, trace_bound, coeffs)


@lru_cache(maxsize=None)
def eisenstein(lattice, form: str, k: int, trace_bound: int) -> TruncatedExpansion:
    """G_k, or E_k = G_k / G_k(0), over a degree-2 lattice."""
    if form not in ("G", "E"):
        raise ValueError(f"form must be 'G' or 'E', got {form!r}")
    _check_weight(k)
    if form == "E":
        return exp_scale(1 / lattice.g_constant(k), eisenstein(lattice, "G", k, trace_bound))
    return lift(lattice, k, trace_bound, partial(lattice.g_alpha, k), lattice.g_constant(k))


def phi_operator(f: TruncatedExpansion) -> TruncatedExpansion:
    """Restrict a degree-2 expansion to the boundary: the q-series whose
    t-th coefficient sits at the index diag(t, 0)."""
    if f.lattice.space == "elliptic":
        raise ValueError("phi_operator expects a degree-2 expansion")
    coeffs = {}
    for t in range(f.trace_bound + 1):
        v = f.coeffs.get(f.lattice.diag_embed(t))
        if v:
            coeffs[t] = v
    return TruncatedExpansion._trusted(ELLIPTIC, f.weight, f.trace_bound, coeffs)


# ---------------------------------------------------------------------------
# Canonical text format
# ---------------------------------------------------------------------------

_SENTINEL = "coefficients"


def exp_serialize(f: TruncatedExpansion) -> str:
    """Byte-deterministic canonical text form of an expansion."""
    lines = [f"space {f.lattice.space}"]
    if f.lattice.disc is not None:
        lines.append(f"disc {f.lattice.disc}")
    lines.append(f"weight {f.weight}")
    lines.append(f"trace_bound {f.trace_bound}")
    lines.append(_SENTINEL)
    for idx in f.support():
        lines.append(f"{f.lattice.key_string(idx)} {format_rational(f.coeffs[idx])}")
    return "\n".join(lines) + "\n"


def lattice_for(space: str, disc=None):
    if space == "elliptic":
        return ELLIPTIC
    if space == "siegel":
        from .siegel import SIEGEL

        return SIEGEL
    if space == "hermitian":
        from .hermitian import hermitian_lattice

        if disc is None:
            raise ValueError("hermitian space needs a discriminant")
        return hermitian_lattice(disc)
    raise ValueError(f"unknown space {space!r}")


def exp_parse(text: str) -> TruncatedExpansion:
    """Read the canonical text form.  The text is untrusted: every header
    field, key and value is checked once, and each fault is a ParseError
    with the number of the line it sits on."""
    header: dict[str, tuple[int, str]] = {}  # field -> (line number, value)
    lines = text.splitlines()
    body_start = None
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        if line == _SENTINEL:
            body_start = i + 1
            break
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ParseError(i + 1, f"malformed header line {line!r}")
        header[parts[0]] = (i + 1, parts[1])
    if body_start is None:
        raise ParseError(len(lines), "missing 'coefficients' sentinel")

    def field(name, convert):
        if name not in header:
            raise ParseError(1, f"missing header field {name!r}")
        lineno, value = header[name]
        try:
            return convert(value)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None

    space = field("space", str)
    weight = field("weight", int)
    bound = field("trace_bound", int)
    if bound < 0:
        raise ParseError(header["trace_bound"][0], "trace_bound must be >= 0")
    disc = field("disc", int) if "disc" in header else None
    try:
        lat = lattice_for(space, disc)
    except ValueError as exc:
        raise ParseError(header["disc" if "disc" in header else "space"][0], str(exc)) from None
    trace, is_psd, parse_key = lat.trace, lat.is_psd, lat.parse_key
    coeffs = {}
    for lineno, line in enumerate(lines[body_start:], body_start + 1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ParseError(lineno, f"malformed coefficient line {line.strip()!r}")
        try:
            idx = parse_key(parts[0])
            val = parse_rational(parts[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(lineno, str(exc)) from None
        if idx in coeffs:
            raise ParseError(lineno, f"duplicate key {parts[0]}")
        coeffs[idx] = val
        if not val:  # dropped, unchecked, as the public constructor does
            continue
        if not is_psd(idx):
            raise ParseError(lineno, f"index {idx} is not psd")
        if trace(idx) > bound:
            raise ParseError(lineno, f"index {idx} exceeds trace bound {bound}")
    return TruncatedExpansion._trusted(lat, weight, bound, coeffs)
