"""Truncated Fourier expansions over an abstract psd lattice index.

A lattice object supplies index enumeration, index addition and the
canonical ordering; an expansion is a finite map index -> integer numerator
over one denominator, truncated at a trace bound.  Multiplication sums
numerator products over the support pairs whose traces add up to at most the
bound, exact inside the truncation as psd + psd is psd and trace is additive.

Every degree-2 form here is a Maass lift (Maass 1979; Eichler and Zagier,
*The Theory of Jacobi Forms*, §6; Krieg, Math. Ann. 1991): for T != 0,
a(T) = sum over d | content(T) of d^(k-1) alpha(det(T) / d^2), with alpha a
function of one integer and det the lattice's integral determinant.  Each
degree-2 lattice (a ``Degree2Lattice``: ``siegel.SIEGEL`` and
``hermitian.hermitian_lattice(d)``) carries the alpha table and the constant
term of its Eisenstein series G_k, so ``eisenstein`` builds G_k and E_k on
every lattice, and ``elliptic.cusp_form`` every cusp form.  The lifts, the
mod-p walks and the text format read one cached ``IndexTable``, ``indices(bound)``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import islice
from math import gcd, lcm
from types import MappingProxyType

from .arith import divisors, format_rational, parse_ratio
from .errors import (
    InvalidWeight,
    NotPositiveSemidefinite,
    OutOfTruncation,
    ParseError,
    SpaceMismatch,
    WeightMismatch,
)


class IndexTable(tuple):
    """``lattice.indices(bound)``: every index of trace <= bound in canonical order,
    with its ``dets``, ``contents`` (0 at zero) and key strings, built on first use."""

    def __new__(cls, lattice, bound):
        self = super().__new__(cls, sorted(lattice.enumerate_all(bound), key=lattice.sort_key))
        self.lattice = lattice
        return self

    dets = cached_property(lambda self: tuple(map(self.lattice.det, self)))
    contents = cached_property(lambda self: tuple(gcd(*t) for t in self))
    keys = cached_property(lambda self: tuple(map(self.lattice.key_string, self)))
    lookup = cached_property(lambda self: dict(zip(self.keys, self)))  # key -> index
    __reduce__ = lambda self: (tuple, (tuple(self),))  # copies and pickles are plain tuples


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

    indices = lru_cache(maxsize=32)(IndexTable)  # indices(bound), one cached table

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
    ``enumerate_all``, ``fj_stride`` and, for G_k, ``g_alpha(k, N)``, its
    table ``g_alpha_table(k, n)`` and ``g_constant(k)``."""

    def trace(self, t):
        return t[0] + t[-1]

    indices = lru_cache(maxsize=32)(IndexTable)  # indices(bound), one cached table

    def sort_key(self, t):
        return (t[0] + t[-1], t)

    def key_string(self, t):
        return ",".join(map(str, t))

    def parse_key(self, s):
        parts = s.split(",")
        if len(parts) != len(self.zero):
            raise ValueError(f"bad {self.space} key {s!r}")
        return tuple(map(int, parts))

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
    """Finite Fourier expansion: the coefficient at idx is nums[idx] / den,
    with ``nums`` nonzero integers at psd indices of trace at most the
    bound, and nothing else, over one denominator den > 0 such that
    gcd(den, *nums) == 1 (den = 1 for zero).  ``coeffs`` is a read-only
    view index -> Fraction, built on each access.  Lookups beyond the trace
    bound raise OutOfTruncation rather than returning a silent zero.

    The public constructor takes untrusted input: it converts every value
    to a Fraction and checks each index, raising NotPositiveSemidefinite or
    OutOfTruncation.  Ring results (sums, scalings, products, restrictions,
    lifts, the builders and the parser) hold by construction, so they go
    through ``_of``, which only drops zeros and divides out the gcd.
    """

    __slots__ = ("lattice", "weight", "trace_bound", "den", "nums")

    def __init__(self, lattice, weight: int, trace_bound: int, coeffs: Mapping):
        den, nums = _over_one_denominator([Fraction(v) for v in coeffs.values()])
        self._fill(lattice, weight, trace_bound, den, dict(zip(coeffs, nums)))
        for idx in self.nums:
            if not lattice.is_psd(idx):
                raise NotPositiveSemidefinite(f"index {idx} is not psd")
            if lattice.trace(idx) > trace_bound:
                raise OutOfTruncation(f"index {idx} exceeds trace bound {trace_bound}")

    @classmethod
    def _of(cls, lattice, weight: int, trace_bound: int, den: int, nums: Mapping):
        """nums[idx] / den at psd indices within the bound, unchecked."""
        self = object.__new__(cls)
        self._fill(lattice, weight, trace_bound, den, nums)
        return self

    def _fill(self, lattice, weight, trace_bound, den, nums):
        if trace_bound < 0:
            raise ValueError("trace_bound must be >= 0")
        g = gcd(den, *nums.values())
        self.lattice, self.weight, self.trace_bound = lattice, weight, trace_bound
        self.den = den // g
        self.nums = {idx: n // g for idx, n in nums.items() if n}

    @property
    def coeffs(self) -> Mapping:
        return MappingProxyType({idx: Fraction(n, self.den) for idx, n in self.nums.items()})

    def coefficient(self, idx) -> Fraction:
        if not self.lattice.is_psd(idx):
            raise NotPositiveSemidefinite(f"index {idx} is not psd")
        if self.lattice.trace(idx) > self.trace_bound:
            raise OutOfTruncation(
                f"index {idx} is beyond trace bound {self.trace_bound}"
            )
        return Fraction(self.nums.get(idx, 0), self.den)

    def support(self) -> list:
        return sorted(self.nums, key=self.lattice.sort_key)

    def is_zero(self) -> bool:
        return not self.nums

    def restrict(self, trace_bound: int) -> "TruncatedExpansion":
        if trace_bound > self.trace_bound:
            raise OutOfTruncation("cannot extend a truncated expansion")
        return TruncatedExpansion._of(
            self.lattice, self.weight, trace_bound, self.den, _within(self, trace_bound))

    def __eq__(self, other):
        if not isinstance(other, TruncatedExpansion):
            return NotImplemented
        return (
            _same_lattice(self.lattice, other.lattice)
            and self.weight == other.weight
            and self.trace_bound == other.trace_bound
            and self.den == other.den
            and self.nums == other.nums
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
            f"bound={self.trace_bound} terms={len(self.nums)}>"
        )


def _over_one_denominator(values) -> tuple[int, list]:
    """(den, nums) with values[i] = nums[i] / den, den the lcm of the denominators."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def zero_expansion(lattice, weight, trace_bound) -> TruncatedExpansion:
    return TruncatedExpansion._of(lattice, weight, trace_bound, 1, {})


def constant_one(lattice, trace_bound) -> TruncatedExpansion:
    return TruncatedExpansion._of(lattice, 0, trace_bound, 1, {lattice.zero: 1})


def _within(f: TruncatedExpansion, bound: int) -> dict:
    """The numerators of f at trace <= bound (f's own dict when that is all)."""
    if f.trace_bound <= bound:
        return f.nums
    trace = f.lattice.trace
    return {i: n for i, n in f.nums.items() if trace(i) <= bound}


def _check_compatible(f: TruncatedExpansion, g: TruncatedExpansion):
    if not _same_lattice(f.lattice, g.lattice):
        raise SpaceMismatch(f"{f.lattice} vs {g.lattice}")
    if f.weight != g.weight:
        raise WeightMismatch(f"{f.weight} vs {g.weight}")


def exp_add(f: TruncatedExpansion, g: TruncatedExpansion) -> TruncatedExpansion:
    _check_compatible(f, g)
    bound = min(f.trace_bound, g.trace_bound)
    den = lcm(f.den, g.den)
    a, b = den // f.den, den // g.den
    nums = {idx: a * n for idx, n in _within(f, bound).items()}
    for idx, n in _within(g, bound).items():
        nums[idx] = nums.get(idx, 0) + b * n
    return TruncatedExpansion._of(f.lattice, f.weight, bound, den, nums)


def exp_scale(c, f: TruncatedExpansion) -> TruncatedExpansion:
    c = Fraction(c)
    p = c.numerator
    nums = {idx: p * n for idx, n in f.nums.items()} if p else {}
    return TruncatedExpansion._of(f.lattice, f.weight, f.trace_bound, c.denominator * f.den, nums)


def exp_multiply(f: TruncatedExpansion, g: TruncatedExpansion) -> TruncatedExpansion:
    if not _same_lattice(f.lattice, g.lattice):
        raise SpaceMismatch(f"{f.lattice} vs {g.lattice}")
    lat = f.lattice
    trace = lat.trace
    add = lat.add
    bound = min(f.trace_bound, g.trace_bound)
    gterms = sorted(g.nums.items(), key=lambda term: trace(term[0]))
    gtraces = [trace(u) for u, _ in gterms]
    acc = defaultdict(int)
    for s, a in f.nums.items():
        # the g terms of trace <= bound - trace(s); islice does not copy them
        for u, b in islice(gterms, bisect_right(gtraces, bound - trace(s))):
            acc[add(s, u)] += a * b
    return TruncatedExpansion._of(lat, f.weight + g.weight, bound, f.den * g.den, acc)


def lift_coefficient(lattice, k: int, t, alpha, constant):
    """The Maass lift's coefficient at t: ``constant`` at the zero index."""
    if t == lattice.zero:
        return constant
    det, e = lattice.det(t), lattice.content(t)
    if e == 1:
        return alpha(det)
    return sum(d ** (k - 1) * alpha(det // (d * d)) for d in divisors(e))


def lift(lattice, k: int, trace_bound: int, table, constant) -> TruncatedExpansion:
    """The weight-k Maass lift of the alpha table alpha(0..n) over every
    index; n >= m B^2 / 4, with m the lattice's Fourier-Jacobi stride and B
    the trace bound, bounds every det.  Integer sums over one denominator."""
    den, [top, *alpha] = _over_one_denominator([constant, *table])
    tab = lattice.indices(trace_bound)
    terms = {e: [(d ** (k - 1), d * d) for d in divisors(e)] for e in set(tab.contents) if e > 1}
    nums = {t: alpha[n] if e == 1 else sum(c * alpha[n // q] for c, q in terms[e])
            for t, n, e in zip(tab, tab.dets, tab.contents) if e}
    nums[lattice.zero] = top
    return TruncatedExpansion._of(lattice, k, trace_bound, den, nums)


@lru_cache(maxsize=None)
def eisenstein(lattice, form: str, k: int, trace_bound: int) -> TruncatedExpansion:
    """G_k, or E_k = G_k / G_k(0), over a degree-2 lattice."""
    if form not in ("G", "E"):
        raise ValueError(f"form must be 'G' or 'E', got {form!r}")
    _check_weight(k)
    if form == "E":
        return exp_scale(1 / lattice.g_constant(k), eisenstein(lattice, "G", k, trace_bound))
    table = lattice.g_alpha_table(k, lattice.fj_stride * trace_bound**2 // 4)
    return lift(lattice, k, trace_bound, table, lattice.g_constant(k))


def phi_operator(f: TruncatedExpansion) -> TruncatedExpansion:
    """Restrict a degree-2 expansion to the boundary: the q-series whose
    t-th coefficient sits at the index diag(t, 0)."""
    if f.lattice.space == "elliptic":
        raise ValueError("phi_operator expects a degree-2 expansion")
    nums = {t: f.nums.get((t, *f.lattice.zero[1:]), 0) for t in range(f.trace_bound + 1)}
    return TruncatedExpansion._of(ELLIPTIC, f.weight, f.trace_bound, f.den, nums)


# ---------------------------------------------------------------------------
# Canonical text format
# ---------------------------------------------------------------------------

_SENTINEL = "coefficients"
_MAX_DEN_DIGITS = 4300  # exp_parse refuses a common denominator past 10**this


def exp_serialize(f: TruncatedExpansion) -> str:
    """Byte-deterministic canonical text form of an expansion."""
    disc = [] if f.lattice.disc is None else [f"disc {f.lattice.disc}"]
    lines = [f"space {f.lattice.space}", *disc, f"weight {f.weight}",
             f"trace_bound {f.trace_bound}", _SENTINEL]
    nums, den, tab = f.nums, f.den, f.lattice.indices(f.trace_bound)
    for t, key in zip(tab, tab.keys):
        if n := nums.get(t):
            g = gcd(n, den)
            try:
                lines.append(f"{key} {n // g}" if g == den else f"{key} {n // g}/{den // g}")
            except ValueError:  # past the int-to-str digit limit
                lines.append(f"{key} {format_rational(Fraction(n, den))}")
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
    """Read the text form exp_serialize writes.  The text is untrusted: each
    header field (space, disc, weight, trace_bound) may appear once, and any
    other is refused; each value must be a token ``-?[0-9]+(/[0-9]+)?`` with a
    nonzero denominator, reduced or not; a common denominator past 10**4300
    or one whose bits times the body's lines pass 1200 per character of text
    is refused; and each fault is a ParseError with its line number.  A key is
    looked up in ``indices(bound)``: O(|indices|) once per process, as for
    exp_serialize, solve, verify, reduce and cusp-correct; others take ``parse_key``."""
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
        if parts[0] in header or parts[0] not in ("space", "disc", "weight", "trace_bound"):
            why = "repeated" if parts[0] in header else "unknown"
            raise ParseError(i + 1, f"{why} header field {parts[0]!r}")
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
        at = "disc" if space == "hermitian" and "disc" in header else "space"
        raise ParseError(header[at][0], str(exc)) from None
    if lat.disc != disc:  # exp_serialize writes a disc on Hermitian files only
        raise ParseError(header["disc"][0], f"a {space} file has no disc")
    lookup = lat.indices(bound).lookup  # a hit is a psd index within the bound
    seen, den = {}, 1  # index -> (n, d), with d | den when n != 0
    for lineno, line in enumerate(lines[body_start:], body_start + 1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ParseError(lineno, f"malformed coefficient line {line.strip()!r}")
        idx = lookup.get(parts[0])
        try:
            if miss := idx is None:
                idx = lat.parse_key(parts[0])
            n, d = parse_ratio(parts[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(lineno, str(exc)) from None
        if idx in seen:
            raise ParseError(lineno, f"duplicate key {parts[0]}")
        seen[idx] = n, d
        if not n:  # dropped, unchecked, as the public constructor does
            continue
        if miss and not lat.is_psd(idx):
            raise ParseError(lineno, f"index {idx} is not psd")
        if miss and lat.trace(idx) > bound:
            raise ParseError(lineno, f"index {idx} exceeds trace bound {bound}")
        if den % d:  # a new denominator, which every numerator will carry: bound it
            g = gcd(n, d)
            seen[idx] = n // g, d // g
            den = lcm(den, d // g)
            if den > 10**_MAX_DEN_DIGITS:
                raise ParseError(lineno, f"common denominator exceeds 10**{_MAX_DEN_DIGITS}")
            # a file printing den on every line keeps under log2(10) bits per character
            if den.bit_length() * (len(lines) - body_start) > 1200 * len(text):
                raise ParseError(lineno, "common denominator too large for the file's size")
    return TruncatedExpansion._of(
        lat, weight, bound, den, {idx: n * (den // d) for idx, (n, d) in seen.items()})
