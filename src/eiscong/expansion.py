"""Truncated Fourier expansions over an abstract psd lattice index.

A lattice object enumerates its indices in canonical order (trace, then
the index); an expansion is a finite map index -> integer numerator over
one denominator, truncated at a trace bound.  Multiplication packs each row
of an operand's support (the index without its entry ``t[1]``) into one
integer, Kronecker substitution, and multiplies every pair of rows whose
traces add up to at most the bound: exact inside the truncation, as
psd + psd is psd and trace is additive.

Every degree-2 form here is a Maass lift (Maass 1979; Eichler and Zagier,
*The Theory of Jacobi Forms*, §6; Krieg, Math. Ann. 1991): for T != 0,
a(T) = sum over d | content(T) of d^(k-1) alpha(det(T) / d^2), with alpha a
function of one integer and det the lattice's integral determinant.  Each
degree-2 lattice (a ``Degree2Lattice``: ``siegel.SIEGEL`` and
``hermitian.hermitian_lattice(d)``) carries the alpha table of its
Eisenstein series G_k, whose alpha(0) fixes the constant term a(0) =
-B_k / (2k) alpha(0), so ``eisenstein`` builds G_k and E_k on every
lattice, and ``elliptic.cusp_form`` every cusp form.  The lifts, the
mod-p walks and the text format read one cached ``IndexTable``, ``indices(bound)``,
which keeps the lattice's enumeration as it comes: nothing sorts the table.
``exp_parse`` reads a canonical body in bulk and any other line by line.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import compress, count, repeat
from math import gcd, lcm
from operator import add, floordiv, itemgetter, lshift, mod, mul, sub
from types import MappingProxyType

from .arith import bernoulli, divisors, format_rational, parse_ratio
from .errors import (
    InsufficientTruncation,
    InvalidWeight,
    NotPositiveSemidefinite,
    OutOfTruncation,
    ParseError,
    SpaceMismatch,
    WeightMismatch,
)


class IndexTable(tuple):
    """``lattice.indices(bound)``: every index of trace <= bound in canonical order,
    as ``lattice.enumerate_all(bound)`` yields it (the table does not sort), with
    its ``dets``, ``contents`` (0 at zero) and key strings, built on first use."""

    def __new__(cls, lattice, bound):
        self = super().__new__(cls, lattice.enumerate_all(bound))
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
    last.  A subclass gives ``zero``, ``det``, ``enumerate_all``,
    ``fj_stride`` and, for G_k, ``g_alpha(k, N)`` and its table
    ``g_alpha_table(k, n)``; ``is_psd`` and ``g_constant`` follow from
    ``det`` and alpha(0).  ``enumerate_all(bound)`` lists every index of
    trace <= bound in canonical (``sort_key``) order, which ``indices``
    keeps without sorting."""

    def trace(self, t):
        return t[0] + t[-1]

    def is_psd(self, t):
        """An index of the lattice's length with a psd matrix: nonnegative
        diagonal and det."""
        return len(t) == len(self.zero) and t[0] >= 0 and t[-1] >= 0 and self.det(t) >= 0

    def g_constant(self, k: int) -> Fraction:
        """The constant term of G_k, -B_k / (2k) alpha(0), as for every Maass
        lift (Eichler and Zagier, §6; Krieg 1991)."""
        return -bernoulli(k) / (2 * k) * self.g_alpha(k, 0)

    def alpha_length(self, trace_bound: int) -> int:
        """m B^2 / 4 (m = ``fj_stride``), past every det at trace <= B: a lift reads alpha to it."""
        return self.fj_stride * trace_bound**2 // 4

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
        if t == self.zero:
            return self.g_constant(k)
        return lift_coefficient(self, k, t, partial(self.g_alpha, k))


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

    ``lifted_from`` is (alpha, constant) of a lift the library built, else
    None: ``lift`` sets it, ``exp_scale`` scales it, ``restrict`` keeps it and
    every other result drops it.  Each coefficient at trace <= B is the
    constant or an integral combination of alpha(N), N <= ``alpha_length(B)``,
    so two lifts are congruent mod m where their data are, the denominators
    prime to m: ``congruence.solve_lambda`` checks that first.
    """

    __slots__ = ("lattice", "weight", "trace_bound", "den", "nums", "lifted_from")

    def __init__(self, lattice, weight: int, trace_bound: int, coeffs: Mapping):
        values = dict(zip(coeffs, map(Fraction, coeffs.values())))
        den = lcm(*(v.denominator for v in values.values()))
        self._fill(lattice, weight, trace_bound, den,
                   {idx: v.numerator * (den // v.denominator) for idx, v in values.items()})
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
        self.lifted_from = None
        self.den = den // g
        self.nums = (dict(nums) if g == 1 and all(nums.values())  # canonical: copy at C speed
                     else {idx: n // g for idx, n in nums.items() if n})

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
        f = TruncatedExpansion._of(
            self.lattice, self.weight, trace_bound, self.den, _within(self, trace_bound))
        f.lifted_from = self.lifted_from
        return f

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
    h = TruncatedExpansion._of(f.lattice, f.weight, f.trace_bound, c.denominator * f.den, nums)
    if f.lifted_from is not None:
        h.lifted_from = exp_scale(c, f.lifted_from[0]), c * f.lifted_from[1]
    return h


def exp_multiply(f: TruncatedExpansion, g: TruncatedExpansion) -> TruncatedExpansion:
    """f * g, exact inside the truncation, by Kronecker substitution
    (Harvey, J. Symbolic Comput. 2009).  A degree-2 index splits into a row,
    every entry but ``t[1]``, and the column ``t[1]``, so that rows and
    columns each add componentwise and the trace is row[0] + row[-1].  Each
    row of f or g packs into the integer sum of n 2^(s (col - lo)) over its
    terms, lo its least column, and one big-integer product per pair of
    rows whose traces add up to at most the bound, shifted into its target
    row, sums every pair of their terms at once.  In degree 1 the operand
    of larger stride m, the gcd of its exponent gaps, is one row with
    column t div m, and the other has a row per residue class t mod m: each
    class multiplies at 1/m of the slots (E_j(q^4) alpha in the Siegel
    Jacobi levels, phi_j(q^m) in the chain rule), and only the slots at or
    below the bound are read, n + 1 of the 2n + 1 of a square to q^n.

    The slot width s is the least multiple of 8 bits with
    s >= bits(max|f|) + bits(max|g|) + bits(|f| |g|) + 1: a slot of a
    target row sums at most |f| |g| term products, so its value c has
    |c| < 2^(s-1), and adding 2^(s-1) to every slot leaves each in
    [0, 2^s) with no carry between them, to be read off as bytes.  Only
    the supports are walked, never ``indices(bound)``, and every product,
    however small, is packed; an empty operand gives zero at once."""
    if not _same_lattice(f.lattice, g.lattice):
        raise SpaceMismatch(f"{f.lattice} vs {g.lattice}")
    lat = f.lattice
    bound = min(f.trace_bound, g.trace_bound)
    fn, gn = _within(f, bound), _within(g, bound)
    if not (fn and gn):
        return zero_expansion(lat, f.weight + g.weight, bound)
    s = 8 * ((_bits(fn) + _bits(gn) + (len(fn) * len(gn)).bit_length() + 8) // 8)
    if lat is ELLIPTIC:
        nums = _multiply_classes(fn, gn, bound, s)
    else:
        row_of = itemgetter(0, *range(2, len(lat.zero)))
        k = (2 * bound).bit_length() + 1  # a product's row entries lie in [-2 bound, 2 bound]
        nums = _multiply_rows(_rows(fn, row_of, s, k), _rows(gn, row_of, s, k), bound, s)
    return TruncatedExpansion._of(lat, f.weight + g.weight, bound, f.den * g.den, nums)


def _bits(nums: dict) -> int:
    return max(max(nums.values()), -min(nums.values())).bit_length()


def _add_at(acc: dict, key, lo: int, p: int, s: int):
    """Add p 2^(s lo) to acc[key] = [lo', v], which stands for v 2^(s lo'),
    lo' the least lo added."""
    cur = acc.get(key)
    if cur is None:
        acc[key] = [lo, p]
    elif lo >= cur[0]:
        cur[1] += p << s * (lo - cur[0])
    else:
        cur[0], cur[1] = lo, p + (cur[1] << s * (cur[0] - lo))


def _pack(rows, cols, values, s: int) -> dict:
    """row -> [lo, P] with P = sum n 2^(s (col - lo)) over the terms n at
    (row, col) and lo their least column."""
    acc = {}
    for row, col, n in zip(rows, cols, values):
        cur = acc.get(row)
        if cur is not None and col >= cur[0]:  # always, for terms in canonical order
            cur[1] += n << s * (col - cur[0])
        else:
            _add_at(acc, row, col, n, s)
    return acc


def _unpack(v: int, s: int, slots: int) -> list:
    """The first slots c of v = sum c 2^(s k), |c| < 2^(s - 1), from k = 0 up:
    v plus 2^(s - 1) in each of them, mod 2^(s slots), read s / 8 bytes at a time."""
    w = s // 8
    b = ((v + int.from_bytes((bytes(w - 1) + b"\x80") * slots, "little"))
         & ((1 << s * slots) - 1)).to_bytes(slots * w, "little")
    return list(map(sub, [int.from_bytes(b[i:i + w], "little") for i in range(0, len(b), w)],
                    repeat(1 << (s - 1))))


def _stride(nums: dict) -> int:
    """The gcd of the exponent gaps of a degree-1 support: 0 for one term."""
    e = next(iter(nums))
    return gcd(*map(sub, nums, repeat(e)))


def _multiply_classes(fn: dict, gn: dict, bound: int, s: int) -> dict:
    """Degree-1 f g to q^bound: f, of stride m >= g's, is one row r + m col;
    each class r' mod m of g packs the same way, and its product with f,
    from q^(r + r' + m (lo + lo')) on in steps of m, is read up to q^top, top
    the bound or the product's last exponent.  The numerators come back in
    ascending order, zeros dropped."""
    if _stride(fn) < _stride(gn):
        fn, gn = gn, fn
    m = _stride(fn) or 1
    fclass, gclasses = (_pack(map(mod, h, repeat(m)), map(floordiv, h, repeat(m)), h.values(), s)
                        for h in (fn, gn))
    ((r, (flo, fp)),) = fclass.items()
    base, top = min(fn) + min(gn), min(bound, max(fn) + max(gn))
    out = [0] * (top - base + 1)
    for rg, (glo, gp) in gclasses.items():
        start = r + rg + m * (flo + glo)
        if start <= top:
            out[start - base::m] = _unpack(fp * gp, s, (top - start) // m + 1)
    return dict(compress(zip(count(base), out), out))


def _rows(nums: dict, row_of, s: int, k: int) -> list:
    """(trace, code, row, lo, P) for each row of the support, in trace
    order: (lo, P) the packed row, and code = sum row[i] 2^(k i), which adds
    as the rows do and tells apart rows whose entries lie in (-2^(k-1), 2^(k-1))."""
    rows = _pack(map(row_of, nums), map(itemgetter(1), nums), nums.values(), s)
    return sorted((row[0] + row[-1], sum(map(lshift, row, range(0, k * len(row), k))), row, lo, p)
                  for row, (lo, p) in rows.items())


def _multiply_rows(frows: list, grows: list, bound: int, s: int) -> dict:
    """The packed products of every pair of rows within the bound, summed
    per target row, then unpacked."""
    acc, targets = {}, {}  # target code -> [lo, P]; -> an (f row, g row) pair adding up to it
    for ft, fc, fr, flo, fp in frows:
        for gt, gc, gr, glo, gp in grows:
            if ft + gt > bound:
                break
            if fc + gc not in targets:
                targets[fc + gc] = fr, gr
            _add_at(acc, fc + gc, flo + glo, fp * gp, s)
    nums = {}
    for code, (lo, v) in acc.items():
        a, *rest = map(add, *targets[code])
        slots = _unpack(v, s, v.bit_length() // s + 1)
        nums.update(zip(zip(repeat(a), count(lo), *map(repeat, rest)), slots))
    return nums


def lift_coefficient(lattice, k: int, t, alpha):
    """The Maass lift's coefficient at a nonzero index t."""
    det, e = lattice.det(t), lattice.content(t)
    if e == 1:
        return alpha(det)
    return sum(d ** (k - 1) * alpha(det // (d * d)) for d in divisors(e))


def lift(lattice, k: int, trace_bound: int, alpha, constant) -> TruncatedExpansion:
    """The weight-k Maass lift over every index of alpha, a degree-1 expansion read
    in place, which must reach q^n, n = ``lattice.alpha_length(trace_bound)``: a
    shorter one raises InsufficientTruncation.  Integer sums over one denominator;
    the result keeps (alpha, constant) as its ``lifted_from``."""
    n = lattice.alpha_length(trace_bound)
    if alpha.trace_bound < n:
        raise InsufficientTruncation(f"trace bound {trace_bound} reads alpha to q^{n}, "
                                     f"not q^{alpha.trace_bound}")
    constant = Fraction(constant)
    den = lcm(alpha.den, constant.denominator)
    top, scale = constant.numerator * (den // constant.denominator), den // alpha.den
    table = [alpha.nums.get(N, 0) * scale for N in range(n + 1)]
    tab = lattice.indices(trace_bound)
    terms = {e: [(d ** (k - 1), d * d) for d in divisors(e)] for e in set(tab.contents) if e > 1}
    nums = {t: table[N] if e == 1 else sum(c * table[N // q] for c, q in terms[e])
            for t, N, e in zip(tab, tab.dets, tab.contents) if e}
    nums[lattice.zero] = top
    f = TruncatedExpansion._of(lattice, k, trace_bound, den, nums)
    f.lifted_from = alpha, constant
    return f


@lru_cache(maxsize=None)
def eisenstein(lattice, form: str, k: int, trace_bound: int) -> TruncatedExpansion:
    """G_k, or E_k = G_k / G_k(0), over a degree-2 lattice."""
    if form not in ("G", "E"):
        raise ValueError(f"form must be 'G' or 'E', got {form!r}")
    _check_weight(k)
    if form == "E":
        return exp_scale(1 / lattice.g_constant(k), eisenstein(lattice, "G", k, trace_bound))
    alpha = lattice.g_alpha_table(k, lattice.alpha_length(trace_bound))
    return lift(lattice, k, trace_bound, alpha, lattice.g_constant(k))


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
_MAX_DEN = 10**_MAX_DEN_DIGITS
_VALUES = r"(?:-?[0-9]+(?:/[0-9]+)?\n)*"  # value tokens, one a line; compiled on first use


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
    is refused; and each fault is a ParseError with its line number.  Two
    routes, one contract: a canonical body, every key found in ``indices(bound)``
    and every value of the grammar, is read in bulk; any other body goes to
    the line loop, which alone raises ParseError and takes ``parse_key`` for a
    key spelled otherwise.  The table costs O(|indices|) once per process, as
    for exp_serialize, solve, verify, reduce and cusp-correct."""
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
    den, nums = (_parse_canonical(lat.indices(bound).lookup, lines, body_start, len(text))
                 or _parse_lines(lat, bound, lines, body_start, text))
    return TruncatedExpansion._of(lat, weight, bound, den, nums)


def _parse_canonical(lookup, lines, start, size):
    """(den, nums) read in bulk from the body lines[start:] of a text of ``size``
    characters; None, for the line loop, unless the lcm of the distinct
    denominators keeps within the loop's bounds as it grows and each nonblank
    line is a key of ``lookup``, never repeated, and a value of the grammar."""
    rows, den = lines[start:], 1
    try:  # a ValueError past the int-to-str digit limit, a KeyError at a key spelled otherwise
        for d in map(int, dict.fromkeys(re.findall(r"/([0-9]+)", "\n".join(rows)))):
            if den % d:  # a ZeroDivisionError at d = 0
                den = lcm(den, d)
                if den > _MAX_DEN or den.bit_length() * len(rows) > 1200 * size:
                    return None
        body = list(filter(None, map(str.split, rows)))
        if set(map(len, body)) != {2}:
            return None
        keys, values = zip(*body)
        if not re.fullmatch(_VALUES, "\n".join(values) + "\n") or len(set(keys)) < len(keys):
            return None
        idxs = list(map(lookup.__getitem__, keys))
        if den == 1:
            return 1, dict(zip(idxs, map(int, values)))
        ns, _, ds = zip(*map(str.partition, values, repeat("/")))
        scale = {s: den // int(s or 1) for s in dict.fromkeys(ds)}
        return den, dict(zip(idxs, map(mul, map(int, ns), map(scale.get, ds))))
    except (KeyError, ValueError, ZeroDivisionError):
        return None


def _parse_lines(lat, bound, lines, body_start, text):
    """(den, nums) read line by line, with a ParseError at the first faulty line."""
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
            if den > _MAX_DEN:
                raise ParseError(lineno, f"common denominator exceeds 10**{_MAX_DEN_DIGITS}")
            # a file printing den on every line keeps under log2(10) bits per character
            if den.bit_length() * (len(lines) - body_start) > 1200 * len(text):
                raise ParseError(lineno, "common denominator too large for the file's size")
    return den, {idx: n * (den // d) for idx, (n, d) in seen.items()}
