"""Exact Fourier analysis of Boolean functions over the +/-1 domain.

Truth values are encoded T -> +1, F -> -1.  The coefficient of a subset R of
inputs is the average of f(x) * prod_{i in R} x_i over all points, always an
integer multiple of 2**-n.  Spectra are kept as integer numerators over 2**n
and computed by an integer Walsh-Hadamard transform on packed lanes, which
every spectrum carries.  The first three stages are read from a per-byte
table.  At arity 4 the two table bytes' cached entries are joined by one
stage on one int; at every other arity the lanes run over cache-sized
chunks.  ``Dyadic`` values are made only at the API and JSON boundary.
Nothing here uses floats.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce, total_ordering
from itertools import repeat
from operator import mul, or_
from typing import Callable, Iterable, Sequence

from .boolfn import BoolFn, repeat_bits


@total_ordering
@dataclass(frozen=True, slots=True)
class Dyadic:
    """Exact rational num / 2**exp with num odd or zero (then exp == 0)."""

    num: int
    exp: int

    def __post_init__(self) -> None:
        if not (isinstance(self.num, int) and isinstance(self.exp, int)):
            raise ValueError("numerator and exponent must be integers")
        if self.exp < 0:
            raise ValueError("exponent must be non-negative")
        if self.num == 0:
            if self.exp != 0:
                raise ValueError("zero must have exponent 0")
        elif self.num % 2 == 0 and self.exp > 0:
            raise ValueError(f"{self.num}/2**{self.exp} is not in lowest terms")

    @classmethod
    def make(cls, num: int, exp: int = 0) -> "Dyadic":
        """Canonicalise num / 2**exp.

        The result is canonical by construction, so its slots are set
        directly rather than checked again by ``__post_init__``.
        """
        if num == 0:
            return ZERO
        if exp < 0:
            raise ValueError("exponent must be non-negative")
        shift = (num & -num).bit_length() - 1
        if shift > exp:
            shift = exp
        value = _new(cls)
        _set_num(value, num >> shift)
        _set_exp(value, exp - shift)
        return value

    def _aligned(self, other: "Dyadic | int") -> "tuple[int, int, int] | None":
        """Both numerators over their common exponent, and that exponent;
        None when ``other`` is neither a ``Dyadic`` nor an int."""
        if isinstance(other, Dyadic):
            num, exp = other.num, other.exp
        elif isinstance(other, int):   # an int is other / 2**0
            num, exp = other, 0
        else:
            return None
        common = max(self.exp, exp)
        return self.num << (common - self.exp), num << (common - exp), common

    def __add__(self, other: "Dyadic | int") -> "Dyadic":
        both = self._aligned(other)
        return NotImplemented if both is None else Dyadic.make(both[0] + both[1], both[2])

    __radd__ = __add__

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __sub__(self, other: "Dyadic | int") -> "Dyadic":
        both = self._aligned(other)
        return NotImplemented if both is None else Dyadic.make(both[0] - both[1], both[2])

    def __rsub__(self, other: "Dyadic | int") -> "Dyadic":
        both = self._aligned(other)
        return NotImplemented if both is None else Dyadic.make(both[1] - both[0], both[2])

    def __mul__(self, other: "Dyadic | int") -> "Dyadic":
        both = self._aligned(other)
        return NotImplemented if both is None else Dyadic.make(both[0] * both[1], 2 * both[2])

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Dyadic":
        if k < 0:
            raise ValueError("negative powers are not dyadic in general")
        return Dyadic.make(self.num ** k, self.exp * k)

    def __bool__(self) -> bool:
        return self.num != 0

    def __lt__(self, other: "Dyadic | int") -> bool:
        both = self._aligned(other)
        return NotImplemented if both is None else both[0] < both[1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):  # an int is the canonical other / 2**0
            return self.exp == 0 and self.num == other
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __hash__(self) -> int:
        # integers compare equal to exp-0 dyadics, so they must hash alike
        return hash(self.num) if self.exp == 0 else hash((self.num, self.exp))

    def __float__(self) -> float:
        return self.num / (1 << self.exp)

    def __str__(self) -> str:
        return str(self.num) if self.exp == 0 else f"{self.num}/2^{self.exp}"


_new = object.__new__
_set_num = Dyadic.num.__set__   # the slot descriptors, past the frozen __setattr__
_set_exp = Dyadic.exp.__set__
ZERO = Dyadic(0, 0)
ONE = Dyadic(1, 0)


# --- chunked Walsh-Hadamard kernel --------------------------------------------
#
# A vector of 2**n integers is held as 2**n little-endian lanes of ``width``
# bits in one byte string, lane k at bits [k*width, (k+1)*width).  Lanes of
# 16, 32 or 64 bits go to and from ints through one cached ``struct`` format
# per lane count and width.  The transform reads the vector as chunks of at
# most _CHUNK_BITS bits, one int each.  Inside the transform each lane
# stores its value plus the bias 2**(width-1), so it is never negative and
# chunks add lane by lane.  A butterfly stage whose lane pairs lie inside a
# chunk is one update of a few big-int operations on the chunk, and a chunk
# runs all such stages while it is in cache; a stage whose pairs are whole
# chunks adds and subtracts chunk ints.  Every value a stage makes is a
# signed sum of input values, so no lane can wrap while the sum of the
# inputs' absolute values stays below the bias.  One cached plan per vector
# size and width holds a transform's chunk size, every in-chunk stage's masks
# and the chunk starts, so a call does no size arithmetic and only slices off
# the stages it skips; the masks are cached per chunk size, so every vector
# larger than one chunk shares them.
#
# The first three stages pair points inside one byte of a truth table, so a
# table per byte value (``_byte_plan``) does them for ``spectrum`` and reads
# them back for ``reconstruct``.
#
# At arity 4 a spectrum is two byte entries and one stage, too little for
# the chunked transform: the entries are cached as ints (``_join_plan``) and
# joined by one add, and the inverse of that stage splits the lanes again.
# Every other arity runs the chunked transform, which up to arity 3 has no
# stage left past the byte table.
#
# ``spectrum`` leaves its lanes on the spectrum, at the forward width that
# holds +/-2**n, and ``reconstruct`` runs the inverse on them.  That width
# holds every inverse value: the inverse stages commute, and each undoes its
# forward stage times 2, so after any set S of inverse stages a Boolean
# spectrum's lanes are 2**|S| times the transform of the table over the
# other n - |S| stages.  Those values are bounded by 2**(n - |S|), so every
# lane stays within +/-2**n.

_LANE_CODES = {16: "h", 32: "i", 64: "q"}   # struct codes of the fixed lane widths
_CHUNK_BITS = 1 << 16   # 8 KB; 2**12 to 2**18 bits time alike at arities 16 and 17
_BYTE_STAGES = 3        # the stages inside one byte of a truth table
_JOIN_ARITY = _BYTE_STAGES + 1   # two byte entries and one stage, joined on one int


def _lane_width(bound: int) -> int:
    """Narrowest lane (16 bits times a power of two) that holds -bound..bound."""
    width = 16
    while bound >= 1 << (width - 1):
        width <<= 1
    return width


@lru_cache(maxsize=None)   # keys: chunk bit counts, lane widths
def _chunk_masks(bits: int, width: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Lane bias and in-chunk stages of a ``bits``-bit chunk of ``width``-bit
    lanes, shared by every vector whose chunks are that size.

    The bias is 2**(width-1) in every lane of the chunk.  Each stage whose
    lane pairs lie inside the chunk gives (shift, keep, carry): ``keep``
    covers the lanes whose index has the stage's bit clear, and ``carry`` is
    ``(bias << shift) - bias`` for the lane bias on those lanes.
    """
    lane_bias = repeat_bits(1 << (width - 1), width, bits)
    stages = []
    shift = width
    while shift < bits:
        keep = repeat_bits((1 << shift) - 1, shift << 1, bits)
        bias = keep & lane_bias
        stages.append((shift, keep, (bias << shift) - bias))
        shift <<= 1
    return lane_bias, tuple(stages)


@lru_cache(maxsize=None)   # keys: vector sizes, lane widths
def _chunk_plan(size: int, width: int
                ) -> tuple[int, int, tuple[tuple[int, int, int], ...], int, range]:
    """Chunk size, lane bias, in-chunk stages, first chunk span and chunk
    starts for a ``size``-byte vector of ``width``-bit lanes.

    Chunks are ``step`` bytes: the whole vector if it fits _CHUNK_BITS, else
    _CHUNK_BITS or one byte's 8 lanes, whichever is wider, so the stages a
    transform skips always lie inside a chunk.  The bias and stages come
    from ``_chunk_masks``.  The later stages pair whole chunks, the first
    one chunks ``span`` apart; ``span`` is 0 when the vector is one chunk.
    """
    step = size if size <= _CHUNK_BITS // 8 else max(_CHUNK_BITS, width << _BYTE_STAGES) // 8
    bits = step * 8
    lane_bias, stages = _chunk_masks(bits, width)
    # the first stage past the in-chunk ones pairs lanes that many chunks apart
    span = (width << len(stages)) // bits if step < size else 0
    return step, lane_bias, stages, span, range(0, size, step)


def _transform(raw: bytes, width: int, inverse: bool, skip: int) -> bytes:
    """Walsh-Hadamard butterflies over the two's-complement lanes of ``raw``,
    all stages but the first ``skip``.

    Forward, a stage maps the lane pair (without, with) the stage's input
    to (with + without, with - without); inverse, to (without - with,
    without + with), which undoes the forward stage times 2.
    """
    step, lane_bias, stages, span, starts = _chunk_plan(len(raw), width)
    stages = stages[skip:]
    chunks = []
    for start in starts:
        x = int.from_bytes(raw[start:start + step], "little") ^ lane_bias
        # with x = lo + (hi << shift), the forward stage adds
        # (hi - bias) - ((lo - bias) << shift); the inverse subtracts it
        if inverse:
            for shift, keep, carry in stages:
                x -= ((x >> shift) & keep) - ((x & keep) << shift) + carry
        else:
            for shift, keep, carry in stages:
                x += ((x >> shift) & keep) - ((x & keep) << shift) + carry
        if not span:   # one chunk, as up to arity 12: nothing to pair or join
            return (x ^ lane_bias).to_bytes(step, "little")
        chunks.append(x)
    count = len(chunks)
    while span < count:
        pairs = [(k, k + span) for base in range(0, count, span << 1)
                 for k in range(base, base + span)]
        if inverse:
            for k, j in pairs:
                lo, hi = chunks[k], chunks[j]
                chunks[k], chunks[j] = lo - hi + lane_bias, lo + hi - lane_bias
        else:
            for k, j in pairs:
                lo, hi = chunks[k], chunks[j]
                chunks[k], chunks[j] = hi + lo - lane_bias, hi - lo + lane_bias
        span <<= 1
    return b"".join([(x ^ lane_bias).to_bytes(step, "little") for x in chunks])


@lru_cache(maxsize=None)   # keys: lane counts up to 2**arity, widths 16, 32 and 64
def _lane_struct(count: int, width: int) -> struct.Struct:
    """The codec of ``count`` little-endian two's-complement lanes."""
    return struct.Struct(f"<{count}{_LANE_CODES[width]}")


def _pack(values: Sequence[int], width: int) -> bytes:
    """Values as two's-complement lanes."""
    if width > 64:
        size = width // 8
        return b"".join(v.to_bytes(size, "little", signed=True) for v in values)
    return _lane_struct(len(values), width).pack(*values)


def _unpack(raw: bytes, width: int) -> tuple[int, ...]:
    """The two's-complement lanes of ``raw`` as ints."""
    if width > 64:
        size = width // 8
        return tuple(int.from_bytes(raw[i:i + size], "little", signed=True)
                     for i in range(0, len(raw), size))
    return _lane_struct(len(raw) * 8 // width, width).unpack(raw)


@lru_cache(maxsize=None)   # keys: arities up to the arity cap, lane widths
def _byte_plan(n: int, width: int) -> tuple[tuple[bytes, ...], dict[bytes, int],
                                            Callable[[bytes], list[bytes]]]:
    """Forward entries, their reverse map and a lane splitter for the bytes
    of an arity-n truth table.

    The entry of byte value b is b's points (all 2**n of them below arity 3)
    as +/-1 lanes after the first min(n, 3) forward stages.  The map takes
    each entry times 2**(n-3) back to b: that is what the remaining inverse
    stages leave in a byte's lanes when the spectrum is Boolean, since each
    inverse stage undoes its forward stage times 2.  The map is empty when
    2**n does not fit a lane, as no Boolean spectrum has lanes that narrow.
    The splitter cuts a vector into one byte string per table byte.
    """
    points = min(1 << n, 8)
    scale = n - min(n, _BYTE_STAGES)
    lane = [v.to_bytes(width // 8, "little", signed=True) for v in (-1, 1)]
    forward, back = [], {}
    for byte in range(1 << points):
        signs = b"".join(lane[byte >> k & 1] for k in range(points))
        entry = _transform(signs, width, False, 0)
        forward.append(entry)
        if n < width - 1:
            back[_pack([v << scale for v in _unpack(entry, width)], width)] = byte
    split = re.compile(b".{%d}" % (points * width // 8), re.DOTALL).findall
    return tuple(forward), back, split


_JOIN_HALF = 16 << _BYTE_STAGES   # bits of one byte's 8 lanes, half an arity-4 spectrum
_JOIN_LOW = (1 << _JOIN_HALF) - 1
_JOIN_BIAS = repeat_bits(1 << 15, 16, 2 * _JOIN_HALF)


@lru_cache(maxsize=None)   # one entry, made on the first arity-4 call
def _join_plan() -> tuple[tuple[int, ...], tuple[int, ...], Callable[[bytes], tuple[int, ...]],
                          dict[int, int], dict[int, int]]:
    """The arity-4 byte plan at 16-bit lanes as ints: what the high and the
    low table byte add to the spectrum's biased lanes, the lane reader, and
    the reverse maps of the low and the high byte.

    Let e be a byte's entry as one int, each of its 8 lanes plus 2**15, B
    that bias in all 8 lanes, and h and l the high and low bytes' entries.
    The last stage puts h + l in the lanes without input 3 and h - l in
    those with it, which as biased lanes is
    h * (1 + 2**128) + (l - B) * (1 - 2**128): the high byte's biased entry
    in both halves, and the low byte's unbiased entry added to one and taken
    from the other.  So the join is one add, and as every lane stays within
    2**15 +/- 16 none carries.

    Read back as biased halves w and x, the inverse of that stage gives
    w - x, with the low byte's lanes 2l unbiased, and w + x, with the high
    byte's lanes 2h biased by 2B; so the maps are keyed by 2 * (e - B) and
    by 2 * e.  When the lanes are 16 bits wide the numerators' absolute sum
    is below 2**15, so every lane of w - x and of w + x - 2B lies within
    +/-2**15 and is read back uniquely from the int: a hit means every lane
    equals the entry's, that is the spectrum is exactly Boolean.
    """
    bias = _JOIN_BIAS & _JOIN_LOW
    entries = [int.from_bytes(entry, "little") ^ bias
               for entry in _byte_plan(_JOIN_ARITY, 16)[0]]
    return (tuple(e | e << _JOIN_HALF for e in entries),
            tuple((e - bias) - ((e - bias) << _JOIN_HALF) for e in entries),
            _lane_struct(1 << _JOIN_ARITY, 16).unpack,
            {2 * (e - bias): byte for byte, e in enumerate(entries)},
            {2 * e: byte << 8 for byte, e in enumerate(entries)})


# --- spectra ------------------------------------------------------------------

@dataclass(frozen=True)
class FourierSpectrum:
    """All 2**n coefficients of an arity-n function, indexed by subset bitmask.

    ``nums[R]`` is the numerator of the coefficient of R over the fixed
    denominator 2**n; the ``Dyadic`` views are made on request.
    """

    n: int
    nums: tuple[int, ...]

    def __post_init__(self) -> None:
        # stored as a tuple, so a spectrum given a list hashes and equals one given a tuple
        object.__setattr__(self, "nums", tuple(self.nums))
        if self.n < 0:
            raise ValueError(f"arity must be non-negative, got {self.n}")
        if len(self.nums) != 1 << self.n:
            raise ValueError(f"expected {1 << self.n} coefficients, got {len(self.nums)}")
        if not all(isinstance(num, int) for num in self.nums):
            raise ValueError("coefficient numerators must be integers")

    @cached_property
    def _lanes(self) -> tuple[int, bytes]:
        """Lane width and the numerators packed as lanes, for ``reconstruct``.

        ``spectrum`` fills this with the lanes it made; otherwise the width
        holds the sum of the numerators' absolute values, which bounds every
        value an inverse stage can make.
        """
        width = _lane_width(sum(map(abs, self.nums)))
        return width, _pack(self.nums, width)

    @cached_property
    def coeffs(self) -> tuple[Dyadic, ...]:
        """All coefficients as canonical ``Dyadic`` values.

        Equal coefficients share one object, as ``Dyadic`` is immutable and
        a Boolean spectrum has few distinct values: two for ``and:n``, and
        hundreds among the 2**16 coefficients of a random arity-16 table.
        """
        values = {num: Dyadic.make(num, self.n) for num in set(self.nums)}
        return tuple(map(values.__getitem__, self.nums))

    def __getitem__(self, subset: int) -> Dyadic:
        """Coefficient of the subset given as an n-bit index mask."""
        if not 0 <= subset < len(self.nums):
            raise ValueError(f"subset mask {subset} out of range for arity {self.n}")
        return Dyadic.make(self.nums[subset], self.n)

    def parseval_sum(self) -> Dyadic:
        """Sum of squared coefficients; exactly 1 for any Boolean function."""
        return Dyadic.make(sum(map(mul, self.nums, self.nums)), 2 * self.n)

    def support(self) -> tuple[int, ...]:
        """Subset masks with non-zero coefficient, ascending."""
        return tuple(s for s, v in enumerate(self.nums) if v)


def spectrum(f: BoolFn) -> FourierSpectrum:
    """Exact spectrum by the Walsh-Hadamard transform, O(n * 2**n) bit work.

    At arity 4 one add of the two table bytes' join plan ints runs the last
    butterfly stage and the numerators are read off its lanes; at every
    other arity see ``_packed_spectrum``.  Either way the spectrum keeps its
    lanes for ``reconstruct``.
    """
    n = f.n
    if n != _JOIN_ARITY:
        return _packed_spectrum(f)
    high, low, read, _, _ = _join_plan()
    table = f.table
    raw = (high[table >> 8] + low[table & 0xFF] ^ _JOIN_BIAS).to_bytes(32, "little")
    # valid by construction, so filled without the constructor's checks
    spec = _new(FourierSpectrum)
    spec.__dict__.update(n=n, nums=read(raw), _lanes=(16, raw))
    return spec


def _packed_spectrum(f: BoolFn) -> FourierSpectrum:
    """``spectrum`` by the chunked packed-lane transform, at any arity.

    Each byte of the table becomes its entry in the byte plan, a lane of 16
    or 32 bits per point, already through the first three butterfly stages
    (below arity 3 a byte is the whole table and its entry the spectrum's
    lanes); the transform runs the rest, and the lanes are read as
    numerators over 2**n.  The lanes are the narrowest that hold +/-2**n,
    and the spectrum keeps them for ``reconstruct``.
    """
    n = f.n
    width = _lane_width(1 << n)
    forward = _byte_plan(n, width)[0]
    raw = b"".join(map(forward.__getitem__, f.table.to_bytes(((1 << n) + 7) // 8, "little")))
    raw = _transform(raw, width, False, _BYTE_STAGES)
    spec = _new(FourierSpectrum)
    spec.__dict__.update(n=n, nums=_unpack(raw, width), _lanes=(width, raw))
    return spec


def reconstruct(spec: FourierSpectrum) -> BoolFn:
    """Inverse transform; errors if the coefficients are not a Boolean function.

    At arity 4, on 16-bit lanes, the inverse of the last stage splits the
    lanes into each table byte's entry times 2, each looked up in the join
    plan.  The transform is a bijection, so the lookups hit exactly on a
    Boolean spectrum.  At every other arity, on wider lanes, and on a miss
    to name the first bad point, see ``_packed_reconstruct``.
    """
    n = spec.n
    if n == _JOIN_ARITY:
        width, raw = spec._lanes
        if width == 16:
            back_low, back_high = _join_plan()[3:]
            x = int.from_bytes(raw, "little") ^ _JOIN_BIAS
            without, with_ = x & _JOIN_LOW, x >> _JOIN_HALF
            try:
                return BoolFn(n, back_low[without - with_] | back_high[without + with_])
            except KeyError:   # not Boolean
                pass
    return _packed_reconstruct(spec)


def _packed_reconstruct(spec: FourierSpectrum) -> BoolFn:
    """``reconstruct`` by the chunked packed-lane transform, at any arity.

    All inverse stages but the first three run on the spectrum's lanes; for
    a Boolean function each byte's lanes are then 2**(n-3) times its
    byte-plan entry, so one lookup per byte both tests the lanes and decodes
    the table byte.  Only when a lookup misses does the full inverse run, to
    name the first bad point.
    """
    n = spec.n
    width, packed = spec._lanes
    _, back, split = _byte_plan(n, width)
    groups = split(_transform(packed, width, True, _BYTE_STAGES))
    try:
        # a miss gives 256, which bytes() rejects
        table = bytes(map(back.get, groups, repeat(256)))
    except ValueError:
        npts = 1 << n
        values = _unpack(_transform(packed, width, True, 0), width)
        p, v = next((p, v) for p, v in enumerate(values) if v != npts and v != -npts)
        # the largest exponent among the coefficients: the lowest set bit of
        # any numerator over 2**n, read off their OR
        exp = Dyadic.make(reduce(or_, spec.nums), n).exp
        raise ValueError(f"coefficients do not describe a Boolean function "
                         f"(value {v >> (n - exp)}/2**{exp} at point {p})") from None
    return BoolFn(n, int.from_bytes(table, "little"))


# --- composition-coefficient identities -------------------------------------

def _supersets(mask: int, universe: int) -> Iterable[int]:
    """All subsets of ``universe`` containing ``mask``."""
    free = universe & ~mask
    sub = 0
    while True:
        yield mask | sub
        if sub == free:
            return
        sub = (sub - free) & free


def cell_subset_identity(g: BoolFn, f: BoolFn,
                         cells: "int | Iterable[tuple[int, int]]",
                         ) -> tuple[Dyadic, Dyadic]:
    """Both sides of the coefficient identity for a set of matrix cells.

    For an m x n matrix of inputs (g down columns of height m, f across rows
    of width n) and a cell set U, the two composite evaluations have, as
    functions of the matrix entries, these coefficients on the monomial
    prod_{(i,j) in U} M_ij:

      column-then-row side:
        (sum over S' containing the column set of U of fhat(S') * ghat({})**extra)
        * prod over used columns j of ghat(rows of U in column j)
      row-then-column side: same with g and f, rows and columns, swapped.

    The pair is equal for every U exactly when (g, f) commute on all matrices.
    Cells are (row, col) pairs or a bitmask with bit i*n + j for cell (i, j).
    """
    return _cell_subset_identity(spectrum(g), spectrum(f), cells)


def _cell_subset_identity(ghat: FourierSpectrum, fhat: FourierSpectrum,
                          cells: "int | Iterable[tuple[int, int]]",
                          ) -> tuple[Dyadic, Dyadic]:
    """``cell_subset_identity`` from the two spectra, so that a caller
    checking many cell sets on one pair transforms each table once."""
    m, n = ghat.n, fhat.n
    if isinstance(cells, int):
        umask = cells
        if not 0 <= umask < 1 << (m * n):
            raise ValueError(f"cell mask {umask:#x} out of range for {m}x{n}")
    else:
        umask = 0
        for (i, j) in cells:
            if not (0 <= i < m and 0 <= j < n):
                raise ValueError(f"cell ({i}, {j}) out of range for {m}x{n}")
            umask |= 1 << (i * n + j)

    # row i's columns in U are the n-bit field of the mask at bit i*n, and
    # column j's rows are gathered from bit j of every row's field
    row_cols = [umask >> (i * n) & ((1 << n) - 1) for i in range(m)]
    col_rows = [sum((cols >> j & 1) << i for i, cols in enumerate(row_cols)) for j in range(n)]

    def side(outer: FourierSpectrum, inner: FourierSpectrum,
             used_masks: list[int]) -> Dyadic:
        # outer[S] is outer.nums[S] / 2**a and inner[S] is inner.nums[S] / 2**b;
        # every superset term is brought over 2**(a + b * spare) before the sum,
        # and each touched input's inner coefficient adds its 2**b
        a, b = outer.n, inner.n
        touched = sum(1 << k for k, mask in enumerate(used_masks) if mask)
        spare = a - touched.bit_count()
        empty = inner.nums[0]
        total = 0
        for sup in _supersets(touched, (1 << a) - 1):
            extra = (sup & ~touched).bit_count()
            total += (outer.nums[sup] * empty ** extra) << (b * (spare - extra))
        for mask in used_masks:
            if mask:
                total *= inner.nums[mask]
        return Dyadic.make(total, a + b * a)

    return side(fhat, ghat, col_rows), side(ghat, fhat, row_cols)


def rectangle_identity(g: BoolFn, f: BoolFn, rows: Iterable[int],
                       cols: Iterable[int]) -> tuple[Dyadic, Dyadic]:
    """Cell-subset identity specialised to a full rectangle R x S.

    ``rows`` are g-input indices, ``cols`` f-input indices; both non-empty.
    """
    rset = set(rows)
    cset = set(cols)
    if not rset or not cset:
        raise ValueError("rectangle needs non-empty row and column sets")
    return _cell_subset_identity(spectrum(g), spectrum(f),
                                 [(i, j) for i in rset for j in cset])
