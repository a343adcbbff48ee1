"""Exact Fourier analysis of Boolean functions over the +/-1 domain.

Truth values are encoded T -> +1, F -> -1.  The coefficient of a subset R of
inputs is the average of f(x) * prod_{i in R} x_i over all points, always an
integer multiple of 2**-n.  Spectra are computed by a packed-lane integer
Walsh-Hadamard transform and kept as integer numerators over 2**n;
``Dyadic`` values are made only at the API and JSON boundary.  Nothing here
uses floats.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .boolfn import BoolFn, repeat_bits


@dataclass(frozen=True, slots=True)
class Dyadic:
    """Exact rational num / 2**exp with num odd or zero (then exp == 0)."""

    num: int
    exp: int

    def __post_init__(self) -> None:
        if self.exp < 0:
            raise ValueError("exponent must be non-negative")
        if self.num == 0:
            if self.exp != 0:
                raise ValueError("zero must have exponent 0")
        elif self.num % 2 == 0 and self.exp > 0:
            raise ValueError(f"{self.num}/2**{self.exp} is not in lowest terms")

    @classmethod
    def make(cls, num: int, exp: int = 0) -> "Dyadic":
        """Canonicalise num / 2**exp."""
        if num == 0:
            return cls(0, 0)
        shift = min((num & -num).bit_length() - 1, max(exp, 0))
        return cls(num >> shift, exp - shift)

    @staticmethod
    def _coerce(value: "Dyadic | int") -> "Dyadic":
        if isinstance(value, Dyadic):
            return value
        if isinstance(value, int):
            return Dyadic.make(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "Dyadic | int") -> "Dyadic":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        exp = max(self.exp, o.exp)
        num = (self.num << (exp - self.exp)) + (o.num << (exp - o.exp))
        return Dyadic.make(num, exp)

    __radd__ = __add__

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __sub__(self, other: "Dyadic | int") -> "Dyadic":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: int) -> "Dyadic":
        return Dyadic.make(other) + (-self)

    def __mul__(self, other: "Dyadic | int") -> "Dyadic":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Dyadic.make(self.num * o.num, self.exp + o.exp)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Dyadic":
        if k < 0:
            raise ValueError("negative powers are not dyadic in general")
        return Dyadic.make(self.num ** k, self.exp * k)

    def __bool__(self) -> bool:
        return self.num != 0

    def _scaled(self, exp: int) -> int:
        return self.num << (exp - self.exp)

    def __lt__(self, other: "Dyadic | int") -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        exp = max(self.exp, o.exp)
        return self._scaled(exp) < o._scaled(exp)

    def __le__(self, other: "Dyadic | int") -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        exp = max(self.exp, o.exp)
        return self._scaled(exp) <= o._scaled(exp)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Dyadic.make(other)
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


ZERO = Dyadic(0, 0)
ONE = Dyadic(1, 0)


# --- packed-lane Walsh-Hadamard kernel ----------------------------------------
#
# A vector of 2**n integers is held in one int as 2**n lanes of ``width``
# bits, lane k at bits [k*width, (k+1)*width).  Inside the transform each lane
# stores its value plus the bias 2**(width-1), so it is never negative and a
# butterfly stage is a few big-int operations on the whole vector.  Every
# value a stage makes is a signed sum of input values, so no lane can wrap
# while the sum of the inputs' absolute values stays below the bias.

_ARRAY_CODES = {array(code).itemsize * 8: code for code in "hilq"}
_SMALL_BITS = 1 << 12   # vectors up to this many bits keep their masks cached
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")   # 0/1 bytes -> binary digits


def _lane_width(bound: int) -> int:
    """Narrowest lane (16 bits times a power of two) that holds -bound..bound."""
    width = 16
    while bound >= 1 << (width - 1):
        width <<= 1
    return width


def _stage_masks(total: int, width: int, lane_bias: int) -> Iterator[tuple[int, int, int]]:
    """(shift, keep, bias) for each butterfly stage, one stage at a time.

    ``keep`` covers the lanes whose index has the stage's bit clear, and
    ``bias`` is ``lane_bias`` (2**(width-1) in every lane) on those lanes.
    """
    shift = width
    while shift < total:
        keep = repeat_bits((1 << shift) - 1, shift << 1, total)
        yield shift, keep, keep & lane_bias
        shift <<= 1


@lru_cache(maxsize=None)   # keys are bounded: total <= _SMALL_BITS
def _small_masks(total: int, width: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    lane_bias = repeat_bits(1 << (width - 1), width, total)
    return lane_bias, tuple(_stage_masks(total, width, lane_bias))


def _transform(x: int, npts: int, width: int, inverse: bool) -> int:
    """Walsh-Hadamard butterflies over two's-complement lanes.

    Forward, a stage maps the lane pair (without, with) the stage's input
    to (with + without, with - without); inverse, to (without - with,
    without + with).
    """
    total = npts * width
    if total <= _SMALL_BITS:
        lane_bias, stages = _small_masks(total, width)
    else:
        # a mask is as large as the vector here, so none outlives its stage
        lane_bias = repeat_bits(1 << (width - 1), width, total)
        stages = _stage_masks(total, width, lane_bias)
    x ^= lane_bias   # two's complement -> biased
    for shift, keep, bias in stages:
        lo = x & keep
        hi = (x >> shift) & keep
        if inverse:
            x = (lo - hi + bias) | ((lo + hi - bias) << shift)
        else:
            x = (hi + lo - bias) | ((hi - lo + bias) << shift)
    return x ^ lane_bias


@lru_cache(maxsize=None)
def _sign_lanes(width: int) -> tuple[bytes, ...]:
    """For each byte of a truth table, its 8 points as +/-1 lanes."""
    lane = [v.to_bytes(width // 8, "little", signed=True) for v in (-1, 1)]
    return tuple(b"".join(lane[byte >> k & 1] for k in range(8)) for byte in range(256))


def _pack(values: Sequence[int], width: int) -> int:
    """Values as two's-complement lanes of one int."""
    code = _ARRAY_CODES.get(width)
    if code is None:
        size = width // 8
        raw = b"".join(v.to_bytes(size, "little", signed=True) for v in values)
    else:
        lanes = array(code, values)
        if sys.byteorder == "big":
            lanes.byteswap()
        raw = lanes.tobytes()
    return int.from_bytes(raw, "little")


def _unpack(x: int, npts: int, width: int) -> Sequence[int]:
    """The ``npts`` two's-complement lanes of ``x`` as ints."""
    raw = x.to_bytes(npts * width // 8, "little")
    code = _ARRAY_CODES.get(width)
    if code is None:
        size = width // 8
        return [int.from_bytes(raw[i:i + size], "little", signed=True)
                for i in range(0, len(raw), size)]
    lanes = array(code, raw)
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


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
        if len(self.nums) != 1 << self.n:
            raise ValueError(f"expected {1 << self.n} coefficients, got {len(self.nums)}")

    @cached_property
    def coeffs(self) -> tuple[Dyadic, ...]:
        """All coefficients as canonical ``Dyadic`` values."""
        return tuple(Dyadic.make(v, self.n) for v in self.nums)

    def __getitem__(self, subset: int) -> Dyadic:
        """Coefficient of the subset given as an n-bit index mask."""
        return Dyadic.make(self.nums[subset], self.n)

    def coefficient(self, subset: Iterable[int]) -> Dyadic:
        """Coefficient of the subset given as an iterable of input indices."""
        mask = 0
        for i in subset:
            if not 0 <= i < self.n:
                raise ValueError(f"index {i} out of range for arity {self.n}")
            mask |= 1 << i
        return self[mask]

    def parseval_sum(self) -> Dyadic:
        """Sum of squared coefficients; exactly 1 for any Boolean function."""
        return Dyadic.make(sum(v * v for v in self.nums), 2 * self.n)

    def support(self) -> tuple[int, ...]:
        """Subset masks with non-zero coefficient, ascending."""
        return tuple(s for s, v in enumerate(self.nums) if v)


def spectrum(f: BoolFn) -> FourierSpectrum:
    """Exact spectrum by the packed-lane integer transform, O(n * 2**n) bit work.

    The table's +/-1 values are packed into one int of 16- or 32-bit lanes,
    each of the n butterfly stages is a few big-int operations on it, and the
    result is unpacked as numerators over 2**n.
    """
    npts = f.points
    width = _lane_width(npts)
    signs = _sign_lanes(width)
    raw = b"".join(map(signs.__getitem__, f.table.to_bytes((npts + 7) // 8, "little")))
    x = int.from_bytes(raw[:npts * width // 8], "little")
    return FourierSpectrum(f.n, tuple(_unpack(_transform(x, npts, width, False), npts, width)))


def reconstruct(spec: FourierSpectrum) -> BoolFn:
    """Inverse transform; errors if the coefficients are not a Boolean function.

    A Boolean function has every value +/-1, so every lane of the inverse
    transform holds +/-2**n; the test and the table both come from the
    lanes' sign bits.
    """
    npts, nums = 1 << spec.n, spec.nums
    width = _lane_width(sum(map(abs, nums)))
    total = npts * width
    x = _transform(_pack(nums, width), npts, width, True)
    ones = repeat_bits(1, width, total)
    neg = (x >> (width - 1)) & ones   # 1 in each lane whose sign bit is set
    # each lane must hold 2**n, or -2**n (2**width - 2**n) where negative
    if x != ones * npts + neg * ((1 << width) - 2 * npts):
        p, v = next((p, v) for p, v in enumerate(_unpack(x, npts, width))
                    if v != npts and v != -npts)
        exp = max(c.exp for c in spec.coeffs)
        raise ValueError(f"coefficients do not describe a Boolean function "
                         f"(value {v >> (spec.n - exp)}/2**{exp} at point {p})")
    # one byte per lane, 1 where the value is +2**n, read as binary digits
    digits = (neg ^ ones).to_bytes(total // 8, "little")[::width // 8].translate(_DIGITS)
    return BoolFn(spec.n, int(digits[::-1], 2))


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
    m, n = g.n, f.n
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

    ghat = spectrum(g)
    fhat = spectrum(f)
    col_rows = [0] * n   # per column j, mask of rows used by U
    row_cols = [0] * m   # per row i, mask of columns used by U
    for i in range(m):
        for j in range(n):
            if umask >> (i * n + j) & 1:
                col_rows[j] |= 1 << i
                row_cols[i] |= 1 << j
    s_mask = 0           # columns touched by U, as a subset of f's inputs
    for j in range(n):
        if col_rows[j]:
            s_mask |= 1 << j
    r_mask = 0           # rows touched by U, as a subset of g's inputs
    for i in range(m):
        if row_cols[i]:
            r_mask |= 1 << i

    def side(outer: FourierSpectrum, inner: FourierSpectrum, touched: int,
             used_masks: list[int]) -> Dyadic:
        # outer[S] is outer.nums[S] / 2**a and inner[S] is inner.nums[S] / 2**b;
        # every superset term is brought over 2**(a + b * spare) before the sum
        a, b = outer.n, inner.n
        spare = a - touched.bit_count()
        empty = inner.nums[0]
        total = 0
        for sup in _supersets(touched, (1 << a) - 1):
            extra = (sup & ~touched).bit_count()
            total += (outer.nums[sup] * empty ** extra) << (b * (spare - extra))
        exp = a + b * spare
        for mask in used_masks:
            if mask:
                total *= inner.nums[mask]
                exp += b
        return Dyadic.make(total, exp)

    lhs = side(fhat, ghat, s_mask, col_rows)
    rhs = side(ghat, fhat, r_mask, row_cols)
    return lhs, rhs


def rectangle_identity(g: BoolFn, f: BoolFn, rows: Iterable[int],
                       cols: Iterable[int]) -> tuple[Dyadic, Dyadic]:
    """Cell-subset identity specialised to a full rectangle R x S.

    ``rows`` are g-input indices, ``cols`` f-input indices; both non-empty.
    """
    rset = set(rows)
    cset = set(cols)
    if not rset or not cset:
        raise ValueError("rectangle needs non-empty row and column sets")
    return cell_subset_identity(g, f, [(i, j) for i in rset for j in cset])
