"""Total Boolean functions as bit-packed truth tables.

A function of arity ``n`` stores its table in a single int of ``2**n`` bits:
bit ``p`` is the output on the input point whose i-th component (0-based) is
bit ``i`` of ``p``, so input 0 is the least significant bit of the point
index.  This keeps evaluation, cofactor tests, and whole-table sweeps as
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

from .config import DEFAULT, BudgetError, Config
from .formula import And, Atom, Formula, Not, Or

def repeat_bits(pattern: int, period: int, width: int) -> int:
    """The ``width``-bit int that repeats the ``period``-bit ``pattern`` from bit 0.

    Built by doubling (``x |= x << period``), so the cost is linear in
    ``width``.  This is the one way periodic masks are made.
    """
    while period < width:
        pattern |= pattern << period
        period <<= 1
    return pattern if period == width else pattern & ((1 << width) - 1)


def stretch_bits(table: int, points: int, block: int) -> int:
    """The ``points``-bit ``table`` with each bit repeated ``block`` times.

    Whole-byte blocks are joined as bytes; other blocks are placed one set
    bit at a time.
    """
    if block & 7:
        ones, out = (1 << block) - 1, 0
        for x in set_bits(table):
            out |= ones << x * block
        return out
    on, off = b"\xff" * (block >> 3), bytes(block >> 3)
    return int.from_bytes(b"".join([on if table >> x & 1 else off for x in range(points)]),
                          "little")


_BYTE_BOOLS: list[tuple[bool, ...]] = []   # entry b: the 8 bits of byte b, bit 0 first


def _bools(value: int, width: int) -> tuple[bool, ...]:
    """The bits of ``value`` (below 2**width), bit 0 first, read a byte at a
    time from a table of the 256 bytes built on first use.  It decodes
    counterexample matrices, judgments and witness assignments."""
    if not _BYTE_BOOLS:
        _BYTE_BOOLS.extend(tuple(b >> s & 1 == 1 for s in range(8)) for b in range(256))
    if width <= 8:
        return _BYTE_BOOLS[value][:width]
    out: tuple[bool, ...] = ()
    for byte in value.to_bytes((width + 7) >> 3, "little"):
        out += _BYTE_BOOLS[byte]
    return out[:width]


def variable_mask(i: int, n: int) -> int:
    """Truth table (as an int over 2**n points) of the i-th input itself."""
    if not 0 <= i < n:
        raise ValueError(f"variable index {i} out of range for arity {n}")
    block = 1 << i
    return repeat_bits(((1 << block) - 1) << block, block << 1, 1 << n)


def compose(f: "BoolFn", arg_tables: Sequence[int], width: int) -> int:
    """Truth table of ``f`` applied pointwise to ``width``-point argument tables.

    Each entry of ``arg_tables`` is a table over the same point set; the
    result has bit ``p`` set iff ``f`` maps the argument bits at ``p`` to T.
    Only the T points of ``f`` are visited, one term each, or its F points
    when those are fewer, with the result negated.  Each argument is negated
    at most once, when a term first needs it.
    """
    if len(arg_tables) != f.n:
        raise ValueError(f"expected {f.n} argument tables, got {len(arg_tables)}")
    full = (1 << width) - 1
    # literals[i][b]: the points where argument i reads b; [0] made on first use
    literals: list[list[int | None]] = [[None, arg] for arg in arg_tables]
    # the terms are disjoint, so each is XORed in: onto 0 for T points, or
    # onto full for F points, which leaves their complement
    out, rest, points = 0, f.table, 1 << f.n
    if rest.bit_count() << 1 > points:
        out, rest = full, rest ^ ((1 << points) - 1)
    while rest:
        low = rest & -rest
        rest ^= low
        minterm = low.bit_length() - 1
        acc = full
        for literal in literals:
            table = literal[minterm & 1]
            if table is None:
                table = literal[0] = full ^ literal[1]  # type: ignore[operator]
            acc &= table
            if not acc:
                break
            minterm >>= 1
        out ^= acc
    return out


def minterms(tables: Sequence[int], width: int) -> list[int]:
    """Entry x: the ``width``-point set where ``tables[i]`` reads bit i of x.

    The entries are disjoint and cover every point.  They are built by
    splitting the full set on each table in turn, so an OR of entries is
    ``compose`` of the function with those T points, shared across functions.
    """
    full = (1 << width) - 1
    out = [full]
    for table in tables:
        out = [e & t for t in (full ^ table, table) for e in out]
    return out


def set_bits(mask: int) -> list[int]:
    """Indices of the set bits of a non-negative ``mask``, in ascending order."""
    bits = format(mask, "b")[::-1]
    out, i = [], bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


# largest arity of a set over all tables: at arity 5 one has 2**32 bits
MAX_TABLE_SET_ARITY = 4


@cache
def _input_lifts(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Entry i, item c: the arity-``n`` table of the arity-1 function of
    table c (F, not, identity, T) applied to input i.

    So item 1 is the points where input i is F, ``full ^ variable_mask(i, n)``,
    and item 2 those where it is T.  At arity 2**k these are the candidate
    columns of the arity-k tables: the sets of tables F and T at point i
    (264 KB at k = 4).  It is the one source of variable columns for the
    structure tests, ``from_formula``, ``relevant_tables``, the classifier,
    jar's rule sweep and normalpair's ``_down``, ``_class_keys`` and
    ``_partners``.
    Built on first use of an arity, never at import, and kept: 2n + 1
    tables of 2**n bits, about 5 MB at arity 20.
    """
    full = (1 << (1 << n)) - 1
    return tuple((0, full ^ var, var, full) for var in [variable_mask(i, n) for i in range(n)])


def _flip_table(n: int, table: int) -> int:
    """``BoolFn.flip`` on a bare arity-``n`` table: point p goes to its
    complement, the mirror position in the table, and the output is negated."""
    points = 1 << n
    return int(format(table, f"0{points}b")[::-1], 2) ^ ((1 << points) - 1)


def relevant_tables(n: int) -> int:
    """The arity-``n`` tables that use every input, as a candidate set: bit t
    stands for table t, so "T at point x" is ``variable_mask(x, 2**n)``, and
    input i matters to the tables that differ at some x and ``x + 2**i``,
    with bit i of x clear.  Those x are the k < 2**(n-1) with a 0 put in at
    bit i: ``k + (k & -2**i)``.  Arities past the table-set cap are refused."""
    if n > MAX_TABLE_SET_ARITY:
        raise BudgetError(f"all arity-{n} tables are refused at any budget: the arity "
                          f"must be at most {MAX_TABLE_SET_ARITY} (2**32 bits at 5)")
    points = 1 << n
    cols = [var for _, _, var, _ in _input_lifts(points)]
    mask = (1 << (1 << points)) - 1
    for i in range(n):
        step = 1 << i
        pivotal = 0
        for k in range(points >> 1):
            x = k + (k & -step)
            pivotal |= cols[x] ^ cols[x + step]
        mask &= pivotal
    return mask


_INCREMENT = bytes(range(1, 256)) + b"\0"


def _named_table(kind: str, n: int) -> int:
    """Table of "and", "or", "xor" or "nxor" at arity ``n``.  A parity doubles
    from its arity-0 table (F for xor, T for nxor): the upper half (last
    input T) is the negated lower half."""
    if n < 1:
        raise ValueError(f"{kind} needs arity >= 1")
    if kind == "and":
        return 1 << ((1 << n) - 1)
    if kind == "or":
        return (1 << (1 << n)) - 2
    table, points = int(kind == "nxor"), 1
    for _ in range(n):
        table |= (table ^ ((1 << points) - 1)) << points
        points <<= 1
    return table


@dataclass(frozen=True, slots=True)
class BoolFn:
    """A Boolean function of arity ``n`` with its truth table packed in ``table``."""

    n: int
    table: int

    def __init__(self, n: int, table: int) -> None:
        # checked here and set through the slot descriptors, past the frozen
        # __setattr__, so construction costs no __post_init__ round trip
        if n < 0:
            raise ValueError(f"arity must be non-negative, got {n}")
        if not 0 <= table < (1 << (1 << n)):
            raise ValueError(f"table {table:#x} out of range for arity {n}")
        _set_n(self, n)
        _set_table(self, table)

    def __repr__(self) -> str:
        # the dataclass form, with the table in hex where its decimal digits
        # pass the int to str conversion limit (from arity 14 by default)
        try:
            return f"BoolFn(n={self.n}, table={self.table})"
        except ValueError:
            return f"BoolFn(n={self.n}, table={self.table:#x})"

    # --- constructors -------------------------------------------------------

    @staticmethod
    def _check_arity(n: int, config: Config) -> None:
        if n > config.arity_cap:
            raise BudgetError(f"arity {n} exceeds the cap of {config.arity_cap}")

    @classmethod
    def constant(cls, n: int, value: bool, *, config: Config = DEFAULT) -> "BoolFn":
        cls._check_arity(n, config)
        zero = cls(n, 0)
        return cls(n, zero.full) if value else zero

    @classmethod
    def and_(cls, n: int, *, config: Config = DEFAULT) -> "BoolFn":
        cls._check_arity(n, config)
        return cls(n, _named_table("and", n))

    @classmethod
    def or_(cls, n: int, *, config: Config = DEFAULT) -> "BoolFn":
        cls._check_arity(n, config)
        return cls(n, _named_table("or", n))

    @classmethod
    def xor(cls, n: int, *, config: Config = DEFAULT) -> "BoolFn":
        """Odd parity: T iff an odd number of inputs are T."""
        cls._check_arity(n, config)
        return cls(n, _named_table("xor", n))

    @classmethod
    def nxor(cls, n: int, *, config: Config = DEFAULT) -> "BoolFn":
        """Even parity: the negation of xor."""
        cls._check_arity(n, config)
        return cls(n, _named_table("nxor", n))

    @classmethod
    def dictator(cls, n: int, i: int, *, config: Config = DEFAULT) -> "BoolFn":
        """Projection onto input ``i`` (0-based)."""
        if n < 1:
            raise ValueError("dictator needs arity >= 1")
        cls._check_arity(n, config)
        return cls(n, variable_mask(i, n))

    @classmethod
    def anti_dictator(cls, n: int, i: int, *, config: Config = DEFAULT) -> "BoolFn":
        """Negated projection onto input ``i`` (0-based)."""
        if n < 1:
            raise ValueError("anti_dictator needs arity >= 1")
        d = cls.dictator(n, i, config=config)
        return cls(n, d.table ^ ((1 << (1 << n)) - 1))

    @classmethod
    def majority(cls, n: int, *, ties: bool = True, config: Config = DEFAULT) -> "BoolFn":
        """T iff more than half the inputs are T; ``ties`` decides an exact half."""
        if n < 1:
            raise ValueError("majority needs arity >= 1")
        cls._check_arity(n, config)
        # popcount of every point, by doubling: points with input i set come
        # after the others with one more T
        counts = b"\0"
        for _ in range(n):
            counts += counts.translate(_INCREMENT)
        wins = bytes(b"01"[2 * c > n or (2 * c == n and ties)] for c in range(256))
        return cls(n, int(counts.translate(wins)[::-1], 2))

    @classmethod
    def from_formula(cls, phi: Formula, symbol_order: Sequence[str], *,
                     config: Config = DEFAULT) -> "BoolFn":
        """Truth table of ``phi`` with input i reading ``symbol_order[i]``.

        ``symbol_order`` may include extra symbols; those inputs are ignored
        by the result.  Missing or duplicated symbols are errors.
        """
        n = len(symbol_order)
        cls._check_arity(n, config)
        if len(set(symbol_order)) != n:
            raise ValueError("symbol_order contains duplicates")
        missing = set(phi.symbols()) - set(symbol_order)
        if missing:
            raise ValueError(f"symbols {sorted(missing)} not in symbol_order")
        masks = {s: var for s, (_, _, var, _) in zip(symbol_order, _input_lifts(n))}
        full = (1 << (1 << n)) - 1

        def fold(node: Formula) -> int:
            if isinstance(node, Atom):
                return masks[node.name]
            if isinstance(node, Not):
                return full ^ fold(node.child)
            acc = full if isinstance(node, And) else 0
            for child in node.args:  # type: ignore[attr-defined]
                bits = fold(child)
                if isinstance(node, And):
                    acc &= bits
                elif isinstance(node, Or):
                    acc |= bits
                else:
                    acc ^= bits
            return acc

        return cls(n, fold(phi))

    # --- evaluation ---------------------------------------------------------

    @property
    def points(self) -> int:
        return 1 << self.n

    @property
    def full(self) -> int:
        return (1 << self.points) - 1

    def value(self, point: int) -> bool:
        """Output at an input point given as an n-bit index."""
        if not 0 <= point < self.points:
            raise ValueError(f"point {point} out of range for arity {self.n}")
        return bool(self.table >> point & 1)

    def __call__(self, *inputs: bool) -> bool:
        if len(inputs) != self.n:
            raise ValueError(f"expected {self.n} inputs, got {len(inputs)}")
        point = 0
        for i, b in enumerate(inputs):
            if b:
                point |= 1 << i
        # n inputs make a point below 2**n, so no range check is needed
        return bool(self.table >> point & 1)

    # --- structure ----------------------------------------------------------

    def is_constant(self) -> bool:
        return self.table == 0 or self.table == self.full

    def is_pivotal(self, i: int, point: int) -> bool:
        """True iff flipping input ``i`` at ``point`` flips the output."""
        if not 0 <= i < self.n:
            raise ValueError(f"index {i} out of range for arity {self.n}")
        return self.value(point) != self.value(point ^ (1 << i))

    def is_relevant(self, i: int) -> bool:
        """True iff input ``i`` is pivotal at some point."""
        if not 0 <= i < self.n:
            raise ValueError(f"index {i} out of range for arity {self.n}")
        return i in self.relevant_indices()

    def first_irrelevant_index(self) -> int | None:
        """The smallest input index that is not relevant, or None."""
        table = self.table
        for i, (_, low, _, _) in enumerate(_input_lifts(self.n)):
            if table & low == table >> (1 << i) & low:
                return i
        return None

    def relevant_indices(self) -> tuple[int, ...]:
        table = self.table
        return tuple(i for i, (_, low, _, _) in enumerate(_input_lifts(self.n))
                     if table & low != table >> (1 << i) & low)

    def flip(self) -> "BoolFn":
        """The function s -> not f(not s_0, ..., not s_{n-1}); an involution."""
        return BoolFn(self.n, _flip_table(self.n, self.table))

    def negate(self) -> "BoolFn":
        """Pointwise output negation."""
        return BoolFn(self.n, self.table ^ self.full)

    def forceable_indices(self) -> tuple[tuple[bool, bool] | None, ...]:
        """Per index, an (x, y) with "input i = x forces output y", else None.

        When both input values force (only constants), the x = F witness is
        reported.
        """
        table = self.table
        out: list[tuple[bool, bool] | None] = []
        for _, low, high, _ in _input_lifts(self.n):
            witness: tuple[bool, bool] | None = None
            if table & low == low:
                witness = (False, True)
            elif table & low == 0:
                witness = (False, False)
            elif table & high == high:
                witness = (True, True)
            elif table & high == 0:
                witness = (True, False)
            out.append(witness)
        return tuple(out)

    def is_forceful(self) -> bool:
        """True iff every input index has a forcing value."""
        table = self.table
        for _, low, high, _ in _input_lifts(self.n):
            if table & low not in (0, low) and table & high not in (0, high):
                return False
        return True

    def forceful_decomposition(self) -> "ForcefulDecomposition":
        """Sign vector (c0, c1..cn) writing f as -c0 + c0/2**(n-1) * prod(1 + ci*ri).

        Such an f equals -c0 everywhere except the single point ri = ci where
        it equals c0.  Requires a non-constant forceful function of arity > 1.
        """
        if self.n <= 1:
            raise ValueError("decomposition needs arity > 1")
        if self.is_constant():
            raise ValueError("constant functions have no product decomposition")
        if not self.is_forceful():
            raise ValueError("function is not forceful")
        ones = self.table.bit_count()
        if ones == 1:
            exceptional = self.table.bit_length() - 1
            c0 = 1
        elif ones == self.points - 1:
            exceptional = (self.table ^ self.full).bit_length() - 1
            c0 = -1
        else:
            raise AssertionError("forceful non-constant table must have one minority point")
        signs = tuple(1 if exceptional >> i & 1 else -1 for i in range(self.n))
        return ForcefulDecomposition(self.n, c0, signs)

    def restrict_to(self, indices: Sequence[int]) -> "BoolFn":
        """Sub-function reading only ``indices`` (ascending), others fixed to F.

        Meaningful when the dropped indices are irrelevant; then the result
        is the function induced on the kept inputs.
        """
        idx = tuple(indices)
        if list(idx) != sorted(set(idx)):
            raise ValueError("indices must be strictly increasing")
        if idx and not 0 <= idx[0] <= idx[-1] < self.n:
            raise ValueError(f"indices {idx} out of range for arity {self.n}")
        # kept[q] is the point of f that sub-point q reads, in q order
        kept = [0]
        for i in idx:
            kept += [p | 1 << i for p in kept]
        bits = format(self.table, f"0{self.points}b")[::-1]
        return BoolFn(len(idx), int("".join(bits[p] for p in reversed(kept)), 2))

    def on_relevant(self) -> tuple["BoolFn", tuple[int, ...]]:
        """The function induced on its relevant inputs, with those indices."""
        rel = self.relevant_indices()
        return self.restrict_to(rel), rel

    def is_symmetric(self) -> bool:
        """True iff the output depends only on how many inputs are T.

        Adjacent transpositions generate every permutation, so it suffices
        that swapping inputs i and i+1 fixes the table: the points with
        (x_i, x_i+1) = (T, F) shift up by 2**i onto those with (F, T).
        """
        masks = [high for _, _, high, _ in _input_lifts(self.n)]
        return all((self.table & lo & ~hi) << (1 << i) == self.table & hi & ~lo
                   for i, (lo, hi) in enumerate(zip(masks, masks[1:])))


_set_n = BoolFn.n.__set__
_set_table = BoolFn.table.__set__


@dataclass(frozen=True)
class ForcefulDecomposition:
    """Signs for the product form -c0 + c0/2**(n-1) * prod_i(1 + c_i*r_i)."""

    n: int
    c0: int
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.c0 not in (-1, 1) or any(c not in (-1, 1) for c in self.signs):
            raise ValueError("signs must be +1 or -1")
        if len(self.signs) != self.n:
            raise ValueError(f"expected {self.n} signs, got {len(self.signs)}")

    def expand(self) -> BoolFn:
        """Truth table obtained by evaluating the product form at every point."""
        table = 0
        for p in range(1 << self.n):
            prod = 1
            for i, c in enumerate(self.signs):
                r = 1 if p >> i & 1 else -1
                prod *= 1 + c * r
            # f(p) = -c0 + c0 * prod / 2**(n-1); prod is 0 or 2**n
            value = -self.c0 + self.c0 * prod // (1 << (self.n - 1))
            if value == 1:
                table |= 1 << p
            elif value != -1:
                raise AssertionError(f"product form gave non-sign value {value}")
        return BoolFn(self.n, table)


# --- classification ---------------------------------------------------------

CLASS_KINDS = ("constant", "dictator", "anti_dictator", "and", "or", "xor",
               "nxor", "other")


@dataclass(frozen=True)
class FnClass:
    """Shape label for a function: named family, projection, or other.

    ``index`` is set for dictator/anti_dictator, ``value`` for constant.
    At arity 1 the identity counts as a dictator, not as xor.
    """

    kind: str
    index: int | None = None
    value: bool | None = None

    def __post_init__(self) -> None:
        if self.kind not in CLASS_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "constant":
            return f"constant({'T' if self.value else 'F'})"
        if self.kind in ("dictator", "anti_dictator"):
            return f"{self.kind}({self.index})"
        return self.kind


def _classify(f: BoolFn, inputs: Sequence[int]) -> FnClass:
    """``classify`` of ``f`` restricted to ``inputs``, which must hold every
    relevant input; a dictator's index is its position in ``inputs``.  The
    named tables are built from those inputs' columns in ``_input_lifts``,
    so each matches exactly where it would on the restriction.  No column
    negates another, so one loop tries dictators and anti-dictators."""
    table, full = f.table, f.full
    if table == 0:
        return FnClass("constant", value=False)
    if table == full:
        return FnClass("constant", value=True)
    lifts = _input_lifts(f.n)
    conj, disj, parity = full, 0, 0
    for k, i in enumerate(inputs):
        _, low, high, _ = lifts[i]
        if table == high:
            return FnClass("dictator", index=k)
        if table == low:
            return FnClass("anti_dictator", index=k)
        conj &= high
        disj |= high
        parity ^= high
    for kind, named in (("and", conj), ("or", disj), ("xor", parity),
                        ("nxor", parity ^ full)):
        if table == named:
            return FnClass(kind)
    return FnClass("other")


def classify(f: BoolFn) -> FnClass:
    """Label ``f`` against the named families, checked on the full table.

    Precedence: constant, dictator, anti-dictator, and, or, xor, nxor; a
    table matching none is "other".
    """
    return _classify(f, range(f.n))


def classify_on_relevant(f: BoolFn) -> tuple[FnClass, tuple[int, ...]]:
    """Classify the function induced on the relevant inputs.

    Returns the label of the restriction and the relevant indices of ``f``;
    a dictator label refers to position 0/1/... within that index tuple.
    """
    rel = f.relevant_indices()
    return _classify(f, rel), rel


# --- textual function specs -------------------------------------------------

def parse_fn_spec(text: str, *, config: Config = DEFAULT) -> BoolFn:
    """Parse a function spec such as ``and:3``, ``const:2:T``, ``dictator:3:1``
    (0-based index), or ``tt:<n>:<hex>`` with the point-0 output in the least
    significant bit."""
    parts = text.strip().split(":")
    kind = parts[0]
    try:
        if kind in ("and", "or", "xor", "nxor") and len(parts) == 2:
            n = int(parts[1])
            BoolFn._check_arity(n, config)
            return BoolFn(n, _named_table(kind, n))
        if kind == "const" and len(parts) == 3 and parts[2] in ("T", "F"):
            return BoolFn.constant(int(parts[1]), parts[2] == "T", config=config)
        if kind == "dictator" and len(parts) == 3:
            return BoolFn.dictator(int(parts[1]), int(parts[2]), config=config)
        if kind == "tt" and len(parts) == 3:
            n = int(parts[1])
            BoolFn._check_arity(n, config)
            return BoolFn(n, int(parts[2], 16))
    except ValueError as exc:
        raise ValueError(f"bad function spec {text!r}: {exc}") from None
    raise ValueError(f"bad function spec {text!r}")


def format_fn_spec(f: BoolFn) -> str:
    """Canonical ``tt:<n>:<hex>`` spec for ``f`` (zero-padded, lowercase)."""
    digits = max(1, f.points // 4)
    return f"tt:{f.n}:{f.table:0{digits}x}"


def all_tables(n: int) -> Iterable[BoolFn]:
    """Every function of arity ``n``, in ascending table order."""
    for table in range(BoolFn(n, 0).full + 1):
        yield BoolFn(n, table)
