"""Agendas: ordered bases of propositions and their fully rational judgments.

A basis lists distinct, non-degenerate formulas; the agenda it represents is
closed under negation implicitly (negations are handled by function flips
downstream, never stored).  Logical comparisons (duplicates, tautologies,
determination) are decided by truth tables over the agenda's symbols.

The rational judgments U, and their projections ``cons`` and
``is_determined_by``, come from one of two bit-parallel reads of the
tables, each a column over the 2**k assignments, taken in chunks of 2**16
assignments in place of a Python step per assignment:

- the cell split splits the assignment set on each column in turn,
  keeping only non-empty cells.  Each cell left is one judgment, so a
  chunk takes at most |U| cells through each table, a few big-int
  operations on at most 8 KB each.  The worst case is an agenda of atoms,
  where |U| = 2**k;
- the byte read, for at most 8 tables, transposes the columns so that
  byte a is the judgment of assignment a, then finds each of the 2**s
  possible judgments with ``bytes.find``: about 18 big-int operations and
  2**s finds per chunk, however many judgments there are.

``_split`` takes the byte read for 7 or 8 tables over 8 to 16 symbols,
where it measured faster, and the cell split otherwise.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

from .boolfn import BoolFn, _bools, repeat_bits
from .config import DEFAULT, BudgetError, Config
from .formula import Atom, Formula, Not, parse


class AgendaError(ValueError):
    """A basis failed validation."""


class DuplicateProposition(AgendaError):
    """Two basis entries are logically equivalent."""


class NegationDuplicate(AgendaError):
    """Two basis entries are logical negations of each other."""


class DegenerateProposition(AgendaError):
    """A basis entry is a tautology or a contradiction."""


Judgment = tuple[bool, ...]


def _is_literal(phi: Formula) -> bool:
    """True iff ``phi`` is an atom or a negated atom."""
    return isinstance(phi, Atom) or (isinstance(phi, Not) and isinstance(phi.child, Atom))


@dataclass(frozen=True)
class Agenda:
    """A validated ordered basis with its symbol universe.

    Build through :func:`build_agenda`; the constructor assumes valid input.
    ``tables[k]`` is the truth table of ``basis[k]`` over ``symbols`` (input
    i reads ``symbols[i]``, which are sorted).
    """

    basis: tuple[Formula, ...]
    symbols: tuple[str, ...]
    tables: tuple[BoolFn, ...]

    def __len__(self) -> int:
        return len(self.basis)

    def is_atomic(self, k: int) -> bool:
        """True iff basis entry k is an atom or a negated atom."""
        return _is_literal(self.basis[k])

    def has_compound(self) -> bool:
        return any(not self.is_atomic(k) for k in range(len(self.basis)))

    def is_symbol_complete(self) -> bool:
        """True iff every symbol occurs as an atom or negated atom entry."""
        return set(self.symbols) <= self._literal_symbols()

    def _literal_symbols(self) -> set[str]:
        return {s for phi in self.basis if _is_literal(phi) for s in phi.symbols()}

    def symbol_edges(self) -> tuple[tuple[int, int], ...]:
        """Pairs of basis positions sharing at least one symbol, ascending."""
        syms = [set(phi.symbols()) for phi in self.basis]
        return tuple((a, b) for a in range(len(syms)) for b in range(a + 1, len(syms))
                     if syms[a] & syms[b])

    def component_positions(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the shared-symbol graph, by first position."""
        size = len(self.basis)
        parent = list(range(size))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in self.symbol_edges():
            parent[find(a)] = find(b)
        groups: dict[int, list[int]] = {}
        for k in range(size):
            groups.setdefault(find(k), []).append(k)
        return tuple(tuple(members) for _, members in
                     sorted(groups.items(), key=lambda kv: kv[1][0]))

    def is_symbol_connected(self) -> bool:
        return len(self.component_positions()) <= 1

    def components(self, *, config: Config = DEFAULT) -> tuple["Agenda", ...]:
        """Sub-agendas for each connected component, original order kept."""
        return tuple(build_agenda([self.basis[k] for k in members], config=config)
                     for members in self.component_positions())


def build_agenda(basis: Sequence[Formula | str], *, config: Config = DEFAULT) -> Agenda:
    """Validate a formula list into an Agenda.

    Rejects an empty basis, tautologies/contradictions, logically equivalent
    entries (even when syntactically different), and entries equivalent to
    another entry's negation.  Strings are parsed first.
    """
    formulas = tuple(parse(item) if isinstance(item, str) else item for item in basis)
    if not formulas:
        raise AgendaError("basis must not be empty")
    universe: set[str] = set()
    for phi in formulas:
        universe.update(phi.symbols())
    symbols = tuple(sorted(universe))
    if len(symbols) > config.arity_cap:
        raise BudgetError(f"{len(symbols)} symbols exceed the cap of {config.arity_cap}")
    tables = tuple(BoolFn.from_formula(phi, symbols, config=config) for phi in formulas)
    # plain table ints, all of one arity, against one full mask
    ints = [t.table for t in tables]
    full = (1 << (1 << len(symbols))) - 1
    for k, t in enumerate(ints):
        if t == 0 or t == full:
            kind = "tautology" if t else "contradiction"
            raise DegenerateProposition(f"basis[{k}] ({formulas[k]}) is a {kind}")
    for a, ta in enumerate(ints):
        negation = ta ^ full
        for b in range(a + 1, len(ints)):
            if ints[b] == ta:
                raise DuplicateProposition(
                    f"basis[{b}] ({formulas[b]}) is equivalent to basis[{a}] "
                    f"({formulas[a]})")
            if ints[b] == negation:
                raise NegationDuplicate(
                    f"basis[{b}] ({formulas[b]}) is the negation of basis[{a}] "
                    f"({formulas[a]})")
    return Agenda(formulas, symbols, tables)


def closure(g: Formula | str, *, config: Config = DEFAULT) -> Agenda:
    """Agenda listing each symbol of a compound (sorted) and then the compound."""
    phi = parse(g) if isinstance(g, str) else g
    if _is_literal(phi):
        raise AgendaError("closure needs a compound formula")
    entries: list[Formula] = [Atom(s) for s in sorted(phi.symbols())]
    entries.append(phi)
    return build_agenda(entries, config=config)


def is_symbol_closed(g: Formula | str, agenda: Agenda) -> bool:
    """True iff every symbol of the compound ``g`` has an atomic entry in the
    agenda's basis (possibly negated)."""
    phi = parse(g) if isinstance(g, str) else g
    if _is_literal(phi):
        raise AgendaError("symbol-closedness is asked of compound formulas")
    return set(phi.symbols()) <= agenda._literal_symbols()


@dataclass(frozen=True)
class RationalSet:
    """All distinct judgments induced by symbol assignments, sorted, each with
    one inducing assignment (the first in assignment order)."""

    agenda: Agenda
    judgments: tuple[Judgment, ...]
    witnesses: tuple[tuple[bool, ...], ...]

    def __contains__(self, judgment: Judgment) -> bool:
        judgment = tuple(judgment)
        i = bisect_left(self.judgments, judgment)
        return i < len(self.judgments) and self.judgments[i] == judgment

    def witness_assignment(self, index: int) -> dict[str, bool]:
        """The symbol assignment that induces judgment ``index``."""
        if not 0 <= index < len(self.witnesses):
            raise ValueError(f"judgment index {index} out of range for "
                             f"{len(self.witnesses)} judgments")
        return dict(zip(self.agenda.symbols, self.witnesses[index]))


_CHUNK_POINTS = 1 << 16   # assignments per chunk, so a cell int is at most 8 KB


@cache
def _transpose8(size: int) -> tuple[tuple[int, int], ...]:
    """The three delta swaps (shift, mask) that transpose each 64-bit word
    of a ``size``-byte int as an 8x8 bit matrix, bit 8*r + c to bit 8*c + r:
    "transpose8" in Warren, Hacker's Delight, section 7-3.  Built on first
    use of a size, never at import, and kept."""
    return tuple((shift, repeat_bits(mask, 64, 8 * size)) for shift, mask in
                 ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)))


def _split(tables: Sequence[int], k: int) -> dict[int, int]:
    """Each judgment point the ``tables`` induce over the 2**k assignments,
    with its first inducing assignment.

    A point holds one bit per table, the first table's as the most
    significant, so sorted points are sorted judgments.  Both reads give the
    same dict, and the rule below picks one from the s tables and k symbols
    alone.  The byte read costs about the same for any s tables over k
    symbols; the cell split costs more as the tables induce more points.
    Timed in process on seeded agendas of 2-5-symbol entries (Python
    3.11.7, shared 2-core machine), the byte read took, as a share of the
    cell split's time, for 9 <= k <= 16: 0.3-0.8 at s = 8 and 0.45-1.1
    (median about 0.7) at s = 7.  It took 0.6-1.0 at k = 8 (once 1.4);
    0.5-1.7 at s = 6; 0.7-3.8 at s <= 5, rising with k; up to 5 at k <= 5;
    and 0.25-1.9 past k = 16, where the share turns on how many of the
    2**s points are rational.
    """
    if 7 <= len(tables) <= 8 and 8 <= k <= 16:
        return _split_bytes(tables, k)
    return _split_cells(tables, k)


def _split_bytes(tables: Sequence[int], k: int) -> dict[int, int]:
    """:func:`_split` for at most 8 tables and k >= 3, by one byte per
    assignment.

    Each chunk of at most _CHUNK_POINTS assignments is read as 8 rows, a
    table's bytes in each row: table t goes in row s - 1 - t of s, the rest
    stay 0.  The rows are interleaved into 8-byte words, one word per 8
    assignments, and each word is transposed as an 8x8 bit matrix, so byte
    a of the result is the point of assignment a.  ``bytes.find`` then gives
    each point's first assignment in the chunk.  Chunks go in ascending
    order, so the first chunk to hold a point holds its first witness.
    """
    size = 1 << k
    step = min(size, _CHUNK_POINTS)
    full = (1 << step) - 1
    width = step >> 3   # bytes per table in a chunk
    rows = bytearray(step)
    swaps = _transpose8(step)
    todo = range(1 << len(tables))
    first: dict[int, int] = {}
    for base in range(0, size, step):
        for r, t in enumerate(reversed(tables)):
            rows[r::8] = (t >> base & full).to_bytes(width, "little")
        x = int.from_bytes(rows, "little")
        for shift, mask in swaps:
            d = (x ^ x >> shift) & mask
            x ^= d ^ d << shift
        points = x.to_bytes(step, "little")
        left = []
        for p in todo:
            a = points.find(p)
            if a < 0:
                left.append(p)
            else:
                first[p] = base + a
        if not left:
            break
        todo = left
    return first


def _split_cells(tables: Sequence[int], k: int) -> dict[int, int]:
    """:func:`_split` by splitting sets of assignments.

    A cell is the set of assignments that agree on the tables split so far:
    each table splits a cell into its T and F parts, and only non-empty
    parts go on.  Chunks of at most _CHUNK_POINTS assignments are split in
    ascending order, so the lowest assignment of the first cell that
    reaches a point is its first witness.
    """
    size = 1 << k
    step = min(size, _CHUNK_POINTS)
    full = (1 << step) - 1
    count = len(tables)
    first: dict[int, int] = {}
    for base in range(0, size, step):
        chunk = [t >> base & full for t in tables]
        stack = [(full, 0, 0)]   # cell, tables split, point so far
        while stack:
            cell, depth, point = stack.pop()
            for d in range(depth, count):
                hi = cell & chunk[d]
                point <<= 1
                if hi == cell:
                    point |= 1
                    continue
                if hi:
                    stack.append((hi, d + 1, point | 1))
                cell ^= hi
            if point not in first:
                first[point] = base + (cell & -cell).bit_length() - 1
    return first


def _positions(agenda: Agenda, positions: Iterable[int]) -> tuple[int, ...]:
    """``positions`` as a tuple, each checked to be a basis position."""
    pos = tuple(positions)
    for p in pos:
        if not 0 <= p < len(agenda):
            raise ValueError(f"basis position {p} out of range")
    return pos


def rational_judgments(agenda: Agenda) -> RationalSet:
    """Read the 2**k symbol assignments' points off every basis table
    (:func:`_split`) and collect the distinct judgments, each with its first
    inducing assignment.  A point holds the first position in its top bit,
    so its bits are reversed into a judgment; an assignment holds symbol i
    in bit i, and is read as it is."""
    k, size = len(agenda.symbols), len(agenda)
    first = _split([t.table for t in agenda.tables], k)
    points = sorted(first)
    return RationalSet(agenda, tuple(_bools(p, size)[::-1] for p in points),
                       tuple(_bools(first[p], k) for p in points))


def cons(agenda: Agenda, positions: Iterable[int]) -> tuple[tuple[bool, ...], ...]:
    """Distinct restrictions of the rational judgments to the given basis
    positions (in the order given), sorted; found by splitting the
    assignments on those positions' tables alone."""
    pos = _positions(agenda, positions)
    first = _split([agenda.tables[p].table for p in pos], len(agenda.symbols))
    return tuple(_bools(p, len(pos))[::-1] for p in sorted(first))


def is_determined_by(agenda: Agenda, target: int, positions: Iterable[int]) -> bool:
    """True iff no two rational judgments agree on ``positions`` but differ
    on the ``target`` basis position: split on ``positions`` and then on the
    ``target`` table, no two points differ only in the last bit."""
    pos = tuple(positions)
    if target in pos:
        raise ValueError("target must not be among the determining positions")
    _positions(agenda, (target, *pos))
    first = _split([agenda.tables[p].table for p in (*pos, target)], len(agenda.symbols))
    return len({point >> 1 for point in first}) == len(first)


def load_agenda(text: str, *, config: Config = DEFAULT) -> Agenda:
    """Parse an agenda file: one formula per line, ``#`` comments, blank
    lines ignored."""
    entries: list[Formula] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            entries.append(parse(line))
        except ValueError as exc:
            raise AgendaError(f"line {lineno}: {exc}") from None
    return build_agenda(entries, config=config)
