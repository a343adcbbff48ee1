"""Commutation of an outer/inner function pair over all Boolean matrices.

A pair (g of arity m, f of arity n) is *normal* when applying g down every
column and then f across the results always equals applying f across every
row and then g down those results, with both functions non-constant and
using every input.  Matrices are encoded as m*n-bit integers, row-major:
bit i*n + j holds the cell in row i, column j.

The check evaluates both composites as truth tables over the matrix space,
on growing prefixes of the matrix order: the first 2**(r*n) matrices for
r = 1..m rows, up to the first prefix on which they differ.  Those are the
matrices whose rows r.. are all F, so on them g reads F down each column
below row r, and f(F..F) across each of those rows: each prefix is the same
check for g with those inputs fixed, and the first counterexample is that
over all matrices.  A normal pair visits every prefix, fewer than
2**(m*n) / (2**n - 1) matrices more than all of them; most other pairs fail
within a row or two.  The first prefix, row 0 alone, is read straight off
the tables (``_first_row``): each column reads an arity-1 cofactor of g,
so f over them is a constant, f's table or its mirror, and g over the rows
is an arity-1 cofactor of g applied to f's table.  So an arity-1 g, and
any pair that fails on row 0, is decided without composing.  From r = 2
the argument tables are lifted straight from the truth tables of f and g,
one row at a time.  "f across row i" reads only
row i's n-bit field, so it is f's table with each bit stretched over the
2**(i*n) settings of the rows below, tiled over the rows above
(``_across``).  "g down column j" is stacked from g's cofactors, the
tables with the top row's input F and T placed in runs of 2**j blocks,
and only the cofactors of the prefixes visited are built (``_down``).
The composites are then f and g applied to these through their minterm
expansion (``boolfn.compose``).

The enumeration runs the matrices on the outside and the surviving g on the
inside.  Candidate f is bit ``f.table`` of a set over all 2**(2**n) tables,
and "f is T at point x" is the set ``col[x] = variable_mask(x, 2**n)``, read
from the kept ``_input_lifts(2**n)``.  For
one matrix with row points r_i, ``across[x]`` is the set of f whose row
outputs form the point x, and ``down[x]`` the columns j whose point is x;
both are minterms (``boolfn.minterms``), built once per matrix and shared by
every g.  Each g keeps the f with f(a) equal to the OR of ``across`` over its
T points, where a, the point of g's column outputs, is the OR of ``down``
over the same points.  The kept set is an AND over all matrices, so the
order of the matrices does not change the result; the order used fails most
g within a few matrices.

Transposing the matrices swaps "down the columns" and "across the rows", so
(g, f) is normal at (m, n) exactly when (f, g) is normal at (n, m).  A tall
enumeration, m > n, sweeps (n, m) and swaps its pairs, so the g swept is
always the side of smaller arity, and the arity-4 keys are swept only at
(4, 4).

Three steps cut the sweep down.  Permuting g's inputs permutes the matrix
rows, a bijection on the matrices, so every g in an orbit has the same
partners.  Flipping both functions (``BoolFn.flip``, s -> not g(not s))
keeps a pair normal, and it maps orbits onto orbits, so the partners of the
flipped orbit are the flipped partners.  Only the smallest g of each class
under both is swept, 4 of 10 at arity 2, 39 of 218 at arity 3 and 1 986 of
64 594 at arity 4, picked as one set over all tables (``_class_keys``); a
key with partners is expanded after into its orbit and the flipped orbit.
And once few (g, f) candidates are left next to the matrices still to
visit, the sweep stops and each candidate is certified by the two
composites over all 2**(m*n) matrices, as ``check_normal_pair`` does.  The
result stays exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .boolfn import (MAX_TABLE_SET_ARITY, BoolFn, FnClass, _bools, _flip_table,
                     _input_lifts, classify, compose, minterms, relevant_tables, repeat_bits,
                     set_bits, stretch_bits)
from .config import DEFAULT, BudgetError, Config, charge


@dataclass(frozen=True)
class Violation:
    """Why a pair failed: 'commutation', '{g,f}_constant', or
    '{g,f}_irrelevant_index' with the offending 0-based index."""

    kind: str
    index: int | None = None

    def __str__(self) -> str:
        return self.kind if self.index is None else f"{self.kind}({self.index})"


@dataclass(frozen=True)
class NormalPairReport:
    """Outcome of a pair check; a commutation failure carries the first
    disagreeing matrix (in ascending encoding order) and both composite
    values on it."""

    g: BoolFn
    f: BoolFn
    is_normal: bool
    violation: Violation | None = None
    counterexample: tuple[tuple[bool, ...], ...] | None = None
    column_then_row: bool | None = None
    row_then_column: bool | None = None


# the violations without an index, shared: a Violation is frozen
_G_CONSTANT = Violation("g_constant")
_F_CONSTANT = Violation("f_constant")
_COMMUTATION = Violation("commutation")


def _report(g: BoolFn, f: BoolFn, is_normal: bool, violation: Violation | None = None,
            counterexample: tuple[tuple[bool, ...], ...] | None = None,
            column_then_row: bool | None = None,
            row_then_column: bool | None = None) -> NormalPairReport:
    """``NormalPairReport(...)`` of valid fields, filled without going
    through the frozen dataclass's ``__setattr__`` once per field."""
    report = object.__new__(NormalPairReport)
    report.__dict__.update(g=g, f=f, is_normal=is_normal, violation=violation,
                           counterexample=counterexample, column_then_row=column_then_row,
                           row_then_column=row_then_column)
    return report


def _matrix_rows(mask: int, m: int, n: int) -> tuple[tuple[bool, ...], ...]:
    """The m rows of n cells of the matrix ``mask``, row i from bit i*n."""
    return tuple(zip(*[iter(_bools(mask, m * n))] * n))  # n cells at a time


def _across(f: BoolFn, m: int) -> Iterator[list[int]]:
    """Yields, for r = 1..m, the list whose entry i holds the matrices of r
    rows on which f across row i is T.  The last list is f's rows.

    Row i is the n-bit field at bit i*n of a matrix, so its table is f's
    table with each bit stretched over the 2**(i*n) settings of the rows
    below, tiled over the rows above.  Each row is stretched once, when it
    is added, and the rows before it are tiled once more per row added.
    """
    n, table = f.n, f.table
    rows, block = [table], 1 << n
    for _ in range(1, m):
        yield rows
        width = block << n
        rows = [repeat_bits(row, block, width) for row in rows]
        rows.append(stretch_bits(table, 1 << n, block))
        block = width
    yield rows


def _stack(los: list[int], his: list[int], block: int) -> list[int]:
    """The column tables over one more row, the top one: entry j is runs of
    2**j blocks of ``los[j]`` and of ``his[j]``, alternating, as bit j of
    the top row is F or T.  Each block is ``block`` bits, the matrices of
    the rows below.  The tiling doubles as ``repeat_bits`` does, written
    in line: at 2x2 to 3x3 the three calls a column cost twice as much."""
    width, run, out = block << len(los), block, []
    for lo, hi in zip(los, his):
        period = block
        while period < run:
            lo |= lo << period
            hi |= hi << period
            period <<= 1
        lo |= hi << run
        period <<= 1
        while period < width:
            lo |= lo << period
            period <<= 1
        out.append(lo)
        run <<= 1
    return out


def _columns(table: int, k: int, lifts: tuple[tuple[int, int, int, int], ...]) -> list[int]:
    """Entry j: the matrices of k rows on which the arity-k function of the
    low 2**k bits of ``table`` down column j is T.  Row 0 lifts each
    arity-1 cofactor (F, not, identity or T) to bit j of its field
    (``lifts``); each later row stacks the columns with its input F and T."""
    if k == 1:
        return [lift[table & 3] for lift in lifts]
    k -= 1
    return _stack(_columns(table, k, lifts), _columns(table >> (1 << k), k, lifts),
                  1 << (k * len(lifts)))


def _down(g: BoolFn, n: int) -> Iterator[list[int]]:
    """Yields, for r = 1..m, the list whose entry j holds the matrices of r
    rows and n columns on which g down column j, with its inputs r.. fixed
    to F, is T.  The last list is g's columns.

    Each prefix stacks the last one, input r - 1 F, with the columns of g
    with that input T and its inputs above F, over the rows below
    (``_columns``).  So only the cofactors a yielded prefix reads are
    built: 2**(r-1) lifted ones and 2**(r-1) - 1 stacks up to prefix r.
    """
    table, lifts = g.table, _input_lifts(n)
    last = [_columns(table, 1, lifts)]
    for r in range(1, g.n):
        yield last[0]
        last[0] = _stack(last[0], _columns(table >> (1 << r), r, lifts), 1 << (r * n))
    yield last.pop()  # g's columns, not kept here once handed out


def _first_row(g: BoolFn, f: BoolFn) -> tuple[int, int]:
    """The two composites over the first 2**n matrices, those whose rows 1..
    are all F, as tables over row 0: f over g's columns, then g over f's
    rows.  Both are read off the truth tables, with no ``compose``.

    Each column reads g with its inputs 1.. fixed to F, the arity-1
    cofactor c (F, not, identity or T) of g's points 0 and 1, so the
    columns side is f of c down every cell: the constant f(F..F) or
    f(T..T), f's table, or f's mirrored table.  Each row 1.. reads
    f(F..F), so the rows side is the cofactor d of g with its inputs 1..
    fixed to that bit applied to f's table.
    """
    m, t, points = g.n, f.table, 1 << f.n
    full = (1 << points) - 1
    fill = t & 1
    c, d = g.table & 3, g.table >> ((1 << m) - 2 if fill else 0) & 3
    if c == 1:
        lhs = _flip_table(f.n, t) ^ full  # f(not x)
    elif c == 2:
        lhs = t
    else:  # f(F..F) or f(T..T) on every matrix
        lhs = full if t >> (points - 1 if c else 0) & 1 else 0
    return lhs, (0, full ^ t, t, full)[d]


def check_normal_pair(g: BoolFn, f: BoolFn, *, config: Config = DEFAULT) -> NormalPairReport:
    """Decide normality, reporting the first violated condition.

    The check is charged 2**(m*n) work units, one per matrix, before the
    structural checks.  Constant functions are reported before irrelevant
    indices, and structural defects before commutation.  A constant has no
    relevant index at all, so one ``first_irrelevant_index`` a side passes
    a pair with no defect, and the constants are tested only once a side
    fails.  The composites are f over g's column tables (``_down``) and g
    over f's row tables (``_across``).

    They are compared on growing prefixes of the matrix order, r = 1..m
    rows at width 2**(r*n), up to the first prefix on which they differ.
    Matrices are row-major, so those below 2**(r*n) are exactly the ones
    whose rows r.. are all F.  On them each column reads g with its inputs
    r.. fixed to F, the level ``_down`` yields after row r - 1, and each
    row r.. reads f(F..F), so the rows side is g with its inputs r.. fixed
    to that bit.  So the lowest set bit of the first non-zero prefix diff is
    the first counterexample over all matrices.  The first prefix, row 0,
    is read off the truth tables (``_first_row``); the prefixes from r = 2
    are composed.  So an arity-1 g, and a pair that fails on row 0, takes
    no ``compose`` call.  The prefixes below m rows add fewer than
    2**(m*n) / (2**n - 1) matrices, so the charge still bounds the work.
    At 5x5, the largest the default budget admits, the normal
    ``(xor:5, nxor:5)`` takes 0.17-0.25 s and 93 MB max RSS in a fresh
    process, and ``(and:5, and:5)`` 52-78 ms and 58 MB; random non-normal
    pairs mostly stop within a row or two, in 0.03-5 ms.  An arity-1 g at
    the arity cap, against and:20, xor:20 or majority:19, takes 2-10 ms.

    Small pairs cost microseconds a call: at 2x2 to 3x3, in process on a
    shared 2-core machine, 1.5-4 us when the pair is decided off the tables
    (a defect or a failure on row 0) and 10-25 us when prefixes are composed.

    From r = 2 each prefix composes f by its minterms (``compose`` visits
    f's T points, or its F points when fewer) over 2**(r*n)-bit tables, so
    its cost grows with f's minterms as well as with the matrices.  A
    parity f has 2**(n-1) of each, and costs far more than its charge at
    large n: (xor:2, xor:12) is charged 2**24 units, within the default
    budget, and took 7.4 s in process, against 0.05-0.06 s for (xor:2,
    xor:10).  ROADMAP item 2 is to re-derive the charge from the work.
    """
    m, n = g.n, f.n
    if m < 1 or n < 1:
        raise ValueError("both functions need arity >= 1")
    charge(config, 1 << (m * n), lambda: f"checking a {m}x{n} pair",
           lambda: f"m*n <= {config.enumeration_budget.bit_length() - 1}")
    # a constant has no relevant index: it is told apart only on a defect
    i = g.first_irrelevant_index()
    j = f.first_irrelevant_index() if i is None else None
    if i is not None or j is not None:
        if i is not None and g.table in (0, (1 << (1 << m)) - 1):
            violation = _G_CONSTANT
        elif f.table in (0, (1 << (1 << n)) - 1):
            violation = _F_CONSTANT
        elif i is not None:
            violation = Violation("g_irrelevant_index", i)
        else:
            violation = Violation("f_irrelevant_index", j)
        return _report(g, f, False, violation)
    lhs, rhs = _first_row(g, f)
    if lhs == rhs and m > 1:
        # on the first 2**(r*n) matrices, g's inputs r.. read f(F..F) across
        # the all-F rows; with it T, they are g's points from 2**m - 2**r on
        fill = f.table & 1
        columns, rows = _down(g, n), _across(f, m)
        next(columns), next(rows)  # row 0, read off the tables above
        for r in range(2, m + 1):
            width, points = 1 << (r * n), 1 << r
            shift = (1 << m) - points if fill else 0
            outer = g if r == m else BoolFn(r, g.table >> shift & ((1 << points) - 1))
            # the column tables are not kept once composed: with the rows,
            # they are the largest tables alive
            lhs = compose(f, next(columns), width)
            rhs = compose(outer, next(rows), width)
            if lhs != rhs:
                break
    diff = lhs ^ rhs
    if not diff:
        return _report(g, f, True)
    first = (diff & -diff).bit_length() - 1
    return _report(g, f, False, _COMMUTATION, _matrix_rows(first, m, n),
                   bool(lhs >> first & 1), bool(rhs >> first & 1))


# the enumeration visits matrix k * _MATRIX_STEP mod 2**(m*n) at step k; the
# step is odd, so this permutes the matrices
_MATRIX_STEP = 0x9E3779B1

# the sweep hands its candidates to the exact check once the live g and the
# live (g, f) pairs, each times this ratio, are at most the matrices left;
# counting the pairs reads every live set, so it is done only after matrices
# 1, 2, 4, 8, ...
_HANDOFF_RATIO = 8


def _point_perms(m: int) -> list[list[int]]:
    """The permutations of the 2**m points that permuting g's m inputs
    makes: under each, bit q of the moved table is bit ``perm[q]`` of g's."""
    return [[sum((q >> i & 1) << s for i, s in enumerate(order)) for q in range(1 << m)]
            for order in itertools.permutations(range(m))]


def _orbit(table: int, perms: list[list[int]]) -> set[int]:
    """The tables that permuting the inputs of ``table`` makes."""
    return {sum(1 << q for q, p in enumerate(perm) if table >> p & 1) for perm in perms}


def _class_keys(m: int, perms: list[list[int]]) -> int:
    """The all-relevant arity-m tables, as a set over all tables, that are
    the smallest of their class under input permutations and the flip.

    Table t is kept iff t <= phi(t) for every image phi(t): bit q of phi(t)
    is bit ``perm[q]`` of t, or, with the flip, not bit ``perm[top - q]``.
    Each comparison runs over all tables at once, from the top point down:
    ``same`` holds the tables equal to their image above point q, and
    ``below`` those already smaller.
    """
    top = (1 << m) - 1
    lifts = _input_lifts(top + 1)  # items 1, 2 of entry x: the tables F, T at point x
    keys = relevant_tables(m)
    for perm in perms:
        # the image is T at q where t reads item ``one`` at point ``reads[q]``
        for reads, one in ((perm, 2), (perm[::-1], 1)):
            same, below = keys, 0
            for q in range(top, -1, -1):
                _, f_q, t_q, _ = lifts[q]
                lift = lifts[reads[q]]
                below |= same & f_q & lift[one]
                same &= t_q & lift[one] | f_q & lift[3 - one]
            keys &= below | same
    return keys


def _certify(m: int, n: int, g_tables: list[int], alive: list[int],
             live: list[int]) -> None:
    """Cut each ``alive[gi]``, for gi in ``live``, to the f tables that
    commute with the g of table ``g_tables[gi]`` on all 2**(m*n) matrices,
    comparing the two composites over all of them at once: the candidates
    are almost all normal, so ``check_normal_pair``'s prefixes would not
    stop early."""
    width = 1 << (m * n)
    for gi in live:
        g = BoolFn(m, g_tables[gi])
        *_, g_down = _down(g, n)
        certified = 0
        for ft in set_bits(alive[gi]):
            f = BoolFn(n, ft)
            *_, f_across = _across(f, m)
            if compose(f, g_down, width) == compose(g, f_across, width):
                certified |= 1 << ft
        alive[gi] = certified


def _partners(m: int, g_tables: list[int], n: int) -> list[int]:
    """Entry k: the set of all-relevant arity-n f tables (bit ``f.table``)
    that commute with the arity-m g of table ``g_tables[k]``.

    Matrices run on the outside, in ``_MATRIX_STEP`` order, and the g still
    live on the inside.  Once the live g and the live (g, f) pairs are few
    next to the matrices left (``_HANDOFF_RATIO``), each pair left is
    certified by evaluating both composites over all matrices.  Either way
    a pair is kept iff it commutes on every matrix.
    """
    points = 1 << n
    # col[x], same[x]: the f tables T, F at point x, so same[a] ^ rhs keeps f
    # with f(a) == rhs without a negative int
    _, same, col, _ = zip(*_input_lifts(points))
    t_points = [set_bits(gt) for gt in g_tables]
    # alive[gi]: the f tables that commute with g_tables[gi] on every matrix so far
    alive = [relevant_tables(n)] * len(g_tables)
    live = range(len(g_tables))
    last = (1 << (m * n)) - 1
    for k in range(last + 1):
        matrix = k * _MATRIX_STEP & last
        rows = [matrix >> (i * n) & (points - 1) for i in range(m)]
        down = minterms(rows, n)
        across = minterms([col[r] for r in rows], 1 << points)
        kept = []
        for gi in live:
            a = rhs = 0
            for x in t_points[gi]:
                a |= down[x]
                rhs |= across[x]
            fs = alive[gi] & (same[a] ^ rhs)
            if fs:
                alive[gi] = fs
                kept.append(gi)
        live = kept
        left = last - k
        if k & (k + 1) == 0 and len(live) * _HANDOFF_RATIO <= left and (
                sum(alive[gi].bit_count() for gi in live) * _HANDOFF_RATIO <= left):
            _certify(m, n, g_tables, alive, live)
            break
    partners = [0] * len(g_tables)
    for gi in live:
        partners[gi] = alive[gi]
    return partners


def _table_pairs(m: int, n: int) -> list[tuple[int, int]]:
    """The normal pairs at (m, n) as (g.table, f.table), unsorted: the
    partners of each class key, expanded over its orbit and its flip."""
    perms = _point_perms(m)
    keys = set_bits(_class_keys(m, perms))
    pairs = []
    for t, fs in zip(keys, _partners(m, keys, n)):
        if not fs:
            continue
        orbit = _orbit(t, perms)
        swept = [(gt, ft) for gt in orbit for ft in set_bits(fs)]
        pairs += swept
        if {_flip_table(m, gt) for gt in orbit} != orbit:
            pairs += [(_flip_table(m, gt), _flip_table(n, ft)) for gt, ft in swept]
    return pairs


def enumerate_normal_pairs(m: int, n: int, *, config: Config = DEFAULT,
                           ) -> list[tuple[BoolFn, BoolFn]]:
    """All normal pairs with the given arities, ascending by (g, f) table.

    The charge and the arity checks read (m, n) as given; the charge is
    symmetric in m and n.  For m > n the pairs are those of (n, m),
    swapped, since transposing a matrix swaps its rows and columns.
    ``_partners`` sweeps the smallest g of each class under input
    permutations and the flip (``_class_keys``), ascending.  A key with
    partners is expanded into its orbit (``_orbit``) and, when it differs,
    the flipped orbit with the flipped partners.  So arity-4 keys are swept
    only at (4, 4).  Both arities must be within the arity cap, and at
    most 4 at any budget: at arity 5 every set over all tables,
    ``relevant_tables(5)`` among them, has 2**32 bits (512 MB), and there
    are about 4 * 10**9 all-relevant g.
    Memory grows with the live f of each swept g, at most (swept keys) *
    2**(2**max(m, n)) bits.  The traced peak is under 0.1 MB at (3, 3),
    0.5 MB at (2, 4) and (4, 2), 0.9 MB at (3, 4) and (4, 3), and 18 MB at
    (4, 4).  The default budget refuses every arity past (3, 3).
    """
    if m < 2 or n < 2:
        raise ValueError("enumeration needs both arities >= 2")
    if max(m, n) > MAX_TABLE_SET_ARITY:
        raise BudgetError(
            f"enumerating {m}x{n} pairs is refused at any budget: both arities "
            f"must be at most {MAX_TABLE_SET_ARITY}, since at arity 5 a set "
            f"over all tables has 2**32 bits (512 MB)")
    BoolFn._check_arity(max(m, n), config)
    work = (1 << (1 << m)) * (1 << (1 << n)) * (1 << (m * n))
    charge(config, work, f"enumerating {m}x{n} pairs",
           "(m, n) with 2**(2**m + 2**n + m*n) within budget, e.g. up to (3, 3)")
    if m > n:  # the transposed matrices: (f, g) is normal at (n, m)
        pairs = [(gt, ft) for ft, gt in _table_pairs(n, m)]
    else:
        pairs = _table_pairs(m, n)
    return [(BoolFn(m, gt), BoolFn(n, ft)) for gt, ft in sorted(pairs)]


def _pair_case(cg: FnClass, cf: FnClass) -> str:
    """``classify_pair``'s case for members of arity 2 or more labelled
    ``cg`` and ``cf`` by ``classify``."""
    if cg.kind == "and" and cf.kind == "and":
        return "both-and"
    if cg.kind == "or" and cf.kind == "or":
        return "both-or"
    if cg.kind in ("xor", "nxor") and cf.kind in ("xor", "nxor"):
        return "xor-family"
    return "violation"


def classify_pair(g: BoolFn, f: BoolFn) -> str:
    """Case label for a normal pair.

    Non-trivial normal pairs always land in 'both-and', 'both-or', or
    'xor-family' (each member xor or nxor); 'trivial' covers arity-1 members.
    'violation' would mean a normal pair outside those shapes and is never
    produced by the enumeration.
    """
    if g.n == 1 or f.n == 1:
        return "trivial"
    return _pair_case(classify(g), classify(f))
