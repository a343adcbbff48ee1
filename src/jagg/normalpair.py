"""Commutation of an outer/inner function pair over all Boolean matrices.

A pair (g of arity m, f of arity n) is *normal* when applying g down every
column and then f across the results always equals applying f across every
row and then g down those results, with both functions non-constant and
using every input.  Matrices are encoded as m*n-bit integers, row-major:
bit i*n + j holds the cell in row i, column j.

The check evaluates both composites for all 2**(m*n) matrices at once: each
cell becomes a truth-table column over the matrix space, and functions are
applied through their minterm expansion (``boolfn.compose``).

The enumeration runs the matrices on the outside and the surviving g on the
inside.  Candidate f is bit ``f.table`` of a set over all 2**(2**n) tables,
and "f is T at point x" is the set ``col[x] = variable_mask(x, 2**n)``.  For
one matrix with row points r_i, ``across[x]`` is the set of f whose row
outputs form the point x, and ``down[x]`` the columns j whose point is x;
both are minterms (``boolfn.minterms``), built once per matrix and shared by
every g.  Each g keeps the f with f(a) equal to the OR of ``across`` over its
T points, where a, the point of g's column outputs, is the OR of ``down``
over the same points.  The kept set is an AND over all matrices, so the
order of the matrices does not change the result; the order used fails most
g within a few matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolfn import (BoolFn, classify, compose, minterms, relevant_tables, set_bits,
                     variable_mask)
from .config import DEFAULT, Config, charge


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


def _matrix_rows(mask: int, m: int, n: int) -> tuple[tuple[bool, ...], ...]:
    return tuple(tuple(bool(mask >> (i * n + j) & 1) for j in range(n))
                 for i in range(m))


def _cells(m: int, n: int) -> list[list[int]]:
    """``cell[i][j]``: the matrices with the cell in row i, column j set."""
    return [[variable_mask(i * n + j, m * n) for j in range(n)] for i in range(m)]


def _composites(g: BoolFn, f: BoolFn) -> tuple[int, int]:
    """Truth tables over all matrices of the two composite evaluations."""
    m, n = g.n, f.n
    cell = _cells(m, n)
    width = 1 << (m * n)
    col_then_row = compose(
        f, [compose(g, [cell[i][j] for i in range(m)], width) for j in range(n)], width)
    row_then_col = compose(
        g, [compose(f, [cell[i][j] for j in range(n)], width) for i in range(m)], width)
    return col_then_row, row_then_col


def check_normal_pair(g: BoolFn, f: BoolFn, *, config: Config = DEFAULT) -> NormalPairReport:
    """Decide normality, reporting the first violated condition.

    The check is charged 2**(m*n) work units, one per matrix, before the
    structural checks.  Constant functions are reported before irrelevant
    indices (a constant has no relevant index at all), and structural
    defects before commutation.
    """
    m, n = g.n, f.n
    if m < 1 or n < 1:
        raise ValueError("both functions need arity >= 1")
    charge(config, 1 << (m * n), f"checking a {m}x{n} pair",
           f"m*n <= {config.enumeration_budget.bit_length() - 1}")
    if g.is_constant():
        return NormalPairReport(g, f, False, Violation("g_constant"))
    if f.is_constant():
        return NormalPairReport(g, f, False, Violation("f_constant"))
    for i in range(m):
        if not g.is_relevant(i):
            return NormalPairReport(g, f, False, Violation("g_irrelevant_index", i))
    for j in range(n):
        if not f.is_relevant(j):
            return NormalPairReport(g, f, False, Violation("f_irrelevant_index", j))
    lhs, rhs = _composites(g, f)
    diff = lhs ^ rhs
    if diff == 0:
        return NormalPairReport(g, f, True)
    first = (diff & -diff).bit_length() - 1
    return NormalPairReport(
        g, f, False, Violation("commutation"), _matrix_rows(first, m, n),
        bool(lhs >> first & 1), bool(rhs >> first & 1))


# the enumeration visits matrix k * _MATRIX_STEP mod 2**(m*n) at step k; the
# step is odd, so this permutes the matrices
_MATRIX_STEP = 0x9E3779B1


def enumerate_normal_pairs(m: int, n: int, *, config: Config = DEFAULT,
                           ) -> list[tuple[BoolFn, BoolFn]]:
    """All normal pairs with the given arities, ascending by (g, f) table.

    Memory grows with the live f of each surviving g, at most (all-relevant
    g) * 2**(2**n) bits.  The measured peak is under 0.1 MB at (3, 3),
    2.3 MB at (3, 4) and 20 MB at (4, 3), most of it per-g bookkeeping for
    the 64 594 all-relevant g.  At (4, 4) the sets alone would take about
    530 MB; the default budget refuses every arity past (3, 3).
    """
    if m < 2 or n < 2:
        raise ValueError("enumeration needs both arities >= 2")
    work = (1 << (1 << m)) * (1 << (1 << n)) * (1 << (m * n))
    charge(config, work, f"enumerating {m}x{n} pairs",
           "(m, n) with 2**(2**m + 2**n + m*n) within budget, e.g. up to (3, 3)")
    points = 1 << n
    col = [variable_mask(x, points) for x in range(points)]
    gs = set_bits(relevant_tables(m))
    t_points = [set_bits(gt) for gt in gs]
    # alive[gi]: the f tables that commute with gs[gi] on every matrix so far
    alive = [relevant_tables(n)] * len(gs)
    live = range(len(gs))
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
            fs = alive[gi] & ~(col[a] ^ rhs)
            if fs:
                alive[gi] = fs
                kept.append(gi)
        live = kept
    return [(BoolFn(m, gs[gi]), BoolFn(n, ft)) for gi in live for ft in set_bits(alive[gi])]


def classify_pair(g: BoolFn, f: BoolFn) -> str:
    """Case label for a normal pair.

    Non-trivial normal pairs always land in 'both-and', 'both-or', or
    'xor-family' (each member xor or nxor); 'trivial' covers arity-1 members.
    'violation' would mean a normal pair outside those shapes and is never
    produced by the enumeration.
    """
    if g.n == 1 or f.n == 1:
        return "trivial"
    cg, cf = classify(g), classify(f)
    if cg.kind == "and" and cf.kind == "and":
        return "both-and"
    if cg.kind == "or" and cf.kind == "or":
        return "both-or"
    if cg.kind in ("xor", "nxor") and cf.kind in ("xor", "nxor"):
        return "xor-family"
    return "violation"
