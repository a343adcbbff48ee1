"""Commutation checks on matrices and exhaustive pair enumeration."""

import dataclasses
import itertools
import pickle
import random

import pytest

import jagg.boolfn as boolfn
from jagg.boolfn import (BoolFn, all_tables, compose, format_fn_spec, minterms,
                         parse_fn_spec, relevant_tables, set_bits, variable_mask)
from jagg.config import BudgetError, Config
import jagg.normalpair as normalpair
from jagg.normalpair import (NormalPairReport, Violation, check_normal_pair, classify_pair,
                             enumerate_normal_pairs)
from jagg.verify import EXPECTED_PAIRS, run_suites

RAISED = Config(enumeration_budget=1 << 62)
IDENTITY = BoolFn(1, 0b10)
NEGATION = BoolFn(1, 0b01)


def first_failure(g, f):
    """Direct two-loop evaluation over the matrices in ascending encoding
    order, kept independent of the bit-parallel implementation: the first
    matrix on which the two composites differ, as rows, with both values;
    None when they agree on every matrix."""
    m, n = g.n, f.n
    for bits in range(1 << (m * n)):
        rows = tuple(tuple(bool(bits >> (i * n + j) & 1) for j in range(n))
                     for i in range(m))
        col_then_row = f(*[g(*[rows[i][j] for i in range(m)]) for j in range(n)])
        row_then_col = g(*[f(*rows[i]) for i in range(m)])
        if col_then_row != row_then_col:
            return rows, col_then_row, row_then_col
    return None


def brute_force_commutes(g, f):
    return first_failure(g, f) is None


def cells(m, n):
    """``cell[i][j]``: the matrices with the cell in row i, column j set."""
    return [[variable_mask(i * n + j, m * n) for j in range(n)] for i in range(m)]


def cell_composites(g, f):
    """The two composites as the pair check built them before the lifted
    tables: every cell is a truth table over the matrices, and g goes down
    the columns and f across the rows through ``compose``."""
    m, n = g.n, f.n
    width, cell = 1 << (m * n), cells(m, n)
    down = [compose(g, [row[j] for row in cell], width) for j in range(n)]
    across = [compose(f, row, width) for row in cell]
    return compose(f, down, width), compose(g, across, width)


def composite_failure(g, f, lhs, rhs):
    """``first_failure`` read off the two composite tables."""
    diff = lhs ^ rhs
    if diff == 0:
        return None
    first = (diff & -diff).bit_length() - 1
    rows = tuple(tuple(bool(first >> (i * f.n + j) & 1) for j in range(f.n))
                 for i in range(g.n))
    return rows, bool(lhs >> first & 1), bool(rhs >> first & 1)


def assert_check_matches_references(g, f):
    """The check's composites equal the cell composites, both find the
    matrix loop's first failure, and the report carries it."""
    width = 1 << (g.n * f.n)
    *_, columns = normalpair._down(g, f.n)
    *_, rows = normalpair._across(f, g.n)
    lhs = compose(f, columns, width)
    rhs = compose(g, rows, width)
    assert (lhs, rhs) == cell_composites(g, f)
    failure = first_failure(g, f)
    assert composite_failure(g, f, lhs, rhs) == failure
    report = check_normal_pair(g, f)
    structural = (not g.is_constant() and not f.is_constant()
                  and all(g.is_relevant(i) for i in range(g.n))
                  and all(f.is_relevant(j) for j in range(f.n)))
    assert report.is_normal == (structural and failure is None)
    if report.violation == Violation("commutation"):
        assert (report.counterexample, report.column_then_row,
                report.row_then_column) == failure
    else:
        assert report.counterexample is None


def named_tables(k):
    return [make(k).table for make in (BoolFn.and_, BoolFn.or_, BoolFn.xor, BoolFn.nxor)]


def random_relevant_pair(rng, m, n):
    """A seeded pair of non-constant tables that use every input."""
    while True:
        g, f = BoolFn(m, rng.getrandbits(1 << m)), BoolFn(n, rng.getrandbits(1 << n))
        if not (g.is_constant() or f.is_constant() or g.first_irrelevant_index() is not None
                or f.first_irrelevant_index() is not None):
            return g, f


# the lifts and the decoder as they were before the lifts were rewritten,
# kept here so that the references below do not move with the code they check


def frozen_matrix_rows(mask, m, n):
    cells = tuple(map("1".__eq__, format(mask, f"0{m * n}b")[::-1]))
    return tuple(cells[i:i + n] for i in range(0, m * n, n))


def frozen_across(f, m):
    """Yields, for r = 1..m, the list whose entry i holds the matrices of r
    rows on which f across row i is T."""
    n, rows, block = f.n, [], 1
    for _ in range(m):
        width = block << n
        rows = [boolfn.repeat_bits(row, block, width) for row in rows]
        rows.append(boolfn.stretch_bits(f.table, 1 << n, block))
        block = width
        yield rows


def frozen_down(g, n):
    """Yields, for r = 1..m, the list whose entry j holds the matrices of r
    rows and n columns on which g down column j, with its inputs r.. fixed to
    F, is T: built a row at a time from g's arity-1 cofactors."""
    table, lifts = g.table, boolfn._input_lifts(n)
    level = [[lift[table >> t & 3] for lift in lifts] for t in range(0, 1 << g.n, 2)]
    block = 1 << n
    for _ in range(g.n - 1):
        yield level[0]
        width = block << n
        runs = [block << j for j in range(n)]
        level = [[boolfn.repeat_bits(boolfn.repeat_bits(lo, block, run)
                                     | boolfn.repeat_bits(hi, block, run) << run,
                                     run << 1, width)
                  for lo, hi, run in zip(los, his, runs)]
                 for los, his in zip(level[::2], level[1::2])]
        block = width
    yield level.pop()


def full_width_check_normal_pair(g, f):
    """``check_normal_pair`` as it was before the row prefixes: both
    composites over all 2**(m*n) matrices at once, then the lowest bit of
    their difference.  The charge is left out: a reference is not budgeted."""
    m, n = g.n, f.n
    if g.table in (0, (1 << (1 << m)) - 1):
        return NormalPairReport(g, f, False, Violation("g_constant"))
    if f.table in (0, (1 << (1 << n)) - 1):
        return NormalPairReport(g, f, False, Violation("f_constant"))
    i = g.first_irrelevant_index()
    if i is not None:
        return NormalPairReport(g, f, False, Violation("g_irrelevant_index", i))
    j = f.first_irrelevant_index()
    if j is not None:
        return NormalPairReport(g, f, False, Violation("f_irrelevant_index", j))
    width = 1 << (m * n)
    *_, columns = frozen_down(g, n)
    *_, rows = frozen_across(f, m)
    lhs = compose(f, columns, width)
    rhs = compose(g, rows, width)
    diff = lhs ^ rhs
    if diff == 0:
        return NormalPairReport(g, f, True)
    first = (diff & -diff).bit_length() - 1
    return NormalPairReport(g, f, False, Violation("commutation"),
                            frozen_matrix_rows(first, m, n),
                            bool(lhs >> first & 1), bool(rhs >> first & 1))


def loop_enumerate_normal_pairs(m, n):
    """The pair-by-pair enumeration the candidate-table sweep replaced: every
    all-relevant g against every all-relevant f, comparing the two composites
    over all matrices."""
    width = 1 << (m * n)
    cell = cells(m, n)

    def candidates(arity):
        return [f for f in all_tables(arity) if not f.is_constant()
                and all(f.is_relevant(i) for i in range(arity))]

    gs, fs = candidates(m), candidates(n)
    g_cols = {g.table: [compose(g, [cell[i][j] for i in range(m)], width)
                        for j in range(n)] for g in gs}
    f_rows = {f.table: [compose(f, [cell[i][j] for j in range(n)], width)
                        for i in range(m)] for f in fs}
    return [(g, f) for g in gs for f in fs
            if compose(f, g_cols[g.table], width) == compose(g, f_rows[f.table], width)]


def column_sweep_enumerate_normal_pairs(m, n):
    """The candidate-table sweep the matrix-outer sweep replaced: fix each
    all-relevant g, and sweep every f table at once over the matrices in
    ascending order, composing g onto the columns of the row points."""
    points = 1 << n
    col = [variable_mask(x, points) for x in range(points)]
    matrices = [[matrix >> (i * n) & (points - 1) for i in range(m)]
                for matrix in range(1 << (m * n))]
    pairs = []
    for gt in set_bits(relevant_tables(m)):
        g = BoolFn(m, gt)
        alive = relevant_tables(n)
        for rows in matrices:
            a = compose(g, rows, n)
            alive &= ~(col[a] ^ compose(g, [col[r] for r in rows], 1 << points))
            if not alive:
                break
        pairs.extend((g, BoolFn(n, ft)) for ft in set_bits(alive))
    return pairs


def matrix_outer_enumerate_normal_pairs(m, n):
    """The matrix-outer sweep the orbit quotient and hand-off replaced: every
    all-relevant g swept over every matrix, with each matrix's minterms
    shared by every g."""
    points = 1 << n
    col = [variable_mask(x, points) for x in range(points)]
    gs = set_bits(relevant_tables(m))
    t_points = [set_bits(gt) for gt in gs]
    alive = [relevant_tables(n)] * len(gs)
    live = range(len(gs))
    last = (1 << (m * n)) - 1
    for k in range(last + 1):
        matrix = k * 0x9E3779B1 & last
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


def test_check_matches_brute_force_at_2x2():
    for gt in range(16):
        for ft in range(16):
            g, f = BoolFn(2, gt), BoolFn(2, ft)
            report = check_normal_pair(g, f)
            by_hand = (not g.is_constant() and not f.is_constant()
                       and g.relevant_indices() == (0, 1)
                       and f.relevant_indices() == (0, 1)
                       and brute_force_commutes(g, f))
            assert report.is_normal == by_hand
            # a report built by the public constructor from the same fields
            # is the same value, with the same hash and repr
            public = NormalPairReport(*(getattr(report, field.name)
                                        for field in dataclasses.fields(NormalPairReport)))
            assert report == public and hash(report) == hash(public)
            assert repr(report) == repr(public)


def test_report_keeps_the_dataclass_behaviour():
    g, f = BoolFn.or_(2), BoolFn.and_(2)
    report = check_normal_pair(g, f)
    assert report == NormalPairReport(g, f, False, Violation("commutation"),
                                      ((False, True), (True, False)), True, False)
    assert report != NormalPairReport(g, f, False, Violation("commutation"))
    normal = NormalPairReport(g=BoolFn.xor(2), f=BoolFn.xor(2), is_normal=True)
    assert normal == check_normal_pair(BoolFn.xor(2), BoolFn.xor(2))
    assert dataclasses.replace(report, is_normal=True).is_normal
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(report, protocol)) == report
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.is_normal = True
    assert len({report, check_normal_pair(g, f), normal}) == 2


def test_check_matches_cell_composites_and_brute_force():
    # at every arity pair with m*n <= 6, the arity-1 sides included: every
    # table pair where there are at most 1024, else and, or, xor and nxor
    # against each other and 256 seeded pairs
    rng = random.Random(6)
    for m, n in [(m, n) for m in range(1, 7) for n in range(1, 7) if m * n <= 6]:
        if (1 << (1 << m)) * (1 << (1 << n)) <= 1024:
            pairs = list(itertools.product(range(1 << (1 << m)), range(1 << (1 << n))))
        else:
            pairs = list(itertools.product(named_tables(m), named_tables(n)))
            pairs += [(rng.getrandbits(1 << m), rng.getrandbits(1 << n)) for _ in range(256)]
        for gt, ft in pairs:
            assert_check_matches_references(BoolFn(m, gt), BoolFn(n, ft))


def test_check_matches_references_on_seeded_large_pairs():
    rng = random.Random(44)
    for m, n in ((4, 4), (4, 5), (5, 4)):
        for _ in range(3):
            assert_check_matches_references(BoolFn(m, rng.getrandbits(1 << m)),
                                            BoolFn(n, rng.getrandbits(1 << n)))


def test_lifted_tables_match_cell_composition():
    # both yield one level per row r - 1: over the matrices of r rows, f
    # across each row, and g down each column with its inputs r.. fixed to
    # F, the low 2**r bits of its table
    rng = random.Random(45)
    for m in range(1, 5):
        for n in range(1, 6):
            for gt, ft in ((BoolFn.xor(m).table, BoolFn.and_(n).table),
                           (rng.getrandbits(1 << m), rng.getrandbits(1 << n))):
                g, f = BoolFn(m, gt), BoolFn(n, ft)
                levels = list(zip(normalpair._down(g, n), normalpair._across(f, m),
                                  strict=True))
                assert len(levels) == m
                for r, (columns, rows) in enumerate(levels, 1):
                    width, cell = 1 << (r * n), cells(r, n)
                    low = BoolFn(r, gt & ((1 << (1 << r)) - 1))
                    assert columns == [compose(low, [row[j] for row in cell], width)
                                       for j in range(n)]
                    assert rows == [compose(f, row, width) for row in cell]


def test_row_prefixes_match_the_full_width_check():
    # every table pair where there are at most 2**12
    for m, n in ((2, 2), (2, 3), (3, 2), (1, 1), (1, 2), (1, 3), (2, 1), (3, 1)):
        for gt, ft in itertools.product(range(1 << (1 << m)), range(1 << (1 << n))):
            g, f = BoolFn(m, gt), BoolFn(n, ft)
            assert check_normal_pair(g, f) == full_width_check_normal_pair(g, f)
    # the named families against each other, and seeded pairs drawn among
    # all-relevant tables, so that most reach the commutation sweep.  At 5x5
    # the full-width check takes 0.2-0.3 s a pair, so it gets two normal
    # pairs, four across the families and two seeded
    rng = random.Random(28)
    for m, n in ((3, 3), (2, 4), (4, 2), (3, 4), (4, 3), (4, 4), (4, 5), (5, 4), (5, 5)):
        if m * n < 25:
            pairs, seeded = list(itertools.product(named_tables(m), named_tables(n))), 24
        else:
            (a, o, x, nx), seeded = named_tables(5), 2
            pairs = [(a, a), (x, nx), (a, o), (o, a), (x, a), (nx, o)]
        pairs = [(BoolFn(m, gt), BoolFn(n, ft)) for gt, ft in pairs]
        pairs += [random_relevant_pair(rng, m, n) for _ in range(seeded)]
        for g, f in pairs:
            assert check_normal_pair(g, f) == full_width_check_normal_pair(g, f), (g, f)


def test_row_prefixes_on_each_row_count():
    # pairs whose first counterexample, found by the matrix loop, needs each
    # row count from 1 to m
    rng = random.Random(29)
    for m, n in ((3, 3), (4, 2), (4, 3)):
        wanted = set(range(1, m + 1))
        while wanted:
            g, f = random_relevant_pair(rng, m, n)
            failure = first_failure(g, f)
            if failure is None:
                continue
            rows, column_then_row, row_then_column = failure
            # one past the last row with a T, and 1 for the all-F matrix
            needed = 1 + max((i for i, row in enumerate(rows) if any(row)), default=0)
            if needed not in wanted:
                continue
            wanted.discard(needed)
            report = check_normal_pair(g, f)
            assert report == full_width_check_normal_pair(g, f)
            assert report == NormalPairReport(g, f, False, Violation("commutation"), rows,
                                              column_then_row, row_then_column)


def recorded_pair_check(monkeypatch, g, f):
    """``check_normal_pair(g, f)`` with the widths ``compose`` is given, and
    for ``_down`` and for ``_across`` the levels taken from each call."""
    widths, downs, acrosses = [], [], []
    compose_, down_, across_ = normalpair.compose, normalpair._down, normalpair._across

    def recorded_compose(fn, tables, width):
        widths.append(width)
        return compose_(fn, tables, width)

    def recorded(levels, taken):
        def lifted(fn, k):
            taken.append(0)
            for level in levels(fn, k):
                taken[-1] += 1
                yield level
        return lifted

    monkeypatch.setattr(normalpair, "compose", recorded_compose)
    monkeypatch.setattr(normalpair, "_down", recorded(down_, downs))
    monkeypatch.setattr(normalpair, "_across", recorded(across_, acrosses))
    report = check_normal_pair(g, f)
    monkeypatch.undo()
    return report, widths, downs, acrosses


def test_row_prefixes_stop_at_the_first_disagreeing_block(monkeypatch):
    # g = not and, f = or without the all-T point: on the all-F matrix
    # g's columns are all T, so f across them is F, while each row is F
    # and g of those is T
    g = BoolFn(5, BoolFn.and_(5).table ^ BoolFn.and_(5).full)
    f = BoolFn(5, BoolFn.or_(5).table ^ BoolFn.and_(5).table)
    report, widths, downs, acrosses = recorded_pair_check(monkeypatch, g, f)
    assert report.counterexample == ((False,) * 5,) * 5
    assert report == full_width_check_normal_pair(g, f)
    # row 0 is read off the truth tables: nothing is lifted or composed
    assert (widths, downs, acrosses) == ([], [], [])
    # a normal pair visits every prefix, and the column and row tables of
    # each are built once, from one call each; the prefixes from two rows
    # on are composed
    report, widths, downs, acrosses = recorded_pair_check(monkeypatch, BoolFn.and_(5),
                                                          BoolFn.and_(5))
    assert report.is_normal
    assert widths == [1 << (5 * r) for r in range(2, 6) for _ in range(2)]
    assert (downs, acrosses) == ([5], [5])


def test_matrix_rows_match_the_frozen_decoder():
    # every mask at every shape of at most 12 cells, then seeded masks at
    # 4x6 and 5x5 with the all-F and all-T matrices
    for m, n in ((m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12):
        for mask in range(1 << (m * n)):
            assert normalpair._matrix_rows(mask, m, n) == frozen_matrix_rows(mask, m, n)
    rng = random.Random(34)
    for m, n in ((4, 6), (5, 5)):
        size = m * n
        masks = [0, (1 << size) - 1] + [rng.getrandbits(size) for _ in range(1998)]
        for mask in masks:
            assert normalpair._matrix_rows(mask, m, n) == frozen_matrix_rows(mask, m, n), mask


def test_first_row_matches_the_full_width_check():
    # the first 2**n matrices read g's cofactor c = (g(F, F..), g(T, F..))
    # down the columns and d = (g(F, b..), g(T, b..)) across the rows, with
    # b = f(F..F) the fill.  Every (c, d, fill) an all-relevant g takes, at
    # m = 1..4, against f with each pair of values at F..F and T..T: the
    # first row meets all four cofactors on both sides, and later rows take
    # over where it agrees
    rng = random.Random(32)
    cases = {}  # (m, fill): {(c, d): the smallest all-relevant g with them}
    for m in range(1, 5):
        for gt in set_bits(relevant_tables(m)):
            for fill in (0, 1):
                d = gt >> ((1 << m) - 2 if fill else 0) & 3
                cases.setdefault((m, fill), {}).setdefault((gt & 3, d), BoolFn(m, gt))
    assert {fill: cases[4, fill].keys() for fill in (0, 1)} == {
        0: {(c, c) for c in range(4)}, 1: set(itertools.product(range(4), repeat=2))}
    for n in range(1, 6):
        fs = [IDENTITY, NEGATION]  # the all-relevant f at n = 1
        if n > 1:
            fs = []
            for ends in itertools.product((0, 1), repeat=2):
                f = BoolFn(n, 0)
                while (f.first_irrelevant_index() is not None
                       or (f.table & 1, f.table >> ((1 << n) - 1)) != ends):
                    f = BoolFn(n, rng.getrandbits(1 << n))
                fs.append(f)
        for m, f in itertools.product(range(1, 5), fs):
            for g in cases[m, f.table & 1].values():
                assert check_normal_pair(g, f) == full_width_check_normal_pair(g, f), (g, f)


def test_row_zero_needs_no_compose(monkeypatch):
    # a failure on the first 2**n matrices, and every arity-1 g, is decided
    # without compose; a later prefix r costs two calls from r = 2 on
    widths = []
    compose_ = normalpair.compose

    def recorded_compose(fn, tables, width):
        widths.append(width)
        return compose_(fn, tables, width)

    monkeypatch.setattr(normalpair, "compose", recorded_compose)
    row_zero_failures = 0
    for m, n in ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (2, 2), (2, 3), (3, 2)):
        for gt, ft in itertools.product(range(1 << (1 << m)), range(1 << (1 << n))):
            g, f = BoolFn(m, gt), BoolFn(n, ft)
            widths.clear()
            report = check_normal_pair(g, f)
            rows = 1  # a structural violation composes nothing either
            if report.is_normal:
                rows = m
            elif report.counterexample is not None:
                # one past the last row with a T, and 1 for the all-F matrix
                rows = 1 + max((i for i, row in enumerate(report.counterexample) if any(row)),
                               default=0)
                row_zero_failures += rows == 1
            assert widths == [1 << (r * n) for r in range(2, rows + 1) for _ in range(2)]
    assert row_zero_failures > 0


def test_arity_one_outers_at_the_arity_cap(monkeypatch):
    # the identity commutes with every all-relevant f; the negation with f
    # iff f is its own flip, and otherwise fails first at the lowest x with
    # f(not x) == f(x).  Row 0 is all there is, so no compose runs
    def no_compose(*args):
        raise AssertionError("an arity-1 g composed")

    monkeypatch.setattr(normalpair, "compose", no_compose)
    identity, negation = BoolFn.dictator(1, 0), BoolFn.anti_dictator(1, 0)
    self_flips = []
    for f in (BoolFn.and_(20), BoolFn.xor(20), BoolFn.majority(19)):
        assert check_normal_pair(identity, f) == NormalPairReport(identity, f, True)
        report = check_normal_pair(negation, f)
        self_flips.append(f == f.flip())
        if self_flips[-1]:
            assert report == NormalPairReport(negation, f, True)
            continue
        top = (1 << f.n) - 1
        x = next(x for x in range(top + 1) if f.table >> x & 1 == f.table >> (top - x) & 1)
        at_x = bool(f.table >> x & 1)
        assert report == NormalPairReport(negation, f, False, Violation("commutation"),
                                          (tuple(bool(x >> j & 1) for j in range(f.n)),),
                                          at_x, not at_x)
    assert self_flips == [False, False, True]


def test_5x5_checks_at_the_default_budget():
    assert check_normal_pair(BoolFn.xor(5), BoolFn.nxor(5)).is_normal
    g, f = BoolFn.or_(5), BoolFn.and_(5)
    rep = check_normal_pair(g, f)
    assert rep.violation == Violation("commutation")
    assert (rep.counterexample, rep.column_then_row, rep.row_then_column) == first_failure(g, f)


def test_violation_precedence():
    or2, and2 = BoolFn.or_(2), BoolFn.and_(2)
    assert check_normal_pair(BoolFn.constant(2, True), and2).violation.kind == "g_constant"
    assert check_normal_pair(or2, BoolFn.constant(2, False)).violation.kind == "f_constant"
    lazy = BoolFn.dictator(2, 0)
    rep = check_normal_pair(lazy, and2)
    assert (rep.violation.kind, rep.violation.index) == ("g_irrelevant_index", 1)
    rep = check_normal_pair(or2, BoolFn.dictator(2, 1))
    assert (rep.violation.kind, rep.violation.index) == ("f_irrelevant_index", 0)
    rep = check_normal_pair(or2, and2)
    assert rep.violation.kind == "commutation"


def test_commutation_counterexample_is_sound():
    rep = check_normal_pair(BoolFn.or_(2), BoolFn.and_(2))
    assert not rep.is_normal
    rows = rep.counterexample
    g, f = BoolFn.or_(2), BoolFn.and_(2)
    col_then_row = f(*[g(*[rows[i][j] for i in range(2)]) for j in range(2)])
    row_then_col = g(*[f(*rows[i]) for i in range(2)])
    assert col_then_row != row_then_col
    assert rep.column_then_row == col_then_row
    assert rep.row_then_column == row_then_col


def test_normal_report_has_no_counterexample():
    rep = check_normal_pair(BoolFn.xor(3), BoolFn.xor(2))
    assert rep.is_normal
    assert rep.violation is None
    assert rep.counterexample is None


def test_mixed_arity_pairs():
    assert check_normal_pair(BoolFn.and_(2), BoolFn.and_(3)).is_normal
    assert check_normal_pair(BoolFn.or_(3), BoolFn.or_(2)).is_normal
    assert not check_normal_pair(BoolFn.and_(2), BoolFn.or_(3)).is_normal
    assert check_normal_pair(BoolFn.nxor(2), BoolFn.xor(3)).is_normal
    assert check_normal_pair(BoolFn.xor(2), BoolFn.xor(3)).is_normal
    assert not check_normal_pair(BoolFn.nxor(2), BoolFn.nxor(3)).is_normal


def test_arity_one_edge_cases():
    # prepending the identity never breaks commutation
    for f in (BoolFn.and_(2), BoolFn.or_(3), BoolFn.xor(2), BoolFn.majority(3)):
        assert check_normal_pair(IDENTITY, f).is_normal
        assert check_normal_pair(f, IDENTITY).is_normal
    # negation commutes exactly with self-flip functions
    for f in (BoolFn.and_(2), BoolFn.or_(2), BoolFn.xor(2)):
        expect = f.flip() == f
        assert check_normal_pair(NEGATION, f).is_normal == expect
    assert check_normal_pair(NEGATION, BoolFn.xor(3)).is_normal
    assert check_normal_pair(NEGATION, BoolFn.majority(3)).is_normal


def test_arity_zero_rejected():
    with pytest.raises(ValueError):
        check_normal_pair(BoolFn(0, 1), BoolFn.and_(2))


def test_pair_check_budget(monkeypatch):
    # a check is charged 2**(m*n) units, one per matrix
    with pytest.raises(BudgetError):
        check_normal_pair(BoolFn.and_(3), BoolFn.and_(3),
                          config=Config(enumeration_budget=(1 << 9) - 1))
    assert check_normal_pair(BoolFn.and_(3), BoolFn.and_(3),
                             config=Config(enumeration_budget=1 << 9)).is_normal
    # the default admits exactly m*n <= 25
    assert check_normal_pair(BoolFn.and_(5), BoolFn.and_(5)).is_normal

    def no_columns(*args):
        raise AssertionError("columns built for a refused check")

    monkeypatch.setattr(normalpair, "_down", no_columns)
    monkeypatch.setattr(normalpair, "_across", no_columns)
    monkeypatch.setattr(normalpair, "compose", no_columns)
    with pytest.raises(BudgetError, match="2x13"):
        check_normal_pair(BoolFn.and_(2), BoolFn.and_(13))
    # the charge comes before the structural checks
    with pytest.raises(BudgetError):
        check_normal_pair(BoolFn(2, 0), BoolFn.and_(13))


# expected enumerations, frozen from the brute-force sweep
PAIRS_2X2 = [("xor:2", "xor:2"), ("and:2", "and:2"),
             ("nxor:2", "nxor:2"), ("or:2", "or:2")]
PAIRS_2X3 = [("xor:2", "xor:3"), ("and:2", "and:3"),
             ("nxor:2", "xor:3"), ("or:2", "or:3")]
PAIRS_3X2 = [("and:3", "and:2"), ("xor:3", "xor:2"),
             ("xor:3", "nxor:2"), ("or:3", "or:2")]
PAIRS_3X3 = [("nxor:3", "nxor:3"), ("nxor:3", "xor:3"), ("and:3", "and:3"),
             ("xor:3", "nxor:3"), ("xor:3", "xor:3"), ("or:3", "or:3")]


def canon(pairs):
    return [(format_fn_spec(parse_fn_spec(a)), format_fn_spec(parse_fn_spec(b)))
            for a, b in pairs]


def test_enumerate_2x2():
    got = [(format_fn_spec(g), format_fn_spec(f))
           for g, f in enumerate_normal_pairs(2, 2)]
    assert sorted(got) == sorted(canon(PAIRS_2X2))


def test_enumerate_3x3():
    got = [(format_fn_spec(g), format_fn_spec(f))
           for g, f in enumerate_normal_pairs(3, 3)]
    assert sorted(got) == sorted(canon(PAIRS_3X3))


def test_enumerate_mixed_arities():
    for m, n, expected in ((2, 3, PAIRS_2X3), (3, 2, PAIRS_3X2)):
        got = [(format_fn_spec(g), format_fn_spec(f))
               for g, f in enumerate_normal_pairs(m, n)]
        assert sorted(got) == sorted(canon(expected))


def test_enumeration_is_sorted_by_tables():
    pairs = enumerate_normal_pairs(2, 3)
    keys = [(g.table, f.table) for g, f in pairs]
    assert keys == sorted(keys)


def test_sweep_matches_pair_by_pair_loop():
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        assert enumerate_normal_pairs(m, n) == loop_enumerate_normal_pairs(m, n)


def test_sweep_matches_column_sweep():
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4)):
        assert (enumerate_normal_pairs(m, n, config=RAISED)
                == column_sweep_enumerate_normal_pairs(m, n))


def test_sweep_matches_matrix_outer_sweep():
    for m, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)):
        assert (enumerate_normal_pairs(m, n, config=RAISED)
                == matrix_outer_enumerate_normal_pairs(m, n))


def test_both_ends_of_the_handoff(monkeypatch):
    handoffs = []
    certify = normalpair._certify

    def counted_certify(m, n, *rest):
        handoffs.append((m, n))
        return certify(m, n, *rest)

    monkeypatch.setattr(normalpair, "_certify", counted_certify)
    for ratio, expect_handoff in ((1 << 64, False), (0, True)):
        monkeypatch.setattr(normalpair, "_HANDOFF_RATIO", ratio)
        for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
            handoffs.clear()
            assert enumerate_normal_pairs(m, n) == matrix_outer_enumerate_normal_pairs(m, n)
            # a tall enumeration sweeps the transposed arities
            swept = (min(m, n), max(m, n))
            assert handoffs == ([swept] if expect_handoff else [])


def walk_orbits(m):
    """The input-permutation orbits of the all-relevant arity-m tables, by a
    walk over the m - 1 adjacent input swaps, and the flip duality between
    them: each orbit's smallest table maps to its members, ascending, and to
    the key of the orbit of the flipped tables."""
    width = 1 << m
    highs = [high for _, _, high, _ in boolfn._input_lifts(m)]
    swaps = []
    for i in range(m - 1):
        lo, hi = highs[i], highs[i + 1]
        up, down = lo & ~hi, hi & ~lo
        swaps.append(((1 << width) - 1 ^ up ^ down, up, down, 1 << i))
    orbits, home = {}, {}
    for t in set_bits(relevant_tables(m)):
        if t in home:
            continue
        home[t] = t
        members = [t]
        for u in members:
            for keep, up, down, s in swaps:
                v = u & keep | (u & up) << s | (u & down) >> s
                if v not in home:
                    home[v] = t
                    members.append(v)
        orbits[t] = sorted(members)
    dual = {t: home[boolfn._flip_table(m, t)] for t in orbits}
    return orbits, dual


def test_orbits():
    # the keys are the walk's orbit keys that are at most their dual's, and
    # each key's expanded orbit is the walk's orbit
    for m, orbit_count, count in ((2, 8, 4), (3, 68, 39), (4, 3904, 1986)):
        orbits, dual = walk_orbits(m)
        assert len(orbits) == orbit_count
        members = [t for orbit in orbits.values() for t in orbit]
        assert sorted(members) == set_bits(relevant_tables(m))
        perms = normalpair._point_perms(m)
        keys = set_bits(normalpair._class_keys(m, perms))
        assert len(keys) == count
        assert keys == [t for t in orbits if t <= dual[t]]
        for key in keys:
            assert sorted(normalpair._orbit(key, perms)) == orbits[key]
        if m > 3:
            continue
        home = {t: key for key, orbit in orbits.items() for t in orbit}
        for t in members:
            for perm in itertools.permutations(range(m)):
                moved = compose(BoolFn(m, t), [variable_mask(i, m) for i in perm], 1 << m)
                assert home[moved] == home[t]


def test_flip_dual_orbits():
    # the dual map is an involution on the walk's orbit keys, the flips of an
    # orbit's members are exactly its dual's members, and so are the flips
    # of each key's expanded orbit
    for m in (2, 3, 4):
        orbits, dual = walk_orbits(m)
        for key, orbit in orbits.items():
            assert dual[dual[key]] == key
            assert sorted(BoolFn(m, t).flip().table for t in orbit) == orbits[dual[key]]
        perms = normalpair._point_perms(m)
        for key in set_bits(normalpair._class_keys(m, perms)):
            flipped = {BoolFn(m, t).flip().table for t in normalpair._orbit(key, perms)}
            assert sorted(flipped) == orbits[dual[key]]


def counted_sweeps(monkeypatch):
    """The (m, number of g swept) of each ``_partners`` call from now on."""
    swept = []
    partners = normalpair._partners

    def counted_partners(m, g_tables, n):
        swept.append((m, len(g_tables)))
        return partners(m, g_tables, n)

    monkeypatch.setattr(normalpair, "_partners", counted_partners)
    return swept


def test_sweep_visits_one_orbit_per_dual_pair(monkeypatch):
    # 4 of 8 orbits at arity 2 and 39 of 68 at 3 (1 986 of 3 904 at 4 are
    # counted in test_4x4_pairs); a tall enumeration sweeps its short side
    swept = counted_sweeps(monkeypatch)
    for m, n in ((2, 2), (3, 3), (3, 2), (4, 2)):
        enumerate_normal_pairs(m, n, config=RAISED)
    assert swept == [(2, 4), (3, 39), (2, 4), (2, 4)]


def test_4x4_pairs(monkeypatch):
    # 0.6-0.9 s on a shared 2-core machine
    swept = counted_sweeps(monkeypatch)
    expected = sorted([(BoolFn.and_(4), BoolFn.and_(4)), (BoolFn.or_(4), BoolFn.or_(4)),
                       (BoolFn.xor(4), BoolFn.xor(4)), (BoolFn.nxor(4), BoolFn.nxor(4))],
                      key=lambda p: (p[0].table, p[1].table))
    assert enumerate_normal_pairs(4, 4, config=RAISED) == expected
    assert swept == [(4, 1986)]


# frozen from the sweep, which equals the matrix-outer reference at these
# arities; each pair is named by its g and f
TALL_AND_WIDE_PAIRS = {
    (2, 4): [("and:2", "and:4"), ("or:2", "or:4"), ("xor:2", "xor:4"), ("nxor:2", "nxor:4")],
    (4, 2): [("and:4", "and:2"), ("or:4", "or:2"), ("xor:4", "xor:2"), ("nxor:4", "nxor:2")],
    (3, 4): [("and:3", "and:4"), ("or:3", "or:4"), ("xor:3", "xor:4"), ("xor:3", "nxor:4")],
    (4, 3): [("and:4", "and:3"), ("or:4", "or:3"), ("xor:4", "xor:3"), ("nxor:4", "xor:3")],
}


def test_tall_and_wide_pairs():
    # pinned at a raised budget until the default budget admits these arities
    for (m, n), expected in TALL_AND_WIDE_PAIRS.items():
        got = [(format_fn_spec(g), format_fn_spec(f))
               for g, f in enumerate_normal_pairs(m, n, config=RAISED)]
        assert got == sorted(canon(expected)), (m, n)


def test_arity_five_refused_at_any_budget(monkeypatch):
    def no_tables(*args):
        raise AssertionError("tables built for a refused enumeration")

    monkeypatch.setattr(boolfn, "variable_mask", no_tables)
    for m, n in ((2, 5), (5, 2)):
        with pytest.raises(BudgetError, match="at any budget"):
            enumerate_normal_pairs(m, n, config=RAISED)


def test_enumeration_respects_the_arity_cap(monkeypatch):
    # the cap is checked after the arity floor and the table-set ceiling,
    # and before the charge and any table
    assert enumerate_normal_pairs(2, 2, config=Config(arity_cap=2))
    monkeypatch.setattr(boolfn, "variable_mask", lambda *args: pytest.fail("tables built"))
    capped = Config(arity_cap=2, enumeration_budget=1)
    for m, n in ((3, 3), (2, 3), (3, 2), (4, 2)):
        with pytest.raises(BudgetError) as err:
            enumerate_normal_pairs(m, n, config=capped)
        assert str(err.value) == f"arity {max(m, n)} exceeds the cap of 2"
    with pytest.raises(ValueError):
        enumerate_normal_pairs(1, 3, config=capped)
    with pytest.raises(BudgetError, match="at any budget"):
        enumerate_normal_pairs(5, 2, config=capped)
    with pytest.raises(BudgetError, match="enumeration budget"):
        enumerate_normal_pairs(2, 2, config=capped)


def test_matrix_order_does_not_change_the_pairs(monkeypatch):
    expected = enumerate_normal_pairs(3, 3)
    for step in (1, 3, (1 << 9) - 1):
        monkeypatch.setattr(normalpair, "_MATRIX_STEP", step)
        assert enumerate_normal_pairs(3, 3) == expected


def test_transposition():
    # (g, f) is normal at (m, n) iff (f, g) is normal at (n, m), by the
    # check, which does not transpose, on every table pair at 2x3
    for gt in range(16):
        for ft in range(256):
            g, f = BoolFn(2, gt), BoolFn(3, ft)
            assert check_normal_pair(g, f).is_normal == check_normal_pair(f, g).is_normal
    # and the enumeration of each tall shape through (4, 3) is the wide one's
    # pairs swapped, in (g, f) table order
    for m, n in ((3, 2), (4, 2), (4, 3)):
        pairs = enumerate_normal_pairs(m, n, config=RAISED)
        swapped = [(f, g) for g, f in enumerate_normal_pairs(n, m, config=RAISED)]
        assert pairs == sorted(swapped, key=lambda p: (p[0].table, p[1].table)), (m, n)


def test_flip_duality():
    pairs = {(g, f) for g, f in enumerate_normal_pairs(3, 3)}
    assert {(g.flip(), f.flip()) for g, f in pairs} == pairs


def test_enumeration_budget():
    tiny = Config(enumeration_budget=1 << 10)
    with pytest.raises(BudgetError):
        enumerate_normal_pairs(2, 2, config=tiny)
    with pytest.raises(ValueError):
        enumerate_normal_pairs(1, 2)


def test_classify_pair():
    assert classify_pair(BoolFn.and_(2), BoolFn.and_(3)) == "both-and"
    assert classify_pair(BoolFn.or_(3), BoolFn.or_(2)) == "both-or"
    assert classify_pair(BoolFn.xor(2), BoolFn.xor(2)) == "xor-family"
    assert classify_pair(BoolFn.nxor(2), BoolFn.xor(3)) == "xor-family"
    assert classify_pair(IDENTITY, BoolFn.and_(2)) == "trivial"
    assert classify_pair(BoolFn.or_(2), BoolFn.and_(2)) == "violation"


def test_every_enumerated_pair_lands_in_a_named_case():
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for g, f in enumerate_normal_pairs(m, n):
            assert classify_pair(g, f) in ("both-and", "both-or", "xor-family")


def test_pairs_suite_labels_each_member_once(monkeypatch):
    calls, real = [], boolfn._classify
    monkeypatch.setattr(boolfn, "_classify",
                        lambda f, inputs: calls.append(f) or real(f, inputs))
    assert run_suites(["pairs"]).passed
    pairs = [p for arity_pairs in EXPECTED_PAIRS.values() for p in arity_pairs]
    # the enumeration check labels only on a failure; the case and forceful
    # checks share one label per member
    assert len(calls) == 2 * len(pairs) == 36
