"""Bit-packed Boolean functions."""

import dataclasses
import functools
import itertools
import operator
import pickle
import random

import pytest

import jagg.boolfn as boolfn
from jagg.boolfn import (BoolFn, FnClass, all_tables, classify,
                         classify_on_relevant, compose, format_fn_spec, minterms,
                         parse_fn_spec, relevant_tables, set_bits, stretch_bits,
                         variable_mask)
from jagg.config import Config, BudgetError
from jagg.formula import And, Atom, Not, Or, Xor, parse
from jagg.normalpair import check_normal_pair

ALL2 = [BoolFn(2, t) for t in range(16)]


def points(n):
    return range(1 << n)


def test_variable_mask():
    assert variable_mask(0, 2) == 0b1010
    assert variable_mask(1, 2) == 0b1100
    assert variable_mask(0, 3) == 0b10101010
    assert variable_mask(2, 3) == 0b11110000
    for n in range(1, 6):
        for i in range(n):
            mask = variable_mask(i, n)
            for p in points(n):
                assert bool(mask >> p & 1) == bool(p >> i & 1)


def test_variable_mask_equals_division_formula():
    for n in range(1, 15):
        npts = 1 << n
        for i in range(n):
            block = 1 << i
            ones_at_periods = ((1 << npts) - 1) // ((1 << (block << 1)) - 1)
            assert variable_mask(i, n) == (ones_at_periods * ((1 << block) - 1)) << block


def test_table_bit_convention():
    f = BoolFn.and_(2)
    assert f.table == 0b1000
    assert f.value(0b11) is True
    assert f.value(0b01) is False
    assert f(True, False) is False
    assert f(True, True) is True


def value_call(f, *inputs):
    """``BoolFn.__call__`` as it was when it went through ``value`` and its
    range check, kept as the reference for the direct table read."""
    if len(inputs) != f.n:
        raise ValueError(f"expected {f.n} inputs, got {len(inputs)}")
    point = 0
    for i, b in enumerate(inputs):
        if b:
            point |= 1 << i
    return f.value(point)


def test_call_matches_value_on_every_point():
    for n in range(5):
        inputs = list(itertools.product((False, True), repeat=n))
        for f in all_tables(n):
            got = [f(*x) for x in inputs]
            assert got == [value_call(f, *x) for x in inputs], f
            assert all(type(v) is bool for v in got)
    f = BoolFn.and_(2)
    for inputs in ((True,), (True, False, True), ()):
        with pytest.raises(ValueError) as new:
            f(*inputs)
        with pytest.raises(ValueError) as old:
            value_call(f, *inputs)
        assert str(new.value) == str(old.value) == f"expected 2 inputs, got {len(inputs)}"


def test_named_constructors():
    assert BoolFn.constant(2, True).table == 0b1111
    assert BoolFn.constant(3, False).table == 0
    assert BoolFn.or_(2).table == 0b1110
    assert BoolFn.xor(2).table == 0b0110
    assert BoolFn.nxor(2).table == 0b1001
    assert BoolFn.dictator(3, 1).table == 0b11001100
    assert BoolFn.anti_dictator(2, 0).table == 0b0101
    for p in points(3):
        bits = bin(p).count("1")
        assert BoolFn.xor(3).value(p) == (bits % 2 == 1)
        assert BoolFn.nxor(3).value(p) == (bits % 2 == 0)
        assert BoolFn.majority(3).value(p) == (bits >= 2)


def test_majority_tie_handling():
    assert BoolFn.majority(2) == BoolFn.or_(2)
    assert BoolFn.majority(2, ties=False) == BoolFn.and_(2)
    assert BoolFn.majority(3) == BoolFn.majority(3, ties=False)


def loop_majority(n, ties):
    """The former per-point construction, kept as a reference."""
    table = 0
    for p in range(1 << n):
        double = 2 * p.bit_count()
        if double > n or (double == n and ties):
            table |= 1 << p
    return BoolFn(n, table)


def test_majority_matches_loop():
    for n in range(1, 13):
        for ties in (True, False):
            assert BoolFn.majority(n, ties=ties) == loop_majority(n, ties), (n, ties)
    with pytest.raises(BudgetError):
        BoolFn.majority(4, config=Config(arity_cap=3))


def test_table_range_checked():
    with pytest.raises(ValueError):
        BoolFn(2, 16)
    with pytest.raises(ValueError):
        BoolFn(2, -1)
    with pytest.raises(ValueError):
        BoolFn(-1, 0)
    # nullary constants are legal: one point, one output bit
    assert BoolFn(0, 1).is_constant()
    with pytest.raises(ValueError):
        BoolFn(0, 2)


def test_constructor_keeps_the_dataclass_behaviour():
    f = BoolFn(n=2, table=6)
    assert f == BoolFn(2, 6) and hash(f) == hash(BoolFn(2, 6))
    assert f != BoolFn(2, 9) and f != BoolFn(3, 6)
    assert repr(f) == "BoolFn(n=2, table=6)"
    assert dataclasses.replace(f, table=9) == BoolFn(2, 9)
    with pytest.raises(ValueError, match="out of range"):
        dataclasses.replace(f, n=1)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(f, protocol)) == f
    for field in ("n", "table"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, field, 1)
    assert len({BoolFn(2, 6), BoolFn(2, 6), BoolFn(2, 9)}) == 2
    with pytest.raises(ValueError) as err:
        BoolFn(-1, 0)
    assert str(err.value) == "arity must be non-negative, got -1"
    with pytest.raises(ValueError) as err:
        BoolFn(2, 16)
    assert str(err.value) == "table 0x10 out of range for arity 2"


def test_repr_prints_a_table_past_the_digit_limit_in_hex():
    # the decimal text of these tables passes the int to str conversion limit
    for f in (BoolFn.and_(14), BoolFn.xor(16)):
        assert repr(f) == f"BoolFn(n={f.n}, table={f.table:#x})"
    report = check_normal_pair(BoolFn.dictator(1, 0), BoolFn.xor(16))
    assert report.is_normal
    assert f"f=BoolFn(n=16, table={BoolFn.xor(16).table:#x})" in repr(report)
    assert repr(BoolFn.and_(13)) == f"BoolFn(n=13, table={1 << 8191})"


def test_from_formula():
    f = BoolFn.from_formula(parse("P & !Q"), ["P", "Q"])
    assert f(True, False) is True
    assert f(True, True) is False
    # symbol order decides input index
    g = BoolFn.from_formula(parse("P & !Q"), ["Q", "P"])
    assert g(False, True) is True
    # unused symbols produce irrelevant inputs
    h = BoolFn.from_formula(parse("P"), ["P", "Q"])
    assert h == BoolFn.dictator(2, 0)
    with pytest.raises(ValueError):
        BoolFn.from_formula(parse("P & Q"), ["P"])
    with pytest.raises(ValueError):
        BoolFn.from_formula(parse("P"), ["P", "P"])


def test_relevance_and_pivots():
    f = BoolFn.from_formula(parse("P"), ["P", "Q"])
    assert f.is_relevant(0) and not f.is_relevant(1)
    assert f.relevant_indices() == (0,)
    maj = BoolFn.majority(3)
    assert maj.relevant_indices() == (0, 1, 2)
    # pivotal at a specific point: index 0 at (T, T, F) for majority
    assert maj.is_pivotal(0, 0b011)
    assert not maj.is_pivotal(0, 0b111)
    assert BoolFn.constant(2, True).relevant_indices() == ()


def test_flip_involution_and_fixed_points():
    for f in ALL2:
        assert f.flip().flip() == f
    assert BoolFn.and_(2).flip() == BoolFn.or_(2)
    assert BoolFn.xor(2).flip() == BoolFn.nxor(2)
    assert BoolFn.xor(3).flip() == BoolFn.xor(3)
    assert BoolFn.dictator(3, 2).flip() == BoolFn.dictator(3, 2)
    assert BoolFn.majority(3).flip() == BoolFn.majority(3)


def test_negate():
    assert BoolFn.and_(2).negate().table == 0b0111
    assert BoolFn.constant(2, True).negate() == BoolFn.constant(2, False)


def test_forceable_indices():
    assert BoolFn.and_(2).forceable_indices() == ((False, False), (False, False))
    assert BoolFn.or_(3).forceable_indices() == ((True, True),) * 3
    assert BoolFn.dictator(2, 0).forceable_indices() == ((False, False), None)
    assert BoolFn.majority(3).forceable_indices() == (None, None, None)


def test_is_forceful():
    assert BoolFn.and_(4).is_forceful()
    assert BoolFn.or_(2).is_forceful()
    assert not BoolFn.xor(2).is_forceful()
    assert not BoolFn.majority(3).is_forceful()
    assert not BoolFn.dictator(2, 0).is_forceful()
    # constants force trivially everywhere
    assert BoolFn.constant(2, True).is_forceful()


def test_forceful_decomposition_named_shapes():
    d = BoolFn.or_(3).forceful_decomposition()
    assert (d.c0, d.signs) == (-1, (-1, -1, -1))
    d = BoolFn.and_(3).forceful_decomposition()
    assert (d.c0, d.signs) == (1, (1, 1, 1))
    d = BoolFn.from_formula(parse("!a & b"), ["a", "b"]).forceful_decomposition()
    assert (d.c0, d.signs) == (1, (-1, 1))


def test_forceful_decomposition_roundtrip_exhaustive():
    for n in (2, 3):
        for f in all_tables(n):
            if f.is_constant() or not f.is_forceful():
                continue
            d = f.forceful_decomposition()
            assert d.expand() == f


def test_forceful_decomposition_rejects():
    with pytest.raises(ValueError):
        BoolFn.constant(2, True).forceful_decomposition()
    with pytest.raises(ValueError):
        BoolFn.xor(2).forceful_decomposition()
    with pytest.raises(ValueError):
        BoolFn.dictator(1, 0).forceful_decomposition()


def test_restrict_to_and_on_relevant():
    x3 = BoolFn.xor(3)
    assert x3.restrict_to((0, 2)) == BoolFn.xor(2)
    f = BoolFn.from_formula(parse("Q"), ["P", "Q", "R"])
    sub, idx = f.on_relevant()
    assert idx == (1,)
    assert sub == BoolFn.dictator(1, 0)
    g = BoolFn.constant(2, False)
    sub, idx = g.on_relevant()
    assert idx == ()
    assert sub.n == 0 and sub.is_constant()


def test_is_symmetric():
    for f in (BoolFn.and_(3), BoolFn.or_(3), BoolFn.xor(3),
              BoolFn.majority(3), BoolFn.constant(2, True)):
        assert f.is_symmetric()
    assert not BoolFn.dictator(2, 0).is_symmetric()
    assert not BoolFn.from_formula(parse("!a & b"), ["a", "b"]).is_symmetric()


def test_classify_named():
    assert classify(BoolFn.and_(3)) == FnClass("and")
    assert classify(BoolFn.or_(2)) == FnClass("or")
    assert classify(BoolFn.xor(4)) == FnClass("xor")
    assert classify(BoolFn.nxor(2)) == FnClass("nxor")
    assert classify(BoolFn.dictator(3, 2)) == FnClass("dictator", index=2)
    assert classify(BoolFn.anti_dictator(2, 1)) == FnClass("anti_dictator", index=1)
    assert classify(BoolFn.constant(2, True)) == FnClass("constant", value=True)
    assert classify(BoolFn.majority(3)) == FnClass("other")
    # arity 1: identity is a dictator, negation an anti-dictator
    assert classify(BoolFn(1, 0b10)) == FnClass("dictator", index=0)
    assert classify(BoolFn(1, 0b01)) == FnClass("anti_dictator", index=0)


def test_classify_covers_every_table():
    # classification is total and matches the table it names
    rebuild = {
        "and": BoolFn.and_, "or": BoolFn.or_, "xor": BoolFn.xor,
        "nxor": BoolFn.nxor,
    }
    for n in (1, 2, 3):
        for f in all_tables(n):
            label = classify(f)
            if label.kind == "constant":
                assert f == BoolFn.constant(n, label.value)
            elif label.kind == "dictator":
                assert f == BoolFn.dictator(n, label.index)
            elif label.kind == "anti_dictator":
                assert f == BoolFn.anti_dictator(n, label.index)
            elif label.kind in rebuild:
                assert f == rebuild[label.kind](n)
            else:
                assert label.kind == "other"


def test_classify_on_relevant():
    f = BoolFn.from_formula(parse("P | R"), ["P", "Q", "R"])
    label, idx = classify_on_relevant(f)
    assert label == FnClass("or") and idx == (0, 2)


def test_fn_spec_roundtrip():
    for text in ("and:3", "or:2", "xor:4", "nxor:2", "const:2:T",
                 "dictator:3:1", "tt:2:8"):
        f = parse_fn_spec(text)
        assert parse_fn_spec(format_fn_spec(f)) == f
    assert format_fn_spec(BoolFn.and_(2)) == "tt:2:8"
    assert format_fn_spec(BoolFn(4, 1)) == "tt:4:0001"


def test_fn_spec_errors():
    for bad in ("", "bogus", "and", "and:0", "and:x", "const:2:maybe",
                "dictator:2:2", "dictator:2:-1", "tt:2:123", "tt:2:zz"):
        with pytest.raises(ValueError):
            parse_fn_spec(bad)


def test_arity_zero_errors_name_the_family():
    for kind in ("and", "or", "xor", "nxor"):
        with pytest.raises(ValueError) as err:
            parse_fn_spec(f"{kind}:0")
        assert str(err.value) == f"bad function spec '{kind}:0': {kind} needs arity >= 1"
    with pytest.raises(ValueError) as err:
        BoolFn.anti_dictator(0, 0)
    assert str(err.value) == "anti_dictator needs arity >= 1"


def test_negative_arity_errors_match_the_constructor():
    want = "arity must be non-negative, got -1"
    for make in (lambda: BoolFn(-1, 0), lambda: BoolFn.constant(-1, True),
                 lambda: list(all_tables(-1))):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == want
    with pytest.raises(ValueError) as err:
        parse_fn_spec("const:-1:T")
    assert str(err.value) == f"bad function spec 'const:-1:T': {want}"


def test_arity_cap_enforced():
    small = Config(arity_cap=3)
    with pytest.raises(BudgetError):
        parse_fn_spec("and:4", config=small)
    assert parse_fn_spec("and:3", config=small).n == 3


def test_all_tables_counts():
    assert sum(1 for _ in all_tables(1)) == 4
    assert sum(1 for _ in all_tables(2)) == 16
    assert sum(1 for _ in all_tables(3)) == 256


def test_set_bits():
    assert set_bits(0) == []
    for i in (0, 1, 7, 64, 1000):
        assert set_bits(1 << i) == [i]
    mask = random.Random(6).getrandbits(5000)
    assert set_bits(mask) == [i for i in range(5000) if mask >> i & 1]


def test_stretch_bits_matches_a_bit_loop():
    # blocks that are and are not whole bytes, powers of 3 among them; block
    # 1 is the table itself
    rng = random.Random(24)
    for block in range(1, 41):
        for points in range(17):
            for table in {0, (1 << points) - 1, rng.getrandbits(points) if points else 0}:
                expected = 0
                for x in range(points):
                    if table >> x & 1:
                        for k in range(block):
                            expected |= 1 << (x * block + k)
                assert stretch_bits(table, points, block) == expected, (table, points, block)


def test_relevant_tables_match_is_relevant():
    for n, count in ((0, 2), (1, 2), (2, 10), (3, 218), (4, 64594)):
        mask = relevant_tables(n)
        assert mask.bit_count() == count
        assert mask == sum(1 << f.table for f in all_tables(n)
                           if all(f.is_relevant(i) for i in range(n)))


def test_relevant_tables_refuses_arity_five_before_any_mask(monkeypatch):
    def no_masks(*args):
        raise AssertionError("a variable mask was built")

    monkeypatch.setattr(boolfn, "variable_mask", no_masks)
    for n in (5, 6, 32):
        with pytest.raises(BudgetError, match="at any budget"):
            relevant_tables(n)


def test_minterms_partition_the_points():
    rng = random.Random(8)
    for width in (1, 7, 64, 300):
        full = (1 << width) - 1
        for count in range(1, 5):
            tables = [rng.getrandbits(width) for _ in range(count)]
            entries = minterms(tables, width)
            assert len(entries) == 1 << count
            union = 0
            for x, entry in enumerate(entries):
                assert entry & union == 0
                union |= entry
                # entry x is where table i reads bit i of x
                for i, table in enumerate(tables):
                    assert entry & table == (entry if x >> i & 1 else 0)
            assert union == full


def test_minterms_or_equals_compose():
    rng = random.Random(9)
    width = 200
    for n in range(4):
        args = [rng.getrandbits(width) for _ in range(n)]
        entries = minterms(args, width)
        for f in all_tables(n):
            joined = 0
            for x in set_bits(f.table):
                joined |= entries[x]
            assert joined == compose(f, args, width)


def test_compose():
    # xor of two ANDs over a 3-cube (8 points): h(a, b, c) = (a & b) ^ (b & c)
    args = [BoolFn.from_formula(parse("a & b"), ["a", "b", "c"]).table,
            BoolFn.from_formula(parse("b & c"), ["a", "b", "c"]).table]
    table = compose(BoolFn.xor(2), args, 8)
    h = BoolFn(3, table)
    for p in points(3):
        a, b, c = (bool(p >> i & 1) for i in range(3))
        assert h.value(p) == ((a and b) != (b and c))


# --- the linear-time table walks against the per-point loops they replaced --

def loop_flip(f):
    rev = 0
    for p in range(f.points):
        if f.table >> p & 1:
            rev |= 1 << (f.points - 1 - p)
    return BoolFn(f.n, rev ^ f.full)


def loop_restrict_to(f, idx):
    table = 0
    for q in range(1 << len(idx)):
        point = 0
        for j, i in enumerate(idx):
            if q >> j & 1:
                point |= 1 << i
        if f.value(point):
            table |= 1 << q
    return BoolFn(len(idx), table)


def loop_is_symmetric(f):
    by_count = {}
    for p in range(f.points):
        v = bool(f.table >> p & 1)
        if by_count.setdefault(p.bit_count(), v) != v:
            return False
    return True


def loop_xor(n):
    return BoolFn(n, sum(1 << p for p in range(1 << n) if p.bit_count() % 2))


def subsets(n):
    return [idx for k in range(n + 1) for idx in itertools.combinations(range(n), k)]


def seeded_tables(n, seed, count=6):
    """Random tables, and symmetric ones built from random per-count values,
    so both answers of ``is_symmetric`` occur."""
    rng = random.Random(seed)
    out = [BoolFn(n, rng.getrandbits(1 << n)) for _ in range(count)]
    for _ in range(count):
        by_count = [rng.random() < 0.5 for _ in range(n + 1)]
        out.append(BoolFn(n, sum(1 << p for p in range(1 << n)
                                 if by_count[p.bit_count()])))
    return out


def test_table_walks_match_loops():
    cases = [(f, subsets(f.n)) for n in range(4) for f in all_tables(n)]
    for n, seed in ((8, 80), (12, 120)):
        rng = random.Random(seed)
        idx = [tuple(sorted(rng.sample(range(n), k))) for k in (0, 1, n // 2, n - 1, n)]
        cases += [(f, idx) for f in seeded_tables(n, seed)]
    symmetric = 0
    for f, idx in cases:
        assert f.flip() == loop_flip(f)
        assert f.is_symmetric() == loop_is_symmetric(f)
        symmetric += f.is_symmetric()
        for sub in idx:
            assert f.restrict_to(sub) == loop_restrict_to(f, sub)
    assert 0 < symmetric < len(cases)
    for n in range(1, 13):
        assert BoolFn.xor(n) == loop_xor(n)


def test_classify_at_raised_arity_cap():
    # the and/or/xor references are not held to the default cap of 20
    wide = Config(arity_cap=21)
    for kind in ("and", "or", "xor"):
        f = parse_fn_spec(f"{kind}:21", config=wide)
        assert classify(f) == FnClass(kind)
    assert classify(BoolFn.nxor(21, config=wide)) == FnClass("nxor")


def test_input_lifts_match_variable_masks():
    for n in [*range(7), 8, 16]:
        full = (1 << (1 << n)) - 1
        lifts = boolfn._input_lifts(n)
        assert len(lifts) == n
        for i, lift in enumerate(lifts):
            var = variable_mask(i, n)
            assert lift == (0, full ^ var, var, full)
        assert boolfn._input_lifts(n) is lifts


def test_relevance_and_forcing_match_a_point_loop():
    # every table up to arity 4 against a loop over the points: input i
    # pairs point p (input i F) with p + 2**i (input i T)
    for n in range(5):
        pairs_of = [[(p, p | 1 << i) for p in points(n) if not p >> i & 1] for i in range(n)]
        for f in all_tables(n):
            bits = format(f.table, f"0{f.points}b")[::-1]
            relevant, forceable = [], []
            for pairs in pairs_of:
                relevant.append(any(bits[p] != bits[q] for p, q in pairs))
                witness = None
                for x, outs in ((False, {bits[p] for p, _ in pairs}),
                                (True, {bits[q] for _, q in pairs})):
                    if witness is None and len(outs) == 1:
                        witness = (x, outs == {"1"})
                forceable.append(witness)
            assert [f.is_relevant(i) for i in range(n)] == relevant
            assert f.relevant_indices() == tuple(i for i in range(n) if relevant[i])
            assert f.first_irrelevant_index() == next(
                (i for i in range(n) if not relevant[i]), None)
            assert f.forceable_indices() == tuple(forceable)
            assert f.is_forceful() == all(w is not None for w in forceable)


# --- the cached-column paths against the per-call mask forms they replaced --

def reference_classify(f):
    """``classify`` as it was: every dictator mask rebuilt per call and the
    named families from their closed-form tables."""
    if f.table == 0:
        return FnClass("constant", value=False)
    if f.table == f.full:
        return FnClass("constant", value=True)
    for i in range(f.n):
        if f.table == variable_mask(i, f.n):
            return FnClass("dictator", index=i)
    for i in range(f.n):
        if f.table == variable_mask(i, f.n) ^ f.full:
            return FnClass("anti_dictator", index=i)
    if f.n >= 1:
        parity = boolfn._named_table("xor", f.n)
        for kind, table in (("and", boolfn._named_table("and", f.n)),
                            ("or", boolfn._named_table("or", f.n)),
                            ("xor", parity), ("nxor", parity ^ f.full)):
            if f.table == table:
                return FnClass(kind)
    return FnClass("other")


def lifted(n, inputs, sub):
    """The arity-``n`` function that applies ``sub`` to ``inputs`` alone."""
    table = 0
    for p in range(1 << n):
        q = sum((p >> i & 1) << j for j, i in enumerate(inputs))
        table |= (sub.table >> q & 1) << p
    return BoolFn(n, table)


def test_classifier_matches_restriction_and_rebuilt_masks():
    fns = [f for n in range(5) for f in all_tables(n)]
    rng = random.Random(19)
    for n in range(5, 9):
        fns += [BoolFn(n, rng.getrandbits(1 << n)) for _ in range(20)]
        # named shapes and random ones on a few inputs, the rest irrelevant
        for _ in range(6):
            inputs = sorted(rng.sample(range(n), rng.randint(1, 4)))
            r = len(inputs)
            subs = [BoolFn(r, boolfn._named_table(kind, r))
                    for kind in ("and", "or", "xor", "nxor")]
            subs += [BoolFn.dictator(r, r - 1), BoolFn.anti_dictator(r, 0),
                     BoolFn(r, rng.getrandbits(1 << r))]
            fns += [lifted(n, inputs, sub) for sub in subs]
    kinds = set()
    for f in fns:
        assert classify(f) == reference_classify(f), f
        rel = tuple(i for i in range(f.n) if f.is_relevant(i))
        label, got = classify_on_relevant(f)
        assert got == rel
        assert label == reference_classify(f.restrict_to(rel)), f
        kinds.add((label.kind, f.n > 4 and len(rel) < f.n))
    assert {kind for kind, _ in kinds} == set(boolfn.CLASS_KINDS)
    assert set(boolfn.CLASS_KINDS) - {"constant"} <= {kind for kind, narrow in kinds if narrow}


def reference_from_formula(phi, symbol_order):
    """``from_formula``'s fold with its variable masks built per call."""
    n = len(symbol_order)
    masks = {s: variable_mask(i, n) for i, s in enumerate(symbol_order)}
    full = (1 << (1 << n)) - 1

    def fold(node):
        if isinstance(node, Atom):
            return masks[node.name]
        if isinstance(node, Not):
            return full ^ fold(node.child)
        parts = [fold(child) for child in node.args]
        if isinstance(node, And):
            return functools.reduce(operator.and_, parts, full)
        if isinstance(node, Or):
            return functools.reduce(operator.or_, parts, 0)
        return functools.reduce(operator.xor, parts, 0)

    return BoolFn(n, fold(phi))


def test_from_formula_matches_per_call_masks():
    rng = random.Random(20)

    def formula(names, depth):
        if depth == 0 or rng.random() < 0.25:
            return Atom(rng.choice(names))
        op = rng.choice([And, Or, Xor, Not])
        if op is Not:
            return Not(formula(names, depth - 1))
        return op(*(formula(names, depth - 1) for _ in range(rng.randint(2, 3))))

    for k in [*range(1, 13), 16, 20]:
        names = [f"s{i}" for i in range(k)]
        for _ in range(6 if k < 16 else 2):
            phi = formula(names, 4)
            order = names[:]
            rng.shuffle(order)
            assert BoolFn.from_formula(phi, order) == reference_from_formula(phi, order)
