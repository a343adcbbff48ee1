"""Agendas, rational judgments, and structural relations."""

import itertools
import random
from pathlib import Path

import pytest

from jagg.agenda import (AgendaError, DegenerateProposition,
                         DuplicateProposition, NegationDuplicate, RationalSet,
                         _split, build_agenda, closure, cons, is_determined_by,
                         is_symbol_closed, load_agenda, rational_judgments)
from jagg.boolfn import _bools
from jagg.config import BudgetError, Config
from jagg.formula import And, Atom, Not, Or, Xor, parse

AND_CLOSURE = build_agenda(["P", "Q", "P & Q"])


def test_build_accepts_formulas_and_strings():
    a = build_agenda([Atom("P"), "Q", parse("P & Q")])
    assert a.symbols == ("P", "Q")
    assert [str(b) for b in a.basis] == ["P", "Q", "P & Q"]
    assert len(a) == 3


def test_truth_tables_follow_symbol_order():
    a = AND_CLOSURE
    # symbol order (P, Q): P is input 0
    assert a.tables[0].table == 0b1010
    assert a.tables[1].table == 0b1100
    assert a.tables[2].table == 0b1000


def test_duplicate_rejected_by_equivalence():
    with pytest.raises(DuplicateProposition):
        build_agenda(["P & Q", "Q & P"])
    with pytest.raises(DuplicateProposition):
        build_agenda(["P", "P"])


def test_negation_duplicate_rejected():
    with pytest.raises(NegationDuplicate):
        build_agenda(["P", "!P"])
    with pytest.raises(NegationDuplicate):
        build_agenda(["P ^ Q", "P ^ !Q"])


def test_degenerate_rejected():
    with pytest.raises(DegenerateProposition):
        build_agenda(["P | !P"])
    with pytest.raises(DegenerateProposition):
        build_agenda(["Q", "P & !P"])


def test_empty_basis_rejected():
    with pytest.raises(AgendaError):
        build_agenda([])


def test_atomic_and_compound_flags():
    a = build_agenda(["P", "Q", "P | Q"])
    assert a.is_atomic(0) and a.is_atomic(1) and not a.is_atomic(2)
    assert a.has_compound()
    assert not build_agenda(["P", "Q"]).has_compound()


def test_symbol_completeness():
    assert AND_CLOSURE.is_symbol_complete()
    assert not build_agenda(["P", "P & Q"]).is_symbol_complete()
    assert build_agenda(["P", "Q"]).is_symbol_complete()


def test_connectivity_and_components():
    a = build_agenda(["P", "Q", "P & Q", "R", "S", "R | S"])
    assert not a.is_symbol_connected()
    assert a.symbol_edges() == ((0, 2), (1, 2), (3, 5), (4, 5))
    assert a.component_positions() == ((0, 1, 2), (3, 4, 5))
    left, right = a.components()
    assert [str(b) for b in left.basis] == ["P", "Q", "P & Q"]
    assert [str(b) for b in right.basis] == ["R", "S", "R | S"]
    assert AND_CLOSURE.is_symbol_connected()
    # isolated atoms are their own components
    b = build_agenda(["P", "Q"])
    assert b.component_positions() == ((0,), (1,))


def test_components_keep_the_callers_config():
    # a 21-symbol component is over the default arity cap of 20
    wide = Config(arity_cap=22)
    big = " | ".join(f"s{i:02d}" for i in range(21))
    a = build_agenda([big, "z"], config=wide)
    left, right = a.components(config=wide)
    assert len(left.symbols) == 21 and right.symbols == ("z",)
    with pytest.raises(BudgetError):
        a.components()


def test_closure():
    c = closure("(P | Q) & R")
    assert [str(b) for b in c.basis] == ["P", "Q", "R", "(P | Q) & R"]
    assert c.is_symbol_complete() and c.is_symbol_connected()
    with pytest.raises(AgendaError):
        closure("P")


def test_is_symbol_closed():
    assert is_symbol_closed(parse("P & Q"), AND_CLOSURE)
    assert not is_symbol_closed(parse("P & Z"), AND_CLOSURE)


def test_rational_judgments_or_closure():
    a = build_agenda(["P", "Q", "P | Q"])
    rs = rational_judgments(a)
    assert rs.judgments == ((False, False, False), (False, True, True),
                            (True, False, True), (True, True, True))
    # each witness induces its judgment
    for judgment, witness in zip(rs.judgments, rs.witnesses):
        env = dict(zip(a.symbols, witness))
        assert tuple(b.evaluate(env) for b in a.basis) == judgment


def test_rational_judgments_no_atoms():
    a = build_agenda(["P | Q", "!P | Q"])
    rs = rational_judgments(a)
    # both-false would need P, Q false, which makes the second one true
    assert rs.judgments == ((False, True), (True, False), (True, True))
    assert rs.witnesses == ((False, False), (True, False), (False, True))


def test_rational_judgments_atomic_agenda_is_free():
    a = build_agenda(["P", "Q"])
    assert len(rational_judgments(a).judgments) == 4


def loop_rational_judgments(agenda):
    """Reference: evaluate every table at every assignment, one at a time."""
    k = len(agenda.symbols)
    seen = {}
    for mask in range(1 << k):
        judgment = tuple(t.value(mask) for t in agenda.tables)
        if judgment not in seen:
            seen[judgment] = tuple(bool(mask >> i & 1) for i in range(k))
    ordered = sorted(seen)
    return RationalSet(agenda, tuple(ordered), tuple(seen[j] for j in ordered))


def random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        atom = Atom(rng.choice(names))
        return Not(atom) if rng.random() < 0.3 else atom
    op = rng.choice([And, Or, Xor, Not])
    if op is Not:
        return Not(random_formula(rng, names, depth - 1))
    return op(*(random_formula(rng, names, depth - 1) for _ in range(rng.randint(2, 3))))


def test_rational_judgments_match_loop():
    agendas = [load_agenda(path.read_text(encoding="utf-8"))
               for path in sorted((Path(__file__).parent / "data").glob("*.agenda"))]
    rng = random.Random(20261018)
    for k in range(2, 13):
        names = [f"S{i}" for i in range(k)]
        for _ in range(4):
            # one entry over every symbol, so the agenda has exactly k of them
            basis = [Or(*(Atom(n) if rng.random() < 0.5 else Not(Atom(n)) for n in names))]
            basis += [random_formula(rng, names, 3) for _ in range(rng.randint(0, 6))]
            try:
                agendas.append(build_agenda(basis))
            except AgendaError:
                continue
    assert max(len(a.symbols) for a in agendas) == 12
    for agenda in agendas:
        assert rational_judgments(agenda) == loop_rational_judgments(agenda)


def test_cons():
    a = build_agenda(["P", "Q", "P & Q"])
    assert cons(a, (0, 2)) == ((False, False), (True, False), (True, True))
    assert cons(a, (2,)) == ((False,), (True,))
    assert cons(a, ()) == ((),)


def test_is_determined_by():
    a = build_agenda(["P", "Q", "P & Q"])
    assert is_determined_by(a, 2, (0, 1))
    assert not is_determined_by(a, 0, (1, 2))
    assert not is_determined_by(a, 0, (1,))
    # parity: any two positions pin the third
    p = build_agenda(["P", "Q", "P ^ Q"])
    for target in range(3):
        rest = tuple(k for k in range(3) if k != target)
        assert is_determined_by(p, target, rest)
    # or: the disjunction is not enough to pin an atom
    o = build_agenda(["P", "Q", "P | Q"])
    assert not is_determined_by(o, 0, (2,))


def data_agendas():
    return [load_agenda(path.read_text(encoding="utf-8"))
            for path in sorted((Path(__file__).parent / "data").glob("*.agenda"))]


def loop_cons(judgments, positions):
    """Reference: project the loop's rational judgments onto the positions."""
    return tuple(sorted({tuple(j[p] for p in positions) for j in judgments}))


def loop_is_determined_by(judgments, target, positions):
    """Reference: no two of the loop's judgments agree on the positions but
    differ on the target."""
    values = {}
    for j in judgments:
        key = tuple(j[p] for p in positions)
        if values.setdefault(key, j[target]) != j[target]:
            return False
    return True


def check_projections(agenda, judgments):
    """cons and is_determined_by against the references, on every subset of
    positions (ascending and reversed) and every target outside it."""
    size = len(agenda)
    for r in range(size + 1):
        for pos in itertools.combinations(range(size), r):
            assert cons(agenda, pos) == loop_cons(judgments, pos)
            assert cons(agenda, pos[::-1]) == loop_cons(judgments, pos[::-1])
            for target in range(size):
                if target not in pos:
                    assert (is_determined_by(agenda, target, pos)
                            == loop_is_determined_by(judgments, target, pos))


def test_rational_judgments_match_loop_across_chunks():
    rng = random.Random(20261019)
    agendas = [build_agenda([f"s{i:02d}" for i in range(10)])]   # |U| = 2**10
    for k in (16, 17):
        names = [f"s{i:02d}" for i in range(k)]
        # at k = 17 the T judgments of the first entry are induced only in the
        # second chunk of 2**16 assignments, its F judgments in both
        basis = [And(Atom(names[-2]), Atom(names[-1])),
                 Or(*(Atom(n) if rng.random() < 0.5 else Not(Atom(n)) for n in names)),
                 Xor(Atom(names[0]), Atom(names[-1])),
                 random_formula(rng, names, 3)]
        agendas.append(build_agenda(basis))
    late = agendas[-1]
    assert len(late.symbols) == 17
    assert any(w[16] for w in rational_judgments(late).witnesses)
    for agenda in agendas:
        reference = loop_rational_judgments(agenda)
        assert rational_judgments(agenda) == reference
        if agenda.has_compound():
            check_projections(agenda, reference.judgments)


def test_cons_and_is_determined_by_match_projection():
    for agenda in data_agendas():
        check_projections(agenda, loop_rational_judgments(agenda).judgments)
    # the checks run in order: target among positions, target, then positions
    a = AND_CLOSURE
    with pytest.raises(ValueError, match="target must not be"):
        is_determined_by(a, 5, (7, 5))
    with pytest.raises(ValueError, match="position 5 out of range"):
        is_determined_by(a, 5, (7,))
    with pytest.raises(ValueError, match="position 7 out of range"):
        is_determined_by(a, 0, (1, 7))
    with pytest.raises(ValueError, match="position -1 out of range"):
        cons(a, (0, -1))


def test_rational_set_membership_matches_set():
    for agenda in data_agendas():
        rs = rational_judgments(agenda)
        judgments = set(rs.judgments)
        for length in range(len(agenda) + 2):
            for bits in itertools.product((0, 1), repeat=length):
                assert (bits in rs) == (bits in judgments)
                assert (list(bits) in rs) == (bits in judgments)


def test_witness_assignment_checks_its_index():
    rs = rational_judgments(AND_CLOSURE)
    assert [rs.witness_assignment(k) for k in range(len(rs.judgments))] == [
        dict(zip(AND_CLOSURE.symbols, w)) for w in rs.witnesses]
    for index in (-1, -len(rs.judgments), len(rs.judgments), 99):
        with pytest.raises(ValueError) as err:
            rs.witness_assignment(index)
        assert str(err.value) == (f"judgment index {index} out of range for "
                                  f"{len(rs.judgments)} judgments")


def test_load_agenda():
    text = "# or closure\nP\nQ\n\nP | Q  # trailing comment\n"
    a = load_agenda(text)
    assert [str(b) for b in a.basis] == ["P", "Q", "P | Q"]


def test_load_agenda_reports_line():
    with pytest.raises(AgendaError) as err:
        load_agenda("P\nP & \nQ\n")
    assert str(err.value).startswith("line 2:")
    with pytest.raises(AgendaError):
        load_agenda("")


def test_load_agenda_duplicate_keeps_error_type():
    with pytest.raises(DuplicateProposition):
        load_agenda("P & Q\nQ & P\n")


# agenda's decoder and its two callers as they were before one bit reader
# served the matrices and the judgments, kept here so that the references
# below do not move with the code they check
FROZEN_BYTE_BITS = [tuple(b >> s & 1 == 1 for s in range(7, -1, -1)) for b in range(256)]


def frozen_bits(value, width):
    if width <= 8:
        return FROZEN_BYTE_BITS[value][8 - width:]
    out = ()
    for byte in value.to_bytes((width + 7) >> 3, "big"):
        out += FROZEN_BYTE_BITS[byte]
    return out[-width:]


def frozen_rational_judgments(agenda):
    k = len(agenda.symbols)
    first = _split([t.table for t in agenda.tables], k)
    points = sorted(first)
    return RationalSet(agenda, tuple(frozen_bits(p, len(agenda)) for p in points),
                       tuple(frozen_bits(first[p], k)[::-1] for p in points))


def frozen_cons(agenda, positions):
    first = _split([agenda.tables[p].table for p in positions], len(agenda.symbols))
    return tuple(frozen_bits(p, len(positions)) for p in sorted(first))


def test_bits_match_the_bin_form():
    # the shared reader, bit 0 first, and the frozen decoder, top bit first,
    # against the string form
    rng = random.Random(21)
    for width in range(21):
        values = range(1 << width) if width <= 12 else \
            [0, (1 << width) - 1, *(rng.getrandbits(width) for _ in range(200))]
        for value in values:
            want = tuple(c == "1" for c in bin(value | 1 << width)[3:])
            assert _bools(value, width) == want[::-1], (value, width)
            assert frozen_bits(value, width) == want, (value, width)


def test_judgments_witnesses_and_cons_match_the_frozen_decoder():
    # every data agenda, then seeded agendas of 15-17 symbols and up to 12
    # entries, so judgments and witnesses both pass one byte
    agendas = data_agendas()
    rng = random.Random(35)
    for k in (15, 16, 17):
        names = [f"s{i:02d}" for i in range(k)]
        for size in (4, 9, 12):
            basis = [Or(*(Atom(n) if rng.random() < 0.5 else Not(Atom(n)) for n in names))]
            basis += [random_formula(rng, names, 3) for _ in range(size - 1)]
            try:
                agendas.append(build_agenda(basis))
            except AgendaError:
                continue
    assert {len(a.symbols) for a in agendas} >= {15, 16, 17}
    assert max(len(a) for a in agendas) > 8
    for agenda in agendas:
        assert rational_judgments(agenda) == frozen_rational_judgments(agenda)
        size = len(agenda)
        subsets = [(), tuple(range(size)), tuple(range(size))[::-1]]
        subsets += [tuple(rng.sample(range(size), rng.randint(1, size))) for _ in range(6)]
        for positions in subsets:
            assert cons(agenda, positions) == frozen_cons(agenda, positions), positions
