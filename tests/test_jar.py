"""Per-proposition aggregation rules and their axioms."""

import itertools
import random
import tracemalloc

import pytest

import jagg.jar as jar_module
from jagg.agenda import build_agenda, rational_judgments
from jagg.boolfn import (BoolFn, _input_lifts, all_tables, classify_on_relevant, compose,
                         format_fn_spec, parse_fn_spec, set_bits, variable_mask)
from jagg.config import BudgetError, Config, charge
from jagg.jar import (PiJar, UniformSolution, _axioms, _points, _profile_columns,
                      _rational_fn, _solution_case, check_jar, dependent_pair_relation,
                      enumerate_independent_rules, enumerate_uniform_rules, filter_axioms,
                      restrict_jar, to_normal_form, uniform_jar)
from jagg.verify import SCENARIO_AGENDAS, _generated_agendas

OR_CLOSURE = build_agenda(["P", "Q", "P | Q"])
AND_CLOSURE = build_agenda(["P", "Q", "P & Q"])
PARITY = build_agenda(["P", "Q", "P ^ Q"])


def spec_list(solutions):
    return [format_fn_spec(s.fn) for s in solutions]


def test_pijar_validation():
    with pytest.raises(ValueError):
        PiJar(OR_CLOSURE, 2, (BoolFn.or_(2), BoolFn.or_(2)))  # wrong count
    with pytest.raises(ValueError):
        PiJar(OR_CLOSURE, 2, (BoolFn.or_(3),) * 3)  # arity != judges
    with pytest.raises(ValueError):
        PiJar(OR_CLOSURE, 0, ())


def test_enumerations_need_a_judge():
    for judges in (0, -1):
        for enumerate_rules in (enumerate_uniform_rules, enumerate_independent_rules):
            with pytest.raises(ValueError, match="need at least one judge"):
                enumerate_rules(OR_CLOSURE, judges)


def test_aggregate():
    jar = uniform_jar(OR_CLOSURE, BoolFn.or_(2))
    out = jar.aggregate(((True, False, True), (False, False, False)))
    assert out == (True, False, True)
    with pytest.raises(ValueError):
        jar.aggregate(((True, False, True),))  # one judgment per judge


def test_uniform_or_rule_is_consistent_on_or_closure():
    verdict = check_jar(uniform_jar(OR_CLOSURE, BoolFn.or_(3)))
    assert verdict.consistent
    assert verdict.unanimity_preserving
    assert verdict.anonymous
    assert not verdict.systematic  # or is not its own flip
    assert verdict.counterexample is None


def test_or_rule_fails_on_and_closure():
    verdict = check_jar(uniform_jar(AND_CLOSURE, BoolFn.or_(2)))
    assert not verdict.consistent
    profile, out = verdict.counterexample
    jar = uniform_jar(AND_CLOSURE, BoolFn.or_(2))
    assert jar.aggregate(profile) == out
    assert out not in rational_judgments(AND_CLOSURE).judgments
    for judgment in profile:
        assert judgment in rational_judgments(AND_CLOSURE).judgments


def test_majority_doctrinal_paradox():
    maj = BoolFn.majority(3)
    verdict = check_jar(uniform_jar(AND_CLOSURE, maj))
    assert not verdict.consistent
    profile, out = verdict.counterexample
    # the classic pattern: every judge is rational, the majority is not
    assert out not in rational_judgments(AND_CLOSURE).judgments


def test_majority_survives_overlapping_disjunctions():
    a = build_agenda(["P | Q", "!P | Q"])
    verdict = check_jar(uniform_jar(a, BoolFn.majority(3)))
    assert verdict.consistent and verdict.anonymous


def test_xor_rule_on_parity_closure():
    verdict = check_jar(uniform_jar(PARITY, BoolFn.xor(3)))
    assert verdict.consistent
    assert verdict.systematic  # odd-arity parity is its own flip


def test_dictator_always_consistent():
    for agenda in (OR_CLOSURE, AND_CLOSURE, PARITY):
        for judge in range(3):
            verdict = check_jar(uniform_jar(agenda, BoolFn.dictator(3, judge)))
            assert verdict.consistent
            assert not verdict.anonymous


def test_rule_check_budget():
    # a check is charged |U|**judges units, one per profile: 4**3 here
    jar = uniform_jar(OR_CLOSURE, BoolFn.or_(3))
    with pytest.raises(BudgetError):
        check_jar(jar, config=Config(enumeration_budget=63))
    assert check_jar(jar, config=Config(enumeration_budget=64)).consistent
    with pytest.raises(BudgetError):
        enumerate_uniform_rules(OR_CLOSURE, 2, config=Config(enumeration_budget=63))
    # the rational set is a function of the three basis positions
    with pytest.raises(BudgetError):
        check_jar(uniform_jar(OR_CLOSURE, BoolFn.or_(1)), config=Config(arity_cap=2))
    with pytest.raises(BudgetError):
        enumerate_uniform_rules(OR_CLOSURE, 1, config=Config(arity_cap=2))


def test_rule_sweeps_share_one_charge():
    # (|U|**judges * (|U| + 1) * (|basis| + 1) + (judges - 1) * (lift + closure))
    # * max(1, 2**bits >> 10), with |U| = 4 and |basis| = 3 on the or-closure:
    # bits is 14 for 4 shared-function judges, with or without unanimity, and
    # 6 * 3 for 3 independent ones.  With M = blocks * 2**(judges-1) minor
    # points, lift = (2**lower_bits + 1) * (M + 1) and closure = judges *
    # (judges - 1) * (3M + 1), lower_bits being bits at judges - 1: 6, and 2 * 3
    for sweep, work in ((lambda c: enumerate_uniform_rules(OR_CLOSURE, 4, config=c),
                         (4 ** 4 * 5 * 4 + 3 * ((2 ** 6 + 1) * 9 + 12 * 25)) * 16),
                        (lambda c: enumerate_uniform_rules(OR_CLOSURE, 4, require_up=False,
                                                           config=c),
                         (4 ** 4 * 5 * 4 + 3 * ((2 ** 6 + 1) * 9 + 12 * 25)) * 16),
                        (lambda c: enumerate_independent_rules(OR_CLOSURE, 3, config=c),
                         (4 ** 3 * 5 * 4 + 2 * ((2 ** 6 + 1) * 13 + 6 * 37)) * 256),
                        (lambda c: enumerate_independent_rules(OR_CLOSURE, 2, config=c),
                         4 ** 2 * 5 * 4 + (2 ** 0 + 1) * 7 + 2 * 19)):
        with pytest.raises(BudgetError, match=f"needs {work} work units"):
            sweep(Config(enumeration_budget=work - 1))
        assert sweep(Config(enumeration_budget=work))
    # the default budget admits 3 independent judges on a three-entry basis
    assert len(enumerate_independent_rules(OR_CLOSURE, 3)) == 7


def test_rule_sweep_charge_covers_lift_and_closure_on_one_entry():
    # on ["P"] (|U| = 2) every unanimity-preserving table is a rule, so the
    # 4-judge lift ANDs the 8 minor points of each of the 2**6 3-judge rules,
    # and the closure runs 3 rounds of 3 generators of 4 delta swaps, 6
    # operations each, all on 2**14 bits (16 units).  The |U|**judges term
    # alone, 2**4 * 3 * 2 operations, is less than the closure's 216.
    agenda = build_agenda(["P"])
    assert len(enumerate_uniform_rules(agenda, 3)) == 2 ** 6
    charges = {1: 2 * 3 * 2, 2: 4 * 3 * 2 + (2 ** 0 + 1) * 3 + 2 * 7,
               3: 8 * 3 * 2 + 2 * ((2 ** 2 + 1) * 5 + 6 * 13),
               4: (16 * 3 * 2 + 3 * ((2 ** 6 + 1) * 9 + 12 * 25)) * 16}
    for judges, work in charges.items():
        with pytest.raises(BudgetError, match=f"needs {work} work units"):
            enumerate_uniform_rules(agenda, judges,
                                    config=Config(enumeration_budget=work - 1))
        assert enumerate_uniform_rules(agenda, judges, config=Config(enumeration_budget=work))


def test_dependent_pair_relation():
    jar = PiJar(OR_CLOSURE, 2, (BoolFn.and_(2), BoolFn.and_(2), BoolFn.or_(2)))
    assert dependent_pair_relation(jar, 0, 2) == "flip"
    assert dependent_pair_relation(jar, 1, 2) == "flip"
    # atoms are not determined by the rest, so the pair does not apply
    assert dependent_pair_relation(jar, 2, 0) == "not-applicable"
    assert dependent_pair_relation(jar, 0, 1) == "not-applicable"
    same = uniform_jar(PARITY, BoolFn.xor(2))
    for x, y in itertools.permutations(range(3), 2):
        assert dependent_pair_relation(same, x, y) == "equal"
    odd = PiJar(PARITY, 2, (BoolFn.xor(2), BoolFn.xor(2), BoolFn.and_(2)))
    assert dependent_pair_relation(odd, 0, 2) == "violation"
    for x, y in ((0, 0), (0, 3), (3, 0), (-1, 0)):
        with pytest.raises(ValueError):
            dependent_pair_relation(odd, x, y)


def loop_pair_relation(jar, x, y):
    """The former pairwise loops of ``dependent_pair_relation``, kept as a
    reference."""
    rs = rational_judgments(jar.agenda)
    depends = False
    for a in rs.judgments:
        for b in rs.judgments:
            if a[x] != b[x] and a[y] != b[y] and all(
                    a[k] == b[k] for k in range(len(jar.agenda)) if k not in (x, y)):
                depends = True
                break
        if depends:
            break
    rest = [k for k in range(len(jar.agenda)) if k != y]
    determined = {}
    fixed = True
    for j in rs.judgments:
        key = tuple(j[k] for k in rest)
        if determined.setdefault(key, j[y]) != j[y]:
            fixed = False
            break
    if not depends or not fixed:
        return "not-applicable"
    fx, fy = jar.functions[x], jar.functions[y]
    if fy == fx:
        return "equal"
    return "flip" if fy == fx.flip() else "violation"


def test_dependent_pair_relation_matches_loop():
    jars = [PiJar(OR_CLOSURE, 2, (BoolFn.and_(2), BoolFn.and_(2), BoolFn.or_(2))),
            uniform_jar(PARITY, BoolFn.xor(2)),
            PiJar(PARITY, 2, (BoolFn.xor(2), BoolFn.xor(2), BoolFn.and_(2)))]
    for basis in SCENARIO_AGENDAS.values():
        jars.extend(enumerate_independent_rules(build_agenda(basis), 2))
    seen = set()
    for jar in jars:
        for x, y in itertools.permutations(range(len(jar.agenda)), 2):
            got = dependent_pair_relation(jar, x, y)
            assert got == loop_pair_relation(jar, x, y), (jar, x, y)
            seen.add(got)
    assert seen == {"equal", "flip", "violation", "not-applicable"}


def test_to_normal_form():
    jar = PiJar(OR_CLOSURE, 2, (BoolFn.and_(2), BoolFn.and_(2), BoolFn.or_(2)))
    nf, flipped = to_normal_form(jar)
    assert flipped == (2,)
    assert [str(b) for b in nf.agenda.basis] == ["P", "Q", "!(P | Q)"]
    assert all(f == BoolFn.and_(2) for f in nf.functions)
    # the re-representation preserves the consistency verdict
    assert check_jar(nf).consistent == check_jar(jar).consistent


def test_to_normal_form_identity_when_already_uniform():
    jar = uniform_jar(OR_CLOSURE, BoolFn.or_(2))
    nf, flipped = to_normal_form(jar)
    assert flipped == ()
    assert nf.functions == jar.functions


def test_to_normal_form_rejects_mismatched_functions():
    jar = PiJar(PARITY, 2, (BoolFn.xor(2), BoolFn.xor(2), BoolFn.and_(2)))
    with pytest.raises(ValueError):
        to_normal_form(jar)


def test_to_normal_form_needs_connected_complete_agenda():
    a = build_agenda(["P", "P & Q"])
    jar = uniform_jar(a, BoolFn.and_(2))
    with pytest.raises(ValueError):
        to_normal_form(jar)


def test_restrict_jar():
    jar = uniform_jar(OR_CLOSURE, BoolFn.or_(2))
    sub = restrict_jar(jar, (0, 2))
    assert [str(b) for b in sub.agenda.basis] == ["P", "P | Q"]
    assert len(sub.functions) == 2


def test_restrict_jar_rejects_positions_out_of_range():
    # a negative position would otherwise index from the end of the basis
    jar = uniform_jar(OR_CLOSURE, BoolFn.or_(2))
    assert len(jar.agenda) == 3
    for positions in ([-1], [5], (0, 3)):
        with pytest.raises(ValueError, match=r"basis position -?\d+ out of range"):
            restrict_jar(jar, positions)


# --- enumeration, frozen from the exhaustive sweeps -------------------------

def test_enumerate_uniform_or_closure_n2():
    sols = enumerate_uniform_rules(OR_CLOSURE, 2)
    assert spec_list(sols) == ["tt:2:a", "tt:2:c", "tt:2:e"]
    assert [s.case for s in sols] == ["dictator", "dictator", "oligarchy"]
    assert sols[2].restriction_class.kind == "or"


def test_enumerate_uniform_parity_closure():
    sols = enumerate_uniform_rules(PARITY, 2)
    assert [s.case for s in sols] == ["dictator", "dictator"]
    sols = enumerate_uniform_rules(PARITY, 3)
    assert ("tt:3:96", "oligarchy") in [(format_fn_spec(s.fn), s.case)
                                        for s in sols]
    assert [s.case for s in sols].count("dictator") == 3
    assert len(sols) == 4


def test_enumerate_uniform_three_atom_compound_dictators_only():
    a = build_agenda(["P", "Q", "R", "(P | Q) & R"])
    sols = enumerate_uniform_rules(a, 2)
    assert [s.case for s in sols] == ["dictator", "dictator"]
    assert sorted(s.fn.relevant_indices() for s in sols) == [(0,), (1,)]


def test_enumerate_uniform_atomic_agenda_unconstrained():
    a = build_agenda(["P", "Q"])
    # any unanimity-preserving function works when nothing is compound
    sols = enumerate_uniform_rules(a, 2)
    assert len(sols) == 4
    sols = enumerate_uniform_rules(a, 3)
    assert len(sols) == 1 << 6
    # shapeless functions like majority get the fallback label here, and
    # nothing is ever labelled a violation
    cases = {format_fn_spec(s.fn): s.case for s in sols}
    assert cases[format_fn_spec(BoolFn.majority(3))] == "unconstrained"
    assert cases[format_fn_spec(BoolFn.xor(3))] == "oligarchy"
    assert "violation" not in cases.values()


def test_every_enumerated_solution_checks_out():
    for agenda in (OR_CLOSURE, AND_CLOSURE, PARITY):
        for s in enumerate_uniform_rules(agenda, 2):
            verdict = check_jar(uniform_jar(agenda, s.fn))
            assert verdict.consistent and verdict.unanimity_preserving
            assert s.anonymous == verdict.anonymous
            assert s.systematic == verdict.systematic


def test_enumerate_independent_matches_uniform_on_closures():
    # on these agendas every consistent independent rule is uniform
    for agenda in (OR_CLOSURE, AND_CLOSURE, PARITY):
        uniform = {tuple(format_fn_spec(s.fn) for _ in range(3))
                   for s in enumerate_uniform_rules(agenda, 2)}
        independent = {tuple(format_fn_spec(f) for f in jar.functions)
                       for jar in enumerate_independent_rules(agenda, 2)}
        assert independent == uniform


def test_enumerate_independent_atomic_agenda_is_free_product():
    a = build_agenda(["P", "Q"])
    jars = enumerate_independent_rules(a, 2)
    # four unanimity-preserving functions at each of two positions
    assert len(jars) == 16


def test_filter_axioms_anonymous_or():
    sols = enumerate_uniform_rules(OR_CLOSURE, 3, require_up=False)
    kept = filter_axioms(sols, anonymous=True)
    assert spec_list(kept) == ["tt:3:fe"]


def test_filter_axioms_impossibility_on_and_closure():
    for judges in (2, 3):
        sols = enumerate_uniform_rules(AND_CLOSURE, judges, require_up=False)
        kept = filter_axioms(sols, anonymous=True, systematic=True)
        assert kept == []


def reference_axioms(functions):
    """``_axioms`` with unanimity read by calling each function on all-F and
    all-T inputs."""
    up = all(f(*(c,) * f.n) == c for f in functions for c in (False, True))
    anonymous = all(f.is_symmetric() for f in functions)
    shared = all(f == functions[0] for f in functions)
    return up, anonymous, shared and functions[0] == functions[0].flip()


def test_axioms_match_calls_on_unanimous_inputs():
    for n in range(4):
        fns = list(all_tables(n))
        for rule in itertools.chain(((f,) for f in fns), itertools.product(fns, repeat=2)):
            assert _axioms(rule) == reference_axioms(rule), rule


def reference_solution_case(fn, has_compound):
    """``_solution_case`` with the axioms read through ``_axioms`` and the
    solution built by its constructor."""
    label, relevant = classify_on_relevant(fn)
    if label.kind == "dictator" and len(relevant) == 1:
        case = jar_module.CASE_DICTATOR
    elif label.kind in jar_module.OLIGARCHY_KINDS and len(relevant) >= 2:
        case = jar_module.CASE_OLIGARCHY
    elif not has_compound:
        case = jar_module.CASE_UNCONSTRAINED
    else:
        case = jar_module.CASE_VIOLATION
    _, anonymous, systematic = _axioms((fn,))
    return UniformSolution(fn, relevant, label, case, anonymous, systematic)


def test_solution_case_matches_axioms_reference():
    cases = set()
    for n in (1, 2, 3, 4):
        for fn in all_tables(n):
            for has_compound in (True, False):
                got = _solution_case(fn, has_compound)
                want = reference_solution_case(fn, has_compound)
                assert type(got) is UniformSolution
                assert vars(got) == vars(want), (fn, has_compound)
                assert got == want and hash(got) == hash(want)
                cases.add((want.case, want.anonymous, want.systematic))
    # every case meets both values of each axiom, except that a dictator is
    # always systematic
    assert len(cases) == 4 * 4 - 2


def test_require_up_scope():
    # without the unanimity requirement the sweep admits anti-unanimous
    # functions but still no constants
    sols = enumerate_uniform_rules(OR_CLOSURE, 2, require_up=False)
    tables = {s.fn.table for s in sols}
    assert all(BoolFn(2, t)(False, False) != BoolFn(2, t)(True, True)
               for t in tables)
    assert {s.fn.table for s in enumerate_uniform_rules(OR_CLOSURE, 2)} <= tables


# --- the column sweep against the per-profile loop it replaced --------------

def loop_check_jar(jar, rs=None):
    """Reference: aggregate every profile in product order, one at a time;
    returns (consistent, counterexample) as ``check_jar`` does."""
    rs = rs or rational_judgments(jar.agenda)
    valid = set(rs.judgments)
    for profile in itertools.product(rs.judgments, repeat=jar.judges):
        out = jar.aggregate(profile)
        if out not in valid:
            return False, (profile, out)
    return True, None


def loop_uniform_rules(agenda, judges, require_up=True):
    rs = rational_judgments(agenda)
    out = []
    for fn in all_tables(judges):
        top, bottom = fn.value(fn.points - 1), fn.value(0)
        if (top and not bottom) if require_up else top != bottom:
            if loop_check_jar(uniform_jar(agenda, fn), rs)[0]:
                out.append(_solution_case(fn, agenda.has_compound()))
    return out


def loop_independent_rules(agenda, judges):
    rs = rational_judgments(agenda)
    up = [fn for fn in all_tables(judges)
          if fn.value(fn.points - 1) and not fn.value(0)]
    return [PiJar(agenda, judges, combo)
            for combo in itertools.product(up, repeat=len(agenda))
            if loop_check_jar(PiJar(agenda, judges, combo), rs)[0]]


SCENARIOS = [build_agenda(basis) for basis in SCENARIO_AGENDAS.values()]


def test_check_jar_matches_loop_on_every_small_rule():
    checked = 0
    for agenda in SCENARIOS:
        for judges in (1, 2, 3):
            for fn in all_tables(judges):
                jar = uniform_jar(agenda, fn)
                verdict = check_jar(jar)
                assert (verdict.consistent, verdict.counterexample) == loop_check_jar(jar)
                checked += 1
    for agenda in (AND_CLOSURE, OR_CLOSURE):
        for combo in itertools.product(list(all_tables(2)), repeat=len(agenda)):
            jar = PiJar(agenda, 2, combo)
            verdict = check_jar(jar)
            assert (verdict.consistent, verdict.counterexample) == loop_check_jar(jar)
            checked += 1
    assert checked == 9572


def test_uniform_sweep_matches_loop():
    for agenda in SCENARIOS:
        for judges in (1, 2, 3):
            for require_up in (True, False):
                assert (enumerate_uniform_rules(agenda, judges, require_up=require_up)
                        == loop_uniform_rules(agenda, judges, require_up))


def test_independent_sweep_matches_loop():
    generated = list(_generated_agendas(Config()))
    assert len(generated) == 47
    for agenda in SCENARIOS + generated:
        assert enumerate_independent_rules(agenda, 2) == loop_independent_rules(agenda, 2)
    for basis in (["P | Q", "!P | Q"], ["P", "P & Q"]):
        agenda = build_agenda(basis)
        assert enumerate_independent_rules(agenda, 3) == loop_independent_rules(agenda, 3)


def product_independent_rules(agenda, judges):
    """The per-combination sweep the candidate sweep replaced, kept as a
    reference: each (position, function) aggregate is composed once over the
    profile columns, and every combination of them is checked."""
    rs = rational_judgments(agenda)
    width, cols, rational = _profile_columns(rs, judges, Config())
    points = 1 << judges
    up = variable_mask(points - 1, points) & ~variable_mask(0, points)
    candidates = [BoolFn(judges, t) for t in set_bits(up)]
    columns = [[(fn, compose(fn, c, width)) for fn in candidates] for c in cols]
    return [PiJar(agenda, judges, tuple(fn for fn, _ in combo))
            for combo in itertools.product(*columns)
            if compose(rational, [agg for _, agg in combo], width) == (1 << width) - 1]


INDEPENDENT_3_COUNTS = {"or-closure": 7, "and-closure": 7, "parity-closure": 4}


def test_independent_sweep_three_judges():
    raised = Config(enumeration_budget=1 << 40)
    for name, count in INDEPENDENT_3_COUNTS.items():
        agenda = build_agenda(SCENARIO_AGENDAS[name])
        got = enumerate_independent_rules(agenda, 3, config=raised)
        assert len(got) == count, name
        if name != "and-closure":
            assert got == product_independent_rules(agenda, 3), name


def test_independent_sweep_mixed_compounds_three_judges_dictators():
    agenda = build_agenda(SCENARIO_AGENDAS["mixed-compounds"])
    got = enumerate_independent_rules(
        agenda, 3, config=Config(arity_cap=24, enumeration_budget=1 << 40))
    assert got == [uniform_jar(agenda, BoolFn.dictator(3, i)) for i in range(3)]


# --- four judges: the candidate sweep under the default config ---------------

UNIFORM_4_COUNTS = {"or-closure": 15, "three-atom-conjunction": 4,
                    "parity-closure": 8, "and-closure": 15, "mixed-compounds": 4}


def test_uniform_sweep_four_judges_default_config():
    for name, count in UNIFORM_4_COUNTS.items():
        sols = enumerate_uniform_rules(build_agenda(SCENARIO_AGENDAS[name]), 4)
        assert len(sols) == count, name
        assert {s.case for s in sols} <= {"dictator", "oligarchy"}
        assert [s.fn.table for s in sols] == sorted(s.fn.table for s in sols)


def test_uniform_sweep_four_judges_matches_check_jar():
    raised = Config(enumeration_budget=1 << 31)
    for name in ("or-closure", "mixed-compounds"):
        agenda = build_agenda(SCENARIO_AGENDAS[name])
        want = [fn for fn in all_tables(4) if fn.value(15) and not fn.value(0)
                and check_jar(uniform_jar(agenda, fn), config=raised).consistent]
        got = enumerate_uniform_rules(agenda, 4, config=raised)
        assert got == [_solution_case(fn, True) for fn in want]


# --- the candidate layout against the full table space it replaced ----------

def full_space_uniform_rules(agenda, judges, require_up=True):
    """The shared-function sweep over all 2**(2**judges) tables, kept as a
    reference: candidate t is table t, "T at point x" is
    ``variable_mask(x, 2**judges)``, the unanimity points are filtered
    through ``alive`` instead of being left out of the candidate, and each
    profile keeps the tables whose aggregate is rational."""
    rs = rational_judgments(agenda)
    rational = _rational_fn(_points(rs), len(agenda), Config())
    points = 1 << judges
    cols = [variable_mask(x, points) for x in range(points)]
    top, bottom = cols[-1], cols[0]
    alive = top & ~bottom if require_up else top ^ bottom
    for profile in itertools.product(rs.judgments, repeat=judges):
        votes = [sum(j[k] << i for i, j in enumerate(profile)) for k in range(len(agenda))]
        alive &= compose(rational, [cols[x] for x in votes], 1 << points)
    has_compound = agenda.has_compound()
    return [_solution_case(BoolFn(judges, t), has_compound) for t in set_bits(alive)]


def test_uniform_sweep_matches_full_table_space():
    generated = list(_generated_agendas(Config()))
    assert len(generated) == 47
    raised = Config(enumeration_budget=1 << 40)
    cases = [(agenda, judges) for agenda in SCENARIOS for judges in (1, 2, 3, 4)]
    cases += [(agenda, judges) for agenda in generated for judges in (1, 2, 3)]
    for agenda, judges in cases:
        for require_up in (True, False):
            want = full_space_uniform_rules(agenda, judges, require_up)
            assert want, (agenda.basis, judges, require_up)
            assert enumerate_uniform_rules(agenda, judges, require_up=require_up,
                                           config=raised) == want


# --- judge-sorted profiles and the judge closure against the product loop ---

def swept_tables(agenda, judges, *, shared, flip, config):
    """The library's tables in a reference sweep's layout: ``_rule_sweep``'s
    without ``flip``, and with it the shared rules without unanimity, which
    the library finds by negating ``_rule_sweep``'s rather than sweeping."""
    if flip:
        return [(s.fn.table,) for s in enumerate_uniform_rules(
            agenda, judges, require_up=False, config=config)]
    return jar_module._rule_sweep(_points(rational_judgments(agenda)), len(agenda), judges,
                                  shared=shared, config=config)


def product_rule_sweep(agenda, judges, *, shared, flip, config):
    """``_rule_sweep`` as it was before the judge-sorted profiles, kept as a
    reference: the same candidates and columns, one ``compose`` per profile
    over all |U|**judges profiles in ``product`` order, and no closure.
    ``flip`` adds the flip layout's top bit, for f(F..F) = T and f(T..T) = F,
    so that the candidates are every table with f(F..F) != f(T..T)."""
    if judges < 1:
        raise ValueError("need at least one judge")
    rs = rational_judgments(agenda)
    rational = _rational_fn(_points(rs), len(agenda), config)
    size, positions = len(rs.judgments), len(agenda)
    free, blocks = (1 << judges) - 2, 1 if shared else positions
    edge = free * blocks
    if shared and 1 << judges > config.arity_cap:
        raise BudgetError(f"{judges} judges give 2**{1 << judges} candidate tables, "
                          f"beyond 2**{config.arity_cap}")
    if not shared and edge > config.arity_cap:
        raise BudgetError(f"{judges} judges on {positions} basis entries give "
                          f"2**{edge} candidate rules, beyond 2**{config.arity_cap}")
    bits = edge + flip
    work = size ** judges * (size + 1) * (positions + 1) * max(1, (1 << bits) >> 10)
    charge(config, work, f"{'uniform' if shared else 'independent'}-rule sweep for "
           f"{judges} judges", "|U|**judges * (|U| + 1) * (|basis| + 1) * 2**bits / "
           "2**10 within budget, bits being 2**judges - 2 per swept table (one more "
           "without unanimity), e.g. 4 shared or 3 independent judges on 3 entries")
    alive = everyone = (1 << (1 << bits)) - 1
    flipped = variable_mask(edge, bits) if flip else 0
    offsets = [free * (blocks - 1 - k) for k in range(blocks)]
    columns = [[flipped, *(variable_mask(at + x, bits) for x in range(free)),
                everyone ^ flipped] for at in offsets]
    if shared:
        columns *= positions
    # votes[i][u][k]: what judge i voting judgment u adds to the point at k
    votes = [[tuple(b << i for b in u) for u in rs.judgments] for i in range(judges)]
    for profile in itertools.product(*votes):
        alive &= compose(rational, [col[sum(p)] for col, p in zip(columns, zip(*profile))],
                         1 << bits)
        if not alive:
            break
    low, top = (1 << free) - 1, 1 << (free + 1)
    return sorted(tuple((c >> at & low) << 1 | (1 if c >> edge else top) for at in offsets)
                  for c in set_bits(alive))


def test_sorted_sweep_matches_product_loop():
    generated = list(_generated_agendas(Config()))
    assert len(generated) == 47
    raised = Config(enumeration_budget=1 << 40)
    cases = [(agenda, judges, True, flip) for agenda in SCENARIOS + generated
             for judges in (1, 2, 3) for flip in (False, True)]
    cases += [(agenda, 4, True, flip) for agenda in SCENARIOS for flip in (False, True)]
    cases += [(agenda, judges, False, False) for agenda in SCENARIOS + generated
              for judges in (1, 2, 3)
              if ((1 << judges) - 2) * len(agenda) <= raised.arity_cap]
    independent_3 = 0
    for agenda, judges, shared, flip in cases:
        kwargs = {"shared": shared, "flip": flip, "config": raised}
        want = product_rule_sweep(agenda, judges, **kwargs)
        assert want, (agenda.basis, judges, shared, flip)
        assert swept_tables(agenda, judges, **kwargs) == want, (
            agenda.basis, judges, shared, flip)
        independent_3 += not shared and judges == 3
    # the three-entry agendas: or-, parity and and-closure, and 6 generated
    assert independent_3 == 9


# --- the minor lift against the judge-sorted loop ----------------------------

def sorted_rule_sweep(agenda, judges, *, shared, flip, config):
    """``_rule_sweep`` as it was before the minor lift, kept as a reference:
    one level, every judge-sorted profile composed, C(|U| + judges - 1,
    judges) of them, then ``_judge_closure``, in either layout (see
    ``product_rule_sweep``).  Caps and charge are left out."""
    rs = rational_judgments(agenda)
    rational = _rational_fn(_points(rs), len(agenda), config)
    size, positions = len(rs.judgments), len(agenda)
    free, blocks = (1 << judges) - 2, 1 if shared else positions
    edge = free * blocks
    bits = edge + flip
    lifts = _input_lifts(bits)
    alive = everyone = lifts[0][3] if lifts else 1
    var = [high for _, _, high, _ in lifts]
    flipped = var[edge] if flip else 0
    offsets = [free * (blocks - 1 - k) for k in range(blocks)]
    columns = [[flipped, *var[at:at + free], everyone ^ flipped] for at in offsets]
    if shared:
        columns *= positions
    votes = [[tuple(b << i for b in u) for u in rs.judgments] for i in range(judges)]
    for us in itertools.combinations_with_replacement(range(size), judges):
        profile = zip(*(votes[i][u] for i, u in enumerate(us)))
        alive &= compose(rational, [col[sum(p)] for col, p in zip(columns, profile)],
                         1 << bits)
    alive = jar_module._judge_closure(alive, judges, offsets, var)
    low, top = (1 << free) - 1, 1 << (free + 1)
    return sorted(tuple((c >> at & low) << 1 | (1 if c >> edge else top) for at in offsets)
                  for c in set_bits(alive))


def test_lifted_sweep_matches_sorted_loop():
    # the grid of test_sorted_sweep_matches_product_loop, with 4 shared judges
    # on the generated agendas too; its flip layout cases, the rules without
    # unanimity, are test_no_up_rules_match_flip_layout's
    generated = list(_generated_agendas(Config()))
    raised = Config(enumeration_budget=1 << 40)
    cases = [(agenda, judges, True) for agenda in SCENARIOS + generated
             for judges in (1, 2, 3, 4)]
    cases += [(agenda, judges, False) for agenda in SCENARIOS + generated
              for judges in (1, 2, 3)
              if ((1 << judges) - 2) * len(agenda) <= raised.arity_cap]
    assert len(cases) == 321
    for agenda, judges, shared in cases:
        kwargs = {"shared": shared, "flip": False, "config": raised}
        got = swept_tables(agenda, judges, **kwargs)
        assert got == sorted_rule_sweep(agenda, judges, **kwargs), (
            agenda.basis, judges, shared)
        # every filter keeps the dictators: shared, the n dictator tables;
        # independent, one dictator at every position
        dictators = {(variable_mask(i, judges),) * (1 if shared else len(agenda))
                     for i in range(judges)}
        assert dictators <= set(got), (agenda.basis, judges, shared)


# rational sets closed under negation, where rules without unanimity include
# the negated unanimity-preserving ones
NEGATION_CLOSED = [build_agenda(basis) for basis in
                   (["P"], ["P", "Q"], ["P", "Q", "R"], ["P ^ Q", "Q ^ R"])]


def test_no_up_rules_match_flip_layout():
    # the flip layout, one more candidate bit for f(F..F) = T and
    # f(T..T) = F, swept as the library once did, against the rules without
    # unanimity, which it now finds by negating the unanimity sweep's
    generated = list(_generated_agendas(Config()))
    raised = Config(enumeration_budget=1 << 40)
    for agenda in SCENARIOS + generated + NEGATION_CLOSED:
        for judges in (1, 2, 3, 4):
            kwargs = {"shared": True, "flip": True, "config": raised}
            got = swept_tables(agenda, judges, **kwargs)
            assert got == sorted_rule_sweep(agenda, judges, **kwargs), (
                agenda.basis, judges)
            assert {(variable_mask(i, judges),) for i in range(judges)} <= set(got)


def test_negated_rules_appear_exactly_when_rational_set_is_closed_under_negation():
    # a rule with f(F..F) = T and f(T..T) = F is the negation of a
    # unanimity-preserving one, and its unanimous profiles need every
    # rational judgment's negation to be rational too
    raised = Config(enumeration_budget=1 << 40)
    closed_seen = open_seen = 0
    for agenda in SCENARIOS + list(_generated_agendas(Config())) + NEGATION_CLOSED:
        judgments = set(rational_judgments(agenda).judgments)
        closed = {tuple(not b for b in j) for j in judgments} == judgments
        closed_seen += closed
        open_seen += not closed
        for judges in (1, 2, 3):
            mask = (1 << (1 << judges)) - 1
            up = [s.fn.table for s in enumerate_uniform_rules(agenda, judges,
                                                             config=raised)]
            tables = {s.fn.table for s in enumerate_uniform_rules(
                agenda, judges, require_up=False, config=raised)}
            negated = {t for t in tables if t & 1}
            assert tables - negated == set(up), (agenda.basis, judges)
            assert negated == ({t ^ mask for t in up} if closed else set()), (
                agenda.basis, judges)
            # the flip layout, which sweeps those rules, agrees
            reference = sorted_rule_sweep(agenda, judges, shared=True, flip=True,
                                          config=raised)
            assert any(t & 1 for t, in reference) == closed, (agenda.basis, judges)
    assert closed_seen >= len(NEGATION_CLOSED) and open_seen


def test_lift_composes_only_profiles_of_distinct_judgments(monkeypatch):
    # C(|U|, m) profiles per judge count m from 2 on: 6 + 4 + 1 = 11 on the
    # or-closure's four judgments, where the judge-sorted sweep composed
    # C(7, 4) = 35, and 28 + 56 = 84 on the three-atom agenda's eight, where
    # it composed 120.  Count 1 composes none: its one candidate, the
    # identity, maps every one-judge profile (u) to u.  A profile composes
    # the rational set; every other compose lifts the last count's
    # survivors, one per count above one
    calls = []
    raised = Config(enumeration_budget=1 << 40)

    def counting_compose(f, arg_tables, width):
        calls.append(f)
        return compose(f, arg_tables, width)

    def counted(agenda):
        rational = _rational_fn(_points(rational_judgments(agenda)), len(agenda), raised)
        profiles = sum(f == rational for f in calls)
        lifts = len(calls) - profiles
        calls.clear()
        return profiles, lifts

    monkeypatch.setattr(jar_module, "compose", counting_compose)
    three_atom = build_agenda(SCENARIO_AGENDAS["three-atom-conjunction"])
    for agenda, judges, composed in ((OR_CLOSURE, 4, 11), (three_atom, 3, 84)):
        for require_up in (True, False):
            enumerate_uniform_rules(agenda, judges, require_up=require_up, config=raised)
            assert counted(agenda) == (composed, judges - 1), (
                agenda.basis, judges, require_up)
    for judges in (1, 2, 3):
        enumerate_independent_rules(OR_CLOSURE, judges, config=raised)
        assert counted(OR_CLOSURE) == ((0, 6, 10)[judges - 1], judges - 1), judges
    # ["P"] has two judgments, so only count 2 has a profile of distinct ones:
    # every count above 2 only lifts and closes, and at 4 judges every
    # unanimity-preserving table is left.  Its relation is swept directly, as
    # the points 0 and 1 on one position
    agenda = build_agenda(["P"])
    for judges in (1, 2, 3, 4):
        tables = jar_module._rule_sweep([0, 1], 1, judges, shared=True, config=Config())
        assert counted(agenda) == (judges > 1, judges - 1), judges
    assert tables == [(x << 1 | 1 << 15,) for x in range(1 << 14)]


def permute_judges(table, judges, perm):
    """The table of f(x_perm[0], ..., x_perm[judges-1]) for f of ``table``."""
    def move(x):
        return sum((x >> i & 1) << perm[i] for i in range(judges))
    return sum((table >> move(x) & 1) << x for x in range(1 << judges))


def judge_images(c, judges, blocks):
    """Candidate c relabelled by every judge permutation, in ``_rule_sweep``'s
    layout: each table decoded, permuted point by point, and encoded back."""
    free = (1 << judges) - 2
    low = (1 << free) - 1
    images = set()
    for perm in itertools.permutations(range(judges)):
        image = 0
        for at in range(0, free * blocks, free):
            table = (c >> at & low) << 1 | 1 << free + 1
            image |= (permute_judges(table, judges, perm) >> 1 & low) << at
        images.add(image)
    return images


# the ids are the names the cases had while a flip layout was swept beside
# them, one candidate bit wider
CLOSURE_CASES = [(2, 1), (3, 1), (4, 1), (2, 3), (2, 5), (3, 2), (3, 3)]


@pytest.mark.parametrize("judges, blocks", CLOSURE_CASES,
                         ids=[f"{judges}-{blocks}-False" for judges, blocks in CLOSURE_CASES])
def test_judge_closure_matches_brute_force(judges, blocks):
    # brute force: keep a candidate iff all its judge relabellings are kept
    rng = random.Random(judges * 100 + blocks * 10)
    free = (1 << judges) - 2
    bits = free * blocks
    var = [variable_mask(p, bits) for p in range(bits)]
    offsets = [free * (blocks - 1 - k) for k in range(blocks)]
    closed_seen = partial_seen = 0
    for trial in range(12):
        if bits <= 8 and trial % 2:
            alive = rng.getrandbits(1 << bits)  # dense: every size of orbit is hit
        else:
            # whole orbits of random candidates, some with one member dropped,
            # plus random strays
            alive = 0
            for seed in [rng.getrandbits(bits) for _ in range(rng.randrange(1, 12))]:
                orbit = judge_images(seed, judges, blocks)
                if rng.random() < 0.4:
                    orbit.discard(min(orbit))
                alive |= sum(1 << c for c in orbit)
            for _ in range(rng.randrange(0, 8)):
                alive |= 1 << rng.getrandbits(bits)
        members = set(set_bits(alive))
        want = sum(1 << c for c in members if judge_images(c, judges, blocks) <= members)
        assert jar_module._judge_closure(alive, judges, offsets, var) == want
        closed_seen += want != 0
        partial_seen += want != alive
    assert closed_seen and partial_seen


def test_enumerated_rules_are_closed_under_judge_permutations():
    raised = Config(enumeration_budget=1 << 40)
    for agenda in SCENARIOS:
        for judges in (2, 3, 4):
            perms = list(itertools.permutations(range(judges)))
            for require_up in (True, False):
                tables = {s.fn.table for s in enumerate_uniform_rules(
                    agenda, judges, require_up=require_up, config=raised)}
                assert {permute_judges(t, judges, perm) for t in tables
                        for perm in perms} == tables, (agenda.basis, judges, require_up)
            if ((1 << judges) - 2) * len(agenda) > raised.arity_cap:
                continue
            rules = {tuple(f.table for f in rule.functions)
                     for rule in enumerate_independent_rules(agenda, judges, config=raised)}
            assert {tuple(permute_judges(t, judges, perm) for t in rule) for rule in rules
                    for perm in perms} == rules, (agenda.basis, judges)


def test_one_judge_candidates_are_the_two_unanimity_bits(monkeypatch):
    # free = 0 inner points, so the one candidate is the identity, which maps
    # every one-judge profile (u) to u: nothing is composed, with unanimity
    # or without, and the negation is added after the sweep, not swept
    def no_compose(f, arg_tables, width):
        raise AssertionError("a one-judge sweep composed")

    monkeypatch.setattr(jar_module, "compose", no_compose)
    identity, negation = BoolFn.dictator(1, 0), BoolFn.anti_dictator(1, 0)
    kept = []
    for agenda in SCENARIOS + [build_agenda(["P", "Q"])]:
        assert [s.fn for s in enumerate_uniform_rules(agenda, 1)] == [identity]
        # the negation, F..F gives T and T..T gives F, joins the identity when
        # the rational set is closed under negation
        got = [s.fn for s in enumerate_uniform_rules(agenda, 1, require_up=False)]
        kept.append(loop_check_jar(uniform_jar(agenda, negation))[0])
        assert got == [negation] * kept[-1] + [identity]
        assert [j.functions for j in enumerate_independent_rules(agenda, 1)] == [
            (identity,) * len(agenda)]
    # only the atomic agenda keeps the negation
    assert kept == [False] * len(SCENARIOS) + [True]


def test_uniform_sweep_refuses_five_judges_before_building_columns(monkeypatch):
    def no_columns(*args):
        raise AssertionError("a candidate column was built")

    monkeypatch.setattr(jar_module, "_input_lifts", no_columns)
    with pytest.raises(BudgetError, match="2\\*\\*32 candidate tables"):
        enumerate_uniform_rules(OR_CLOSURE, 5, config=Config(enumeration_budget=1 << 62))
    with pytest.raises(BudgetError, match="work units"):
        enumerate_uniform_rules(SCENARIOS[1], 4, config=Config(enumeration_budget=1 << 20))


def test_independent_sweep_refuses_before_building_columns(monkeypatch):
    def no_columns(*args):
        raise AssertionError("a candidate column was built")

    monkeypatch.setattr(jar_module, "_input_lifts", no_columns)
    raised = Config(enumeration_budget=1 << 62)
    # 3 judges leave 6 free table bits per position: 24 bits over 4 entries
    with pytest.raises(BudgetError, match="2\\*\\*24 candidate rules"):
        enumerate_independent_rules(build_agenda(SCENARIO_AGENDAS["mixed-compounds"]), 3,
                                    config=raised)
    with pytest.raises(BudgetError, match="candidate rules"):
        enumerate_independent_rules(OR_CLOSURE, 6, config=raised)


def test_huge_judge_counts_are_refused_before_any_power_of_two():
    # 2**(10**7) alone would take 1.25 MB; the caps compare the judge count
    # itself, and the refusal states the candidate bits as a formula
    judges = 10 ** 7
    refusals = ((lambda: enumerate_uniform_rules(OR_CLOSURE, judges),
                 f"{judges} judges give 2**(2**{judges}) candidate tables, beyond 2**20"),
                (lambda: enumerate_independent_rules(OR_CLOSURE, judges),
                 f"{judges} judges on 3 basis entries give 2**((2**{judges} - 2) * 3) "
                 "candidate rules, beyond 2**20"))
    for sweep, message in refusals:
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError) as exc:
                sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == message
        assert peak < 1 << 20, peak
    # at small counts the caps refuse exactly as 2**judges and
    # (2**judges - 2) * |basis| say, and print those numbers in digits; a
    # budget of 1 refuses what they admit
    for agenda in (build_agenda(["P"]), OR_CLOSURE):
        for cap in range(len(agenda), 70):
            for judges in (*range(1, 9), 100):
                for sweep, bits in ((enumerate_uniform_rules, 1 << judges),
                                    (enumerate_independent_rules,
                                     ((1 << judges) - 2) * len(agenda))):
                    with pytest.raises(BudgetError) as exc:
                        sweep(agenda, judges, config=Config(arity_cap=cap,
                                                            enumeration_budget=1))
                    text = str(exc.value)
                    assert (f" give 2**{bits} candidate " in text) == (bits > cap)
                    assert ("work units" in text) == (bits <= cap)
