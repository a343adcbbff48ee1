"""Named verification suites re-deriving the classification results at desk
scale.

Each suite runs exhaustive sweeps with explicit expectations and returns one
result per check; the CLI renders them as PASS/FAIL lines and the acceptance
tests assert them.  Expected lists live here as frozen constants after being
derived once from independent brute-force runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

from .agenda import build_agenda, is_determined_by, rational_judgments
from .boolfn import (BoolFn, all_tables, classify, format_fn_spec, parse_fn_spec,
                     relevant_tables, set_bits)
from .config import DEFAULT, Config
from .formula import parse
from .fourier import Dyadic, _cell_subset_identity, reconstruct, spectrum
from .jar import (PiJar, RELATION_EQUAL, RELATION_FLIP, RELATION_NOT_APPLICABLE,
                  check_jar, dependent_pair_relation, enumerate_independent_rules,
                  enumerate_uniform_rules, filter_axioms, restrict_jar, uniform_jar)
from .normalpair import _pair_case, check_normal_pair, enumerate_normal_pairs


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


@dataclass
class VerifyReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _run(report: VerifyReport, name: str, fn) -> None:
    start = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # a crashed check is a failed check
        ok, detail = False, f"error: {exc}"
    report.checks.append(CheckResult(name, ok, detail, time.perf_counter() - start))


# --- suite: spectra ---------------------------------------------------------

def suite_spectra(config: Config = DEFAULT) -> VerifyReport:
    report = VerifyReport()

    def closed_forms():
        for n in range(1, 5):
            full = (1 << n) - 1
            half = Dyadic.make(1, n - 1)
            for fn, expect in [
                (BoolFn.constant(n, True), lambda R: Dyadic.make(1 if R == 0 else 0)),
                (BoolFn.constant(n, False), lambda R: Dyadic.make(-1 if R == 0 else 0)),
                (BoolFn.xor(n), lambda R: Dyadic.make((-1) ** (n + 1) if R == full else 0)),
                (BoolFn.nxor(n), lambda R: Dyadic.make((-1) ** n if R == full else 0)),
                (BoolFn.and_(n), lambda R: half - 1 if R == 0 else half),
                (BoolFn.or_(n), lambda R: 1 - half if R == 0 else
                 Dyadic.make((-1) ** (R.bit_count() + 1)) * half),
            ]:
                sp = spectrum(fn)
                for R in range(1 << n):
                    if sp[R] != expect(R):
                        return False, (f"arity {n} {classify(fn)}: subset {R:#x} "
                                       f"gave {sp[R]}, expected {expect(R)}")
        if spectrum(BoolFn.xor(2))[3] != -1:
            return False, "parity xor2 top coefficient is not -1"
        return True, "constant/dictator-free families match closed forms, n = 1..4"

    def dictators():
        for n in range(1, 5):
            for i in range(n):
                sp = spectrum(BoolFn.dictator(n, i))
                if sp.support() != (1 << i,) or sp[1 << i] != 1:
                    return False, f"dictator({i}) arity {n} spectrum wrong"
        return True, "projection spectra are a single unit coefficient"

    def parseval():
        count = 0
        for n in range(0, 5):
            for f in all_tables(n):
                if spectrum(f).parseval_sum() != 1:
                    return False, f"parseval failed for arity {n} table {f.table:#x}"
                count += 1
        return True, f"sum of squared coefficients is exactly 1 for all {count} tables, n <= 4"

    def roundtrip():
        count = 0
        for n in range(0, 4):
            for f in all_tables(n):
                if reconstruct(spectrum(f)) != f:
                    return False, f"roundtrip failed for arity {n} table {f.table:#x}"
                count += 1
        return True, f"reconstruct(spectrum(f)) == f for all {count} tables, n <= 3"

    _run(report, "spectra/closed-forms", closed_forms)
    _run(report, "spectra/dictators", dictators)
    _run(report, "spectra/parseval", parseval)
    _run(report, "spectra/roundtrip", roundtrip)
    return report


# --- suite: forceful product form -------------------------------------------

def suite_forceful(config: Config = DEFAULT) -> VerifyReport:
    report = VerifyReport()

    def product_form():
        half_exp = 0
        count = 0
        for n in range(2, 5):
            for f in all_tables(n):
                if f.is_constant() or not f.is_forceful():
                    continue
                dec = f.forceful_decomposition()
                if dec.expand() != f:
                    return False, f"re-expansion differs for arity {n} table {f.table:#x}"
                witnesses = f.forceable_indices()
                outputs = {w[1] for w in witnesses if w is not None}
                if len(outputs) != 1:
                    return False, f"forced outputs disagree for table {f.table:#x}"
                sp = spectrum(f)
                for R in range(1, 1 << n):
                    prod = 1
                    for i in range(n):
                        if R >> i & 1:
                            prod *= dec.signs[i]
                    if sp[R] != Dyadic.make(dec.c0 * prod, n - 1):
                        return False, (f"coefficient {R:#x} mismatch for table "
                                       f"{f.table:#x}")
                if sp[0] != Dyadic.make(dec.c0, n - 1) - dec.c0:
                    return False, f"empty-set coefficient mismatch for {f.table:#x}"
                count += 1
        return True, (f"{count} forceful functions (all tables, n = 2..4): product "
                      "form re-expands exactly and matches every coefficient")

    def named_signs():
        expected = [
            (BoolFn.and_(3), 1, (1, 1, 1)),
            (BoolFn.or_(3), -1, (-1, -1, -1)),
            (BoolFn.from_formula(parse("!a & b"), ["a", "b"]), 1, (-1, 1)),
        ]
        for fn, c0, signs in expected:
            dec = fn.forceful_decomposition()
            if (dec.c0, dec.signs) != (c0, signs):
                return False, (f"{classify(fn)}: got c0={dec.c0} signs={dec.signs}, "
                               f"expected c0={c0} signs={signs}")
        return True, "and/or/mixed-literal sign vectors match the derived values"

    _run(report, "forceful/product-form", product_form)
    _run(report, "forceful/named-signs", named_signs)
    return report


# --- suite: coefficient identities ------------------------------------------

def _normal_pairs(config: Config):
    """Enumerates the EXPECTED_PAIRS arities on its first call, inside the
    check that makes it, and hands every later call the same lists."""
    return cache(lambda: {(m, n): enumerate_normal_pairs(m, n, config=config)
                          for m, n in EXPECTED_PAIRS})


def suite_identities(config: Config = DEFAULT) -> VerifyReport:
    report = VerifyReport()
    normal_pairs = _normal_pairs(config)
    hat = cache(spectrum)   # one spectrum per distinct table across the checks

    def all_normal_pairs():
        pairs = [p for arity_pairs in normal_pairs().values() for p in arity_pairs]
        cells = 0
        for g, f in pairs:
            for U in range(1 << (g.n * f.n)):
                lhs, rhs = _cell_subset_identity(hat(g), hat(f), U)
                if lhs != rhs:
                    return False, (f"cell set {U:#x} disagrees for "
                                   f"({format_fn_spec(g)}, {format_fn_spec(f)})")
                cells += 1
        return True, (f"{len(pairs)} normal pairs with m*n <= 9: both sides equal "
                      f"on all {cells} cell subsets")

    def rectangles():
        pairs = [p for arity_pairs in normal_pairs().values() for p in arity_pairs]
        count = 0
        for g, f in pairs:
            for rsize in range(1, g.n + 1):
                for csize in range(1, f.n + 1):
                    for rows in combinations(range(g.n), rsize):
                        for cols in combinations(range(f.n), csize):
                            lhs, rhs = _cell_subset_identity(
                                hat(g), hat(f), [(i, j) for i in rows for j in cols])
                            if lhs != rhs:
                                return False, (f"rectangle {rows}x{cols} disagrees "
                                               f"for ({format_fn_spec(g)}, "
                                               f"{format_fn_spec(f)})")
                            count += 1
        return True, f"all {count} non-empty rectangles agree on every normal pair"

    def non_normal_witness():
        g, f = BoolFn.or_(2), BoolFn.and_(2)
        bad = [U for U in range(16)
               for lhs, rhs in [_cell_subset_identity(hat(g), hat(f), U)] if lhs != rhs]
        if not bad:
            return False, "(or2, and2) satisfied the identity on every cell set"
        return True, (f"(or2, and2) violates the identity on {len(bad)} cell sets, "
                      f"first {bad[0]:#x}")

    _run(report, "identities/cell-subsets", all_normal_pairs)
    _run(report, "identities/rectangles", rectangles)
    _run(report, "identities/non-normal-witness", non_normal_witness)
    return report


# --- suite: pair enumeration ------------------------------------------------

# frozen from brute-force runs: specs of (g, f) per arity pair
EXPECTED_PAIRS = {
    (2, 2): [("xor:2", "xor:2"), ("and:2", "and:2"),
             ("nxor:2", "nxor:2"), ("or:2", "or:2")],
    (2, 3): [("xor:2", "xor:3"), ("and:2", "and:3"),
             ("nxor:2", "xor:3"), ("or:2", "or:3")],
    (3, 2): [("and:3", "and:2"), ("xor:3", "xor:2"),
             ("xor:3", "nxor:2"), ("or:3", "or:2")],
    (3, 3): [("nxor:3", "nxor:3"), ("nxor:3", "xor:3"), ("and:3", "and:3"),
             ("xor:3", "nxor:3"), ("xor:3", "xor:3"), ("or:3", "or:3")],
}


def suite_pairs(config: Config = DEFAULT) -> VerifyReport:
    report = VerifyReport()
    normal_pairs = _normal_pairs(config)

    def enumerations():
        for (m, n), expected in EXPECTED_PAIRS.items():
            got = normal_pairs()[m, n]
            want = [(parse_fn_spec(gs), parse_fn_spec(fs)) for gs, fs in expected]
            if got != sorted(want, key=lambda p: (p[0].table, p[1].table)):
                names = [(str(classify(g)), str(classify(f))) for g, f in got]
                return False, f"({m},{n}) enumeration gave {names}"
        return True, ("exhaustive enumeration matches the frozen lists: 4 pairs at "
                      "(2,2)/(2,3)/(3,2), 6 at (3,3)")

    # each enumerated pair with its members' labels and its case, built once
    # for the two checks that read them
    labelled = cache(lambda: [(g, f, cg, cf, _pair_case(cg, cf))
                              for pairs in normal_pairs().values() for g, f in pairs
                              for cg, cf in [(classify(g), classify(f))]])

    def cases():
        for g, f, cg, cf, case in labelled():
            if case not in ("both-and", "both-or", "xor-family"):
                return False, (f"({format_fn_spec(g)}, {format_fn_spec(f)}) "
                               f"classified {case}")
            if case == "xor-family":
                if not (g == BoolFn.xor(g.n) or g == BoolFn.nxor(g.n)):
                    return False, f"xor-family pair with g = {format_fn_spec(g)}"
            elif cg.kind != cf.kind:
                return False, "same-family case with mismatched members"
        return True, "every enumerated pair is both-and, both-or, or xor-family"

    def forceful_slice():
        for g, f, _, _, case in labelled():
            if case == "xor-family":
                continue
            if not (g.is_forceful() and f.is_forceful()):
                return False, (f"non-parity pair ({format_fn_spec(g)}, "
                               f"{format_fn_spec(f)}) is not both-forceful")
        return True, "outside the parity family, both members are forceful"

    def soundness():
        import random
        rng = random.Random(20260823)
        checked = 0
        for _ in range(300):
            m, n = rng.choice([(2, 2), (2, 3), (3, 2)])
            g = BoolFn(m, rng.randrange(1 << (1 << m)))
            f = BoolFn(n, rng.randrange(1 << (1 << n)))
            rep = check_normal_pair(g, f, config=config)
            if rep.violation is not None and rep.violation.kind == "commutation":
                cols = [g(*(row[j] for row in rep.counterexample))
                        for j in range(n)]
                rows = [f(*row) for row in rep.counterexample]
                if f(*cols) != rep.column_then_row or g(*rows) != rep.row_then_column:
                    return False, "stored counterexample does not reproduce values"
                if rep.column_then_row == rep.row_then_column:
                    return False, "counterexample values agree"
                checked += 1
        return True, f"{checked} sampled commutation counterexamples reproduce exactly"

    def trivial_edge():
        ident = BoolFn.dictator(1, 0)
        neg = BoolFn.anti_dictator(1, 0)
        for n in range(1, 4):
            for table in set_bits(relevant_tables(n)):
                f = BoolFn(n, table)
                if not check_normal_pair(ident, f, config=config).is_normal:
                    return False, f"(identity, {format_fn_spec(f)}) not normal"
                expect = f == f.flip()
                got = check_normal_pair(neg, f, config=config).is_normal
                if got != expect:
                    return False, (f"(negation, {format_fn_spec(f)}): normal={got} "
                                   f"but f == flip(f) is {expect}")
        return True, ("arity-1 outer: identity pairs with every all-relevant "
                      "function, negation exactly with the self-flip ones")

    _run(report, "pairs/enumeration", enumerations)
    _run(report, "pairs/cases", cases)
    _run(report, "pairs/forceful-slice", forceful_slice)
    _run(report, "pairs/counterexample-soundness", soundness)
    _run(report, "pairs/arity-one-edge", trivial_edge)
    return report


# --- suite: uniform-rule classification -------------------------------------

# frozen from brute-force runs: (fn spec, relevant indices, case)
EXPECTED_UNIFORM = {
    ("or-closure", 2): [("dictator:2:0", (0,), "dictator"),
                        ("dictator:2:1", (1,), "dictator"),
                        ("or:2", (0, 1), "oligarchy")],
    ("three-atom-conjunction", 2): [("dictator:2:0", (0,), "dictator"),
                                    ("dictator:2:1", (1,), "dictator")],
    ("parity-closure", 2): [("dictator:2:0", (0,), "dictator"),
                            ("dictator:2:1", (1,), "dictator")],
    ("parity-closure", 3): [("xor:3", (0, 1, 2), "oligarchy"),
                            ("dictator:3:0", (0,), "dictator"),
                            ("dictator:3:1", (1,), "dictator"),
                            ("dictator:3:2", (2,), "dictator")],
}

SCENARIO_AGENDAS = {
    "or-closure": ["P", "Q", "P | Q"],
    "three-atom-conjunction": ["P", "Q", "R", "(P | Q) & R"],
    "parity-closure": ["P", "Q", "P ^ Q"],
    "and-closure": ["P", "Q", "P & Q"],
    "mixed-compounds": ["P", "Q", "P | Q", "P & Q"],
}


def suite_uniform(config: Config = DEFAULT) -> VerifyReport:
    report = VerifyReport()

    def golden_lists():
        for (scenario, judges), expected in EXPECTED_UNIFORM.items():
            agenda = build_agenda(SCENARIO_AGENDAS[scenario], config=config)
            got = enumerate_uniform_rules(agenda, judges, config=config)
            summary = [(s.fn, s.relevant, s.case) for s in got]
            want = [(parse_fn_spec(spec), rel, case) for spec, rel, case in expected]
            want.sort(key=lambda t: t[0].table)
            if summary != want:
                return False, (f"{scenario} n={judges}: got "
                               f"{[(format_fn_spec(f), r, c) for f, r, c in summary]}")
        return True, "consistent shared-function rules match the frozen lists"

    def no_violations():
        for scenario in ("or-closure", "and-closure", "parity-closure",
                         "mixed-compounds", "three-atom-conjunction"):
            agenda = build_agenda(SCENARIO_AGENDAS[scenario], config=config)
            for judges in (2, 3):
                for sol in enumerate_uniform_rules(agenda, judges, config=config):
                    if sol.case not in ("dictator", "oligarchy"):
                        return False, (f"{scenario} n={judges}: "
                                       f"{format_fn_spec(sol.fn)} case {sol.case}")
        return True, ("with a compound present, every solution is a dictator or a "
                      "named-family oligarchy (n = 2, 3)")

    def family_duality():
        for scenario, family in [("or-closure", "or"), ("and-closure", "and"),
                                 ("parity-closure", "xor")]:
            agenda = build_agenda(SCENARIO_AGENDAS[scenario], config=config)
            for judges in (2, 3):
                for sol in enumerate_uniform_rules(agenda, judges, config=config):
                    if sol.case == "oligarchy" and sol.restriction_class.kind != family:
                        return False, (f"{scenario} n={judges}: oligarchy of kind "
                                       f"{sol.restriction_class.kind}")
        return True, ("oligarchies mirror the agenda's compound: or-agenda gives or, "
                      "and gives and, parity gives xor")

    def parity_oddness():
        agenda = build_agenda(SCENARIO_AGENDAS["parity-closure"], config=config)
        for judges in (2, 3):
            for sol in enumerate_uniform_rules(agenda, judges, config=config):
                if sol.case == "oligarchy" and len(sol.relevant) % 2 == 0:
                    return False, f"even-size parity oligarchy {sol.relevant}"
        return True, "parity oligarchies use an odd number of judges"

    _run(report, "uniform/golden-lists", golden_lists)
    _run(report, "uniform/no-violations", no_violations)
    _run(report, "uniform/family-duality", family_duality)
    _run(report, "uniform/parity-oddness", parity_oddness)
    return report


# --- suite: anonymity and systematicity -------------------------------------

def suite_axioms(config: Config = DEFAULT) -> VerifyReport:
    report = VerifyReport()

    def anonymous_or():
        agenda = build_agenda(SCENARIO_AGENDAS["or-closure"], config=config)
        sols = filter_axioms(
            enumerate_uniform_rules(agenda, 3, require_up=False, config=config),
            anonymous=True)
        fns = [s.fn for s in sols]  # type: ignore[union-attr]
        if fns != [BoolFn.or_(3)]:
            return False, f"anonymous rules on the or-closure: {[format_fn_spec(f) for f in fns]}"
        return True, ("3 judges, or-closure, no unanimity assumed: the only "
                      "anonymous consistent rule is or over all judges")

    def impossibility():
        agenda = build_agenda(SCENARIO_AGENDAS["and-closure"], config=config)
        for judges in (2, 3):
            sols = filter_axioms(
                enumerate_uniform_rules(agenda, judges, require_up=False, config=config),
                anonymous=True, systematic=True)
            if sols:
                return False, f"n={judges}: found {len(sols)} anonymous systematic rules"
        return True, ("and-closure, n = 2 and 3: no consistent rule is both "
                      "anonymous and systematic")

    _run(report, "axioms/anonymous-or", anonymous_or)
    _run(report, "axioms/anonymity-systematicity-impossibility", impossibility)
    return report


# --- suite: majority --------------------------------------------------------

def suite_majority(config: Config = DEFAULT) -> VerifyReport:
    report = VerifyReport()

    def overlapping_disjunctions():
        agenda = build_agenda(["P | Q", "!P | Q"], config=config)
        rs = rational_judgments(agenda)
        if len(rs.judgments) != 3 or (False, False) in rs.judgments:
            return False, f"rational set is {rs.judgments}"
        verdict = check_jar(uniform_jar(agenda, BoolFn.majority(3)), config=config)
        if not verdict.consistent:
            return False, f"majority of 3 inconsistent: {verdict.counterexample}"
        return True, ("two overlapping disjunctions admit 3 rational judgments "
                      "(never both-false) and majority of 3 stays consistent")

    def doctrinal_paradox():
        agenda = build_agenda(SCENARIO_AGENDAS["and-closure"], config=config)
        jar = uniform_jar(agenda, BoolFn.majority(3))
        verdict = check_jar(jar, config=config)
        if verdict.consistent or verdict.counterexample is None:
            return False, "majority of 3 unexpectedly consistent on the and-closure"
        profile, out = verdict.counterexample
        if jar.aggregate(profile) != out:
            return False, "stored counterexample does not re-aggregate"
        if out in rational_judgments(agenda):
            return False, "counterexample aggregate is rational"
        return True, (f"majority of 3 on the and-closure fails; first bad profile "
                      f"{profile} aggregates to {out}")

    _run(report, "majority/overlapping-disjunctions", overlapping_disjunctions)
    _run(report, "majority/doctrinal-paradox", doctrinal_paradox)
    return report


# --- suite: structural sweeps -----------------------------------------------

def _generated_agendas(config: Config):
    """Deterministic family of symbol-complete agendas: sorted atoms plus one
    or two compounds drawn from a fixed pool."""
    pools = {
        2: ["P & Q", "P | Q", "P ^ Q", "!P & Q", "P | !Q", "!(P & Q) & (P | Q)"],
        3: ["P & Q & R", "P | Q | R", "P ^ Q ^ R", "(P | Q) & R",
            "(P & Q) | R", "!P & (Q | R)", "P ^ (Q & R)"],
    }
    atoms = {2: ["P", "Q"], 3: ["P", "Q", "R"]}
    for k, pool in pools.items():
        compounds = [parse(text) for text in pool]
        options = [[c] for c in compounds]
        options.extend([list(pair) for pair in combinations(compounds, 2)])
        for extra in options:
            try:
                agenda = build_agenda([*atoms[k], *extra], config=config)
            except ValueError:
                continue
            if agenda.is_symbol_complete() and agenda.is_symbol_connected():
                yield agenda


def suite_structure(config: Config = DEFAULT) -> VerifyReport:
    report = VerifyReport()

    def determination():
        count = 0
        for agenda in _generated_agendas(config):
            for k in range(len(agenda)):
                if agenda.is_atomic(k):
                    continue
                others = [j for j in range(len(agenda)) if j != k]
                if not is_determined_by(agenda, k, others):
                    return False, (f"{[str(b) for b in agenda.basis]}: entry {k} "
                                   "not determined by the rest")
                count += 1
        return True, (f"{count} compounds over generated symbol-complete connected "
                      "agendas are each determined by the remaining entries")

    def restriction_closure():
        count = 0
        for scenario in ("and-closure", "or-closure"):
            agenda = build_agenda(SCENARIO_AGENDAS[scenario], config=config)
            for jar in enumerate_independent_rules(agenda, 2, config=config):
                for size in range(1, len(agenda) + 1):
                    for pos in combinations(range(len(agenda)), size):
                        sub = restrict_jar(jar, pos, config=config)
                        verdict = check_jar(sub, config=config)
                        if not (verdict.consistent and verdict.unanimity_preserving):
                            return False, (f"{scenario}: restriction to {pos} broke "
                                           "a consistent rule")
                        count += 1
        return True, f"{count} restrictions of enumerated rules stay consistent"

    def pairwise_relations():
        count = 0
        for scenario in ("and-closure", "or-closure"):
            agenda = build_agenda(SCENARIO_AGENDAS[scenario], config=config)
            for jar in enumerate_independent_rules(agenda, 2, config=config):
                for x in range(len(agenda)):
                    for y in range(len(agenda)):
                        if x == y:
                            continue
                        rel = dependent_pair_relation(jar, x, y)
                        if rel not in (RELATION_EQUAL, RELATION_FLIP,
                                       RELATION_NOT_APPLICABLE):
                            return False, (f"{scenario}: positions ({x}, {y}) "
                                           f"related by {rel}")
                        if rel != RELATION_NOT_APPLICABLE:
                            count += 1
        return True, (f"{count} dependent position pairs relate by equality or flip "
                      "on every enumerated rule")

    def component_product():
        agenda = build_agenda(["P", "Q", "P & Q", "R", "S", "R | S"], config=config)
        groups = agenda.component_positions()
        if groups != ((0, 1, 2), (3, 4, 5)):
            return False, f"components came out as {groups}"
        parts = agenda.components(config=config)
        u_whole = rational_judgments(agenda).judgments
        u_parts = [rational_judgments(p).judgments for p in parts]
        rebuilt = {tuple(list(a) + list(b)) for a in u_parts[0] for b in u_parts[1]}
        if set(u_whole) != rebuilt or len(u_whole) != len(u_parts[0]) * len(u_parts[1]):
            return False, "rational judgments are not the product of the components"
        sols = [enumerate_independent_rules(p, 2, config=config) for p in parts]
        combined_ok = 0
        for left in sols[0]:
            for right in sols[1]:
                jar = PiJar(agenda, 2, left.functions + right.functions)
                verdict = check_jar(jar, config=config)
                if not (verdict.consistent and verdict.unanimity_preserving):
                    return False, "a product of component rules failed on the whole"
                combined_ok += 1
        # a rule failing on one component must fail on the whole agenda
        bad = uniform_jar(parts[0], BoolFn.or_(2))      # or-rule on the and-closure
        if check_jar(bad, config=config).consistent:
            return False, "expected component non-solution is consistent"
        mixed = PiJar(agenda, 2, bad.functions + sols[1][0].functions)
        if check_jar(mixed, config=config).consistent:
            return False, "mixing in a failing component stayed consistent"
        return True, (f"disconnected six-entry agenda: judgments multiply "
                      f"({len(u_parts[0])}*{len(u_parts[1])}={len(u_whole)}) and all "
                      f"{combined_ok} products of component rules pass, failing "
                      "components fail the whole")

    _run(report, "structure/compound-determination", determination)
    _run(report, "structure/restriction-closure", restriction_closure)
    _run(report, "structure/pairwise-relations", pairwise_relations)
    _run(report, "structure/component-product", component_product)
    return report


SUITES = {
    "spectra": suite_spectra,
    "forceful": suite_forceful,
    "identities": suite_identities,
    "pairs": suite_pairs,
    "uniform": suite_uniform,
    "axioms": suite_axioms,
    "majority": suite_majority,
    "structure": suite_structure,
}


def run_suites(names: list[str], config: Config = DEFAULT) -> VerifyReport:
    report = VerifyReport()
    for name in names:
        report.checks.extend(SUITES[name](config).checks)
    return report
