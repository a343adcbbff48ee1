"""The three question sets, their seeded inputs and their checks.

A workload is a list of questions asked in order, one at a time (a closed
loop with one client).  Each question calls jagg through its public API or
its in-process CLI, and is checked afterwards, outside the timed call,
against the independent answers in ``oracles``.  ``part`` groups questions
for the ``small_s`` and ``large_s`` metrics.

Calls look jagg's functions up at call time (``jagg.spectrum``, not a name
bound at import), so the traced run reaches them through the tracer's
wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracles

SMALL, LARGE = "small", "large"


@dataclass
class Question:
    name: str
    part: str
    ops: int                                   # operations it counts as
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    # the named fault kept as a failing operation: a reason, or None
    fault: Callable[[Any], str | None] | None = None


def _memo(fn):
    cache: dict = {}

    def cached(*args):
        if args not in cache:
            cache[args] = fn(*args)
        return cache[args]
    return cached


def run_cli(jagg, argv: list[str]) -> tuple[int, str]:
    """``jagg <argv>`` in process, with its stdout captured."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = jagg.cli.main(argv)
    except SystemExit as exc:       # argparse and parameter errors exit
        raise RuntimeError(f"jagg {' '.join(argv)} exited with {exc.code}") from None
    return code, buf.getvalue()


def _fractions(spec) -> list[Fraction]:
    return [Fraction(c.num, 1 << c.exp) for c in spec.coeffs]


# --- spectra -----------------------------------------------------------------

SMALL_ARITY = 4
SMALL_TABLES, CHUNK = 1 << 14, 1 << 10
LARGE_ARITIES = (16, 17)


def spectra(jagg, seed: int) -> list[Question]:
    """A seeded quarter of the arity-4 tables (always including and, or, xor
    and the dictators) through spectrum, Parseval and reconstruct, in chunks
    of 1024, and one seeded random table at each of arities 16 and 17
    through spectrum and reconstruct."""
    rng = random.Random(seed)
    n = SMALL_ARITY
    named = oracles.named_tables(n)
    others = sorted(set(range(1 << (1 << n))) - set(named.values()))
    tables = sorted(set(named.values()) | set(rng.sample(others, SMALL_TABLES - len(named))))
    sampled = set(rng.sample(tables, 512)) | set(named.values())
    large = [(k, rng.getrandbits(1 << k)) for k in LARGE_ARITIES]
    subsets = {k: [0, (1 << k) - 1, 1 << rng.randrange(k)]
               + [rng.getrandbits(k) for _ in range(3)] for k in LARGE_ARITIES}

    def sweep(chunk: list[int]):
        def call():
            BoolFn, spectrum, reconstruct = jagg.BoolFn, jagg.spectrum, jagg.reconstruct
            bad_parseval, bad_roundtrip, kept = [], [], {}
            for table in chunk:
                spec = spectrum(BoolFn(n, table))
                total = spec.parseval_sum()
                back = reconstruct(spec)
                if total.num != 1 or total.exp != 0:
                    bad_parseval.append(table)
                if back.n != n or back.table != table:
                    bad_roundtrip.append(table)
                if table in sampled:
                    kept[table] = spec
            return bad_parseval, bad_roundtrip, kept
        return call

    def check_sweep(answer) -> list[str]:
        bad_parseval, bad_roundtrip, kept = answer
        errors = [f"parseval_sum != 1 for tt:4:{t:04x}" for t in bad_parseval[:5]]
        errors += [f"reconstruct(spectrum(f)) != f for tt:4:{t:04x}" for t in bad_roundtrip[:5]]
        coeffs = {t: _fractions(spec) for t, spec in kept.items()}
        for t, c in sorted(coeffs.items()):
            errors += oracles.check_coefficients(n, t, dict(enumerate(c)))
        errors += oracles.check_closed_forms(
            {key: coeffs[t] for key, t in named.items() if t in coeffs}, n)
        return errors

    def large_call(k: int, table: int):
        def call():
            spec = jagg.spectrum(jagg.BoolFn(k, table))
            return spec, jagg.reconstruct(spec)
        return call

    def large_check(k: int, table: int):
        def check(answer) -> list[str]:
            spec, back = answer
            errors = []
            if back.table != table:
                errors.append(f"reconstruct(spectrum(f)) != f at arity {k}")
            if len(spec.coeffs) != 1 << k:
                return errors + [f"{len(spec.coeffs)} coefficients at arity {k}"]
            # Parseval on integers: sum of (num * 2**(k-exp))**2 == 4**k
            if sum((c.num << (k - c.exp)) ** 2 for c in spec.coeffs) != 1 << (2 * k):
                errors.append(f"squared coefficients do not sum to 1 at arity {k}")
            got = {s: Fraction(spec.coeffs[s].num, 1 << spec.coeffs[s].exp)
                   for s in subsets[k]}
            return errors + oracles.check_coefficients(k, table, got)
        return check

    chunks = [tables[i:i + CHUNK] for i in range(0, len(tables), CHUNK)]
    questions = [Question(f"arity-4 tables {c[0]:#06x}..{c[-1]:#06x}", SMALL, len(c),
                          sweep(c), check_sweep) for c in chunks]
    questions += [Question(f"arity-{k} table", LARGE, 1, large_call(k, t), large_check(k, t))
                  for k, t in large]
    return questions


# --- pairs -------------------------------------------------------------------

ENUMERATIONS = ((2, 2), (2, 3), (3, 2), (3, 3))


def _named_pairs():
    o = oracles
    yield 4, o.and_table(4), 4, o.and_table(4)
    yield 4, o.or_table(4), 4, o.or_table(4)
    yield 4, o.xor_table(4), 4, o.xor_table(4)
    yield 4, o.xor_table(4), 4, o.nxor_table(4)     # not normal: 3a != 3b
    yield 4, o.or_table(4), 4, o.and_table(4)
    yield 4, o.and_table(4), 5, o.and_table(5)


def pairs(jagg, seed: int) -> list[Question]:
    """The four small enumerations through ``enumerate-pairs --json``,
    named and seeded random all-relevant pairs at 4x4 and 4x5 through
    ``check_normal_pair``, and ``verify --suite pairs --json`` twice."""
    rng = random.Random(seed)
    checks = list(_named_pairs())
    checks += [(4, oracles.random_all_relevant(rng, 4), 4, oracles.random_all_relevant(rng, 4))
               for _ in range(16)]
    checks.append((4, oracles.random_all_relevant(rng, 4), 5,
                   oracles.random_all_relevant(rng, 5)))
    sample_seeds = [rng.getrandbits(32) for _ in checks]
    counterexamples = _memo(oracles.sampled_counterexamples)

    def enumerate_call(m: int, n: int):
        return lambda: run_cli(jagg, ["enumerate-pairs", "-m", str(m), "-n", str(n), "--json"])

    def enumerate_check(m: int, n: int):
        def check(answer) -> list[str]:
            code, out = answer
            if code != 0:
                return [f"enumerate-pairs ({m},{n}) exited {code}"]
            return oracles.check_enumeration(m, n, json.loads(out))
        return check

    def pair_call(m: int, g: int, n: int, f: int):
        return lambda: jagg.check_normal_pair(jagg.BoolFn(m, g), jagg.BoolFn(n, f))

    def pair_check(m: int, g: int, n: int, f: int, sample_seed: int):
        def check(rep) -> list[str]:
            report = {"is_normal": rep.is_normal,
                      "violation": None if rep.violation is None else rep.violation.kind,
                      "counterexample": rep.counterexample,
                      "column_then_row": rep.column_then_row,
                      "row_then_column": rep.row_then_column}
            return oracles.check_pair_report(m, g, n, f, report, random.Random(sample_seed))
        return check

    argv = ["verify", "--suite", "pairs", "--json"]

    def verify_twice():
        return run_cli(jagg, argv), run_cli(jagg, argv)

    def verify_check(answer) -> list[str]:
        errors = []
        for code, out in answer:
            if code != 0:
                errors.append(f"verify --suite pairs exited {code}")
            else:
                errors += oracles.check_verify_pairs(json.loads(out), counterexamples())
        return errors

    def verify_fault(answer) -> str | None:
        (_, first), (_, second) = answer
        if first != second:
            return "two runs of verify --suite pairs --json printed different bytes"
        return None

    questions = [Question(f"enumerate-pairs {m}x{n}", SMALL, 1, enumerate_call(m, n),
                          enumerate_check(m, n)) for m, n in ENUMERATIONS]
    questions += [Question(f"check-pair {m}x{n} {oracles.fn_spec(m, g)} {oracles.fn_spec(n, f)}",
                           LARGE, 1, pair_call(m, g, n, f), pair_check(m, g, n, f, s))
                  for (m, g, n, f), s in zip(checks, sample_seeds)]
    questions.append(Question("verify --suite pairs --json, twice", SMALL, 1, verify_twice,
                              verify_check, verify_fault))
    return questions


# --- rules -------------------------------------------------------------------

# three judges on the three-atom agenda: at four (8**4 profiles per
# candidate) its sweep alone took half a round
SWEEP_JUDGES = {"or-closure": 4, "three-atom-conjunction": 3, "parity-closure": 4,
                "and-closure": 4, "mixed-compounds": 4}
# admits every sweep here (the largest, mixed compounds at 4 judges, is
# charged 2**26 units); the default budget of 2**25 refuses all 4-judge ones
SWEEP_BUDGET = 1 << 31
LARGE_AGENDAS, LARGE_SYMBOLS, LARGE_ENTRIES = 4, 15, 8


def rules(jagg, seed: int) -> list[Question]:
    """Uniform-rule sweeps on the five scenario agendas (4 judges, 3 on the
    three-atom agenda), the 3-judge anonymity and systematicity filters,
    the majority doctrinal paradox, and the rational judgments of four
    seeded 15-symbol agendas."""
    rng = random.Random(seed)
    agendas = [oracles.random_agenda(rng, LARGE_SYMBOLS, LARGE_ENTRIES)
               for _ in range(LARGE_AGENDAS)]
    names = [f"s{i:02d}" for i in range(LARGE_SYMBOLS)]
    rationals_want = _memo(lambda k: oracles.agenda_rationals(LARGE_SYMBOLS, agendas[k][1]))
    brute_force = _memo(lambda scenario, anonymous, systematic: oracles.brute_force_rules(
        scenario, 3, unanimity=False, anonymous=anonymous, systematic=systematic))
    consistent = _memo(lambda scenario, tables: oracles.check_rules_consistent(
        scenario, SWEEP_JUDGES[scenario], list(tables)))

    def sweep_call(scenario: str):
        basis = oracles.SCENARIOS[scenario][0]

        def call():
            config = jagg.Config(enumeration_budget=SWEEP_BUDGET)
            agenda = jagg.build_agenda(basis, config=config)
            return jagg.enumerate_uniform_rules(agenda, SWEEP_JUDGES[scenario], config=config)
        return call

    def sweep_check(scenario: str):
        def check(solutions) -> list[str]:
            got = [(s.fn.table, tuple(s.relevant), s.case) for s in solutions]
            return (oracles.check_uniform_rules(scenario, SWEEP_JUDGES[scenario], got)
                    + consistent(scenario, tuple(t for t, _, _ in got)))
        return check

    def filter_call(scenario: str, **axioms):
        basis = oracles.SCENARIOS[scenario][0]

        def call():
            agenda = jagg.build_agenda(basis)
            return jagg.filter_axioms(
                jagg.enumerate_uniform_rules(agenda, 3, require_up=False), **axioms)
        return call

    def filter_check(scenario: str, **axioms):
        def check(solutions) -> list[str]:
            got = [s.fn.table for s in solutions]
            want = brute_force(scenario, axioms.get("anonymous", False),
                               axioms.get("systematic", False))
            if got != want:
                return [f"{scenario} {sorted(axioms)}: got "
                        f"{[oracles.fn_spec(3, t) for t in got]}, brute force gives "
                        f"{[oracles.fn_spec(3, t) for t in want]}"]
            return []
        return check

    def paradox():
        agenda = jagg.build_agenda(oracles.SCENARIOS["and-closure"][0])
        return jagg.check_jar(jagg.uniform_jar(agenda, jagg.BoolFn.majority(3)))

    def paradox_check(verdict) -> list[str]:
        return oracles.check_paradox({
            "consistent": verdict.consistent, "counterexample": verdict.counterexample,
            "unanimity_preserving": verdict.unanimity_preserving,
            "anonymous": verdict.anonymous, "systematic": verdict.systematic})

    def large(k: int):
        def call():
            agenda = jagg.build_agenda(agendas[k][0])
            return agenda, jagg.rational_judgments(agenda)
        return call

    def large_check(k: int):
        def check(answer) -> list[str]:
            agenda, rs = answer
            return oracles.check_rationals(rationals_want(k), rs.judgments, rs.witnesses,
                                           agenda.symbols, names)
        return check

    questions = [Question(f"uniform rules, {SWEEP_JUDGES[s]} judges, {s}", SMALL, 1,
                          sweep_call(s), sweep_check(s)) for s in oracles.SCENARIOS]
    questions += [
        Question("anonymous rules, 3 judges, or-closure", SMALL, 1,
                 filter_call("or-closure", anonymous=True),
                 filter_check("or-closure", anonymous=True)),
        Question("anonymous systematic rules, 3 judges, and-closure", SMALL, 1,
                 filter_call("and-closure", anonymous=True, systematic=True),
                 filter_check("and-closure", anonymous=True, systematic=True)),
        Question("majority of 3 on the and-closure", SMALL, 1, paradox, paradox_check),
    ]
    questions += [Question(f"rational judgments, {LARGE_SYMBOLS} symbols, agenda {k}", LARGE, 1,
                           large(k), large_check(k)) for k in range(LARGE_AGENDAS)]
    return questions


WORKLOADS = {"spectra": spectra, "pairs": pairs, "rules": rules}
