"""Answers computed apart from jagg, used to check what jagg returns.

Nothing here imports jagg.  Truth tables use jagg's documented encoding
(bit ``p`` of a table is the output at the point whose input ``i`` is bit
``i`` of ``p``) because that encoding is part of the public API, but every
value is derived by direct evaluation, closed forms or the published
classification theorems, never by calling the function being checked.

Each ``check_*`` function returns a list of error strings; an empty list
means the answer is right.  ``self_check`` feeds each checker a wrong
answer and requires it to object.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

# --- Boolean functions as tables --------------------------------------------


def full(n: int) -> int:
    return (1 << (1 << n)) - 1


def table_of(n: int, pred) -> int:
    """Table of ``pred(bits)`` where ``bits`` is the tuple of input values."""
    out = 0
    for p in range(1 << n):
        if pred(tuple(bool(p >> i & 1) for i in range(n))):
            out |= 1 << p
    return out


def and_table(n: int) -> int:
    return table_of(n, all)


def or_table(n: int) -> int:
    return table_of(n, any)


def xor_table(n: int) -> int:
    return table_of(n, lambda b: sum(b) % 2 == 1)


def nxor_table(n: int) -> int:
    return xor_table(n) ^ full(n)


def dictator_table(n: int, i: int) -> int:
    return table_of(n, lambda b: b[i])


def input_true(i: int, n: int) -> int:
    """Points where input ``i`` is T, built by doubling one period."""
    mask, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
    while width < 1 << n:
        mask |= mask << width
        width <<= 1
    return mask


def bit(table: int, point: int) -> bool:
    return bool(table >> point & 1)


def is_all_relevant(n: int, table: int) -> bool:
    """Non-constant, and flipping each input changes the output somewhere."""
    if table in (0, full(n)):
        return False
    for i in range(n):
        if all(bit(table, p) == bit(table, p ^ (1 << i)) for p in range(1 << n)):
            return False
    return True


def random_all_relevant(rng: random.Random, n: int) -> int:
    """A random balanced (half the points T) table that uses every input.

    Balanced, because the cost of jagg's minterm expansion grows with the
    number of T points, and the work should not change with the seed."""
    points = list(range(1 << n))
    while True:
        table = sum(1 << p for p in rng.sample(points, len(points) // 2))
        if is_all_relevant(n, table):
            return table


def fn_spec(n: int, table: int) -> str:
    """jagg's canonical ``tt:<n>:<hex>`` spelling of a table."""
    return f"tt:{n}:{table:0{max(1, (1 << n) // 4)}x}"


# --- Fourier coefficients ----------------------------------------------------


def coefficient(n: int, table: int, subset: int) -> Fraction:
    """fhat(subset) as a direct sum over all points, T -> +1, F -> -1."""
    total = 0
    for p in range(1 << n):
        fx = 1 if bit(table, p) else -1
        chi = 1
        for i in range(n):
            if subset >> i & 1:
                chi *= 1 if p >> i & 1 else -1
        total += fx * chi
    return Fraction(total, 1 << n)


def coefficient_by_count(n: int, table: int, subset: int) -> Fraction:
    """The same sum for large n: count the points where f and chi agree.

    chi_S(x) is +1 exactly where an even number of the inputs in S are F.
    """
    chi_plus = full(n)
    for i in range(n):
        if subset >> i & 1:
            chi_plus ^= ~input_true(i, n) & full(n)   # toggle where input i = F
    agree = (~(table ^ chi_plus) & full(n)).bit_count()
    return Fraction(2 * agree - (1 << n), 1 << n)


def closed_form(kind: str, n: int, subset: int, index: int = 0) -> Fraction:
    """Coefficients of and, or, xor (odd parity) and dictator(index)."""
    unit = Fraction(2, 1 << n)
    if kind == "and":
        return unit - 1 if subset == 0 else unit
    if kind == "or":
        return 1 - unit if subset == 0 else (-1) ** (bin(subset).count("1") + 1) * unit
    if kind == "xor":
        return Fraction((-1) ** (n + 1)) if subset == (1 << n) - 1 else Fraction(0)
    if kind == "dictator":
        return Fraction(1) if subset == 1 << index else Fraction(0)
    raise ValueError(kind)


def check_coefficients(n: int, table: int, got: dict[int, Fraction]) -> list[str]:
    """Compare reported coefficients (subset -> value) with direct sums."""
    exact = coefficient if n <= 8 else coefficient_by_count
    errors = []
    for subset, value in sorted(got.items()):
        want = exact(n, table, subset)
        if value != want:
            errors.append(f"{fn_spec(n, table)}: coefficient of subset {subset:#x} "
                          f"is {value}, direct sum gives {want}")
    return errors


def check_closed_forms(spectra: dict[tuple[str, int], list[Fraction]], n: int) -> list[str]:
    """``spectra`` maps (kind, index) to a full reported spectrum."""
    errors = []
    for (kind, index), coeffs in sorted(spectra.items()):
        for subset, value in enumerate(coeffs):
            want = closed_form(kind, n, subset, index)
            if value != want:
                errors.append(f"{kind}:{n} (index {index}): coefficient of subset "
                              f"{subset:#x} is {value}, closed form gives {want}")
    return errors


def named_tables(n: int) -> dict[tuple[str, int], int]:
    out = {("and", 0): and_table(n), ("or", 0): or_table(n), ("xor", 0): xor_table(n)}
    for i in range(n):
        out[("dictator", i)] = dictator_table(n, i)
    return out


# --- normal pairs --------------------------------------------------------------


def family(n: int, table: int) -> tuple[str, int] | None:
    """(shape, parity mark) for and/or/xor/nxor tables, else None."""
    if table == and_table(n):
        return ("and", 0)
    if table == or_table(n):
        return ("or", 0)
    if table == xor_table(n):
        return ("parity", 0)
    if table == nxor_table(n):
        return ("parity", 1)
    return None


def normal_by_theorem(m: int, gt: int, n: int, ft: int) -> bool:
    """Classification of normal pairs of all-relevant functions, arities >= 2:
    and/and, or/or, and parity pairs xor/nxor marked a (for g) and b (for f)
    exactly when (n-1)*a == (m-1)*b (mod 2)."""
    fg, ff = family(m, gt), family(n, ft)
    if fg is None or ff is None or fg[0] != ff[0]:
        return False
    if fg[0] != "parity":
        return True
    return ((n - 1) * fg[1] - (m - 1) * ff[1]) % 2 == 0


def pair_case(m: int, gt: int, n: int, ft: int) -> str:
    shape = family(m, gt)[0]  # type: ignore[index]
    return {"and": "both-and", "or": "both-or", "parity": "xor-family"}[shape]


def class_kind(n: int, table: int) -> str:
    """The label jagg's classify gives a named table (all-relevant, n >= 2)."""
    return {and_table(n): "and", or_table(n): "or", xor_table(n): "xor",
            nxor_table(n): "nxor"}[table]


def expected_normal_pairs(m: int, n: int) -> list[tuple[int, int]]:
    named = lambda k: [and_table(k), or_table(k), xor_table(k), nxor_table(k)]
    pairs = [(g, f) for g in named(m) for f in named(n)
             if normal_by_theorem(m, g, n, f)]
    return sorted(pairs)


def composites(m: int, gt: int, n: int, ft: int, matrix: int) -> tuple[bool, bool]:
    """(f of the column values of g, g of the row values of f) on one matrix;
    cell (i, j) is bit i*n + j."""
    cell = lambda i, j: bool(matrix >> (i * n + j) & 1)
    point = lambda values: sum(1 << k for k, v in enumerate(values) if v)
    cols = [bit(gt, point(cell(i, j) for i in range(m))) for j in range(n)]
    rows = [bit(ft, point(cell(i, j) for j in range(n))) for i in range(m)]
    return bit(ft, point(cols)), bit(gt, point(rows))


def matrix_code(rows) -> int:
    n = len(rows[0])
    return sum(1 << (i * n + j) for i, row in enumerate(rows)
               for j, v in enumerate(row) if v)


def check_pair_report(m: int, gt: int, n: int, ft: int, report: dict,
                      rng: random.Random) -> list[str]:
    """``report`` holds is_normal, violation, counterexample (rows),
    column_then_row and row_then_column, as check_normal_pair returns them."""
    name = f"({fn_spec(m, gt)}, {fn_spec(n, ft)})"
    want = normal_by_theorem(m, gt, n, ft)
    if report["is_normal"] != want:
        return [f"{name}: normal={report['is_normal']}, theorem says {want}"]
    if want:
        if report["violation"] is not None:
            return [f"{name}: normal pair reported with violation {report['violation']}"]
        for _ in range(64):
            lhs, rhs = composites(m, gt, n, ft, rng.getrandbits(m * n))
            if lhs != rhs:
                return [f"{name}: theorem pair fails to commute on a sampled matrix"]
        return []
    if report["violation"] != "commutation" or report["counterexample"] is None:
        return [f"{name}: all-relevant non-normal pair reported as "
                f"{report['violation']} without a counterexample"]
    code = matrix_code(report["counterexample"])
    lhs, rhs = composites(m, gt, n, ft, code)
    errors = []
    if (lhs, rhs) != (report["column_then_row"], report["row_then_column"]) or lhs == rhs:
        errors.append(f"{name}: counterexample {code:#x} evaluates to {(lhs, rhs)}, "
                      f"reported {(report['column_then_row'], report['row_then_column'])}")
    if code < 1 << 12:
        for earlier in range(code):
            a, b = composites(m, gt, n, ft, earlier)
            if a != b:
                errors.append(f"{name}: matrix {earlier:#x} disagrees before the "
                              f"reported first counterexample {code:#x}")
                break
    return errors


def check_enumeration(m: int, n: int, payload: dict) -> list[str]:
    """Check an ``enumerate-pairs --json`` payload against the theorem."""
    want = expected_normal_pairs(m, n)
    got = [(int(e["g"].split(":")[2], 16), int(e["f"].split(":")[2], 16))
           for e in payload.get("pairs", [])]
    errors = []
    if (payload.get("schema"), payload.get("m"), payload.get("n")) != (1, m, n):
        errors.append(f"({m},{n}): header {payload.get('schema')}, "
                      f"{payload.get('m')}, {payload.get('n')}")
    if got != want:
        errors.append(f"({m},{n}): pairs {[(fn_spec(m, g), fn_spec(n, f)) for g, f in got]}"
                      f", theorem gives {[(fn_spec(m, g), fn_spec(n, f)) for g, f in want]}")
        return errors
    for entry, (g, f) in zip(payload["pairs"], want):
        if (entry["g"], entry["f"]) != (fn_spec(m, g), fn_spec(n, f)):
            errors.append(f"({m},{n}): spelling {entry['g']}, {entry['f']}")
        if entry["case"] != pair_case(m, g, n, f):
            errors.append(f"({m},{n}): case {entry['case']} for {entry['g']}, {entry['f']}")
        if (entry["g_class"], entry["f_class"]) != ({"kind": class_kind(m, g)},
                                                    {"kind": class_kind(n, f)}):
            errors.append(f"({m},{n}): classes {entry['g_class']}, {entry['f_class']}")
    return errors


VERIFY_PAIRS_CHECKS = ["pairs/enumeration", "pairs/cases", "pairs/forceful-slice",
                       "pairs/counterexample-soundness", "pairs/arity-one-edge"]


def sampled_counterexamples(seed: int = 20260823) -> int:
    """How many of the pairs sampled by the pairs suite's soundness check
    reach the commutation sweep and fail it: the suite draws 300 pairs at
    (2,2), (2,3) or (3,2) from ``random.Random(seed)``."""
    rng = random.Random(seed)
    count = 0
    for _ in range(300):
        m, n = rng.choice([(2, 2), (2, 3), (3, 2)])
        gt = rng.randrange(1 << (1 << m))
        ft = rng.randrange(1 << (1 << n))
        if not (is_all_relevant(m, gt) and is_all_relevant(n, ft)):
            continue
        if any(a != b for a, b in (composites(m, gt, n, ft, x)
                                   for x in range(1 << (m * n)))):
            count += 1
    return count


def check_verify_pairs(payload: dict, counterexamples: int) -> list[str]:
    """Check a ``verify --suite pairs --json`` payload, timing fields aside."""
    errors = []
    if (payload.get("schema"), payload.get("suites"), payload.get("passed")) != (1, ["pairs"], True):
        errors.append(f"verify header {payload.get('schema')}, {payload.get('suites')}, "
                      f"passed={payload.get('passed')}")
    checks = payload.get("checks", [])
    if [c.get("name") for c in checks] != VERIFY_PAIRS_CHECKS:
        errors.append(f"verify checks {[c.get('name') for c in checks]}")
    errors += [f"verify check {c.get('name')} failed: {c.get('detail')}"
               for c in checks if c.get("passed") is not True]
    soundness = [c for c in checks if c.get("name") == "pairs/counterexample-soundness"]
    if soundness and not soundness[0]["detail"].startswith(f"{counterexamples} sampled"):
        errors.append(f"soundness detail {soundness[0]['detail']!r}, "
                      f"independent count is {counterexamples}")
    return errors


# --- agendas and rules ---------------------------------------------------------

# basis strings in jagg's syntax and, per scenario, the judgment each symbol
# assignment induces, written out by hand
SCENARIOS = {
    "or-closure": (["P", "Q", "P | Q"], ("P", "Q"), lambda P, Q: (P, Q, P or Q)),
    "three-atom-conjunction": (["P", "Q", "R", "(P | Q) & R"], ("P", "Q", "R"),
                               lambda P, Q, R: (P, Q, R, (P or Q) and R)),
    "parity-closure": (["P", "Q", "P ^ Q"], ("P", "Q"), lambda P, Q: (P, Q, P != Q)),
    "and-closure": (["P", "Q", "P & Q"], ("P", "Q"), lambda P, Q: (P, Q, P and Q)),
    "mixed-compounds": (["P", "Q", "P | Q", "P & Q"], ("P", "Q"),
                        lambda P, Q: (P, Q, P or Q, P and Q)),
}

# the compound's family, or None where the classification leaves dictators only
SCENARIO_FAMILY = {"or-closure": "or", "and-closure": "and",
                   "parity-closure": "xor", "three-atom-conjunction": None,
                   "mixed-compounds": None}


def rational_set(symbols: int, judge) -> tuple[list[tuple[bool, ...]], dict]:
    """Sorted distinct judgments over all assignments, with the first
    inducing assignment of each (symbol i is bit i of the assignment)."""
    first: dict[tuple[bool, ...], tuple[bool, ...]] = {}
    for mask in range(1 << symbols):
        values = tuple(bool(mask >> i & 1) for i in range(symbols))
        first.setdefault(tuple(judge(*values)), values)
    return sorted(first), first


def subset_table(n: int, kind: str, members: tuple[int, ...]) -> int:
    """and/or/xor over the judges in ``members``, ignoring the others."""
    reduce = {"and": all, "or": any, "xor": lambda v: sum(v) % 2 == 1}[kind]
    return table_of(n, lambda b: reduce([b[i] for i in members]))


def expected_uniform_rules(scenario: str, judges: int) -> list[tuple[int, tuple[int, ...], str]]:
    """(table, relevant judges, case) by the uniform-rule classification:
    dictators, plus oligarchies of the compound's family over every judge
    set of size >= 2 (odd size >= 3 for parity)."""
    kind = SCENARIO_FAMILY[scenario]
    out = [(dictator_table(judges, i), (i,), "dictator") for i in range(judges)]
    if kind is not None:
        for size in range(2, judges + 1):
            if kind == "xor" and size % 2 == 0:
                continue
            for members in combinations(range(judges), size):
                out.append((subset_table(judges, kind, members), members, "oligarchy"))
    return sorted(out)


def aggregate(table: int, profile) -> tuple[bool, ...]:
    """Apply one shared function position by position; judge i is input i."""
    return tuple(bit(table, sum(1 << i for i, j in enumerate(profile) if j[k]))
                 for k in range(len(profile[0])))


def first_inconsistency(rationals, judges: int, table: int):
    """First profile, in product order over the sorted rational judgments,
    whose aggregate is not rational, with that aggregate; else None."""
    valid = set(rationals)
    for profile in product(rationals, repeat=judges):
        out = aggregate(table, profile)
        if out not in valid:
            return profile, out
    return None


def is_symmetric(n: int, table: int) -> bool:
    return all(bit(table, p) == bit(table, q) for p in range(1 << n)
               for q in range(1 << n) if p.bit_count() == q.bit_count())


def flip_table(n: int, table: int) -> int:
    """s -> not f(not s): read the table backwards and negate it."""
    last = (1 << n) - 1
    return sum(1 << p for p in range(1 << n) if not bit(table, last - p))


def brute_force_rules(scenario: str, judges: int, *, unanimity: bool,
                      anonymous: bool = False, systematic: bool = False) -> list[int]:
    """Every consistent shared function with the requested axioms, by
    sweeping all tables and all profiles.  Candidates map T..T to T and
    F..F to F with ``unanimity``, else merely map them to different values."""
    _, symbols, judge = SCENARIOS[scenario]
    rationals, _ = rational_set(len(symbols), judge)
    out = []
    for table in range(1 << (1 << judges)):
        top, bottom = bit(table, (1 << judges) - 1), bit(table, 0)
        if top == bottom or (unanimity and not top):
            continue
        if anonymous and not is_symmetric(judges, table):
            continue
        if systematic and flip_table(judges, table) != table:
            continue
        if first_inconsistency(rationals, judges, table) is None:
            out.append(table)
    return out


def check_uniform_rules(scenario: str, judges: int, got: list) -> list[str]:
    """``got`` lists (table, relevant, case) as enumerate_uniform_rules
    returns them, in its order."""
    want = expected_uniform_rules(scenario, judges)
    errors = []
    if [t for t, _, _ in got] != sorted(t for t, _, _ in got):
        errors.append(f"{scenario} n={judges}: solutions not in ascending table order")
    if sorted(got) != want:
        errors.append(f"{scenario} n={judges}: got {[(fn_spec(judges, t), r, c) for t, r, c in got]}"
                      f", classification gives {[(fn_spec(judges, t), r, c) for t, r, c in want]}")
    return errors


def check_rules_consistent(scenario: str, judges: int, tables: list[int]) -> list[str]:
    """Re-check that every reported rule is consistent, profile by profile."""
    _, symbols, judge = SCENARIOS[scenario]
    rationals, _ = rational_set(len(symbols), judge)
    return [f"{scenario} n={judges}: {fn_spec(judges, t)} is inconsistent"
            for t in tables if first_inconsistency(rationals, judges, t) is not None]


def check_paradox(verdict: dict) -> list[str]:
    """Majority of three on the and-closure: the doctrinal paradox."""
    _, symbols, judge = SCENARIOS["and-closure"]
    rationals, _ = rational_set(len(symbols), judge)
    majority = table_of(3, lambda b: sum(b) >= 2)
    want = first_inconsistency(rationals, 3, majority)
    got = verdict["counterexample"]
    errors = []
    if verdict["consistent"] or got is None:
        errors.append("majority of 3 on the and-closure reported consistent")
    elif (tuple(map(tuple, got[0])), tuple(got[1])) != want:
        errors.append(f"paradox counterexample {got}, first failing profile is {want}")
    flags = (verdict["unanimity_preserving"], verdict["anonymous"], verdict["systematic"])
    if flags != (True, True, True):
        errors.append(f"majority of 3 axiom flags {flags}, expected all true")
    return errors


# --- generated agendas ---------------------------------------------------------


def random_agenda(rng: random.Random, symbols: int, entries: int):
    """Basis strings over s00..s{symbols-1} (sorted names follow index order)
    with a Python predicate per entry.

    Every entry is a random formula over 2 to 5 symbols that depends on all
    of them, and no two entries use the same symbol set, so no entry is a
    tautology, a contradiction, a duplicate or another's negation.  Every
    symbol occurs somewhere.
    """
    names = [f"s{i:02d}" for i in range(symbols)]
    used: set[frozenset[int]] = set()
    basis: list[tuple[str, str]] = []
    while len(basis) < entries:
        uncovered = [i for i in range(symbols)
                     if not any(i in s for s in used)]
        size = rng.randint(2, 5)
        pool = uncovered[:size] if len(uncovered) >= size else \
            uncovered + rng.sample([i for i in range(symbols) if i not in uncovered],
                                   size - len(uncovered))
        members = tuple(sorted(pool))
        if frozenset(members) in used:
            continue
        text, expr = _random_formula(rng, list(members), names)
        fn = eval(f"lambda v: {expr}")
        local = table_of(len(members), lambda b: fn(dict(zip(members, b))))
        if not is_all_relevant(len(members), local):
            continue
        used.add(frozenset(members))
        basis.append((text, expr))
    if len({i for s in used for i in s}) != symbols:
        raise ValueError("generated agenda misses a symbol")
    return [t for t, _ in basis], [e for _, e in basis]


def _random_formula(rng: random.Random, members: list[int], names: list[str]):
    """(jagg text, Python expression over v[i]) for a formula using every member."""
    if len(members) == 1:
        i = members[0]
        if rng.random() < 0.3:
            return f"!{names[i]}", f"(not v[{i}])"
        return names[i], f"v[{i}]"
    rng.shuffle(members)
    cut = rng.randint(1, len(members) - 1)
    lt, le = _random_formula(rng, members[:cut], names)
    rt, re_ = _random_formula(rng, members[cut:], names)
    op = rng.choice(["&", "|", "^"])
    py = {"&": "and", "|": "or", "^": "!="}[op]
    text = f"({lt} {op} {rt})"
    if rng.random() < 0.2:
        return f"!{text}", f"(not ({le} {py} {re_}))"
    return text, f"(bool({le}) {py} bool({re_}))"


def agenda_rationals(symbols: int, exprs: list[str]):
    """Rational set of a generated agenda from its Python predicates."""
    fns = [eval(f"lambda v: {e}") for e in exprs]
    return rational_set(symbols, lambda *v: tuple(bool(f(v)) for f in fns))


def check_rationals(want, got_judgments, got_witnesses, symbols: tuple[str, ...],
                    names: list[str]) -> list[str]:
    ordered, first = want
    errors = []
    if tuple(symbols) != tuple(names):
        errors.append(f"agenda symbols {symbols[:4]}..., expected {names[:4]}...")
    if list(got_judgments) != ordered:
        errors.append(f"{len(got_judgments)} rational judgments, direct evaluation "
                      f"gives {len(ordered)} (or a different set)")
        return errors
    for j, w in zip(got_judgments, got_witnesses):
        if tuple(w) != first[tuple(j)]:
            errors.append(f"witness {w} for {j} is not the first inducing assignment")
            break
    return errors


# --- self-checks ---------------------------------------------------------------


def self_check(workload: str) -> list[str]:
    """Feed each oracle this workload uses a wrong answer; every one must
    object.  Returns the oracles that let a wrong answer through."""
    rng = random.Random(7)
    missed = []

    def expect_rejects(label: str, errors: list[str]) -> None:
        if not errors:
            missed.append(label)

    if workload == "spectra":
        t = rng.getrandbits(16)
        good = {s: coefficient(4, t, s) for s in range(16)}
        if check_coefficients(4, t, good):
            missed.append("coefficients reject a right spectrum")
        bad = dict(good)
        bad[5] += Fraction(1, 8)
        expect_rejects("perturbed arity-4 coefficient", check_coefficients(4, t, bad))
        big = rng.getrandbits(1 << 10)
        wrong = coefficient(10, big, 3) + Fraction(1, 1 << 9)
        expect_rejects("perturbed arity-10 coefficient",
                       check_coefficients(10, big, {3: wrong}))
        if coefficient_by_count(6, t * 7 % (1 << 64), 45) != coefficient(6, t * 7 % (1 << 64), 45):
            missed.append("counting and direct sums disagree")
        spec = [closed_form("and", 4, s) for s in range(16)]
        spec[0] = -spec[0]
        expect_rejects("and:4 with a wrong mean",
                       check_closed_forms({("and", 0): spec}, 4))
    elif workload == "pairs":
        expect_rejects("(or:2, and:2) reported as normal", check_pair_report(
            2, or_table(2), 2, and_table(2),
            {"is_normal": True, "violation": None, "counterexample": None,
             "column_then_row": None, "row_then_column": None}, rng))
        expect_rejects("(xor:4, nxor:4) with swapped composite values", check_pair_report(
            4, xor_table(4), 4, nxor_table(4),
            {"is_normal": False, "violation": "commutation",
             "counterexample": ((False,) * 4,) * 4,
             "column_then_row": False, "row_then_column": True}, rng))
        pairs = expected_normal_pairs(2, 3)[1:]
        payload = {"schema": 1, "m": 2, "n": 3, "pairs": [
            {"g": fn_spec(2, g), "f": fn_spec(3, f), "case": pair_case(2, g, 3, f),
             "g_class": {"kind": class_kind(2, g)}, "f_class": {"kind": class_kind(3, f)}}
            for g, f in pairs]}
        expect_rejects("(2,3) enumeration missing a pair", check_enumeration(2, 3, payload))
        payload = {"schema": 1, "suites": ["pairs"], "passed": True, "checks": [
            {"name": name, "passed": True, "detail": "1 sampled"} for name in VERIFY_PAIRS_CHECKS]}
        expect_rejects("verify with a wrong soundness count", check_verify_pairs(payload, 2))
    elif workload == "rules":
        want = expected_uniform_rules("or-closure", 3)
        expect_rejects("or-closure rules missing a dictator",
                       check_uniform_rules("or-closure", 3, want[1:]))
        expect_rejects("and of two judges reported consistent on the parity closure",
                       check_rules_consistent("parity-closure", 2, [and_table(2)]))
        expect_rejects("majority reported consistent on the and-closure", check_paradox(
            {"consistent": True, "counterexample": None, "unanimity_preserving": True,
             "anonymous": True, "systematic": True}))
        want = rational_set(2, lambda a, b: (a, a or b))
        expect_rejects("rational set missing a judgment",
                       check_rationals(want, want[0][1:], [], ("s00", "s01"), ["s00", "s01"]))
        if brute_force_rules("or-closure", 3, unanimity=True) != sorted(
                t for t, _, _ in expected_uniform_rules("or-closure", 3)):
            missed.append("brute force and classification disagree on the or-closure")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return missed
