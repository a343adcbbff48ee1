"""Proposition-independent judgment aggregation rules and their axioms.

A rule for n judges assigns each basis position its own Boolean function of
the judges' votes on that position.  Consistency means every profile of
fully rational judgments aggregates to a fully rational judgment; the other
axioms checked here are unanimity preservation (constant inputs pass
through), anonymity (judge order never matters), and systematicity (one
function serves every proposition and its negation alike).

Consistency is decided for all profiles at once, as pairs are over all
matrices: each judge's vote at each position becomes a column over the
profile space, every function is applied through ``boolfn.compose``, and the
rational set is itself a Boolean function of the basis positions, composed
onto the aggregate columns.  Both rule enumerations turn this around in one
candidate sweep and layout over the rational points: a candidate holds the
2**n - 2 points of each table that unanimity leaves free (a rule without
unanimity is a negated one), a column per position and point holds the
candidates T there, and each profile composes the rational set onto the
columns the judges vote, which leaves the candidates still consistent.
The sweep is one loop up the judge count.  A profile where two judges vote
alike is a profile of the rule with those judges made one, so each count
starts from one ``compose`` of the last count's survivors onto the columns
of that minor, and composes only the judge-sorted profiles of distinct
judgments (11 over all counts at 4 judges on four judgments, for 256
profiles; count 1 composes none, since its one candidate, the identity,
maps every one-judge profile into U).  The survivors are then cut to their
largest subset closed under judge permutations, with delta swaps over the
whole candidate set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterable, Sequence

from .agenda import (Agenda, Judgment, RationalSet, _positions, build_agenda,
                     rational_judgments)
from .boolfn import (BoolFn, FnClass, _flip_table, _input_lifts, classify_on_relevant,
                     compose, repeat_bits, stretch_bits)
from .config import DEFAULT, BudgetError, Config, charge
from .formula import negate


@dataclass(frozen=True)
class PiJar:
    """A per-proposition rule: ``functions[k]`` aggregates basis position k."""

    agenda: Agenda
    judges: int
    functions: tuple[BoolFn, ...]

    def __post_init__(self) -> None:
        if self.judges < 1:
            raise ValueError("need at least one judge")
        if len(self.functions) != len(self.agenda):
            raise ValueError(f"expected {len(self.agenda)} functions, "
                             f"got {len(self.functions)}")
        for k, f in enumerate(self.functions):
            if f.n != self.judges:
                raise ValueError(f"functions[{k}] has arity {f.n}, "
                                 f"expected {self.judges}")

    def aggregate(self, profile: Sequence[Judgment]) -> Judgment:
        """Apply the rule position-wise to a tuple of judges' judgments."""
        if len(profile) != self.judges:
            raise ValueError(f"expected {self.judges} judgments, got {len(profile)}")
        return tuple(f(*votes) for f, votes
                     in zip(self.functions, zip(*profile), strict=True))


@dataclass(frozen=True)
class JarVerdict:
    """Axiom report; ``counterexample`` is a (profile, aggregate) pair present
    exactly when the rule is inconsistent, the first failure in profile order
    over the sorted rational judgments."""

    consistent: bool
    unanimity_preserving: bool
    anonymous: bool
    systematic: bool
    counterexample: tuple[tuple[Judgment, ...], Judgment] | None = None


def uniform_jar(agenda: Agenda, fn: BoolFn) -> PiJar:
    """The rule using one function for every basis position."""
    return PiJar(agenda, fn.n, (fn,) * len(agenda))


def _points(rs: RationalSet) -> list[int]:
    """Each rational judgment j as the point sum(j[k] << k) over the basis."""
    return [sum(b << k for k, b in enumerate(j)) for j in rs.judgments]


def _rational_fn(points: Sequence[int], positions: int, config: Config) -> BoolFn:
    """The rational points as a Boolean function of the ``positions`` basis
    positions, after checking that arity against the arity cap."""
    if positions > config.arity_cap:
        raise BudgetError(f"{positions} basis entries exceed the cap of "
                          f"{config.arity_cap}")
    return BoolFn(positions, sum(1 << p for p in points))


def _profile_columns(rs: RationalSet, judges: int, config: Config,
                     ) -> tuple[int, list[list[int]], BoolFn]:
    """The profile count, ``cols[k][i]`` (judge i says T at position k) as a
    column over all profiles, and the rational set as a Boolean function.

    Profiles run in ``product`` order over the sorted rational judgments,
    first judge most significant, so the lowest set bit of a set of profiles
    is its first profile in that order.
    """
    rational = _rational_fn(_points(rs), len(rs.agenda), config)
    size = len(rs.judgments)
    width = size ** judges
    blocks = [size ** (judges - 1 - i) for i in range(judges)]
    cols = []
    for k in range(len(rs.agenda)):
        column = sum(1 << u for u, j in enumerate(rs.judgments) if j[k])
        cols.append([repeat_bits(stretch_bits(column, size, block), size * block, width)
                     for block in blocks])
    return width, cols, rational


def _axioms(functions: Sequence[BoolFn]) -> tuple[bool, bool, bool]:
    """Unanimity preservation, anonymity and systematicity of a rule.

    f(F, ..., F) is table bit 0 and f(T, ..., T) bit 2**n - 1."""
    up = all(not f.table & 1 and f.table >> (f.points - 1) & 1 for f in functions)
    anonymous = all(f.is_symmetric() for f in functions)
    first = functions[0]
    shared = all(f == first for f in functions)
    return up, anonymous, shared and _flip_table(first.n, first.table) == first.table


def check_jar(jar: PiJar, *, config: Config = DEFAULT) -> JarVerdict:
    """Sweep all |U|**n profiles for consistency and evaluate the axioms.

    The sweep is charged |U|**n work units, one per profile, up front.

    Unanimity preservation reduces to f_k(c, ..., c) = c because every basis
    entry is non-degenerate, so both unanimous columns occur in profiles.
    Anonymity is symmetry of every per-position function; systematicity is
    one shared function that also equals its own flip (the flip is what the
    function becomes on a negated proposition).
    """
    rs = rational_judgments(jar.agenda)
    charge(config, len(rs.judgments) ** jar.judges,
           f"checking a rule for {jar.judges} judges", "|U|**judges within budget")
    width, cols, rational = _profile_columns(rs, jar.judges, config)
    aggregates = [compose(f, cols[k], width) for k, f in enumerate(jar.functions)]
    bad = ((1 << width) - 1) ^ compose(rational, aggregates, width)
    counterexample = None
    if bad:
        first, size = (bad & -bad).bit_length() - 1, len(rs.judgments)
        profile = tuple(rs.judgments[first // size ** (jar.judges - 1 - i) % size]
                        for i in range(jar.judges))
        counterexample = (profile, jar.aggregate(profile))
    return JarVerdict(not bad, *_axioms(jar.functions), counterexample)


RELATION_EQUAL = "equal"
RELATION_FLIP = "flip"
RELATION_VIOLATION = "violation"
RELATION_NOT_APPLICABLE = "not-applicable"


def dependent_pair_relation(jar: PiJar, x: int, y: int) -> str:
    """How the function at ``y`` relates to the function at ``x``.

    Applicable when some two rational judgments differ exactly on positions
    x and y (so y reacts to x) and y is fixed by the other positions.  For a
    consistent unanimity-preserving rule the answer is then 'equal' or
    'flip'; 'violation' flags anything else.
    """
    size = len(jar.agenda)
    if x == y:
        raise ValueError("positions must differ")
    if not (0 <= x < size and 0 <= y < size):
        raise ValueError(f"positions ({x}, {y}) out of range for {size} basis entries")
    # y reacts to x when two rational points differ exactly at x and y, and
    # is fixed by the other positions when no two differ exactly at y
    points = set(_points(rational_judgments(jar.agenda)))
    if (not any(p ^ (1 << x | 1 << y) in points for p in points)
            or any(p ^ (1 << y) in points for p in points)):
        return RELATION_NOT_APPLICABLE
    fx, fy = jar.functions[x], jar.functions[y]
    if fy == fx:
        return RELATION_EQUAL
    if fy == fx.flip():
        return RELATION_FLIP
    return RELATION_VIOLATION


def to_normal_form(jar: PiJar, *, config: Config = DEFAULT,
                   ) -> tuple[PiJar, tuple[int, ...]]:
    """Re-represent the rule so every position uses the same function.

    Positions whose function is the flip of position 0's function get their
    basis formula negated (which flips the function back); the returned
    tuple lists those positions.  Requires a symbol-complete, symbol-connected
    agenda and a rule whose functions pairwise match up to flip.
    """
    agenda = jar.agenda
    if not agenda.is_symbol_complete() or not agenda.is_symbol_connected():
        raise ValueError("normal form needs a symbol-complete, symbol-connected agenda")
    base = jar.functions[0]
    new_basis = list(agenda.basis)
    flipped: list[int] = []
    for k, f in enumerate(jar.functions):
        if f == base:
            continue
        if f == base.flip():
            new_basis[k] = negate(agenda.basis[k])
            flipped.append(k)
        else:
            raise ValueError(f"functions[{k}] is neither functions[0] nor its flip")
    new_agenda = build_agenda(new_basis, config=config)
    return PiJar(new_agenda, jar.judges, (base,) * len(new_agenda)), tuple(flipped)


# --- enumeration ------------------------------------------------------------

CASE_DICTATOR = "dictator"
CASE_OLIGARCHY = "oligarchy"
CASE_UNCONSTRAINED = "unconstrained"
CASE_VIOLATION = "violation"

OLIGARCHY_KINDS = ("and", "or", "xor", "nxor")


@dataclass(frozen=True)
class UniformSolution:
    """A consistent single-function rule and the shape of that function.

    ``restriction_class`` labels the function induced on ``relevant``; the
    case is 'dictator' for a one-judge projection, 'oligarchy' for a named
    family over two or more judges, 'unconstrained' for other shapes on
    all-atomic agendas, and 'violation' for other shapes when a compound is
    present (the sweeps never produce one; see the uniform verify suite).
    """

    fn: BoolFn
    relevant: tuple[int, ...]
    restriction_class: FnClass
    case: str
    anonymous: bool
    systematic: bool


def _solution_case(fn: BoolFn, has_compound: bool) -> UniformSolution:
    label, relevant = classify_on_relevant(fn)
    if label.kind == "dictator" and len(relevant) == 1:
        case = CASE_DICTATOR
    elif label.kind in OLIGARCHY_KINDS and len(relevant) >= 2:
        case = CASE_OLIGARCHY
    elif not has_compound:
        case = CASE_UNCONSTRAINED
    else:
        case = CASE_VIOLATION
    # the axioms of one function, read off its table: symmetry, and being its
    # own flip; the frozen dataclass is filled without its ``__setattr__``
    # once per field
    solution = object.__new__(UniformSolution)
    solution.__dict__.update(fn=fn, relevant=relevant, restriction_class=label, case=case,
                             anonymous=fn.is_symmetric(),
                             systematic=_flip_table(fn.n, fn.table) == fn.table)
    return solution


@cache
def _judge_swaps(judges: int, offsets: tuple[int, ...], bits: int
                 ) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``_judge_closure``'s generators on ``bits``-bit candidates whose tables
    start at ``offsets``: per adjacent judge swap, its delta swaps as (mask,
    shift).  Built on first use of a layout and kept, as ``_input_lifts`` is."""
    var = [high for _, _, high, _ in _input_lifts(bits)]
    return tuple(tuple((var[p] ^ (var[p] & var[q]), (1 << q) - (1 << p))
                       for at in offsets for x in range(1 << judges) if x >> i & 3 == 1
                       for p, q in ((at + x - 1, at + x - 1 + (1 << i)),))
                 for i in range(judges - 1))


def _judge_closure(alive: int, judges: int, offsets: Sequence[int],
                   var: Sequence[int]) -> int:
    """The largest subset of the candidate set ``alive`` closed under
    permuting the judges, in ``_rule_sweep``'s layout.

    ``var[p]`` is the set of candidates with bit p, as ``_input_lifts``
    gives it; table k holds inner point x at bit ``offsets[k] + x - 1``.
    The generators are the adjacent judge swaps (i, i+1), as in
    ``BoolFn.is_symmetric``: each exchanges, in every table, each point x
    with (x_i, x_i+1) = (T, F) and the point x + 2**i.  With p and
    q = p + 2**i their bits, that is one delta swap over the whole candidate
    set, of the candidates with bit p and not bit q onto those 2**q - 2**p
    above.  They depend on the layout alone, so ``_judge_swaps`` keeps them
    per judge count, offsets and candidate width.  Each round intersects
    ``alive`` with its image under every generator in turn, so after r
    rounds ``alive`` lies in the image under every product of a subsequence
    of r rounds' generators.  A bubble sort writes every judge permutation
    as judges - 1 passes, each such a subsequence of one round, so
    judges - 1 rounds reach the closure; a round that changes nothing ends
    the loop sooner.
    """
    generators = _judge_swaps(judges, tuple(offsets), len(var))
    for _ in range(judges - 1):
        before = alive
        for swaps in generators:
            image = alive
            for low, shift in swaps:
                moved = (image >> shift ^ image) & low
                image ^= moved | moved << shift
            alive &= image
        if alive == before:
            break
    return alive


def _rule_sweep(points: Sequence[int], positions: int, judges: int, *,
                shared: bool, config: Config) -> list[tuple[int, ...]]:
    """The unanimity-preserving rules consistent on a relation, their tables
    ascending: one table used at every position when ``shared``, else one
    table per position.  The relation is the rational ``points`` on
    ``positions`` basis positions, bit k of a point being position k (as
    ``_points`` gives them).

    Unanimity fixes each table at points 0 and 2**judges - 1, so candidate c
    holds the ``free`` other points of the k-th of its ``blocks`` tables at
    bit free*(blocks-1-k).  ``columns[k][x]`` is the set of candidates whose
    position-k function is T at point x, and a profile voting x_k at each
    position k keeps the candidates in ``compose(rational, [columns[k][x_k]
    ...])``.

    The sweep is one loop over the judge counts 1 to ``judges``, with the
    same ``shared``, that carries the survivors ``alive`` from count to
    count.  A profile in which judges i and j vote alike is a
    profile of the (i, j) minor, the rule with those two judges made one,
    which has n - 1 judges.  So count n starts from the candidates whose
    minor with judges 0 and 1 made one survived count n - 1: one
    ``compose`` of the last survivors, a Boolean function of the last
    count's candidate bits, whose bit for table k at minor point y reads
    column k at point (y & 1) | y << 1.  Then only the judge-sorted
    profiles of pairwise distinct judgments are composed, C(|U|, n) of the
    |U|**n: 11 over the counts 2 to 4 of a 4-judge sweep on four judgments,
    and none past count |U|.  Count 1 composes none: its one candidate, the
    identity table, maps each one-judge profile (u) to u, which is in U.  A
    profile is one int, judgment u spread to one ``judges``-bit field per
    position and judge i's vote shifted up by i, so the point a position's
    column is read at is that position's field.  The survivors are cut to
    their largest subset closed under judge permutations
    (``_judge_closure``).  That is exact: a rule in a closed subset passes a
    profile with a repeated judgment, since relabelling the judges moves the
    repeat to judges 0 and 1 and keeps the rule in the subset, and a
    distinct profile, since it sorts into a composed one.  The candidate
    columns are read from the kept ``_input_lifts(bits)``, and candidates
    are decoded to tables once, after the last count.  4-judge shared
    sweeps take 0.13-0.16 ms on the three- and four-entry scenario agendas
    and 1.3 ms on the three-atom agenda, and 3-judge independent sweeps
    0.67-0.81 ms; in process, best of 50 over three runs, on a shared 2-core
    machine (Python 3.11).

    The charge bounds the work of all counts in big-int operations on 1024
    bits, each on at most 2**bits bits.  At count m:
    - each composed profile costs (|U| + 1) * (|basis| + 1): compose ANDs
      |basis| columns into each of |U| terms and ORs it in, negates each
      column at most once, and ANDs into the survivors.  The C(|U|, m)
      summed over all counts are at most |U|**judges: a set of m judgments
      written ascending, its last one repeated up to ``judges`` votes, is a
      profile, and no two sets give the same one;
    - the lift costs at most (|R| + 1) * (M + 1), with M = blocks * 2**(m-1)
      minor points and |R| at most the 2**bits candidates of count m - 1:
      its ``compose`` negates each of its fewer than M arguments at most
      once, and per term, one per survivor or per non-survivor, whichever
      are fewer, ANDs at most M arguments and XORs the term in;
    - the closure costs at most m * (m - 1) * (3M + 1): 2 operations per
      delta swap to build the generators on a layout's first use, then
      m - 1 rounds of m - 1 generators of M / 2 delta swaps, 6 operations
      each, with an AND per generator and a comparison per round.
    Lift and closure grow with m, so the charge counts them judges - 1 times
    at the top count's size.  Without them ``["P"]`` at 4 judges would be
    charged 96 operations, fewer than its closure's 216.
    """
    if judges < 1:
        raise ValueError("need at least one judge")
    rational = _rational_fn(points, positions, config)
    size, blocks, cap = len(points), 1 if shared else positions, config.arity_cap
    # 2**judges > cap iff judges >= cap.bit_length(), and one judge past that
    # (2**judges - 2) * blocks is at least 2 * cap
    if shared and judges >= cap.bit_length():
        raise BudgetError(f"{judges} judges give 2**{_refused_bits(judges, 0)} "
                          f"candidate tables, beyond 2**{cap}")
    if not shared and (judges > cap.bit_length() or ((1 << judges) - 2) * blocks > cap):
        raise BudgetError(f"{judges} judges on {positions} basis entries give "
                          f"2**{_refused_bits(judges, blocks)} candidate rules, "
                          f"beyond 2**{cap}")
    edge = ((1 << judges) - 2) * blocks
    # M minor points, and the candidate count one judge down, which bounds |R|
    minor = blocks << judges - 1
    lower = 1 << (edge // 2 - blocks) if judges > 1 else 0
    steps = (lower + 1) * (minor + 1) + judges * (judges - 1) * (3 * minor + 1)
    work = ((size ** judges * (size + 1) * (positions + 1) + (judges - 1) * steps)
            * max(1, (1 << edge) >> 10))
    charge(config, work, f"{'uniform' if shared else 'independent'}-rule sweep for "
           f"{judges} judges", "(|U|**judges * (|U| + 1) * (|basis| + 1) + (judges - 1) "
           "* (lift + closure)) * 2**bits / 2**10 within budget, bits being "
           "2**judges - 2 per swept table, e.g. 4 shared or 3 independent judges on "
           "3 entries")
    # point u spread to one judges-bit field per position, so a profile is
    # the sum of spread[u_i] << i and votes x_k, its field at position k
    spread = [sum((u >> k & 1) << k * judges for k in range(positions)) for u in points]
    fields, field = [k * judges for k in range(positions)], (1 << judges) - 1
    bits = 0
    for n in range(1, judges + 1):
        free = (1 << n) - 2
        last, bits = bits, free * blocks
        offsets = [free * (blocks - 1 - k) for k in range(blocks)]
        if n == 1:   # the identity passes every profile (u), composing none
            alive = 1
            continue
        lifts = _input_lifts(bits)
        var = [high for _, _, high, _ in lifts]
        columns = [[0, *var[at:at + free], lifts[0][3]] for at in offsets]
        # the last count's bit for table k at inner point y reads column k
        # at (y & 1) | y << 1
        minor = [col[(y & 1) | y << 1] for col in reversed(columns)
                 for y in range(1, free >> 1)]
        alive = compose(BoolFn(last, alive), minor, 1 << bits)
        if shared:
            columns *= positions
        for us in combinations(spread, n):
            profile = sum(u << i for i, u in enumerate(us))
            alive &= compose(rational, [col[profile >> at & field]
                                        for col, at in zip(columns, fields)], 1 << bits)
        alive = _judge_closure(alive, n, offsets, var)
    low, top = (1 << free) - 1, 1 << (free + 1)
    rules = []
    while alive:   # lowest survivor first, touching no bit of the others
        c = (alive & -alive).bit_length() - 1
        alive ^= 1 << c
        rules.append(tuple((c >> at & low) << 1 | top for at in offsets))
    return sorted(rules)


def _refused_bits(judges: int, blocks: int) -> str:
    """A refused sweep's candidate bits, 2**judges for a shared table (no
    ``blocks``) or (2**judges - 2) * blocks: in digits while they print,
    else as that formula, so no huge power of two is formed to say it."""
    if judges <= 1 << 16:   # 2**2**16 has 19 729 digits, past the default limit
        try:
            return str(((1 << judges) - 2) * blocks if blocks else 1 << judges)
        except ValueError:   # more digits than int to str conversion allows
            pass
    return f"((2**{judges} - 2) * {blocks})" if blocks else f"(2**{judges})"


def enumerate_uniform_rules(agenda: Agenda, judges: int, *,
                            require_up: bool = True,
                            config: Config = DEFAULT) -> list[UniformSolution]:
    """All consistent rules using one shared function, ascending table order.

    With ``require_up`` (the default) candidates must preserve unanimity.
    Without it, candidates must still answer opposite unanimities oppositely
    (f(T..T) != f(F..F)), which adds the negations of unanimity-preserving
    rules and no constant rule.  The negation of g is consistent iff g maps
    every profile into the negated rational judgments -U; the unanimous
    profiles make that force -U = U, and then it says g is consistent.  So
    one sweep over the candidates (``_rule_sweep``), each the shared table's
    2**judges - 2 inner points, finds every g, and their negations join iff
    U is closed under negation.  The arity cap bounds 2**judges.

    The charge covers the sweep only, not the labels of its survivors
    (``_solution_case``), which are most of a call on agendas with few
    constraints: on ["P", "Q"] at 4 judges the sweep takes 24-25 ms and the
    call 0.15 s for 16 384 rules with unanimity and 0.28 s for 32 768
    without (in process, best of 5 over three runs, on a shared 2-core
    machine).
    """
    points = _points(rational_judgments(agenda))
    tables = [t for t, in _rule_sweep(points, len(agenda), judges, shared=True, config=config)]
    full = (1 << len(agenda)) - 1
    if not require_up and {p ^ full for p in points} == set(points):
        tables = sorted(tables + [t ^ ((1 << (1 << judges)) - 1) for t in tables])
    has_compound = agenda.has_compound()
    return [_solution_case(BoolFn(judges, t), has_compound) for t in tables]


def enumerate_independent_rules(agenda: Agenda, judges: int, *,
                                config: Config = DEFAULT) -> list[PiJar]:
    """All consistent unanimity-preserving rules with positions chosen
    independently, in ascending order of the per-position table tuple.

    It runs the uniform rules' candidate sweep (``_rule_sweep``) with one
    table per position; the arity cap bounds its width (2**judges - 2)*|basis|.
    """
    tables = _rule_sweep(_points(rational_judgments(agenda)), len(agenda), judges,
                         shared=False, config=config)
    return [PiJar(agenda, judges, tuple(BoolFn(judges, t) for t in ts)) for ts in tables]


def filter_axioms(solutions: Iterable[UniformSolution | PiJar], *,
                  anonymous: bool = False, systematic: bool = False,
                  ) -> list[UniformSolution | PiJar]:
    """Keep solutions satisfying the requested axioms."""
    kept = []
    for sol in solutions:
        if isinstance(sol, UniformSolution):
            ok_anon, ok_sys = sol.anonymous, sol.systematic
        else:
            _, ok_anon, ok_sys = _axioms(sol.functions)
        if anonymous and not ok_anon:
            continue
        if systematic and not ok_sys:
            continue
        kept.append(sol)
    return kept


def restrict_jar(jar: PiJar, positions: Sequence[int], *,
                 config: Config = DEFAULT) -> PiJar:
    """The rule induced on a sub-basis (same judges, functions carried over)."""
    pos = _positions(jar.agenda, positions)
    sub = build_agenda([jar.agenda.basis[k] for k in pos], config=config)
    return PiJar(sub, jar.judges, tuple(jar.functions[k] for k in pos))
