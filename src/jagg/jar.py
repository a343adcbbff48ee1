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
onto the aggregate columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

from .agenda import Agenda, Judgment, RationalSet, build_agenda, rational_judgments
from .boolfn import BoolFn, FnClass, all_tables, classify, compose, repeat_bits
from .config import DEFAULT, BudgetError, Config, charge


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
        out = []
        for k, f in enumerate(self.functions):
            point = 0
            for i, judgment in enumerate(profile):
                if judgment[k]:
                    point |= 1 << i
            out.append(f.value(point))
        return tuple(out)


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


def _profile_columns(rs: RationalSet, judges: int, config: Config,
                     ) -> tuple[int, list[list[int]], BoolFn]:
    """The profile count, ``cols[k][i]`` (judge i says T at position k) as a
    column over all profiles, and the rational set as a Boolean function.

    Profiles run in ``product`` order over the sorted rational judgments,
    first judge most significant, so the lowest set bit of a set of profiles
    is its first profile in that order.  The rational set is a function of
    arity |basis|, so the basis is held to the arity cap.
    """
    size = len(rs.judgments)
    width = size ** judges
    if width > config.profile_cap:
        raise BudgetError(f"{width} profiles exceed the cap of {config.profile_cap}")
    if len(rs.agenda) > config.arity_cap:
        raise BudgetError(f"{len(rs.agenda)} basis entries exceed the cap of "
                          f"{config.arity_cap}")
    cols: list[list[int]] = []
    for k in range(len(rs.agenda)):
        cols.append([])
        for i in range(judges):
            block = size ** (judges - 1 - i)
            pattern = sum(((1 << block) - 1) << (u * block)
                          for u, j in enumerate(rs.judgments) if j[k])
            cols[k].append(repeat_bits(pattern, size * block, width))
    points = (sum(b << k for k, b in enumerate(j)) for j in rs.judgments)
    return width, cols, BoolFn(len(rs.agenda), sum(1 << p for p in points))


def _irrational(rational: BoolFn, aggregates: Sequence[int], width: int) -> int:
    """The profiles, as a bit set, whose aggregate judgment is not rational."""
    return ((1 << width) - 1) ^ compose(rational, aggregates, width)


def _axioms(functions: Sequence[BoolFn]) -> tuple[bool, bool, bool]:
    """Unanimity preservation, anonymity and systematicity of a rule."""
    up = all(f(*(c,) * f.n) == c for f in functions for c in (False, True))
    anonymous = all(f.is_symmetric() for f in functions)
    shared = all(f == functions[0] for f in functions)
    return up, anonymous, shared and functions[0] == functions[0].flip()


def check_jar(jar: PiJar, *, config: Config = DEFAULT) -> JarVerdict:
    """Sweep all |U|**n profiles for consistency and evaluate the axioms.

    Unanimity preservation reduces to f_k(c, ..., c) = c because every basis
    entry is non-degenerate, so both unanimous columns occur in profiles.
    Anonymity is symmetry of every per-position function; systematicity is
    one shared function that also equals its own flip (the flip is what the
    function becomes on a negated proposition).
    """
    rs = rational_judgments(jar.agenda)
    width, cols, rational = _profile_columns(rs, jar.judges, config)
    bad = _irrational(rational, [compose(f, cols[k], width)
                                 for k, f in enumerate(jar.functions)], width)
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


def dependent_pair_relation(jar: PiJar, x: int, y: int, *,
                            config: Config = DEFAULT) -> str:
    """How the function at ``y`` relates to the function at ``x``.

    Applicable when some two rational judgments differ exactly on positions
    x and y (so y reacts to x) and y is fixed by the other positions.  For a
    consistent unanimity-preserving rule the answer is then 'equal' or
    'flip'; 'violation' flags anything else.
    """
    if x == y:
        raise ValueError("positions must differ")
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
    determined: dict[tuple[bool, ...], bool] = {}
    fixed = True
    for j in rs.judgments:
        key = tuple(j[k] for k in rest)
        if determined.setdefault(key, j[y]) != j[y]:
            fixed = False
            break
    if not depends or not fixed:
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
    from .formula import negate
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
    restriction, relevant = fn.on_relevant()
    label = classify(restriction)
    if label.kind == "dictator" and len(relevant) == 1:
        case = CASE_DICTATOR
    elif label.kind in OLIGARCHY_KINDS and len(relevant) >= 2:
        case = CASE_OLIGARCHY
    elif not has_compound:
        case = CASE_UNCONSTRAINED
    else:
        case = CASE_VIOLATION
    return UniformSolution(fn, relevant, label, case,
                           fn.is_symmetric(), fn == fn.flip())


def enumerate_uniform_rules(agenda: Agenda, judges: int, *,
                            require_up: bool = True,
                            config: Config = DEFAULT) -> list[UniformSolution]:
    """All consistent rules using one shared function, ascending table order.

    With ``require_up`` (the default) candidates must preserve unanimity.
    Without it, candidates must still answer opposite unanimities oppositely
    (f(T..T) != f(F..F)); that keeps negations of unanimity-preserving rules
    and drops degenerate constant rules.
    """
    rs = rational_judgments(agenda)
    candidates = 1 << (1 << judges)
    work = candidates * len(rs.judgments) ** judges * len(agenda)
    charge(config, work, f"uniform-rule sweep for {judges} judges",
           "2**(2**judges) * |U|**judges * |basis| within budget, "
           "e.g. 3 judges on a two-symbol agenda")
    width, cols, rational = _profile_columns(rs, judges, config)
    has_compound = agenda.has_compound()
    return [_solution_case(fn, has_compound) for fn in _candidates(judges, require_up)
            if not _irrational(rational, [compose(fn, c, width) for c in cols], width)]


def enumerate_independent_rules(agenda: Agenda, judges: int, *,
                                config: Config = DEFAULT) -> list[PiJar]:
    """All consistent unanimity-preserving rules with positions chosen
    independently, in ascending order of the per-position table tuple."""
    rs = rational_judgments(agenda)
    size = len(agenda)
    work = (1 << ((1 << judges) - 2)) ** size * len(rs.judgments) ** judges * size
    charge(config, work, f"independent-rule sweep for {judges} judges",
           "|UP functions|**|basis| * |U|**judges * |basis| within budget, "
           "e.g. 2 judges on a three-entry basis")
    width, cols, rational = _profile_columns(rs, judges, config)
    # each (position, function) pair is composed once, not once per rule
    columns = [[(fn, compose(fn, c, width)) for fn in _candidates(judges)] for c in cols]
    return [PiJar(agenda, judges, tuple(fn for fn, _ in combo))
            for combo in product(*columns)
            if not _irrational(rational, [agg for _, agg in combo], width)]


def _candidates(judges: int, require_up: bool = True) -> Iterator[BoolFn]:
    """Functions answering opposite unanimities oppositely, in ascending
    table order; with ``require_up``, only those preserving unanimity."""
    for fn in all_tables(judges):
        top, bottom = fn.value(fn.points - 1), fn.value(0)
        if top != bottom and (top or not require_up):
            yield fn


def filter_axioms(solutions: Iterable[UniformSolution | PiJar], *,
                  anonymous: bool = False, systematic: bool = False,
                  config: Config = DEFAULT) -> list[UniformSolution | PiJar]:
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
    pos = tuple(positions)
    sub = build_agenda([jar.agenda.basis[k] for k in pos], config=config)
    return PiJar(sub, jar.judges, tuple(jar.functions[k] for k in pos))
