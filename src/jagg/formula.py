"""Propositional formulas: AST, parser, printer, and evaluation.

Connectives are NOT (``!``), AND (``&``), XOR (``^``), and OR (``|``), with
precedence ``!`` > ``&`` > ``^`` > ``|``; there is no implication.  XOR is
n-ary odd parity.  AND/OR/XOR nodes flatten nested nodes of the same
connective at construction, so ``a & b & c`` is a single three-child node
and ``parse(str(f)) == f`` holds structurally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

Assignment = dict[str, bool]


class ParseError(ValueError):
    """Syntax error with a byte offset and the token kinds that were legal."""

    def __init__(self, message: str, offset: int, expected: frozenset[str]):
        legal = f" (expected {', '.join(sorted(expected))})" if expected else ""
        super().__init__(f"{message} at byte {offset}{legal}")
        self.offset = offset
        self.expected = expected


class Formula:
    """Base class for formula nodes.  Instances are immutable and hashable."""

    def __str__(self) -> str:
        return _print(self, 0)

    def evaluate(self, assignment: Assignment) -> bool:
        """Truth value under ``assignment``; raises KeyError on a missing symbol."""
        raise NotImplementedError

    def symbols(self) -> tuple[str, ...]:
        """Symbols occurring in the formula, sorted, without duplicates."""
        seen: set[str] = set()
        self._collect(seen)
        return tuple(sorted(seen))

    def _collect(self, into: set[str]) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __post_init__(self) -> None:
        if not SYMBOL_RE.fullmatch(self.name):
            raise ValueError(f"invalid symbol name {self.name!r}")

    def evaluate(self, assignment: Assignment) -> bool:
        return assignment[self.name]

    def _collect(self, into: set[str]) -> None:
        into.add(self.name)


@dataclass(frozen=True)
class Not(Formula):
    child: Formula

    def evaluate(self, assignment: Assignment) -> bool:
        return not self.child.evaluate(assignment)

    def _collect(self, into: set[str]) -> None:
        self.child._collect(into)


@dataclass(frozen=True, init=False)
class _Nary(Formula):
    """Shared behaviour of AND/OR/XOR: at least two children, auto-flattened."""

    args: tuple[Formula, ...]

    def __init__(self, *args: Formula):
        flat: list[Formula] = []
        for a in args:
            if type(a) is type(self):
                flat.extend(a.args)  # type: ignore[attr-defined]
            else:
                flat.append(a)
        if len(flat) < 2:
            raise ValueError(f"{type(self).__name__} needs at least two arguments")
        object.__setattr__(self, "args", tuple(flat))

    def _collect(self, into: set[str]) -> None:
        for a in self.args:
            a._collect(into)


@dataclass(frozen=True, init=False)
class And(_Nary):
    def evaluate(self, assignment: Assignment) -> bool:
        return all(a.evaluate(assignment) for a in self.args)


@dataclass(frozen=True, init=False)
class Or(_Nary):
    def evaluate(self, assignment: Assignment) -> bool:
        return any(a.evaluate(assignment) for a in self.args)


@dataclass(frozen=True, init=False)
class Xor(_Nary):
    def evaluate(self, assignment: Assignment) -> bool:
        return sum(a.evaluate(assignment) for a in self.args) % 2 == 1


def negate(f: Formula) -> Formula:
    """Logical negation, cancelling an outer double negation."""
    if isinstance(f, Not):
        return f.child
    return Not(f)


# binary connectives from loosest to tightest binding; ``!`` binds tighter still
_BINARY = (("|", Or), ("^", Xor), ("&", And))
_LEVEL = {node: level for level, (_, node) in enumerate(_BINARY)}
_GLUE = {node: f" {op} " for op, node in _BINARY}


# --- printing ---------------------------------------------------------------

def _print(f: Formula, parent_level: int) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "!" + _print(f.child, len(_BINARY))
    level = _LEVEL[type(f)]
    text = _GLUE[type(f)].join(_print(a, level) for a in f.args)  # type: ignore[attr-defined]
    return f"({text})" if level < parent_level else text


# --- parsing ----------------------------------------------------------------

# one match per token, each starting where the last one ended; without the
# end-of-text alternative, finditer would retry trailing space from each of
# its positions, quadratic in its length
_TOKEN_RE = re.compile(rf"\s*(?:(?P<IDENT>{SYMBOL_RE.pattern})|(?P<punct>[!&^|()])"
                       r"|(?P<bad>\S)|(?P<END>\Z))")

_ATOM_START = frozenset({"IDENT", "'('", "'!'"})


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, character offset)`` per token, where kind is "IDENT",
    a punctuation mark, or "END" for the last token."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        word, offset = m[kind], m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {word!r}",
                             _byte_offset(text, offset), _ATOM_START)
        tokens.append((word if kind == "punct" else kind, word, offset))
        if kind == "END":
            break
    return tokens


def _byte_offset(text: str, char_index: int) -> int:
    """Offset into the UTF-8 encoding of ``text``; made only for an error."""
    return len(text[:char_index].encode("utf-8"))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def fail(self, expected: frozenset[str]) -> ParseError:
        kind, word, offset = self.tokens[self.pos]
        what = "end of input" if kind == "END" else repr(word)
        return ParseError(f"unexpected {what}", _byte_offset(self.text, offset), expected)

    def expr(self, level: int = 0) -> Formula:
        """Operands joined by ``_BINARY[level]``, each binding tighter."""
        op, node = _BINARY[level]
        terms = []
        while True:
            terms.append(self.expr(level + 1) if level + 1 < len(_BINARY)
                         else self.unary())
            if self.tokens[self.pos][0] != op:
                return terms[0] if len(terms) == 1 else node(*terms)
            self.pos += 1

    def unary(self) -> Formula:
        if self.tokens[self.pos][0] == "!":
            self.pos += 1
            return Not(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, word, _ = self.tokens[self.pos]
        if kind == "IDENT":
            self.pos += 1
            return Atom(word)
        if kind == "(":
            self.pos += 1
            inner = self.expr()
            if self.tokens[self.pos][0] != ")":
                raise self.fail(frozenset({"')'", "'&'", "'^'", "'|'"}))
            self.pos += 1
            return inner
        raise self.fail(_ATOM_START)


def parse(text: str) -> Formula:
    """Parse a formula; empty input, trailing garbage and nesting deeper
    than the interpreter's recursion limit are errors."""
    parser = _Parser(text)
    try:
        result = parser.expr()
    except RecursionError:
        raise ParseError("formula nested too deeply", 0, frozenset()) from None
    if parser.tokens[parser.pos][0] != "END":
        raise parser.fail(frozenset({"'&'", "'^'", "'|'", "end of input"}))
    return result
