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

_TOKEN_RE = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[!&^|()]))")

_ATOM_START = frozenset({"IDENT", "'('", "'!'"})


@dataclass
class _Token:
    kind: str       # "IDENT", "!", "&", "^", "|", "(", ")", "END"
    text: str
    offset: int     # character offset into the input


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            bad = len(text) - len(rest)
            raise ParseError(f"unexpected character {rest[0]!r}",
                             _byte_offset(text, bad), _ATOM_START)
        if m.group("ident") is not None:
            tokens.append(_Token("IDENT", m.group("ident"), m.start("ident")))
        else:
            p = m.group("punct")
            tokens.append(_Token(p, p, m.start("punct")))
        pos = m.end()
    tokens.append(_Token("END", "", len(text)))
    return tokens


def _byte_offset(text: str, char_index: int) -> int:
    """Offset into the UTF-8 encoding of ``text``; made only for an error."""
    return len(text[:char_index].encode("utf-8"))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: frozenset[str]) -> ParseError:
        tok = self.peek()
        what = "end of input" if tok.kind == "END" else repr(tok.text)
        return ParseError(f"unexpected {what}", _byte_offset(self.text, tok.offset),
                          expected)

    def expr(self, level: int = 0) -> Formula:
        """Operands joined by ``_BINARY[level]``, each binding tighter."""
        op, node = _BINARY[level]
        terms = []
        while True:
            terms.append(self.expr(level + 1) if level + 1 < len(_BINARY)
                         else self.unary())
            if self.peek().kind != op:
                return terms[0] if len(terms) == 1 else node(*terms)
            self.take()

    def unary(self) -> Formula:
        if self.peek().kind == "!":
            self.take()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "IDENT":
            self.take()
            return Atom(tok.text)
        if tok.kind == "(":
            self.take()
            inner = self.expr()
            if self.peek().kind != ")":
                raise self.fail(frozenset({"')'", "'&'", "'^'", "'|'"}))
            self.take()
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
    if parser.peek().kind != "END":
        raise parser.fail(frozenset({"'&'", "'^'", "'|'", "end of input"}))
    return result
