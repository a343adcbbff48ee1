"""Formula AST, parser, and printer."""

import itertools
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import jagg
from jagg.formula import And, Atom, Not, Or, ParseError, Xor, negate, parse

P, Q, R = Atom("P"), Atom("Q"), Atom("R")


# --- reference parser: a token object per token and a peek/take cursor ------

_REF_TOKEN_RE = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[!&^|()]))")
_REF_BINARY = (("|", Or), ("^", Xor), ("&", And))
_REF_ATOM_START = frozenset({"IDENT", "'('", "'!'"})


@dataclass
class _Token:
    kind: str       # "IDENT", "!", "&", "^", "|", "(", ")", "END"
    text: str
    offset: int     # character offset into the input


def _ref_byte_offset(text, char_index):
    return len(text[:char_index].encode("utf-8"))


def _ref_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            bad = len(text) - len(rest)
            raise ParseError(f"unexpected character {rest[0]!r}",
                             _ref_byte_offset(text, bad), _REF_ATOM_START)
        if m.group("ident") is not None:
            tokens.append(_Token("IDENT", m.group("ident"), m.start("ident")))
        else:
            p = m.group("punct")
            tokens.append(_Token(p, p, m.start("punct")))
        pos = m.end()
    tokens.append(_Token("END", "", len(text)))
    return tokens


class _RefParser:
    def __init__(self, text):
        self.text = text
        self.tokens = _ref_tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        what = "end of input" if tok.kind == "END" else repr(tok.text)
        return ParseError(f"unexpected {what}", _ref_byte_offset(self.text, tok.offset),
                          expected)

    def expr(self, level=0):
        op, node = _REF_BINARY[level]
        terms = []
        while True:
            terms.append(self.expr(level + 1) if level + 1 < len(_REF_BINARY)
                         else self.unary())
            if self.peek().kind != op:
                return terms[0] if len(terms) == 1 else node(*terms)
            self.take()

    def unary(self):
        if self.peek().kind == "!":
            self.take()
            return Not(self.unary())
        return self.atom()

    def atom(self):
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
        raise self.fail(_REF_ATOM_START)


def _ref_parse(text):
    parser = _RefParser(text)
    try:
        result = parser.expr()
    except RecursionError:
        raise ParseError("formula nested too deeply", 0, frozenset()) from None
    if parser.peek().kind != "END":
        raise parser.fail(frozenset({"'&'", "'^'", "'|'", "end of input"}))
    return result


def _outcome(parser, text):
    """The formula, or the error's text, byte offset and expected set."""
    try:
        return parser(text)
    except ParseError as err:
        return str(err), err.offset, err.expected


def _roundtrip_pool():
    """Every formula over {P, Q} of depth <= 2."""
    depth1 = [P, Q, Not(P), And(P, Q), Or(P, Q), Xor(P, Q)]
    pool = list(depth1)
    for a, b in itertools.product(depth1, repeat=2):
        for cls in (And, Or, Xor):
            pool.append(cls(a, b))
        pool.append(Not(a))
    return pool


def test_atom_names():
    assert Atom("x1").name == "x1"
    assert Atom("long_name").name == "long_name"
    for bad in ("", "1x", "a-b", "p q", "&"):
        with pytest.raises(ValueError):
            Atom(bad)


def test_connective_arity():
    for cls in (And, Or, Xor):
        with pytest.raises(ValueError):
            cls(P)
        with pytest.raises(ValueError):
            cls()
        assert len(cls(P, Q, R).args) == 3


def test_flattening():
    assert And(And(P, Q), R) == And(P, Q, R)
    assert Or(P, Or(Q, R)) == Or(P, Q, R)
    assert Xor(Xor(P, Q), Xor(P, Q)) == Xor(P, Q, P, Q)
    # mixed connectives stay nested
    assert And(Or(P, Q), R).args == (Or(P, Q), R)


def test_negate_cancels():
    assert negate(P) == Not(P)
    assert negate(Not(P)) == P
    assert negate(negate(And(P, Q))) == And(P, Q)


def test_symbols_sorted_unique():
    phi = Or(And(Q, P), Not(P), Xor(R, Q))
    assert phi.symbols() == ("P", "Q", "R")
    assert Atom("z").symbols() == ("z",)


def test_evaluate():
    phi = Or(And(P, Q), Not(R))
    for p, q, r in itertools.product((False, True), repeat=3):
        want = (p and q) or not r
        assert phi.evaluate({"P": p, "Q": q, "R": r}) == want
    assert Xor(P, Q, R).evaluate({"P": True, "Q": True, "R": True}) is True
    assert Xor(P, Q).evaluate({"P": True, "Q": True}) is False


def test_parse_precedence():
    # ! binds tightest, then &, then ^, then |
    assert parse("!P & Q") == And(Not(P), Q)
    assert parse("P & Q | R") == Or(And(P, Q), R)
    assert parse("P | Q & R") == Or(P, And(Q, R))
    assert parse("P ^ Q & R") == Xor(P, And(Q, R))
    assert parse("P | Q ^ R") == Or(P, Xor(Q, R))
    assert parse("!(P | Q)") == Not(Or(P, Q))
    assert parse("!!P") == Not(Not(P))


def test_parse_flattens_chains():
    assert parse("P & Q & R") == And(P, Q, R)
    assert parse("P ^ Q ^ R") == Xor(P, Q, R)


def test_parse_whitespace_and_parens():
    assert parse("  ( P )  ") == P
    assert parse("((P&Q))") == And(P, Q)


def test_parse_nesting_depth():
    # the parser spends five frames per parenthesis, so 197 levels fit the
    # default recursion limit of a fresh interpreter
    text = "(" * 197 + "P" + ")" * 197
    env = {**os.environ, "PYTHONPATH": str(Path(jagg.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c",
                           f"from jagg.formula import parse; print(parse({text!r}))"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "P\n"


def test_parse_too_deep_is_a_parse_error():
    for text in ("(" * 300 + "P" + ")" * 300, "!" * 3000 + "P"):
        with pytest.raises(ParseError, match="nested too deeply") as exc:
            parse(text)
        assert exc.value.offset == 0


def test_print_minimal_parens():
    cases = [
        (And(Not(P), Q), "!P & Q"),
        (Or(And(P, Q), R), "P & Q | R"),
        (And(Or(P, Q), R), "(P | Q) & R"),
        (Xor(Or(P, Q), R), "(P | Q) ^ R"),
        (And(Xor(P, Q), R), "(P ^ Q) & R"),
        (Not(Or(P, Q)), "!(P | Q)"),
        (Not(Not(P)), "!!P"),
        (Or(P, Q, R), "P | Q | R"),
    ]
    for phi, text in cases:
        assert str(phi) == text


def test_print_parse_roundtrip_exhaustive():
    for phi in _roundtrip_pool():
        assert parse(str(phi)) == phi


def test_parse_matches_reference_on_all_short_strings():
    # identifiers, digits, ASCII and non-ASCII space, every operator, and
    # characters the tokenizer rejects (one ASCII, one two-byte)
    alphabet = ["P", "Q", "_", "1", " ", "\u3000", "!", "&", "^", "|", "(", ")", "@", "µ"]
    texts = ["".join(chars) for k in range(5)
             for chars in itertools.product(alphabet, repeat=k)]
    assert len(texts) == 41_371
    for text in texts:
        assert _outcome(parse, text) == _outcome(_ref_parse, text), text


def test_parse_matches_reference_on_roundtrip_pool():
    for phi in _roundtrip_pool():
        for text in (str(phi), f" ( {phi} ) ", f"{phi} @", f"{phi} &"):
            assert _outcome(parse, text) == _outcome(_ref_parse, text), text


def test_trailing_whitespace_is_scanned_once():
    # a tokenizer that retries the tail at each trailing position is
    # quadratic here and takes minutes
    assert parse("P" + " " * 200_000) == P


def test_parse_errors_report_offset():
    with pytest.raises(ParseError) as err:
        parse("P &")
    assert err.value.offset == 3
    with pytest.raises(ParseError) as err:
        parse("P Q")
    assert err.value.offset == 2
    with pytest.raises(ParseError) as err:
        parse("(P | Q")
    assert err.value.offset == 6
    with pytest.raises(ParseError) as err:
        parse("P @ Q")
    assert err.value.offset == 2
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("   ")


def test_parse_error_expected_sets():
    with pytest.raises(ParseError) as err:
        parse("&P")
    assert "IDENT" in err.value.expected


def test_byte_offsets_are_utf8():
    # the ident regex rejects non-ascii; offset counts the two-byte mu
    with pytest.raises(ParseError) as err:
        parse("µ & P")
    assert err.value.offset == 0
    # U+3000 is whitespace to the tokenizer and three bytes in UTF-8; the
    # parser's and the tokenizer's errors deep in a long formula count it
    prefix = " | ".join(f"P{i}" for i in range(3000)) + " |\u3000"
    for bad in ("&", "@"):
        with pytest.raises(ParseError) as err:
            parse(prefix + bad + " Q")
        assert err.value.offset == len(prefix.encode())
        assert err.value.offset == len(prefix) + 2


def test_connectives_equality_hash_and_immutability():
    assert And(P, Q) != Or(P, Q) and Or(P, Q) != Xor(P, Q)
    assert hash(And(P, Or(Q, R))) == hash(And(P, Or(Q, R)))
    assert len({And(P, Q), And(P, Q), Or(P, Q), Xor(P, Q)}) == 3
    assert repr(And(P, Q)) == "And(args=(Atom(name='P'), Atom(name='Q')))"
    with pytest.raises(AttributeError):
        And(P, Q).args = (P, R)
