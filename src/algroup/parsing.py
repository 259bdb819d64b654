"""Parsers for polynomial expressions and the .alg problem-file format.

Expression grammar (explicit operators only; '^' binds tightest, then
unary '-', then '*', then '+'/'-'; exponents are non-negative integer
literals):

    expr   := term (("+" | "-") term)*
    term   := unary ("*" unary)*
    unary  := "-" unary | power
    power  := atom ("^" INT)*
    atom   := INT | NAME | "(" expr ")"

Problem files are line oriented: a header line ``n <int>``, a header
line ``field Q`` or ``field F <p>``, then one generator polynomial per
non-empty line.  ``#`` starts a comment running to the end of the line.

The grammar is ASCII: INT is ``[0-9]+``, NAME is
``[A-Za-z_][A-Za-z_0-9]*``, lines end at ``\n`` only, and space, tab and
``\r`` are the only whitespace.  Any other character, a superscript
digit, a non-ASCII letter or digit, or another line separator such as
``\v`` or U+2028, is a ParseError at its position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .fields import Field, PrimeField, QQ
from .poly import Polynomial, VarRing


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


# Python converts decimal strings of at most this many digits by default.
MAX_LITERAL_DIGITS = 4300


def _literal(digits: str, line: int, col: int) -> int:
    """The value of a literal of at most MAX_LITERAL_DIGITS digits."""
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ParseError(f"integer literal of {len(digits)} digits exceeds "
                         f"the limit of {MAX_LITERAL_DIGITS}", line, col)
    return int(digits)


@dataclass
class ProblemSpec:
    """A parsed problem: dimension, coefficient field, and generators.

    Generators live in the ring of the n*n matrix-entry variables
    x1..x_{n*n}; an empty generator list means the zero ideal.
    field_equations_q is q when the generators include x_k^q - x_k for
    every entry (see `decide.add_field_equations`).
    """

    n: int
    field: Field
    generators: list[Polynomial]
    ring: VarRing
    source: str | None = None
    field_equations_q: int | None = None


@dataclass
class _Token:
    kind: str  # INT, NAME, OP, END
    value: str
    line: int
    col: int


_INT_RE = re.compile(r"[0-9]+")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_SPACE = " \t\r"


def _lines(text: str) -> list[str]:
    """The lines of text, split at "\n" only; a final "\n" ends the last
    line and starts none."""
    lines = text.split("\n")
    if len(lines) > 1 and not lines[-1]:
        lines.pop()
    return lines


def _tokenize(text: str, line_offset: int = 0) -> list[_Token]:
    tokens: list[_Token] = []
    lines = _lines(text)
    for li, line in enumerate(lines):
        col = 0
        while col < len(line):
            ch = line[col]
            if ch in _SPACE:
                col += 1
                continue
            if m := _INT_RE.match(line, col):
                tokens.append(_Token("INT", m.group(0), li + 1 + line_offset, col + 1))
                col = m.end()
            elif m := _NAME_RE.match(line, col):
                tokens.append(_Token("NAME", m.group(0), li + 1 + line_offset, col + 1))
                col = m.end()
            elif ch in "+-*^()":
                tokens.append(_Token("OP", ch, li + 1 + line_offset, col + 1))
                col += 1
            else:
                raise ParseError(f"unexpected character {ch!r}",
                                 li + 1 + line_offset, col + 1)
    tokens.append(_Token("END", "", len(lines) + line_offset, len(lines[-1]) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ring: VarRing):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def parse(self) -> Polynomial:
        poly = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            self.error(f"unexpected {tok.value!r} after expression", tok)
        return poly

    def expr(self) -> Polynomial:
        poly = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value in "+-":
                self.advance()
                rhs = self.term()
                poly = poly + rhs if tok.value == "+" else poly - rhs
            else:
                return poly

    def term(self) -> Polynomial:
        poly = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value == "*":
                self.advance()
                rhs = self.unary()
                try:
                    poly = poly * rhs
                except OverflowError as exc:
                    self.error(str(exc), tok)
            else:
                return poly

    def unary(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self) -> Polynomial:
        poly = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value == "^":
                self.advance()
                etok = self.peek()
                if etok.kind != "INT":
                    self.error("exponent must be a non-negative integer literal", etok)
                self.advance()
                try:
                    poly = poly ** _literal(etok.value, etok.line, etok.col)
                except OverflowError as exc:
                    self.error(str(exc), etok)
            else:
                return poly

    def atom(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return self.ring.const(_literal(tok.value, tok.line, tok.col))
        if tok.kind == "NAME":
            self.advance()
            return self._variable(tok)
        if tok.kind == "OP" and tok.value == "(":
            self.advance()
            poly = self.expr()
            close = self.peek()
            if close.kind != "OP" or close.value != ")":
                self.error("expected ')'", close)
            self.advance()
            return poly
        if tok.kind == "END":
            self.error("unexpected end of expression", tok)
        self.error(f"unexpected {tok.value!r}", tok)

    def _variable(self, tok: _Token) -> Polynomial:
        name = tok.value
        if self.ring.has(name):
            return self.ring.var(name)
        m = re.fullmatch(r"([xy])([0-9]+)", name)
        n = self.ring.n
        # A range is reported only for a block the ring has.
        if m and n is not None and self.ring.has(f"{m.group(1)}1"):
            lo = 0 if self.ring.has(f"{m.group(1)}0") else 1
            self.error(f"variable {name} out of range [{lo}, {n * n}] "
                       f"for n={n}", tok)
        self.error(f"unknown variable {name}", tok)


def parse_poly(text: str, ring: VarRing, line_offset: int = 0) -> Polynomial:
    """Parse one polynomial expression in the given ring."""
    return _Parser(_tokenize(text, line_offset), ring).parse()


def parse_problem(text: str, source: str | None = None) -> ProblemSpec:
    """Parse a whole .alg problem file."""
    n: int | None = None
    fld: Field | None = None
    ring: VarRing | None = None
    generators: list[Polynomial] = []
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0].strip(_SPACE)
        if not line:
            continue
        indent = len(raw) - len(raw.lstrip(_SPACE))
        if n is None:
            m = re.fullmatch(r"n[ \t\r]+([0-9]+)", line)
            if not m:
                raise ParseError("expected header 'n <int>'", lineno, 1)
            n = _literal(m.group(1), lineno, indent + m.start(1) + 1)
            if n < 1:
                raise ParseError("n must be a positive integer", lineno, 1)
            continue
        if fld is None:
            m = re.fullmatch(r"field[ \t\r]+(Q|F[ \t\r]+([0-9]+))", line)
            if not m:
                raise ParseError("expected header 'field Q' or 'field F <p>'",
                                 lineno, 1)
            if m.group(1) == "Q":
                fld = QQ
            else:
                p = _literal(m.group(2), lineno, indent + m.start(2) + 1)
                try:
                    fld = PrimeField(p)
                except ValueError as exc:
                    raise ParseError(str(exc), lineno, 1) from None
            ring = VarRing.matrix_ring(n, fld)
            continue
        generators.append(parse_poly(raw.split("#", 1)[0], ring,
                                     line_offset=lineno - 1))
    if n is None:
        raise ParseError("missing header 'n <int>'", 1, 1)
    if fld is None or ring is None:
        raise ParseError("missing header 'field Q' or 'field F <p>'", 1, 1)
    return ProblemSpec(n, fld, generators, ring, source)


def load_problem(path) -> ProblemSpec:
    with open(path, encoding="utf-8") as handle:
        return parse_problem(handle.read(), source=str(path))
