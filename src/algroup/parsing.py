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

The tokenizer scans each line once, matching one pattern that takes the
spaces before a token with it where the match before it ended; tokens
are (kind, text, line, col) tuples, and the first character after the
last match and its spaces is the unexpected character.
The parser evaluates to packed term dicts of the ring, with `poly`'s
one multiplication, and makes one Polynomial per expression.  A term
reads its factors, their minus signs and powers, in one loop, so only
parentheses recurse: at most MAX_NESTING levels deep, and a deeper
level is a ParseError at the '(' that opens it.
"""

from __future__ import annotations

import re

from .fields import Field, PrimeField, QQ
from .poly import Polynomial, VarRing, _mul_terms, _pow_terms


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


# Python converts decimal strings of at most this many digits by default.
MAX_LITERAL_DIGITS = 4300

# Parentheses nest at most this deep: each level takes three frames of
# the recursive descent, far below Python's default recursion limit.
MAX_NESTING = 100


def _literal(digits: str, line: int, col: int) -> int:
    """The value of a literal of at most MAX_LITERAL_DIGITS digits."""
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ParseError(f"integer literal of {len(digits)} digits exceeds "
                         f"the limit of {MAX_LITERAL_DIGITS}", line, col)
    return int(digits)


class ProblemSpec:
    """A parsed problem: dimension, coefficient field, and generators.

    Generators live in the ring of the n*n matrix-entry variables
    x1..x_{n*n}; an empty generator list means the zero ideal.
    field_equations_q is q when the generators include x_k^q - x_k for
    every entry (see `decide.add_field_equations`).
    """

    def __init__(self, n: int, field: Field, generators: list[Polynomial],
                 ring: VarRing, source: str | None = None,
                 field_equations_q: int | None = None):
        self.n = n
        self.field = field
        self.generators = generators
        self.ring = ring
        self.source = source
        self.field_equations_q = field_equations_q


# One token per match, after the spaces before it: INT, NAME or OP by
# the group that matched.
_TOKEN = re.compile(r"[ \t\r]*(?:([0-9]+)|([A-Za-z_][A-Za-z_0-9]*)"
                    r"|([-+*^()]))")
_KINDS = (None, "INT", "NAME", "OP")
_SPACE = " \t\r"


def _lines(text: str) -> list[str]:
    """The lines of text, split at "\n" only; a final "\n" ends the last
    line and starts none."""
    lines = text.split("\n")
    if len(lines) > 1 and not lines[-1]:
        lines.pop()
    return lines


def _tokenize(text: str, line_offset: int = 0) -> list[tuple]:
    """The (kind, text, line, col) tokens of text, then an END token
    after its last line.  Each match starts where the one before it
    ended; where none does, the first character after the spaces is one
    no token starts with."""
    tokens = []
    lines = _lines(text)
    for lineno, line in enumerate(lines, start=line_offset + 1):
        end = 0
        while m := _TOKEN.match(line, end):
            i = m.lastindex
            tokens.append((_KINDS[i], m[i], lineno, m.start(i) + 1))
            end = m.end()
        rest = line[end:].lstrip(_SPACE)
        if rest:
            raise ParseError(f"unexpected character {rest[0]!r}", lineno,
                             len(line) - len(rest) + 1)
    tokens.append(("END", "", len(lines) + line_offset, len(lines[-1]) + 1))
    return tokens


def _error(message: str, tok: tuple) -> ParseError:
    return ParseError(message, tok[2], tok[3])


class _Parser:
    """Recursive descent over tokens into packed term dicts of the ring,
    with nonzero canonical values; one `parse` per expression."""

    def __init__(self, ring: VarRing):
        self.ring = ring
        self.canonical = ring.field.canonical
        self.monomials: dict[str, int] = {}  # variable name -> monomial
        self.tokens: list[tuple] = []
        self.pos = 0
        self.depth = 0

    def parse(self, tokens: list[tuple]) -> Polynomial:
        self.tokens, self.pos, self.depth = tokens, 0, 0
        terms = self.expr()
        tok = tokens[self.pos]
        if tok[0] != "END":
            raise _error(f"unexpected {tok[1]!r} after expression", tok)
        return Polynomial._make(self.ring, terms)

    def expr(self) -> dict:
        tokens, canonical = self.tokens, self.canonical
        negative, acc = self.term()
        if negative:
            acc = {m: canonical(-c) for m, c in acc.items()}
        while (op := tokens[self.pos][1]) == "+" or op == "-":
            self.pos += 1
            negative, rhs = self.term()
            sign = -1 if (op == "-") != negative else 1
            for m, c in rhs.items():
                prev = acc.get(m)
                if prev is None:
                    acc[m] = c if sign == 1 else canonical(-c)
                elif v := canonical(prev + sign * c):
                    acc[m] = v
                else:
                    del acc[m]
        return acc

    def term(self) -> tuple[bool, dict]:
        """(negative, product of the factors): the unary minus signs of
        every factor count toward one sign, and each factor takes its
        powers before the product does."""
        tokens, ring = self.tokens, self.ring
        negative, acc, star = False, None, None
        while True:
            while tokens[self.pos][1] == "-":
                negative = not negative
                self.pos += 1
            factor = self.atom()
            while tokens[self.pos][1] == "^":
                etok = tokens[self.pos + 1]
                if etok[0] != "INT":
                    raise _error("exponent must be a non-negative integer "
                                 "literal", etok)
                self.pos += 2
                try:
                    factor = _pow_terms(factor, _literal(*etok[1:]), ring)
                except OverflowError as exc:
                    raise _error(str(exc), etok) from None
            if star is None:
                acc = factor
            else:
                try:
                    acc = _mul_terms(acc, factor, ring)
                except OverflowError as exc:
                    raise _error(str(exc), star) from None
            star = tokens[self.pos]
            if star[1] != "*":
                return negative, acc
            self.pos += 1

    def atom(self) -> dict:
        tok = self.tokens[self.pos]
        self.pos += 1
        kind, text = tok[0], tok[1]
        if kind == "INT":
            value = self.canonical(_literal(*tok[1:]))
            return {0: value} if value else {}
        if kind == "NAME":
            return {self.monomials.get(text) or self._variable(tok): 1}
        if text == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise _error(f"parentheses nested deeper than the limit of "
                             f"{MAX_NESTING}", tok)
            terms = self.expr()
            close = self.tokens[self.pos]
            if close[1] != ")":
                raise _error("expected ')'", close)
            self.pos += 1
            self.depth -= 1
            return terms
        if kind == "END":
            raise _error("unexpected end of expression", tok)
        raise _error(f"unexpected {text!r}", tok)

    def _variable(self, tok: tuple) -> int:
        """The monomial of the variable tok names, kept for later uses."""
        name, ring = tok[1], self.ring
        if ring.has(name):
            (packed,) = ring.var(name).terms
            self.monomials[name] = packed
            return packed
        m = re.fullmatch(r"([xy])([0-9]+)", name)
        n = ring.n
        # A range is reported only for a block the ring has.
        if m and n is not None and ring.has(f"{m.group(1)}1"):
            lo = 0 if ring.has(f"{m.group(1)}0") else 1
            raise _error(f"variable {name} out of range [{lo}, {n * n}] "
                         f"for n={n}", tok)
        raise _error(f"unknown variable {name}", tok)


def parse_poly(text: str, ring: VarRing, line_offset: int = 0) -> Polynomial:
    """Parse one polynomial expression in the given ring."""
    return _Parser(ring).parse(_tokenize(text, line_offset))


_N_HEADER = re.compile(r"n[ \t\r]+([0-9]+)")
_FIELD_HEADER = re.compile(r"field[ \t\r]+(Q|F[ \t\r]+([0-9]+))")


def parse_problem(text: str, source: str | None = None) -> ProblemSpec:
    """Parse a whole .alg problem file."""
    n: int | None = None
    fld: Field | None = None
    parser: _Parser | None = None
    generators: list[Polynomial] = []
    for lineno, raw in enumerate(_lines(text), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip(_SPACE)
        if not line:
            continue
        if parser is not None:
            generators.append(parser.parse(_tokenize(code, lineno - 1)))
            continue
        indent = len(raw) - len(raw.lstrip(_SPACE))
        if n is None:
            m = _N_HEADER.fullmatch(line)
            if not m:
                raise ParseError("expected header 'n <int>'", lineno, 1)
            n = _literal(m.group(1), lineno, indent + m.start(1) + 1)
            if n < 1:
                raise ParseError("n must be a positive integer", lineno, 1)
            continue
        m = _FIELD_HEADER.fullmatch(line)
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
        parser = _Parser(VarRing.matrix_ring(n, fld))
    if n is None:
        raise ParseError("missing header 'n <int>'", 1, 1)
    if parser is None:
        raise ParseError("missing header 'field Q' or 'field F <p>'", 1, 1)
    return ProblemSpec(n, fld, generators, parser.ring, source)


def load_problem(path) -> ProblemSpec:
    with open(path, encoding="utf-8") as handle:
        return parse_problem(handle.read(), source=str(path))
