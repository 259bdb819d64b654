import pathlib
import re
from dataclasses import dataclass
from math import lcm

import pytest

from algroup import (QQ, ParseError, Polynomial, PrimeField, ProblemSpec,
                     VarRing, buchberger, change_ring, det_poly,
                     load_problem, radical_membership)
from algroup.groebner import _divided, _prepare, _spair_terms
from algroup.matrices import CofactorTable, build_f0, eval_at_formal_inverse
from algroup.poly import MAX_ENGINE_DEGREE, _degree_error

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"
SCHEMA = PROBLEMS.parent / "docs" / "report-schema.md"


@pytest.fixture
def problems_dir():
    return PROBLEMS


@pytest.fixture
def problem():
    def load(name):
        return load_problem(PROBLEMS / name)
    return load


def schema_table(heading: str) -> list[str]:
    """The field names in the first column of the table under `heading`
    in the report schema document."""
    lines = SCHEMA.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(heading) + 1:]:
        if rows and not line.startswith("|"):
            break
        if line.startswith("| `"):
            rows.append(line.split("`")[1])
    return rows


def respec(spec, **changes):
    """A ProblemSpec with the given attributes changed and the others
    those of spec."""
    return ProblemSpec(**{**vars(spec), **changes})


def random_matrix_problem(rng, p, n=2, max_gens=3, max_terms=4, max_degree=2):
    """Random generators over F_p for oracle cross-checks."""
    field = PrimeField(p)
    ring = VarRing.matrix_ring(n, field)
    gens = []
    for _ in range(rng.randint(0, max_gens)):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * ring.arity
            for _ in range(rng.randint(0, max_degree)):
                exps[rng.randrange(ring.arity)] += 1
            terms[tuple(exps)] = rng.randrange(1, p)
        gens.append(Polynomial(ring, terms))
    return ProblemSpec(n, field, gens, ring)


def padded_inverse_reference(spec):
    """Closure under inversion by the padded form, as (verdict, index of
    the first generator that fails): det*h in rad(I) for each generator
    f, with h the numerator of f at the formal inverse, I the ideal of
    the raw generators, and det and h expanded.  By the Nullstellensatz
    it holds exactly when h vanishes on V*(I)."""
    gb = buchberger(spec.generators, ring=spec.ring)
    det, table = det_poly(spec.ring), CofactorTable(spec.ring)
    for idx, f in enumerate(spec.generators, start=1):
        if f and not radical_membership(
                det * eval_at_formal_inverse(f, table), gb):
            return False, idx
    return True, None


def hat_ideal_reference(problem):
    """Generators of the hat ideal from the raw generators: the problem
    ideal moved to the ring with x0, extended by x0*det(x) - 1."""
    hat = VarRing.matrix_ring(problem.n, problem.field, x0=True)
    gens = [change_ring(g, hat) for g in problem.generators]
    gens.append(build_f0(hat, "x"))
    return hat, gens


def to_y_block_reference(f, target):
    """f with every x_k renamed to y_k inside the target ring, the
    witness variable x0 to y0 included, built from f's exponent tuples."""
    names = f.ring.names
    out = {}
    for exps, c in f.exponents().items():
        moved = [0] * target.arity
        for name, e in zip(names, exps):
            if not e:
                continue
            if not name.startswith("x"):
                raise ValueError(f"polynomial mentions {name}, "
                                 "expected x-block variables only")
            moved[target.index("y" + name[1:])] = e
        out[tuple(moved)] = c
    return Polynomial(target, out)


def s_polynomial_reference(f, g):
    """The cancellation combination of the two lead terms, of f and g
    made monic."""
    if f.ring != g.ring:
        raise ValueError("polynomials from different rings")
    if not f or not g:
        raise ValueError("S-polynomial of the zero polynomial")
    ring = f.ring
    p = ring.field.characteristic
    a = _prepare(f.terms, ring.codec, p)
    b = _prepare(g.terms, ring.codec, p)
    l = ring.codec.lcm(a[0], b[0])
    if l >> ring.codec.deg_shift > MAX_ENGINE_DEGREE:
        raise _degree_error(l >> ring.codec.deg_shift)
    terms = _spair_terms(a, b, l)
    if p:
        terms = {m: c % p for m, c in terms.items()}
    else:
        # The integral S-pair is lcm(lc_a, lc_b) times the monic one.
        den = lcm(a[1], b[1])
        if den != 1:
            terms = _divided(terms.items(), den, ring.field)
    return Polynomial._make(ring, terms)


# The reference parser: a token dataclass, one match per token, and
# evaluation by `Polynomial` operators, a call frame per unary minus.

_REF_LITERAL_DIGITS = 4300


def _ref_literal(digits, line, col):
    if len(digits) > _REF_LITERAL_DIGITS:
        raise ParseError(f"integer literal of {len(digits)} digits exceeds "
                         f"the limit of {_REF_LITERAL_DIGITS}", line, col)
    return int(digits)


@dataclass
class _RefToken:
    kind: str  # INT, NAME, OP, END
    value: str
    line: int
    col: int


_REF_INT = re.compile(r"[0-9]+")
_REF_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_REF_SPACE = " \t\r"


def _ref_lines(text):
    lines = text.split("\n")
    if len(lines) > 1 and not lines[-1]:
        lines.pop()
    return lines


def _ref_tokenize(text, line_offset=0):
    tokens = []
    lines = _ref_lines(text)
    for li, line in enumerate(lines):
        col = 0
        while col < len(line):
            ch = line[col]
            if ch in _REF_SPACE:
                col += 1
                continue
            if m := _REF_INT.match(line, col):
                tokens.append(_RefToken("INT", m.group(0), li + 1 + line_offset,
                                        col + 1))
                col = m.end()
            elif m := _REF_NAME.match(line, col):
                tokens.append(_RefToken("NAME", m.group(0),
                                        li + 1 + line_offset, col + 1))
                col = m.end()
            elif ch in "+-*^()":
                tokens.append(_RefToken("OP", ch, li + 1 + line_offset, col + 1))
                col += 1
            else:
                raise ParseError(f"unexpected character {ch!r}",
                                 li + 1 + line_offset, col + 1)
    tokens.append(_RefToken("END", "", len(lines) + line_offset,
                            len(lines[-1]) + 1))
    return tokens


class _RefParser:
    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def parse(self):
        poly = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            self.error(f"unexpected {tok.value!r} after expression", tok)
        return poly

    def expr(self):
        poly = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value in "+-":
                self.advance()
                rhs = self.term()
                poly = poly + rhs if tok.value == "+" else poly - rhs
            else:
                return poly

    def term(self):
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

    def unary(self):
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self):
        poly = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value == "^":
                self.advance()
                etok = self.peek()
                if etok.kind != "INT":
                    self.error("exponent must be a non-negative integer "
                               "literal", etok)
                self.advance()
                try:
                    poly = poly ** _ref_literal(etok.value, etok.line, etok.col)
                except OverflowError as exc:
                    self.error(str(exc), etok)
            else:
                return poly

    def atom(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return self.ring.const(_ref_literal(tok.value, tok.line, tok.col))
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

    def _variable(self, tok):
        name = tok.value
        if self.ring.has(name):
            return self.ring.var(name)
        m = re.fullmatch(r"([xy])([0-9]+)", name)
        n = self.ring.n
        if m and n is not None and self.ring.has(f"{m.group(1)}1"):
            lo = 0 if self.ring.has(f"{m.group(1)}0") else 1
            self.error(f"variable {name} out of range [{lo}, {n * n}] "
                       f"for n={n}", tok)
        self.error(f"unknown variable {name}", tok)


def reference_parse_poly(text, ring, line_offset=0):
    """`parsing.parse_poly` as a token-by-token recursive descent that
    evaluates with `Polynomial` operators."""
    return _RefParser(_ref_tokenize(text, line_offset), ring).parse()


def reference_parse_problem(text):
    """`parsing.parse_problem` on the reference expression parser."""
    n = fld = ring = None
    generators = []
    for lineno, raw in enumerate(_ref_lines(text), start=1):
        line = raw.split("#", 1)[0].strip(_REF_SPACE)
        if not line:
            continue
        indent = len(raw) - len(raw.lstrip(_REF_SPACE))
        if n is None:
            m = re.fullmatch(r"n[ \t\r]+([0-9]+)", line)
            if not m:
                raise ParseError("expected header 'n <int>'", lineno, 1)
            n = _ref_literal(m.group(1), lineno, indent + m.start(1) + 1)
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
                p = _ref_literal(m.group(2), lineno, indent + m.start(2) + 1)
                try:
                    fld = PrimeField(p)
                except ValueError as exc:
                    raise ParseError(str(exc), lineno, 1) from None
            ring = VarRing.matrix_ring(n, fld)
            continue
        generators.append(reference_parse_poly(raw.split("#", 1)[0], ring,
                                               line_offset=lineno - 1))
    if n is None:
        raise ParseError("missing header 'n <int>'", 1, 1)
    if fld is None:
        raise ParseError("missing header 'field Q' or 'field F <p>'", 1, 1)
    return ProblemSpec(n, fld, generators, ring)
