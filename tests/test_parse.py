import random

import pytest

from algroup import (ParseError, Polynomial, PrimeField, QQ, VarRing,
                     parse_poly, parse_problem, render)


def test_parse_problem_basic():
    spec = parse_problem("n 1\nfield Q\n(x1-1)*(x1^2-2)\n")
    assert spec.n == 1 and spec.field == QQ
    assert spec.generators == [parse_poly("x1^3 - x1^2 - 2*x1 + 2", spec.ring)]


def test_parse_problem_zero_ideal():
    spec = parse_problem("n 2\nfield Q\n")
    assert spec.n == 2 and spec.generators == []


def test_parse_problem_prime_field_and_comments():
    spec = parse_problem("# a comment\nn 2\n\nfield F 5  # five\nx1 - 3\n")
    assert spec.field == PrimeField(5)
    assert spec.generators[0] == parse_poly("x1 + 2", spec.ring)


def test_variable_out_of_range():
    with pytest.raises(ParseError, match=r"x5 out of range \[1, 4\] for n=2"):
        parse_problem("n 2\nfield F 5\nx5 - x1\n")
    with pytest.raises(ParseError, match=r"y5 out of range \[1, 4\] for n=2"):
        parse_poly("y5", VarRing.matrix_ring(2, QQ, y=True))
    # A problem ring has no y block, so y1 has no range to be out of.
    with pytest.raises(ParseError, match=r"unknown variable y1$"):
        parse_problem("n 2\nfield Q\ny1 - 1\n")


def test_problem_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_problem("n 2\nfield Q\nx1 + x2\nx1 ++ 2\n")
    assert err.value.line == 4

    with pytest.raises(ParseError, match="not prime"):
        parse_problem("n 2\nfield F 6\nx1\n")
    with pytest.raises(ParseError, match="header"):
        parse_problem("field Q\n")
    with pytest.raises(ParseError, match="header"):
        parse_problem("n 2\nx1\n")
    with pytest.raises(ParseError, match="positive"):
        parse_problem("n 0\nfield Q\n")


def test_parse_poly_examples():
    ring = VarRing.matrix_ring(2, QQ)
    assert parse_poly("x2*(x2*x4 - 1)", ring) == \
        parse_poly("x2^2*x4 - x2", ring)
    assert parse_poly("-(x1 - 1)", ring) == parse_poly("-x1 + 1", ring)
    assert parse_poly("x1^0", ring) == ring.one()
    assert parse_poly("2^3", ring) == ring.const(8)
    assert parse_poly("-x1^2", ring) == -(ring.var("x1") ** 2)


def test_parse_poly_errors_are_positioned():
    ring = VarRing.matrix_ring(2, QQ)
    cases = ["x1 +", "(x1", "x1^", "x1^x2", "x1 * * x2", "x1 $ x2",
             "", "2.5", "(x1-1)(x1+1)"]
    for text in cases:
        with pytest.raises(ParseError) as err:
            parse_poly(text, ring)
        assert err.value.line >= 1 and err.value.col >= 1

    with pytest.raises(ParseError, match="unknown variable z"):
        parse_poly("z + 1", ring)


@pytest.mark.parametrize("text, col, char", [
    ("x1\u00b2", 3, "\u00b2"),           # superscript two: isdigit, not [0-9]
    ("\u00e9", 1, "\u00e9"),             # e acute: isalpha, not [A-Za-z_]
    ("x1 + \u0663", 6, "\u0663"),        # Arabic-Indic three, once read as 3
    ("x\u0661", 2, "\u0661"),            # nor does it continue a name
    ("x1 - 1\vx1 + 1", 7, "\x0b"),       # line separators other than \n
    ("x1 - 1\fx1 + 1", 7, "\x0c"),
    ("x1 - 1\x1cx1 + 1", 7, "\x1c"),
    ("x1 - 1\x1ex1 + 1", 7, "\x1e"),
    ("x1 - 1\x85x1 + 1", 7, "\x85"),
    ("x1 - 1\u2028x1 + 1", 7, "\u2028"),
    ("x1 - 1\u2029x1 + 1", 7, "\u2029"),
])
def test_only_ascii_characters_are_read(text, col, char):
    ring = VarRing.matrix_ring(2, QQ)
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_poly(text, ring)
    assert (err.value.line, err.value.col) == (1, col)
    assert repr(char) in err.value.reason
    # In a problem file the generator sits on line 3.
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_problem(f"n 2\nfield Q\n{text}\n")
    assert (err.value.line, err.value.col) == (3, col)


def test_lines_end_at_newline_only():
    # \r is whitespace, so CRLF files read as before; a generator line
    # is never split at another separator.
    spec = parse_problem("n 2\r\nfield F 3\r\nx1 - 1\r\n\r\nx2\r\n")
    assert spec.generators == [parse_poly("x1 - 1", spec.ring),
                               parse_poly("x2", spec.ring)]
    with pytest.raises(ParseError, match="header"):
        parse_problem("n \u0662\nfield Q\n")
    with pytest.raises(ParseError, match="header"):
        parse_problem("n 2\nfield F \u0663\n")


def test_oversized_degrees_are_positioned_parse_errors():
    # Column of the exponent, then of the '*' whose product is too large.
    for text, col in (("x1^99999999999 - 1", 4), ("x1^10000 * x1^1000", 10)):
        with pytest.raises(ParseError, match="degree exceeds") as err:
            parse_problem(f"n 1\nfield Q\n{text}\n")
        assert (err.value.line, err.value.col) == (3, col), text


@pytest.mark.parametrize("text, position", [
    ("n 1\nfield Q\n{big}*x1 - 1\n", (3, 1)),
    ("n 1\nfield Q\nx1 - 2^{big}\n", (3, 8)),
    ("  n {big}\nfield Q\n", (1, 5)),
    ("n 1\nfield F {big}\n", (2, 9)),
])
def test_oversized_literals_are_positioned_parse_errors(text, position):
    # Past Python's default limit on decimal string conversion.
    with pytest.raises(ParseError, match="literal of 4301 digits") as err:
        parse_problem(text.format(big="7" * 4301))
    assert (err.value.line, err.value.col) == position


def test_coefficients_at_the_literal_limit_parse():
    spec = parse_problem("n 1\nfield Q\n" + "7" * 4300 + "*x1 - 1\n")
    assert len(str(spec.generators[0])) == len("7" * 4300 + "*x1 - 1")


def random_expression(rng, depth=0):
    kind = rng.randrange(6) if depth < 4 else rng.randrange(2)
    if kind == 0:
        return str(rng.randint(0, 99))
    if kind == 1:
        return f"x{rng.randint(1, 4)}"
    if kind == 2:
        return f"({random_expression(rng, depth + 1)})"
    if kind == 3:
        return f"-{random_expression(rng, depth + 1)}"
    if kind == 4:
        op = rng.choice([" + ", " - ", "*"])
        return random_expression(rng, depth + 1) + op + \
            random_expression(rng, depth + 1)
    return f"({random_expression(rng, depth + 1)})^{rng.randint(0, 3)}"


def test_fuzz_valid_expressions_parse():
    rng = random.Random(2024)
    ring = VarRing.matrix_ring(2, QQ)
    for _ in range(300):
        text = random_expression(rng)
        poly = parse_poly(text, ring)
        assert isinstance(poly, Polynomial)


def test_fuzz_mutated_expressions_never_crash():
    rng = random.Random(99)
    ring = VarRing.matrix_ring(2, QQ)
    alphabet = "x124+-*^() \t3z."
    for _ in range(400):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 18)))
        try:
            parse_poly(text, ring)
        except ParseError as err:
            assert err.line >= 1 and err.col >= 1


def test_round_trip_integer_polynomials():
    rng = random.Random(42)
    for field in (QQ, PrimeField(5), PrimeField(2)):
        ring = VarRing.matrix_ring(2, field)
        for _ in range(60):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                exps = [0] * 4
                for _ in range(rng.randint(0, 4)):
                    exps[rng.randrange(4)] += 1
                c = field.canonical(rng.randint(-9, 9))
                if c:
                    terms[tuple(exps)] = c
            f = Polynomial(ring, terms)
            assert parse_poly(render(f), ring) == f
