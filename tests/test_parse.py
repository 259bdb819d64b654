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
    assert parse_poly("2^3", ring) == ring.from_int(8)
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
                c = field.from_int(rng.randint(-9, 9))
                if c:
                    terms[tuple(exps)] = c
            f = Polynomial(ring, terms)
            assert parse_poly(render(f), ring) == f
