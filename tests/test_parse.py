import pathlib
import random
import sys
import time

import pytest
from conftest import PROBLEMS, reference_parse_poly, reference_parse_problem

from algroup import (ParseError, Polynomial, PrimeField, QQ, VarRing,
                     parse_poly, parse_problem, render)
from algroup.parsing import MAX_NESTING

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


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


def test_long_runs_of_spaces_scan_in_linear_time():
    # Each token is matched where the one before it ended, so spaces that
    # no token follows are read once: a quadratic scan of these lines
    # takes minutes.
    ring = VarRing.matrix_ring(2, QQ)
    spaces = " \t\r" * 70_000
    start = time.perf_counter()
    assert parse_poly("x1" + spaces, ring) == ring.var("x1")
    spec = parse_problem(f"n 2\nfield Q\nx1 -{spaces}1{spaces}\n")
    assert spec.generators == [parse_poly("x1 - 1", spec.ring)]
    with pytest.raises(ParseError, match="unexpected character '\\$'") \
            as err:
        parse_problem(f"n 2\nfield Q\nx1{spaces}$\n")
    assert (err.value.line, err.value.col) == (3, 3 + len(spaces))
    assert time.perf_counter() - start < 2


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


def test_parentheses_nest_up_to_the_bound():
    ring = VarRing.matrix_ring(2, QQ)
    deepest = "(" * MAX_NESTING + "x1 - 1" + ")" * MAX_NESTING
    assert parse_poly(deepest + "^2", ring) == parse_poly("(x1 - 1)^2", ring)
    # One level more is a positioned error at the '(' that opens it, as
    # is any depth at all: none reaches Python's recursion limit.
    for depth in (MAX_NESTING + 1, 1000, 100_000):
        text = "x2 * " + "(" * depth + "x1" + ")" * depth
        with pytest.raises(ParseError, match="nested deeper") as err:
            parse_problem(f"n 2\nfield Q\n{text}\n")
        assert (err.value.line, err.value.col) == (3, 6 + MAX_NESTING)
    # Levels closed before the next opens do not add up.
    flat = " + ".join(["(" * MAX_NESTING + "x1" + ")" * MAX_NESTING] * 3)
    assert parse_poly(flat, ring) == parse_poly("3*x1", ring)


def test_unary_minus_signs_need_no_nesting():
    ring = VarRing.matrix_ring(2, QQ)
    x1 = ring.var("x1")
    for count in (1000, 1001, 100_000):
        want = -x1 if count % 2 else x1
        assert parse_poly("-" * count + "x1", ring) == want
        assert parse_poly("x2 * " + "-" * count + "x1^2", ring) == \
            want * x1 * ring.var("x2")


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


def _outcome(parse, *args):
    """What a parse gives: the terms of its polynomials, in the order of
    their dicts, or the (line, col, reason) of its ParseError."""
    try:
        got = parse(*args)
    except ParseError as err:
        return "error", err.line, err.col, err.reason
    if isinstance(got, Polynomial):
        return "poly", got.ring, list(got.terms.items())
    return ("problem", got.n, got.field, got.ring,
            [list(f.terms.items()) for f in got.generators])


def _assert_problems_parse_as_the_reference(texts):
    for text in texts:
        got = _outcome(parse_problem, text)
        assert got == _outcome(reference_parse_problem, text), text


def _mutations(rng, texts, per_text):
    """Each text with one to three characters deleted, inserted or
    replaced, per_text times."""
    alphabet = "x124+-*^() \t\r\n3z.#y0F\u00b2\x0b"
    for text in texts:
        for _ in range(per_text):
            chars = list(text)
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(len(chars) + 1)
                edit = rng.randrange(3)
                if edit == 0 and pos < len(chars):
                    del chars[pos]
                elif edit == 1 or pos == len(chars):
                    chars.insert(pos, rng.choice(alphabet))
                else:
                    chars[pos] = rng.choice(alphabet)
            yield "".join(chars)


@pytest.fixture(scope="module")
def workload_texts():
    """The distinct inputs of every benchmark workload for seeds 4242
    and 99, by workload."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return {name: sorted({job.text for seed in (4242, 99)
                          for batch in wl.batches(seed) for job in batch})
            for name, wl in workloads.WORKLOADS.items()}


def test_expressions_parse_as_the_reference():
    ring = VarRing.matrix_ring(2, QQ)
    rng = random.Random(2024)
    texts = [random_expression(rng) for _ in range(300)]
    rng = random.Random(99)
    alphabet = "x124+-*^() \t3z."
    texts += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 18)))
              for _ in range(400)]
    texts += ["x1 +", "(x1", "x1^", "x1^x2", "x1 * * x2", "x1 $ x2", "",
              "2.5", "(x1-1)(x1+1)", "z + 1", "x5", "x1\u00b2", "x1 -\n 2",
              "x1^99999999999 - 1", "x1^10000 * x1^1000", "0^20000",
              "x1 + \u0663", "x1 - 1\u2028x1 + 1", "  x1  \t", ")", "-"]
    for field in (QQ, PrimeField(5)):
        ring = VarRing.matrix_ring(2, field)
        for text in texts:
            got = _outcome(parse_poly, text, ring, 4)
            assert got == _outcome(reference_parse_poly, text, ring, 4), text


def test_problem_files_parse_as_the_reference():
    texts = [path.read_text(encoding="utf-8")
             for path in sorted(PROBLEMS.glob("*.alg"))]
    assert len(texts) == 11
    _assert_problems_parse_as_the_reference(texts)
    _assert_problems_parse_as_the_reference(
        _mutations(random.Random(7), texts, 40))


def test_workload_inputs_parse_as_the_reference(workload_texts):
    assert {name: len(texts) for name, texts in workload_texts.items()} == \
        {"fp-fieldeq": 2339, "q-conjugates": 258, "large-n": 59}
    rng = random.Random(8)
    for texts in workload_texts.values():
        _assert_problems_parse_as_the_reference(texts)
        _assert_problems_parse_as_the_reference(
            _mutations(rng, texts[::max(1, len(texts) // 250)], 4))
