"""End-to-end acceptance suite.

Each test covers one numbered criterion, checks the verdicts at exact
(boolean) tolerance, enforces the stated wall-clock budget, and prints
one pass line.  All verdicts hold over the algebraic closure of the
problem's coefficient field.
"""

import random
import time

from conftest import padded_inverse_reference, random_matrix_problem
from test_matrices import (_random_x_poly, adjugate, flatten, frac_det,
                           frac_inverse, random_invertible)

from algroup import (Budget, QQ, VarRing, add_field_equations, buchberger,
                     check_multiplication, det_poly, enumerate_variety,
                     eval_at_formal_inverse, is_group, is_group_bruteforce,
                     multiplication_closed, normal_form, parse_poly,
                     run_checks, s_polynomial, variety_equals_vstar)


class Timer:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed <= self.limit, \
                f"exceeded budget: {self.elapsed:.1f}s > {self.limit}s"
        return False


def report(criterion, message, timer=None):
    suffix = f" ({timer.elapsed:.2f}s)" if timer else ""
    print(f"criterion {criterion}: PASS - {message}{suffix}")


def test_criterion_1_linear_forms_3x3_group(problem):
    spec = problem("linear-forms-3x3.alg")
    with Timer(600) as t:
        rep = is_group(spec)
        if rep.group is None:
            rep = is_group(spec, budget=Budget(pair_cap=10**8, degree_cap=2000))
    assert rep.group is True
    report(1, "two linear constraints on 3x3 matrices cut out a group", t)


def test_criterion_2_not_closed_under_inverses(problem):
    spec = problem("linear-forms-3x3-noninv.alg")
    with Timer(60) as t:
        rep = is_group(spec)
    assert rep.checks["identity"].verdict is True
    assert rep.checks["inversion"].verdict is False
    assert rep.group is False
    report(2, "identity holds but inversion fails", t)


def test_criterion_3_identity_fails_without_groebner(problem):
    spec = problem("linear-forms-3x3-noid.alg")
    with Timer(1) as t:
        rep = is_group(spec)
    assert rep.checks["identity"].verdict is False
    assert rep.group is False
    assert set(rep.checks) == {"identity"}
    assert all(res.gb_pairs == 0 for res in rep.checks.values())
    report(3, "missing identity decided by evaluation alone", t)


def test_criterion_4_invertible_but_not_closed(problem):
    spec = problem("fourth-roots.alg")
    with Timer(60) as t:
        assert variety_equals_vstar(spec).verdict is True
        rep = is_group(spec)
    assert rep.checks["identity"].verdict is True
    assert rep.checks["inversion"].verdict is True
    assert rep.checks["multiplication"].verdict is False
    assert rep.group is False
    report(4, "all points invertible yet multiplication escapes", t)


def test_criterion_5_multiplication_closure_split(problem):
    with Timer(60) as t:
        spec = problem("diag-antidiag.alg")
        assert check_multiplication(spec).verdict is True
        vs = enumerate_variety(problem("diag-antidiag-f3.alg"))
        full_closed, witness = multiplication_closed(vs.points, vs.n, vs.p)
        part_closed, _ = multiplication_closed(vs.invertible, vs.n, vs.p)
    assert full_closed is False and witness
    assert part_closed is True
    report(5, "invertible part multiplication-closed, full variety not", t)


def test_criterion_6_sl2_and_zero_ideal(problem):
    with Timer(10) as t1:
        sl2 = problem("sl2.alg")
        assert variety_equals_vstar(sl2).verdict is True
        assert is_group(sl2).group is True
    with Timer(10) as t2:
        gl2 = problem("gl2.alg")
        assert variety_equals_vstar(gl2).verdict is False
        assert is_group(gl2).group is True
    report(6, "determinant-one group and full linear group sanity pair", t2)


def test_criterion_7_rational_cubic_not_a_group(problem):
    spec = problem("cubic-roots.alg")
    with Timer(5) as t:
        rep = is_group(spec)
    assert rep.group is False
    report(7, "the three points 1, sqrt(2), -sqrt(2) fail closure", t)


def test_criterion_8_finite_field_restriction(problem):
    base = problem("cubic-roots-f5.alg")
    with Timer(60) as t1:
        spec5 = add_field_equations(base, 5)
        assert is_group(spec5).group is True
        vs = enumerate_variety(spec5)
        assert is_group_bruteforce(vs).group is True
    with Timer(60) as t2:
        assert is_group(add_field_equations(base, 25)).group is False
    report(8, "restriction to 5 elements is a group, to 25 is not", t2)


EQUIV_FIXTURES = ["sl2.alg", "gl2.alg", "torus2.alg", "diag-antidiag.alg",
                  "cubic-roots.alg", "fourth-roots.alg",
                  "linear-forms-3x3.alg", "linear-forms-3x3-noninv.alg",
                  "linear-forms-3x3-noid.alg"]


def test_criterion_9_equivalence_battery(problem):
    # The standard and division forms agree on the group property, and
    # the inversion check, on the hat ideal, agrees with the padded form
    # det*h in rad(I) on the raw generators.
    f5 = problem("cubic-roots-f5.alg")
    specs = [problem(name) for name in EQUIV_FIXTURES]
    specs += [add_field_equations(f5, q) for q in (5, 25)]
    pairs = 0
    for spec in specs:
        rep = run_checks(spec, ["group", "group-alt", "inversion"])
        assert rep.group is not None and rep.group == rep.group_alt, \
            spec.source
        inv = rep.checks["inversion"]
        assert (inv.verdict, inv.witness_index) == \
            padded_inverse_reference(spec), spec.source
        pairs += 1
    assert pairs == 11
    report(9, f"both algorithm variants agree on {pairs} decided fixtures")


def test_criterion_10_randomized_oracle_fuzzing():
    rng = random.Random(20260810)
    disagreements = 0
    with Timer(1800) as t:
        for trial in range(200):
            p = rng.choice([2, 3])
            spec = add_field_equations(random_matrix_problem(rng, p), p)
            vs = enumerate_variety(spec)
            brute = is_group_bruteforce(vs)
            rep = run_checks(spec, ["identity", "inversion",
                                    "multiplication", "group"])
            engine = {
                "identity": rep.checks["identity"].verdict,
                "inversion": rep.checks["inversion"].verdict,
                "multiplication": rep.checks["multiplication"].verdict,
                "group": rep.group,
            }
            truth = {"identity": brute.identity, "inversion": brute.inversion,
                     "multiplication": brute.multiplication,
                     "group": brute.group}
            if engine != truth:
                disagreements += 1
                print(f"trial {trial}: engine={engine} oracle={truth} "
                      f"gens={[str(g) for g in spec.generators]}")
    assert disagreements == 0
    report(10, "200 random problems agree with brute-force enumeration", t)


def test_criterion_11_property_suites():
    rng = random.Random(77)
    with Timer(600) as t:
        # Ring axioms on random triples.
        ring = VarRing.matrix_ring(2, QQ)
        for _ in range(25):
            f = _random_x_poly(rng, ring)
            g = _random_x_poly(rng, ring)
            h = _random_x_poly(rng, ring)
            assert (f + g) * h == f * h + g * h
            assert f * g == g * f and f + g == g + f

        # Every S-pair of a computed basis reduces to zero.
        gens = [parse_poly("x1*x4 - x2*x3 - 1", ring),
                parse_poly("x1^2 + x2", ring),
                parse_poly("x2*x3 - x4", ring)]
        basis = buchberger(gens).basis
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = s_polynomial(basis[i], basis[j])
                assert normal_form(s, basis) == ring.zero()

        # Normal forms are idempotent.
        for _ in range(10):
            f = _random_x_poly(rng, ring)
            nf = normal_form(f, basis)
            assert normal_form(nf, basis) == nf

        # The adjugate identity holds for dimensions 1 through 4.
        for n in (1, 2, 3, 4):
            rn = VarRing.matrix_ring(n, QQ)
            adj = adjugate(rn)
            det = det_poly(rn)
            x = [[rn.var(f"x{i * n + j + 1}") for j in range(n)]
                 for i in range(n)]
            for i in range(n):
                for j in range(n):
                    entry = sum((x[i][k] * adj[k][j] for k in range(n)),
                                rn.zero())
                    assert entry == (det if i == j else rn.zero())
            identity = [QQ.from_int(int(i == j))
                        for i in range(n) for j in range(n)]
            assert det.evaluate(identity) == QQ.one()

        # Formal-inverse contract on 100 random invertible matrices.
        cases = 0
        for n in (1, 2, 3):
            rn = VarRing.matrix_ring(n, QQ)
            for _ in range(12):
                f = _random_x_poly(rng, rn)
                img = eval_at_formal_inverse(f)
                for _ in range(3):
                    v = random_invertible(rng, n)
                    d = frac_det(v)
                    lhs = img.numerator.evaluate(flatten(v))
                    rhs = d**img.denom_exponent * \
                        f.evaluate(flatten(frac_inverse(v)))
                    assert lhs == rhs
                    cases += 1
        assert cases >= 100
    report(11, "module property suites hold", t)
