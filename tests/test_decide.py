import concurrent.futures
import json
import random

import pytest

from algroup import (Budget, DecisionReport, GBStats, Polynomial, VarRing,
                     add_field_equations, buchberger, build_f0, change_ring,
                     check_division, check_identity, check_inversion,
                     check_inversion_alt, check_multiplication, decide,
                     enumerate_variety, is_group, is_group_alt,
                     is_group_bruteforce, load_problem, parse_problem,
                     to_y_block, variety_equals_vstar)
from algroup.decide import _product_base

SUITE = ["sl2.alg", "gl2.alg", "torus2.alg", "diag-antidiag.alg",
         "cubic-roots.alg", "fourth-roots.alg", "linear-forms-3x3.alg",
         "linear-forms-3x3-noninv.alg", "linear-forms-3x3-noid.alg"]


def test_check_identity(problem):
    assert check_identity(problem("linear-forms-3x3-noid.alg")).verdict is False
    assert check_identity(problem("linear-forms-3x3-noninv.alg")).verdict is True
    assert check_identity(problem("sl2.alg")).verdict is True


def test_identity_failure_carries_witness(problem):
    res = check_identity(problem("linear-forms-3x3-noid.alg"))
    assert res.witness_index == 1
    assert "22" in res.witness


def test_check_inversion(problem):
    assert check_inversion(problem("torus2.alg")).verdict is True
    assert check_inversion(problem("linear-forms-3x3-noninv.alg")).verdict is False
    assert check_inversion(problem("sl2.alg")).verdict is True


def test_check_inversion_alt_agrees(problem):
    for name in SUITE:
        spec = problem(name)
        assert check_inversion(spec).verdict == check_inversion_alt(spec).verdict, name


def test_inversion_failure_carries_witness(problem):
    res = check_inversion(problem("linear-forms-3x3-noninv.alg"))
    assert res.verdict is False
    assert res.witness_index in (1, 2, 3)
    assert res.witness


def test_check_multiplication(problem):
    assert check_multiplication(problem("diag-antidiag.alg")).verdict is True
    assert check_multiplication(problem("fourth-roots.alg")).verdict is False
    spec = parse_problem("n 1\nfield Q\nx1^2 - 2\n")
    assert check_multiplication(spec).verdict is False


def test_is_group_on_the_paper_fixtures(problem):
    expected = {
        "sl2.alg": True,
        "gl2.alg": True,
        "torus2.alg": True,
        "diag-antidiag.alg": True,
        "cubic-roots.alg": False,
        "fourth-roots.alg": False,
        "linear-forms-3x3.alg": True,
        "linear-forms-3x3-noninv.alg": False,
        "linear-forms-3x3-noid.alg": False,
    }
    for name, want in expected.items():
        report = is_group(problem(name))
        assert report.group is want, name


def test_is_group_short_circuits(problem):
    report = is_group(problem("linear-forms-3x3-noid.alg"))
    assert set(report.checks) == {"identity"}
    assert report.checks["identity"].gb_pairs == 0

    report = is_group(problem("linear-forms-3x3-noninv.alg"))
    assert set(report.checks) == {"identity", "inversion"}

    report = is_group(problem("fourth-roots.alg"))
    assert report.checks["identity"].verdict is True
    assert report.checks["inversion"].verdict is True
    assert report.checks["multiplication"].verdict is False


def test_is_group_alt_agrees(problem):
    for name in SUITE:
        spec = problem(name)
        standard = is_group(spec)
        alt = is_group_alt(spec)
        assert standard.group == alt.group_alt, name


def test_variety_equals_vstar(problem):
    assert variety_equals_vstar(problem("sl2.alg")).verdict is True
    assert variety_equals_vstar(problem("gl2.alg")).verdict is False
    assert variety_equals_vstar(problem("fourth-roots.alg")).verdict is True


def test_empty_generator_list_is_a_group():
    spec = parse_problem("n 2\nfield Q\n")
    report = is_group(spec)
    assert report.group is True
    for check in ("identity", "inversion", "multiplication"):
        assert report.checks[check].verdict is True


def test_zero_generator_is_skipped():
    spec = parse_problem("n 2\nfield Q\n0\nx2\nx3\n")
    assert is_group(spec).group is True


def test_constant_generator_means_empty_variety():
    spec = parse_problem("n 2\nfield Q\n5\n")
    report = is_group(spec)
    assert report.group is False
    assert report.checks["identity"].verdict is False
    assert "empty variety" in report.notes


def test_fast_path_agrees_when_variety_is_invertible(problem):
    for name in ("sl2.alg", "fourth-roots.alg"):
        spec = problem(name)
        assert variety_equals_vstar(spec).verdict is True
        assert check_inversion(spec, fast_path=True).verdict == \
            check_inversion(spec).verdict, name
        assert check_multiplication(spec, fast_path=True).verdict == \
            check_multiplication(spec).verdict, name
        assert is_group(spec, fast_path=True).group == is_group(spec).group


def test_fast_path_falls_back_when_variety_has_singular_points(problem):
    spec = problem("torus2.alg")
    assert variety_equals_vstar(spec).verdict is False
    res = check_inversion(spec, fast_path=True)
    assert res.verdict is True
    assert "V(I) != V*(I)" in res.note


def test_field_equation_restriction():
    spec = parse_problem("n 1\nfield F 5\n(x1-1)*(x1^2-2)\n")
    assert is_group(add_field_equations(spec, 5)).group is True
    assert is_group(add_field_equations(spec, 25)).group is False
    assert is_group_alt(add_field_equations(spec, 5)).group_alt is True
    assert is_group_alt(add_field_equations(spec, 25)).group_alt is False


def test_library_report_records_field_equations():
    spec = parse_problem("n 1\nfield F 5\n(x1-1)*(x1^2-2)\n")
    assert spec.field_equations_q is None
    assert is_group(spec).field_equations_q is None
    restricted = add_field_equations(spec, 5)
    assert restricted.field_equations_q == 5
    assert is_group(restricted).field_equations_q == 5
    assert is_group_alt(restricted).field_equations_q == 5


def test_field_equations_multiplicative_group():
    spec = parse_problem("n 1\nfield F 3\n")
    restricted = add_field_equations(spec, 3)
    assert is_group(restricted).group is True
    vs = enumerate_variety(restricted)
    assert sorted(vs.invertible) == [(1,), (2,)]


def test_add_field_equations_validation():
    spec = parse_problem("n 1\nfield F 5\nx1 - 1\n")
    with pytest.raises(ValueError):
        add_field_equations(spec, 6)
    with pytest.raises(ValueError):
        add_field_equations(spec, 1)
    with pytest.raises(ValueError):
        add_field_equations(parse_problem("n 1\nfield Q\nx1 - 1\n"), 5)
    restricted = add_field_equations(spec, 25)
    assert len(restricted.generators) == 2
    assert restricted.generators[1].total_degree() == 25


def test_undecided_budget_propagates(problem):
    tiny = Budget(pair_cap=1)
    report = is_group(problem("fourth-roots.alg"), budget=tiny)
    assert report.group is None
    undecided = [r for r in report.checks.values() if r.verdict is None]
    assert undecided and all("budget" in r.undecided_reason for r in undecided)


def test_report_round_trips_through_json(problem):
    report = is_group(problem("fourth-roots.alg"))
    report.field_equations_q = None
    data = json.loads(json.dumps(report.to_dict()))
    assert DecisionReport.from_dict(data) == report


def test_parallel_generator_checks_match_sequential(problem):
    spec = problem("diag-antidiag.alg")
    seq = check_multiplication(spec)
    par = check_multiplication(spec, jobs=2)
    assert seq.verdict is True and par.verdict is True
    spec = problem("linear-forms-3x3-noninv.alg")
    assert check_inversion(spec, jobs=2).verdict is False


def test_only_the_reported_witness_is_rendered(problem, monkeypatch):
    rendered = []
    real = Polynomial.__str__

    def counting(self):
        rendered.append(self)
        return real(self)

    monkeypatch.setattr(Polynomial, "__str__", counting)
    runs = [
        (check_inversion, "sl2.alg", {}, True),
        (check_multiplication, "diag-antidiag.alg", {}, True),
        (check_division, "sl2.alg", {}, True),
        (check_inversion, "linear-forms-3x3-noninv.alg", {}, False),
        (check_inversion, "linear-forms-3x3-noninv.alg", {"jobs": 2}, False),
        (check_inversion_alt, "linear-forms-3x3-noninv.alg", {}, False),
        (check_multiplication, "fourth-roots.alg", {}, False),
        (check_division, "fourth-roots.alg", {}, False),
    ]
    for check, name, kwargs, verdict in runs:
        rendered.clear()
        res = check(problem(name), **kwargs)
        assert res.verdict is verdict, (check.__name__, name)
        if verdict:
            assert rendered == [] and res.witness is None
        else:
            assert len(rendered) == 1, (check.__name__, name)
            assert res.witness == real(rendered[0])


def test_parallel_workers_never_outnumber_the_tests(problem, monkeypatch):
    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=2)

    monkeypatch.setattr(decide, "ProcessPoolExecutor", Recording)
    spec = problem("diag-antidiag.alg")  # three generators
    assert check_inversion(spec, jobs=50).verdict is True
    assert sizes == [3]


@pytest.mark.parametrize("seed", [101, 202])
def test_engine_matches_bruteforce_oracle(seed):
    from conftest import random_matrix_problem
    rng = random.Random(seed)
    for _ in range(20):
        p = rng.choice([2, 3])
        spec = add_field_equations(random_matrix_problem(rng, p), p)
        cache = {}
        vs = enumerate_variety(spec)
        brute = is_group_bruteforce(vs)
        assert check_identity(spec).verdict == brute.identity
        assert check_inversion(spec, _cache=cache).verdict == brute.inversion
        assert check_multiplication(spec, _cache=cache).verdict == \
            brute.multiplication
        assert is_group(spec, _cache=cache).group == brute.group, spec.generators


def _doubled_basis_reference(spec, hats):
    """Buchberger on the doubled generators, built on the product ring."""
    ring = VarRing.matrix_ring(spec.n, spec.field, x0=hats, y=True, y0=hats)
    gens = [change_ring(f, ring) for f in spec.generators if f]
    gens.extend(to_y_block(f, ring) for f in spec.generators if f)
    if hats:
        gens.append(build_f0(ring, "x"))
        gens.append(build_f0(ring, "y"))
    return ring, buchberger(gens, ring=ring).basis


def _assert_product_base_matches_reference(spec):
    for hats in (False, True):
        ring, gb = _product_base(spec, hats, Budget(), {}, GBStats())
        ref_ring, ref = _doubled_basis_reference(spec, hats)
        assert ring == ref_ring
        assert set(gb.basis) == set(ref), (spec.generators, hats)
        # Same order as well, so the membership tests see the same input.
        assert gb.basis == ref, (spec.generators, hats)


def test_product_base_matches_doubled_buchberger_on_q_fixtures(problems_dir):
    specs = [load_problem(path) for path in sorted(problems_dir.glob("*.alg"))]
    specs = [spec for spec in specs if spec.field.characteristic == 0]
    assert len(specs) >= 8
    for spec in specs:
        _assert_product_base_matches_reference(spec)


def test_product_base_matches_doubled_buchberger_on_field_equations():
    from conftest import random_matrix_problem
    rng = random.Random(303)
    for _ in range(20):
        p = rng.choice([2, 3])
        _assert_product_base_matches_reference(
            add_field_equations(random_matrix_problem(rng, p), p))


def test_product_base_of_a_trivial_block():
    # det(x) = 0 leaves no invertible point: the hat ideal is (1).
    spec = parse_problem("n 2\nfield Q\nx1*x4 - x2*x3\n")
    ring, gb = _product_base(spec, True, Budget(), {}, GBStats())
    assert gb.basis == [ring.one()]
    _assert_product_base_matches_reference(spec)
