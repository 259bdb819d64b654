import json
import random
from collections import Counter
from dataclasses import replace

import pytest
from conftest import padded_inverse_reference

from algroup import (QQ, Budget, DecisionReport, GBStats, Polynomial,
                     ProblemSpec, VarRing, add_field_equations, buchberger,
                     build_f0, build_hat_ideal, change_ring, check_division,
                     check_identity, check_inversion, check_inversion_alt,
                     check_multiplication, contains_one, decide, det_poly,
                     enumerate_variety,
                     eval_at_formal_inverse, is_group, is_group_alt,
                     is_group_bruteforce, load_problem, normal_form,
                     parse_problem, run_checks, subst_product,
                     subst_x_times_inverse_y, to_y_block,
                     variety_equals_vstar)
from algroup import groebner, matrices
from algroup.poly import MAX_ENGINE_DEGREE
from algroup.decide import _Run
from algroup.matrices import CofactorTable

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


def test_check_inversion_alt_agrees(problems_dir, problem):
    # check_inversion_alt is a second name of the one inversion check,
    # which tests the numerator h of each generator at the formal inverse
    # against the hat ideal.  The padded form det*h in rad(I) holds
    # exactly when it does.
    assert check_inversion_alt is check_inversion
    specs = [load_problem(path) for path in sorted(problems_dir.glob("*.alg"))]
    f5 = problem("cubic-roots-f5.alg")
    specs += [add_field_equations(f5, q) for q in (5, 25)]
    specs += [spec for spec, _ in _random_corpus(101)]
    verdicts = Counter()
    for spec in specs:
        res = check_inversion(spec)
        assert (res.verdict, res.witness_index) == \
            padded_inverse_reference(spec), (spec.source, spec.generators)
        verdicts[res.verdict] += 1
    assert verdicts[True] >= 5 and verdicts[False] >= 5, verdicts


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
    assert check_multiplication(problem("diag-antidiag.alg")).verdict is True
    spec = problem("linear-forms-3x3-noninv.alg")
    assert check_inversion(spec).verdict is False


def test_only_the_reported_witness_is_rendered(problem, monkeypatch):
    rendered = []
    real = Polynomial.__str__

    def counting(self):
        rendered.append(self)
        return real(self)

    monkeypatch.setattr(Polynomial, "__str__", counting)
    runs = [
        (check_inversion, "sl2.alg", True),
        (check_multiplication, "diag-antidiag.alg", True),
        (check_division, "sl2.alg", True),
        (check_inversion, "linear-forms-3x3-noninv.alg", False),
        (check_multiplication, "fourth-roots.alg", False),
        (check_division, "fourth-roots.alg", False),
    ]
    for check, name, verdict in runs:
        rendered.clear()
        res = check(problem(name))
        assert res.verdict is verdict, (check.__name__, name)
        if verdict:
            assert rendered == [] and res.witness is None
        else:
            assert len(rendered) == 1, (check.__name__, name)
            assert res.witness == real(rendered[0])


def _random_corpus(seed):
    """Twenty random 2x2 problems over F_2 or F_3, with their prime."""
    from conftest import random_matrix_problem
    rng = random.Random(seed)
    for _ in range(20):
        p = rng.choice([2, 3])
        yield random_matrix_problem(rng, p), p


def _field_equation_corpus(seed):
    """The random corpus of the seed, with field equations."""
    for spec, p in _random_corpus(seed):
        yield add_field_equations(spec, p)


@pytest.mark.parametrize("seed", [101, 202])
def test_engine_matches_bruteforce_oracle(seed):
    for spec in _field_equation_corpus(seed):
        vs = enumerate_variety(spec)
        brute = is_group_bruteforce(vs)
        report = run_checks(spec, ["identity", "inversion", "multiplication",
                                "group"])
        assert report.checks["identity"].verdict == brute.identity
        assert report.checks["inversion"].verdict == brute.inversion
        assert report.checks["multiplication"].verdict == brute.multiplication
        assert report.group == brute.group, spec.generators


def _doubled_basis_reference(spec):
    """Buchberger on the doubled hat generators, built on the product
    ring."""
    ring = VarRing.matrix_ring(spec.n, spec.field, x0=True, y=True, y0=True)
    gens = [change_ring(f, ring) for f in spec.generators if f]
    gens.extend(to_y_block(f, ring) for f in spec.generators if f)
    gens.append(build_f0(ring, "x"))
    gens.append(build_f0(ring, "y"))
    return ring, buchberger(gens, ring=ring).basis


def _assert_product_base_matches_reference(spec):
    ring, gb = _Run(spec, Budget()).product_base(GBStats())
    ref_ring, ref = _doubled_basis_reference(spec)
    assert ring == ref_ring
    assert set(gb.basis) == set(ref), spec.generators
    # Same order as well, so the membership tests see the same input.
    assert gb.basis == ref, spec.generators


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
    ring, gb = _Run(spec, Budget()).product_base(GBStats())
    assert gb.basis == [ring.one()]
    _assert_product_base_matches_reference(spec)


def test_long_witnesses_are_cut_to_their_leading_terms():
    # Every generator is 1 at the identity, so it is its own witness.
    ring = VarRing.matrix_ring(2, QQ)
    x2 = ring.var("x2")
    whole = sum((x2**k for k in range(1, 64)), ring.one())  # 64 terms
    res = check_identity(parse_problem(f"n 2\nfield Q\n{whole}\n"))
    assert res.witness == str(whole)

    longer = whole + x2**64  # 65 terms
    res = check_identity(parse_problem(f"n 2\nfield Q\n{longer}\n"))
    head = " + ".join(f"x2^{k}" for k in range(64, 1, -1))
    assert res.witness == f"{head} + x2 + ... (65 terms)"


@pytest.mark.parametrize("name", ["sl2.alg", "torus2.alg"])
def test_one_run_computes_each_base_ideal_once(problem, monkeypatch, name):
    # sl2 has V = V*; torus2 does not.
    calls = []
    for engine in ("buchberger", "contains_one"):
        real = getattr(decide, engine)

        def counting(gens, *args, real=real, engine=engine, **kwargs):
            calls.append((engine, kwargs["ring"]))
            return real(gens, *args, **kwargs)

        monkeypatch.setattr(decide, engine, counting)
    report = run_checks(problem(name), ["group", "group-alt", "vstar-eq"])
    assert report.group is True and report.group_alt is True
    assert set(report.checks) == {"identity", "inversion", "multiplication",
                                  "division", "variety_equals_vstar"}
    plain = VarRing.matrix_ring(2, QQ)
    hat = VarRing.matrix_ring(2, QQ, x0=True)
    assert calls == [("buchberger", plain), ("buchberger", hat),
                     ("contains_one", plain)]


CLOSURE_CHECKS = ["inversion", "multiplication", "division"]


@pytest.fixture
def t_runs(monkeypatch):
    """Records every contains_one call on a ring with the variable t, that
    is, every t*f - 1 run of a radical-membership test."""
    runs = []
    real = groebner.contains_one

    def counting(gens, *args, **kwargs):
        if kwargs["ring"].has("t"):
            runs.append(kwargs["ring"])
        return real(gens, *args, **kwargs)

    monkeypatch.setattr(groebner, "contains_one", counting)
    return runs


@pytest.fixture
def no_certificate(monkeypatch):
    """Forces the radical criteria of `groebner` off: a base ideal not
    marked radical by field equations takes the t*f - 1 route."""
    monkeypatch.setattr(groebner, "_certify_radical", lambda *args: False)


def _closure_outcomes(report):
    return {name: (res.verdict, res.witness_index)
            for name, res in report.checks.items()}


def _field_equation_fixtures(problems_dir):
    for path in sorted(problems_dir.glob("*.alg")):
        spec = load_problem(path)
        p = spec.field.characteristic
        if p:
            for q in (p, p * p):
                yield add_field_equations(spec, q)


def test_field_equation_shortcut_matches_the_general_path(problems_dir,
                                                          t_runs,
                                                          no_certificate):
    cases = list(_field_equation_corpus(101))
    fixtures = list(_field_equation_fixtures(problems_dir))
    assert len(fixtures) == 4
    cases += fixtures
    false_checks = 0
    for spec in cases:
        t_runs.clear()
        shortcut = run_checks(spec, CLOSURE_CHECKS)
        assert t_runs == [], spec.generators
        general = run_checks(replace(spec, field_equations_q=None),
                             CLOSURE_CHECKS)
        assert _closure_outcomes(shortcut) == _closure_outcomes(general), \
            spec.generators
        falses = sum(res.verdict is False for res in general.checks.values())
        assert len(t_runs) >= falses, spec.generators
        false_checks += falses
    assert false_checks >= 16


@pytest.mark.parametrize("generator", ["2*x1*x2 + x2 + x4 + 1",
                                       "2*x2*x3 + 2*x2*x4 + x1 + 1"])
def test_false_multiplication_under_field_equations_is_one_normal_form(
        generator):
    # The t*f - 1 route took 3784 and 3281 pairs on these multiplication
    # checks; the doubled hat basis alone takes about 130.
    spec = add_field_equations(
        parse_problem(f"n 2\nfield F 3\n{generator}\n"), 3)
    report = run_checks(spec, ["inversion", "multiplication"])
    multiplication = report.checks["multiplication"]
    brute = is_group_bruteforce(enumerate_variety(spec))
    assert multiplication.verdict is False
    assert multiplication.verdict == brute.multiplication
    assert multiplication.gb_pairs <= 300


@pytest.mark.parametrize("q", [5, 4])
def test_field_equation_flag_without_the_equations_takes_the_general_path(
        problem, t_runs, no_certificate, q):
    # The flag alone proves nothing: F_5 problem flagged q = 5 without
    # x_k^5 - x_k, and one flagged with q = 4, no power of 5.
    spec = problem("cubic-roots-f5.alg")
    flagged = run_checks(replace(spec, field_equations_q=q), CLOSURE_CHECKS)
    assert len(t_runs) == 3
    cleared = run_checks(spec, CLOSURE_CHECKS)
    assert _closure_outcomes(flagged) == _closure_outcomes(cleared)
    assert all(res.verdict is False for res in flagged.checks.values())


def test_certified_base_ideals_run_no_t_times_f_minus_one(problem, t_runs):
    # (x1 - 1)*(x1^2 - 2) over F_5 is squarefree, without field equations:
    # every base ideal is proven radical by its minimal polynomials.
    report = run_checks(problem("cubic-roots-f5.alg"), CLOSURE_CHECKS)
    assert t_runs == []
    assert all(res.verdict is False for res in report.checks.values())


def _differential_corpus(problems_dir):
    """The fixtures, the Q metamorphic set, and the F_p fuzz corpus of
    seed 101 with its field equations but not flagged, so that the
    criteria, not the flag, decide."""
    for path in sorted(problems_dir.glob("*.alg")):
        yield load_problem(path)
    for _, moved in _q_metamorphic_cases(problems_dir):
        yield moved
    for spec in _field_equation_corpus(101):
        yield replace(spec, field_equations_q=None)


def test_radical_certificates_match_the_general_path(problems_dir, t_runs,
                                                     monkeypatch):
    cases = list(_differential_corpus(problems_dir))
    certified = [_closure_outcomes(run_checks(spec, CLOSURE_CHECKS))
                 for spec in cases]
    runs_with = len(t_runs)
    monkeypatch.setattr(groebner, "_certify_radical", lambda *args: False)
    general = [_closure_outcomes(run_checks(spec, CLOSURE_CHECKS))
               for spec in cases]
    for case, got, want in zip(cases, certified, general):
        assert got == want, case
    assert runs_with < len(t_runs) - runs_with


def test_reducers_are_prepared_once_per_basis(monkeypatch):
    # Six generators under the field equations: every normal form of the
    # inversion check divides by the hat basis, and every one of the
    # multiplication check by the doubled hat basis.  I's basis divides
    # det once, to seed the hat basis.
    prepared = []
    real = groebner._prepare_reducers

    def counting(G, ring):
        prepared.append(ring)
        return real(G, ring)

    monkeypatch.setattr(groebner, "_prepare_reducers", counting)
    spec = add_field_equations(parse_problem("n 2\nfield F 3\nx2\nx3\n"), 3)
    assert run_checks(spec, ["group"]).group is True
    assert prepared == [VarRing.matrix_ring(2, spec.field),
                        VarRing.matrix_ring(2, spec.field, x0=True),
                        VarRing.matrix_ring(2, spec.field, x0=True, y=True,
                                            y0=True)]


def test_image_over_the_degree_limit_is_undecided():
    # (x1*y1 + x2*y3)^5462 has degree 10924: it is refused before it is
    # expanded, and the check reports the generator and the degree.
    spec = parse_problem("n 2\nfield Q\nx1^5462\n")
    res = check_multiplication(spec,
                               budget=Budget(degree_cap=MAX_ENGINE_DEGREE))
    assert (res.verdict, res.witness_index) == (None, 1)
    assert f"10924 > {MAX_ENGINE_DEGREE}" in res.undecided_reason


def test_field_equation_run_starts_no_process_pool():
    spec = parse_problem("n 2\nfield F 3\nx2\nx3\n")
    assert check_multiplication(spec).verdict is True
    restricted = add_field_equations(spec, 3)  # six generators
    assert check_multiplication(restricted).verdict is True


# The expanded construction of each image factory: no `modulo`.
EXPANDED_IMAGES = {
    decide._inverse_numerator_image:
        lambda f, ring: change_ring(eval_at_formal_inverse(f).numerator, ring),
    decide._product_image: subst_product,
    decide._quotient_image: subst_x_times_inverse_y,
}


def _over_q(spec):
    """The problem with its integer coefficients read over Q."""
    ring = VarRing.matrix_ring(spec.n, QQ)
    return ProblemSpec(spec.n, QQ, [Polynomial(ring, f.exponents())
                                    for f in spec.generators], ring)


def test_reduced_images_equal_the_normal_forms_of_the_expanded_ones(
        problems_dir):
    specs = list(_field_equation_corpus(101))
    specs += [_over_q(spec) for spec in specs]
    specs += [spec for spec, _ in _random_corpus(101)]
    specs += [load_problem(p) for p in sorted(problems_dir.glob("*.alg"))]
    # Linear leads whose normal forms have several terms, and a zero
    # entry that drops out of every cofactor.
    specs += [moved for _, moved in _q_metamorphic_cases(problems_dir)]
    specs += [parse_problem(f"n {n}\nfield Q\nx2\n") for n in (4, 5)]
    assert {spec.field.characteristic for spec in specs} == {0, 2, 3, 5}
    compared = Counter()
    for spec in specs:
        run = _Run(spec, Budget())
        gens = [f for f in spec.generators if f]
        for name, check in decide._CLOSURE_CHECKS.items():
            ring, base = run.ideal(check.ideal, GBStats())
            # One table per check: every generator's image reuses its
            # pieces, as in a decision.
            image = check.image(CofactorTable(ring, base))
            for f in gens:
                want = normal_form(EXPANDED_IMAGES[check.image](f, ring), base)
                assert image(f) == want, (spec.generators, name, f)
                compared[name] += 1
    assert len(compared) == 3 and min(compared.values()) >= 200


def test_x2_division_builds_at_most_n_cofactors():
    # x2 at n=5: the image of x2 is y0 times entry (1, 2) of X*adj(Y),
    # which takes the cofactors of Y that meet the nonzero entries of
    # X's first row, four of them.
    n = 5
    run = _Run(parse_problem(f"n {n}\nfield Q\nx2\n"), Budget())
    assert run.check("division").verdict is False
    table = run.tables["doubled"]
    cofactors = [key for key in table.minors
                 if key[0] == "y" and len(key[1]) == n - 1]
    assert len(cofactors) == n - 1
    assert [key for key in table.images] == [("quotient", 0, 1)]


def test_closure_checks_build_the_determinant_and_adjugate_once(problem,
                                                                 monkeypatch):
    # Two linear forms in all nine entries: a group, so every generator
    # is tested by every check, and the images need cofactors that share
    # their minors with each other and with det.
    spec = problem("linear-forms-3x3.alg")
    checks, built = [], []
    real_check = _Run.closure_check
    real_build = matrices.CofactorTable._build_minor

    def tracking(self, name):
        checks.append(name)
        return real_check(self, name)

    def counting(self, block, rows, cols):
        built.append((checks[-1] if checks else None, self, block, rows,
                      cols))
        return real_build(self, block, rows, cols)

    monkeypatch.setattr(_Run, "closure_check", tracking)
    monkeypatch.setattr(matrices.CofactorTable, "_build_minor", counting)
    report = run_checks(spec, ["group", "group-alt"])
    assert report.group is True and report.group_alt is True
    # Within a check, at most one table of each ring builds the minors of
    # a block: the inversion check builds det modulo I's basis, to seed
    # the hat basis, and its images modulo the hat basis.
    tables = {}
    for check, table, block, _, _ in built:
        tables.setdefault((check, table.ring.has("x0"), block),
                          set()).add(id(table))
    assert tables.keys() == {("inversion", False, "x"),
                             ("inversion", True, "x"),
                             ("division", True, "y")}
    assert max(map(len, tables.values())) == 1, tables
    # No minor is built twice within a check on one ring.
    per_check = Counter((check, table.ring, block, rows, cols)
                        for check, table, block, rows, cols in built)
    assert max(per_check.values()) == 1, per_check


def _diagonal_family(n, quadratic):
    """Every off-diagonal entry zero, then quadratic(d) for each diagonal
    entry d."""
    entries = [f"x{k}" for k in range(1, n * n + 1)]
    diagonal = entries[::n + 1]
    lines = [e for e in entries if e not in diagonal]
    lines += [quadratic.format(d=d) for d in diagonal]
    return parse_problem(f"n {n}\nfield Q\n" + "\n".join(lines) + "\n")


@pytest.mark.parametrize("quadratic, verdict, index", [
    ("{d}^2 - 1", True, None),
    ("({d} - 1)*({d} - 2)", False, 21)])
def test_n5_diagonal_quadratics_build_small_images(monkeypatch, quadratic,
                                                   verdict, index):
    # Expanded before reduction, the inversion images of these families
    # reach 201,096 terms; reduced as they are built, a few dozen.
    sizes = []
    real = Polynomial._make

    def recording(ring, terms):
        sizes.append(len(terms))
        return real(ring, terms)

    monkeypatch.setattr(Polynomial, "_make", staticmethod(recording))
    report = run_checks(_diagonal_family(5, quadratic), ["group", "group-alt"])
    assert (report.group, report.group_alt) == (verdict, verdict)
    assert report.checks["inversion"].witness_index == index
    assert report.checks["division"].witness_index == index
    assert max(sizes) < 1000


def _random_sl_z(rng, n):
    """g in SL_n(Z) as a product of elementary matrices, with its inverse."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    ginv = [row[:] for row in g]
    for _ in range(3 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        e = rng.choice([-2, -1, 1, 2])
        # g <- g*(I + e*E_ij) and ginv <- (I - e*E_ij)*ginv.
        for row in g:
            row[j] += e * row[i]
        ginv[i] = [a - e * b for a, b in zip(ginv[i], ginv[j])]
    return g, ginv


def _q_metamorphic_cases(problems_dir):
    """(fixture, moved) pairs: each Q fixture conjugated by a random g in
    SL_n(Z), its generators scaled by random nonzero rationals.
    Non-unit and fractional scalars give every basis non-monic input."""
    rng = random.Random(41)
    scalars = [QQ.from_ratio(a, b) for a, b in
               [(2, 1), (-3, 1), (1, 2), (-2, 3), (5, 4), (7, 9)]]
    fixtures = [load_problem(path) for path in sorted(problems_dir.glob("*.alg"))]
    fixtures = [spec for spec in fixtures if spec.field == QQ]
    assert len(fixtures) == 9
    for spec in fixtures:
        n, ring = spec.n, spec.ring
        X = [[ring.var(matrices.entry_name("x", i + 1, j + 1, n))
              for j in range(n)] for i in range(n)]
        g, ginv = _random_sl_z(rng, n)
        images = {matrices.entry_name("x", i + 1, j + 1, n):
                  sum((ring.from_int(ginv[i][k] * g[l][j]) * X[k][l]
                       for k in range(n) for l in range(n)), ring.zero())
                  for i in range(n) for j in range(n)}
        yield spec, replace(spec, generators=[
            f.substitute(images) * ring.const(rng.choice(scalars))
            for f in spec.generators])


def test_q_verdicts_are_invariant_under_scaling_and_conjugation(problems_dir):
    # V and g*V*g^-1 are groups together, generator by generator: the
    # map X -> g^-1*X*g is a ring automorphism that carries each image
    # and each base ideal of one problem onto those of the other.
    # Scaling a generator by a nonzero constant changes no ideal.
    for spec, moved in _q_metamorphic_cases(problems_dir):
        want = run_checks(spec, ["group", "group-alt"])
        got = run_checks(moved, ["group", "group-alt"])
        assert (got.group, got.group_alt) == (want.group, want.group_alt)
        assert _closure_outcomes(got) == _closure_outcomes(want), \
            spec.source


def test_a_closed_submonoid_is_closed_under_inversion(problems_dir):
    # V*(I) is closed in GL_n.  If it holds the identity and is closed
    # under multiplication, it is a closed submonoid M, and then a group:
    # for x in M, the closed sets M, xM, x^2*M, ... descend, so they
    # stop by Noetherianity, x^k*M = x^(k+1)*M; multiplying by x^-k gives
    # M = xM, so 1 = x*m for some m in M, and x^-1 = m lies in M.  This
    # holds over every field, characteristic 0 included, and does not
    # read the inversion image or its base ideal.
    specs = [load_problem(path) for path in sorted(problems_dir.glob("*.alg"))]
    specs += [moved for _, moved in _q_metamorphic_cases(problems_dir)]
    for seed in (101, 202):
        for spec, p in _random_corpus(seed):
            specs += [spec, add_field_equations(spec, p)]
    monoids = Counter()
    for spec in specs:
        report = run_checks(spec, ["identity", "inversion",
                                   "multiplication"])
        verdicts = {name: res.verdict for name, res in report.checks.items()}
        assert None not in verdicts.values(), (spec.source, spec.generators)
        if verdicts["identity"] and verdicts["multiplication"]:
            assert verdicts["inversion"] is True, (spec.source,
                                                   spec.generators)
            monoids[spec.field.characteristic] += 1
    assert monoids[0] >= 10 and monoids[2] + monoids[3] >= 10, monoids


def _unseeded(self, stats):
    """`_Run.seed` as if it computed no basis of I and reduced nothing:
    the raw generators and the expanded determinant."""
    gens = [f for f in self.problem.generators if f]
    return gens, 0, det_poly(self.problem.ring, "x")


def _seeding_corpus(problems_dir):
    """Every fixture, its F_p ones also with field equations; the Q
    metamorphic problems; the F_p corpus of seed 101 with and without
    field equations."""
    specs = [load_problem(path) for path in sorted(problems_dir.glob("*.alg"))]
    specs += _field_equation_fixtures(problems_dir)
    specs += [moved for _, moved in _q_metamorphic_cases(problems_dir)]
    for spec, p in _random_corpus(101):
        specs += [spec, add_field_equations(spec, p)]
    return specs


def test_base_bases_built_on_i_match_the_raw_generators(problems_dir,
                                                         monkeypatch):
    # The hat and I+det ideals are built on I's reduced basis and det
    # reduced modulo it; the ideals, hence the reduced bases and every
    # verdict and witness, are those of the raw generators.
    checks = ["group", "group-alt", "vstar-eq"]
    specs = _seeding_corpus(problems_dir)
    assert len(specs) == 64
    seeded = [run_checks(spec, checks) for spec in specs]
    for spec in specs:
        ring, gens = build_hat_ideal(spec)
        want_hat = buchberger(gens, ring=ring).basis
        want_vstar = contains_one(list(spec.generators)
                                  + [det_poly(spec.ring, "x")],
                                  ring=spec.ring)
        run = _Run(spec, Budget())
        hat_ring, hat = run.ideal("hat", GBStats())
        assert hat_ring == ring and hat.basis == want_hat, spec
        assert run.ideal("I+det", GBStats()) == want_vstar, spec
    monkeypatch.setattr(_Run, "seed", _unseeded)
    unseeded = [run_checks(spec, checks) for spec in specs]
    fewer = 0
    for spec, got, want in zip(specs, seeded, unseeded):
        assert (got.group, got.group_alt) == (want.group, want.group_alt)
        assert got.checks.keys() == want.checks.keys()
        for name, res in got.checks.items():
            ref = want.checks[name]
            assert (res.verdict, res.witness_index, res.witness) == \
                (ref.verdict, ref.witness_index, ref.witness), (spec, name)
        # I's pairs count in the first check that seeds on it.  When the
        # run builds both the hat ideal and I+det, I's one basis serves
        # both; when the identity fails, only I+det is built, and I's
        # basis may cost more than the raw generators save.
        if got.checks["identity"].verdict:
            pairs = [sum(res.gb_pairs for res in report.checks.values())
                     for report in (got, want)]
            assert pairs[0] <= pairs[1], spec
            fewer += pairs[0] < pairs[1]
    assert fewer >= 15
