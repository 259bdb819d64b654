import json
import random
from collections import Counter

import pytest
from conftest import (hat_ideal_reference, padded_inverse_reference, respec,
                      subst_x_times_inverse_y, to_y_block_reference)

from algroup import (QQ, Budget, DecisionReport, GBStats, Polynomial,
                     ProblemSpec, VarRing, add_field_equations, buchberger,
                     change_ring, check_division,
                     check_identity, check_inversion, check_multiplication,
                     contains_one, decide, det_poly, enumerate_variety,
                     is_group, is_group_alt, is_group_bruteforce,
                     load_problem, normal_form, parse_problem,
                     radical_membership, run_checks, variety_equals_vstar)
from algroup import groebner, matrices
from algroup.poly import MAX_ENGINE_DEGREE
from algroup.decide import _Run, check_inversion_alt
from algroup.matrices import (CofactorTable, build_f0,
                              eval_at_formal_inverse, subst_product)

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


@pytest.mark.parametrize("checks", [["group", "Group"],
                                    ["identity", "bogus"]])
def test_run_checks_rejects_an_unknown_name_before_any_check(
        problem, monkeypatch, checks):
    ran = []
    monkeypatch.setattr(decide, "check_identity",
                        lambda *args: ran.append(args))
    with pytest.raises(ValueError, match=repr(checks[1])) as exc:
        run_checks(problem("sl2.alg"), checks)
    assert ran == []
    assert str(exc.value).endswith(
        "expected one of identity, inversion, multiplication, division, "
        "group, group-alt, vstar-eq, variety_equals_vstar")


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
    # The hat route: I is positive-dimensional.  (fourth-roots.alg is
    # decided modulo I within one pair.)
    tiny = Budget(pair_cap=1)
    report = is_group(problem("diag-antidiag.alg"), budget=tiny)
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


def _doubled_basis_reference(spec, block):
    """Buchberger on the doubled generators of the block's ideal, the hat
    ideal or I, built on the product ring."""
    hat = block == "hat"
    ring = VarRing.matrix_ring(spec.n, spec.field, x0=hat, y=True, y0=hat)
    gens = [change_ring(f, ring) for f in spec.generators if f]
    gens.extend(to_y_block_reference(f, ring) for f in spec.generators if f)
    if hat:
        gens.append(build_f0(ring, "x"))
        gens.append(build_f0(ring, "y"))
    return ring, buchberger(gens, ring=ring).basis


def _assert_product_base_matches_reference(spec):
    for block in ("hat", "I"):
        gb = _Run(spec, Budget()).product_base(block, GBStats())
        ring, ref = _doubled_basis_reference(spec, block)
        assert gb.ring == ring
        assert set(gb.basis) == set(ref), (spec.generators, block)
        # Same order as well, so the membership tests see the same input.
        assert gb.basis == ref, (spec.generators, block)
        # The reducers shifted from the block basis's are those prepared
        # from the doubled basis, element by element: lead, lead
        # coefficient and tail in the same order.
        assert gb.reducers == groebner._prepare_reducers(gb.basis, ring)


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


def test_decisions_build_no_basis_as_polynomials(problems_dir,
                                                 monkeypatch):
    # A GroebnerBasis keeps its elements as prepared reducers alone, and
    # a basis seeds a run in a larger ring as its reducers, moved: the
    # hat ideal and I+det on I's basis, the doubled ideal on the hat
    # basis, and a t*f - 1 run on the basis it tests against.  No
    # decision reads `GroebnerBasis.basis`.
    converted = []
    real = groebner._as_poly

    def recording(prep, ring):
        converted.append(ring)
        return real(prep, ring)

    monkeypatch.setattr(groebner, "_as_poly", recording)
    runs = [(spec, ["group", "group-alt", "vstar-eq"], "division")
            for spec in _field_equation_fixtures(problems_dir)]
    runs += [case[:3] for case in _t_route_cases()]
    for spec, checks, name in runs:
        assert run_checks(spec, checks).checks[name].verdict is not None
    assert converted == []
    # A triviality test reads the leads of the run's elements only.
    ring = VarRing.matrix_ring(2, QQ)
    sl2 = ring.var("x1") * ring.var("x4") - ring.var("x2") * ring.var("x3")
    assert not contains_one([sl2 - ring.one(), ring.var("x2") ** 2])
    assert converted == []


def test_product_base_of_a_trivial_block():
    # det(x) = 0 leaves no invertible point: the hat ideal is (1).
    spec = parse_problem("n 2\nfield Q\nx1*x4 - x2*x3\n")
    gb = _Run(spec, Budget()).product_base("hat", GBStats())
    assert gb.basis == [gb.ring.one()]
    _assert_product_base_matches_reference(spec)
    # x1 = 1 and x1 = 2 leave no point: I is (1).
    spec = parse_problem("n 2\nfield Q\nx1 - 1\nx1 - 2\n")
    gb = _Run(spec, Budget()).product_base("I", GBStats())
    assert gb.basis == [gb.ring.one()] and not gb.ring.has("y0")
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
    """Forces every radical certificate off, the criteria of `groebner`
    and the field equations' mark alike: a membership test whose normal
    form is not zero takes the t*f - 1 route."""
    monkeypatch.setattr(groebner.GroebnerBasis, "certified_radical",
                        lambda *args: False)


@pytest.fixture
def hat_route_only(monkeypatch):
    """Switches the route modulo I off: every closure check takes the hat
    route."""
    monkeypatch.setattr(_Run, "modulo_i", lambda self, stats: False)


@pytest.fixture
def general_vstar(monkeypatch):
    """Switches the normal form of det^(q-1) - 1 under field equations
    off: "variety_equals_vstar" runs the seeded I + (det) test."""
    monkeypatch.setattr(_Run, "vstar_by_normal_form", lambda self: False)


@pytest.fixture
def general_empty_base(monkeypatch):
    """Switches the empty-base answer off: a closure check on a base of
    (1) builds every image and tests it."""
    monkeypatch.setattr(_Run, "empty_base", lambda self, block, stats: False)


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


def test_field_equation_bases_are_certified_by_the_engine(
        problems_dir, hat_route_only, t_runs, request):
    # x^q - x is squarefree, so criterion (b) of `groebner` proves every
    # base ideal under field equations radical: no t*f - 1 run occurs,
    # and the verdicts are those of the t*f - 1 route.  The route modulo
    # I is switched off, so that the hat bases are the ones tested.
    cases = list(_field_equation_corpus(101))
    fixtures = list(_field_equation_fixtures(problems_dir))
    assert len(fixtures) == 4
    cases += fixtures
    certified = [_closure_outcomes(run_checks(spec, CLOSURE_CHECKS))
                 for spec in cases]
    assert t_runs == []
    request.getfixturevalue("no_certificate")
    false_checks = 0
    for spec, got in zip(cases, certified):
        t_runs.clear()
        general = run_checks(spec, CLOSURE_CHECKS)
        assert got == _closure_outcomes(general), spec.generators
        # division shares multiplication's result and its t*f - 1 runs.
        results = {id(res): res for res in general.checks.values()}
        falses = sum(res.verdict is False for res in results.values())
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
    # One t*f - 1 run for inversion, and one for multiplication, whose
    # result division shares.
    spec = problem("cubic-roots-f5.alg")
    flagged = run_checks(respec(spec, field_equations_q=q), CLOSURE_CHECKS)
    assert len(t_runs) == 2
    cleared = run_checks(spec, CLOSURE_CHECKS)
    assert _closure_outcomes(flagged) == _closure_outcomes(cleared)
    assert all(res.verdict is False for res in flagged.checks.values())


def test_certified_base_ideals_run_no_t_times_f_minus_one(problem, t_runs):
    # (x1 - 1)*(x1^2 - 2) over F_5 is squarefree, without field equations:
    # every base ideal is proven radical by its minimal polynomials.
    report = run_checks(problem("cubic-roots-f5.alg"), CLOSURE_CHECKS)
    assert t_runs == []
    assert all(res.verdict is False for res in report.checks.values())


FIELD_EQUATION_PAIRS = [(2, 2), (2, 4), (3, 3), (3, 9), (5, 5), (5, 25),
                        (7, 7)]
FIELD_EQUATION_CHECKS = [["group"], ["group-alt"],
                         ["inversion", "multiplication", "vstar-eq"]]


@pytest.mark.parametrize("p, q", FIELD_EQUATION_PAIRS)
def test_field_equations_untested_agree_with_the_general_path(monkeypatch,
                                                              p, q):
    # The closure checks do not test the field equations; with the guard
    # switched off they test every generator.  Wherever that general path
    # decides, verdicts, witnesses and witness places agree.  The pair cap
    # keeps the general path short, and what it leaves undecided is not
    # compared.  Each random generator is moved to vanish at the
    # identity, so that the group checks reach the closure checks.
    from conftest import random_matrix_problem
    rng = random.Random(100 * p + q)
    sizes = [1] * 4 + [2] * 3 + ([3] if q == p < 5 else [])
    specs = []
    for n in sizes:
        spec = random_matrix_problem(rng, p, n=n)
        one = decide.identity_point(spec)
        spec = respec(spec, generators=[f - f.evaluate(one)
                                        for f in spec.generators])
        specs.append(add_field_equations(spec, q))
    budget = Budget(pair_cap=300)
    runs = [(spec, checks) for spec in specs
            for checks in FIELD_EQUATION_CHECKS]
    shortcut = [run_checks(spec, checks, budget=budget)
                for spec, checks in runs]
    monkeypatch.setattr(decide, "_field_equations",
                        lambda problem: frozenset())
    assert not any(_Run(spec, budget).vstar_by_normal_form()
                   for spec in specs)
    compared = 0
    for (spec, checks), got in zip(runs, shortcut):
        general = run_checks(spec, checks, budget=budget)
        for name, want in general.checks.items():
            if want.verdict is None:
                continue
            res = got.checks[name]
            assert (res.verdict, res.witness, res.witness_index) == \
                (want.verdict, want.witness, want.witness_index), \
                (spec.generators, name)
            compared += name in CLOSURE_CHECKS
        for verdict in ("group", "group_alt"):
            if getattr(general, verdict) is not None:
                assert getattr(got, verdict) == getattr(general, verdict)
    assert compared >= len(runs)


def _vstar_cases(p, q):
    """Problems under the field equations of q: random ones at n = 1
    and 2, GL_1(F_q) and GL_2(F_q), and one whose I is (1)."""
    from conftest import random_matrix_problem
    rng = random.Random(1000 * p + q)
    specs = [random_matrix_problem(rng, p, n=n) for n in (1, 1, 1, 2, 2, 2)]
    specs += [parse_problem(f"n {n}\nfield F {p}\n") for n in (1, 2)]
    specs.append(parse_problem(f"n 2\nfield F {p}\nx1\nx1 - 1\n"))
    return [add_field_equations(spec, q) for spec in specs]


@pytest.mark.parametrize("p, q", FIELD_EQUATION_PAIRS)
def test_vstar_under_field_equations_matches_the_seeded_run(
        request, p, q):
    # Under field equations V(I) = V*(I) is decided as
    # NF_I(det^(q-1) - 1) = 0, with no run on I + (det) (see the module
    # docstring of `decide`).  Wherever the seeded I + (det) run decides
    # within the pair cap, the verdicts agree; for q = p the variety's
    # points are the oracle's, and they are all invertible exactly when
    # the verdict is true.
    specs = _vstar_cases(p, q)
    budget = Budget(pair_cap=300)
    assert all(_Run(spec, budget).vstar_by_normal_form() for spec in specs)
    shortcut = [variety_equals_vstar(spec, budget=budget) for spec in specs]
    assert shortcut[-1].verdict is True  # V(I) is empty
    request.getfixturevalue("general_vstar")
    compared = 0
    for spec, got in zip(specs, shortcut):
        assert got.verdict is not None, spec.generators
        want = variety_equals_vstar(spec, budget=budget)
        if want.verdict is not None:
            assert got.verdict == want.verdict, spec.generators
            compared += 1
        if q == p:
            vs = enumerate_variety(spec)
            assert got.verdict == (len(vs.points) == len(vs.invertible))
    assert compared >= len(specs) - 2


def test_vstar_normal_form_keeps_its_products_within_the_degree_cap():
    # The powers of r = NF_I(det) are reduced, of degree below q in each
    # entry, so a product r^k * r has degree at most n^2*(q-1) + n.  Under
    # a lower degree cap the seeded I + (det) run decides, within that
    # cap, and counts its pairs.
    spec = add_field_equations(parse_problem("n 2\nfield F 3\n"), 3)
    bound = 4 * 2 + 2
    assert _Run(spec, Budget(degree_cap=bound)).vstar_by_normal_form()
    assert not _Run(spec, Budget(degree_cap=bound - 1)).vstar_by_normal_form()
    by_normal_form = variety_equals_vstar(spec, budget=Budget(degree_cap=bound))
    seeded = variety_equals_vstar(spec, budget=Budget(degree_cap=bound - 1))
    assert (by_normal_form.verdict, by_normal_form.gb_pairs) == (False, 0)
    assert seeded.verdict is False and seeded.gb_pairs > 0


def test_vstar_normal_form_reads_det_from_i_and_runs_no_buchberger(
        monkeypatch):
    # After an earlier check built I, "variety_equals_vstar" counts no
    # pair, reads r^(q-1) from I's CofactorTable, and builds no I + (det).
    spec = add_field_equations(
        parse_problem("n 2\nfield F 3\nx2\nx3\n"), 3)
    run = _Run(spec, Budget(), {"hat", "I+det"})
    assert run.check("inversion").verdict is True

    def refuse(*args, **kwargs):
        raise AssertionError("a Groebner run")

    monkeypatch.setattr(decide, "buchberger", refuse)
    monkeypatch.setattr(decide, "contains_one", refuse)
    res = run.check("variety_equals_vstar")
    # The diagonal matrices over F_3 include singular ones.
    assert (res.verdict, res.gb_pairs, res.gb_zero_reductions) == (False, 0, 0)
    assert "I+det" not in run.seeded and "I+det" not in run.bases


def _closure_pairs(checks):
    return {name: (res.verdict, res.gb_pairs, res.gb_zero_reductions)
            for name, res in checks.items()}


@pytest.mark.parametrize("text, q", [
    ("n 2\nfield F 3\nx1\nx1 - 1\n", 3),  # I = (1), modulo I
    ("n 2\nfield Q\nx1*x4 - x2*x3\n", None),  # the hat ideal is (1)
])
def test_a_closure_check_on_an_empty_base_builds_no_image(monkeypatch,
                                                          request, text, q):
    # The base's zero set is empty, so every image lies in (1): the
    # closure checks are true with the pair counts of the run that tests
    # every image, and no CofactorTable or image is built.
    spec = parse_problem(text)
    if q:
        spec = add_field_equations(spec, q)
    checks = ["inversion", "multiplication"]

    def refuse(*args):
        raise AssertionError("an image was built")

    with monkeypatch.context() as m:
        m.setattr(decide, "eval_at_formal_inverse", refuse)
        m.setattr(decide, "subst_product", refuse)
        run = _Run(spec, Budget(), {"hat"})
        got = _closure_pairs({name: run.check(name) for name in checks})
    assert run.tables == {}
    assert run.modulo_i(GBStats()) is bool(q)
    request.getfixturevalue("general_empty_base")
    assert got == _closure_pairs(run_checks(spec, checks).checks)
    assert all(verdict for verdict, _, _ in got.values())


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_empty_bases_give_the_reports_of_the_general_path(monkeypatch,
                                                          request, seed):
    # On the random corpus, with and without field equations, skipping
    # the images of an empty base changes no report, timings aside.  The
    # pair cap keeps the t*f - 1 runs of the false checks without field
    # equations short; undecided checks are compared too.
    specs = [spec for pair in _random_corpus(seed)
             for spec in (pair[0], add_field_equations(*pair))]
    checks = ["group", "inversion", "multiplication", "division"]
    budget = Budget(pair_cap=300)
    empty = []
    real = _Run.empty_base

    def counted(self, block, stats):
        found = real(self, block, stats)
        empty.append(found)
        return found

    monkeypatch.setattr(_Run, "empty_base", counted)
    shortcut = [_untimed(run_checks(spec, checks, budget=budget))
                for spec in specs]
    assert sum(empty) >= 6
    request.getfixturevalue("general_empty_base")
    for spec, got in zip(specs, shortcut):
        assert got == _untimed(run_checks(spec, checks, budget=budget)), \
            spec.generators


def _untimed(report):
    data = report.to_dict()
    for check in data["checks"].values():
        del check["seconds"]
    return data


def test_field_equations_mark_the_hat_basis_radical(problems_dir,
                                                    monkeypatch):
    # The hat ideal holds x_k^q - x_k and x0^q - x0, each squarefree, so
    # its basis is marked radical as it is built; criterion (b) agrees,
    # and no check of the run computes a minimal polynomial.
    from conftest import random_matrix_problem
    specs = list(_field_equation_corpus(101))
    specs += list(_field_equation_fixtures(problems_dir))
    rng = random.Random(105)
    specs += [add_field_equations(random_matrix_problem(rng, p, n=n), q)
              for p, q in FIELD_EQUATION_PAIRS for n in (1, 2)]
    minimal = []
    real = groebner._minimal_polynomial

    def counting(*args):
        minimal.append(args)
        return real(*args)

    monkeypatch.setattr(groebner, "_minimal_polynomial", counting)
    budget = Budget(pair_cap=2000)
    proven = 0
    for spec in specs:
        run = _Run(spec, budget)
        try:
            hat = run.ideal("hat", GBStats())
        except groebner.BudgetExhausted:
            continue
        assert hat.radical is True and run.bases["I"].radical is True, \
            spec.generators
        run_checks(spec, CLOSURE_CHECKS, budget=budget)
        assert minimal == [], spec.generators
        assert groebner._certify_radical(hat, budget.degree_cap), \
            spec.generators
        proven += bool(minimal)
        minimal.clear()
    assert proven >= 20


def _field_equation_places(text):
    return _Run(parse_problem(text), Budget()).field_equations


def test_the_field_equation_guard_reads_the_generators(request):
    # Taken: the equations of one q covering every entry, found by their
    # terms whether or not the problem records q, and in any place.
    # x1^9 - x1 alone covers no entry set of its own, so it is tested.
    f3 = "n 2\nfield F 3\n"
    eqs = "".join(f"x{k}^3 - x{k}\n" for k in range(1, 5))
    assert _field_equation_places(f3 + eqs) == {1, 2, 3, 4}
    assert _field_equation_places(f3 + "x2\n" + eqs + "x1^9 - x1\n") == \
        {2, 3, 4, 5}
    assert _field_equation_places("n 1\nfield F 2\nx1^4 + x1\n") == {1}
    # Each of these is tested as any generator: x_k^4 - x_k over F_3, as 4
    # is no power of 3; one entry without its equation; a scaled equation,
    # and three look-alikes in place of x1^3 - x1; and two q that do not
    # each cover every entry.
    others = "".join(f"x{k}^3 - x{k}\n" for k in range(2, 5))
    untested = [
        "".join(f"x{k}^4 - x{k}\n" for k in range(1, 5)),
        "".join(f"x{k}^3 - x{k}\n" for k in range(1, 4)),
        "2*x1^3 - 2*x1\n" + others,
        "2*x1^3 - x1\n" + others,
        "x1^3 + x1\n" + others,
        "x1^2*x2 - x1\n" + others,
        "x1^3 - x1\nx2^3 - x2\nx3^9 - x3\nx4^9 - x4\n",
    ]
    assert _field_equation_places("n 1\nfield Q\nx1^3 - x1\n") == set()
    # On the hat route every tested generator needs the hat basis.  (On
    # the route modulo I, I's basis may take no pair.)
    request.getfixturevalue("hat_route_only")
    for gens in untested:
        assert _field_equation_places(f3 + gens) == set(), gens
        assert check_inversion(parse_problem(f3 + gens)).gb_pairs > 0, gens


@pytest.mark.parametrize("p, q", [(3, 3), (2, 4)])
def test_gl2_over_a_finite_field_builds_no_hat_basis(p, q):
    # GL_2(F_q): no generator but the field equations.  The closure checks
    # are true with no basis built; V(I) holds the singular matrices.
    spec = add_field_equations(parse_problem(f"n 2\nfield F {p}\n"), q)
    report = run_checks(spec, ["group", "group-alt", "vstar-eq"])
    assert report.group is True and report.group_alt is True
    for name in CLOSURE_CHECKS:
        assert report.checks[name].gb_pairs == 0
    assert report.checks["variety_equals_vstar"].verdict is False
    if q == p:
        vs = enumerate_variety(spec)
        brute = is_group_bruteforce(vs)
        assert (brute.identity, brute.inversion, brute.multiplication,
                brute.group) == (True, True, True, True)
        assert len(vs.points) > len(vs.invertible)


def _differential_corpus(problems_dir):
    """The fixtures, the Q metamorphic set, and the F_p fuzz corpus of
    seed 101 with its field equations."""
    for path in sorted(problems_dir.glob("*.alg")):
        yield load_problem(path)
    for _, moved in _q_metamorphic_cases(problems_dir):
        yield moved
    yield from _field_equation_corpus(101)


def test_radical_certificates_match_the_general_path(problems_dir, t_runs,
                                                     request):
    cases = list(_differential_corpus(problems_dir))
    certified = [_closure_outcomes(run_checks(spec, CLOSURE_CHECKS))
                 for spec in cases]
    runs_with = len(t_runs)
    request.getfixturevalue("no_certificate")
    general = [_closure_outcomes(run_checks(spec, CLOSURE_CHECKS))
               for spec in cases]
    for case, got, want in zip(cases, certified, general):
        assert got == want, case
    assert runs_with < len(t_runs) - runs_with


def test_reducers_are_prepared_once_per_basis(monkeypatch):
    # Six generators under the field equations: every normal form of the
    # inversion check divides by the hat basis, and every one of the
    # multiplication check by the doubled hat basis.  I's basis divides
    # det once, to seed the hat basis.  `buchberger` hands each basis the
    # reducers its interreduction prepared, and the doubled basis's
    # reducers are the hat basis's, shifted: nothing is prepared again.
    prepared = []
    real = groebner._prepare_reducers

    def counting(G, ring):
        prepared.append(ring)
        return real(G, ring)

    monkeypatch.setattr(groebner, "_prepare_reducers", counting)
    spec = add_field_equations(parse_problem("n 2\nfield F 3\nx2\nx3\n"), 3)
    assert run_checks(spec, ["group"]).group is True
    assert prepared == []


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


# The construction of each closure check's image on the hat route and on
# the route modulo I, which builds the expanded image on a table with no
# basis; on the route modulo I it is padded by the determinants of the
# blocks of PADS.
EXPANDED_IMAGES = {
    "inversion": (eval_at_formal_inverse, eval_at_formal_inverse),
    "multiplication": (subst_product, subst_product),
}
PADS = {"hat": (), "doubled hat": (), "I": ("x",), "doubled I": ("x", "y")}


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
        for name, routes in decide._CLOSURE_CHECKS.items():
            for (ideal, image), expand in zip(routes, EXPANDED_IMAGES[name]):
                if PADS[ideal] and spec.n == 5:
                    # x2 at n=5: I is positive-dimensional, so no decision
                    # builds its padded images, and the doubled one takes
                    # seconds.
                    continue
                base = run.ideal(ideal, GBStats())
                # One table per check: every generator's image reuses its
                # pieces, as in a decision.
                table = CofactorTable(base.ring, base)
                expanded = CofactorTable(base.ring)
                for f in gens:
                    # NF(det*g) = NF(det*NF(g)): the padding is reduced
                    # one block at a time, so it stays small.
                    want = normal_form(expand(f, expanded), base)
                    for block in PADS[ideal]:
                        want = normal_form(expanded.det(block) * want, base)
                    assert image(f, table) == want, (spec.generators, name,
                                                     ideal, f)
                    compared[name, ideal] += 1
    assert len(compared) == 4 and min(compared.values()) >= 200


def test_x2_division_builds_one_product_entry_and_no_cofactor():
    # x2 at n=5: division is decided through the product image, entry
    # (1, 2) of X*Y, which takes no cofactor of Y and no power of det(Y).
    run = _Run(parse_problem("n 5\nfield Q\nx2\n"), Budget())
    assert run.check("division").verdict is False
    table = run.tables["doubled hat"]
    assert not table.minors and not table._powers
    assert list(table.images) == [(0, 1)]


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
    # the hat basis, and its images modulo the hat basis.  The product
    # images take no minor, and division reuses multiplication's result.
    assert checks == ["inversion", "multiplication"]
    tables = {}
    for check, table, block, _, _ in built:
        tables.setdefault((check, table.ring.has("x0"), block),
                          set()).add(id(table))
    assert tables.keys() == {("inversion", False, "x"),
                             ("inversion", True, "x")}
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


def _q_fixtures(problems_dir):
    fixtures = [load_problem(path) for path in sorted(problems_dir.glob("*.alg"))]
    fixtures = [spec for spec in fixtures if spec.field == QQ]
    assert len(fixtures) == 9
    return fixtures


def _entry_map(spec, entry):
    """Variable name -> entry(X, i, j) of each 0-based entry (i, j), X
    the x block as a matrix of ring variables."""
    n = spec.n
    X = [[spec.ring.var(matrices.entry_name("x", i + 1, j + 1, n))
          for j in range(n)] for i in range(n)]
    return {matrices.entry_name("x", i + 1, j + 1, n): entry(X, i, j)
            for i in range(n) for j in range(n)}


def _conjugation(spec, g, ginv):
    """Variable name -> its entry of g^-1*X*g."""
    n, ring = spec.n, spec.ring
    return _entry_map(spec, lambda X, i, j: sum(
        (ring.const(ginv[i][k] * g[l][j]) * X[k][l]
         for k in range(n) for l in range(n)), ring.zero()))


def _q_metamorphic_cases(problems_dir):
    """(fixture, moved) pairs: each Q fixture conjugated by a random g in
    SL_n(Z), its generators scaled by random nonzero rationals.
    Non-unit and fractional scalars give every basis non-monic input."""
    rng = random.Random(41)
    scalars = [QQ.from_ratio(a, b) for a, b in
               [(2, 1), (-3, 1), (1, 2), (-2, 3), (5, 4), (7, 9)]]
    for spec in _q_fixtures(problems_dir):
        images = _conjugation(spec, *_random_sl_z(rng, spec.n))
        yield spec, respec(spec, generators=[
            f.substitute(images) * spec.ring.const(rng.choice(scalars))
            for f in spec.generators])


def _q_transposed_and_det_minus_one_cases(problems_dir):
    """(fixture, moved) pairs: each Q fixture at X^T, and at g^-1*X*g
    for a random g in GL_n(Z) of det -1."""
    rng = random.Random(43)
    for spec in _q_fixtures(problems_dir):
        g, ginv = _random_sl_z(rng, spec.n)
        # g <- g*D and ginv <- D*ginv, with D = diag(-1, 1, ..., 1).
        for row in g:
            row[0] = -row[0]
        ginv[0] = [-a for a in ginv[0]]
        for images in (_entry_map(spec, lambda X, i, j: X[j][i]),
                       _conjugation(spec, g, ginv)):
            yield spec, respec(spec, generators=[
                f.substitute(images) for f in spec.generators])


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


def test_q_verdicts_are_invariant_under_transposition_and_det_minus_one(
        problems_dir):
    # X -> X^T is an anti-automorphism of GL_n: it fixes 1 and det, and
    # maps inverses to inverses and x*y to y^T*x^T.  So the transposed
    # variety passes each check exactly when the fixture does, generator
    # by generator.  Conjugation by g of det -1 is an automorphism, as
    # for g in SL_n(Z) above.
    checks = ["identity", "inversion", "multiplication", "division",
              "vstar-eq", "group", "group-alt"]
    moved_cases = 0
    for spec, moved in _q_transposed_and_det_minus_one_cases(problems_dir):
        want = run_checks(spec, checks)
        got = run_checks(moved, checks)
        assert (got.group, got.group_alt) == (want.group, want.group_alt)
        assert _closure_outcomes(got) == _closure_outcomes(want), \
            (spec.source, moved.generators)
        moved_cases += moved.generators != spec.generators
    assert moved_cases >= 12


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


def _reference_division(spec, budget):
    """Closure under division by the reference quotient images: whether
    the image at X*Y^-1 of every generator lies in the radical of the
    doubled hat basis; None when the budget runs out."""
    try:
        base = _Run(spec, budget).ideal("doubled hat", GBStats())
        table = CofactorTable(base.ring, base)
        return all(radical_membership(subst_x_times_inverse_y(f, table),
                                      base, budget)
                   for f in spec.generators if f)
    except groebner.BudgetExhausted:
        return None


def test_division_matches_the_reference_quotient_images(problems_dir):
    # `division` is decided through the product image.  When V* is empty,
    # both closures hold.  Otherwise, by the theorem of the test above,
    # V* closed under multiplication is a group, hence closed under
    # division; and closed under division it holds x*x^-1 = 1, then y^-1
    # and x*y.  So the quotient images, tested as the division check
    # tested them before, give its verdict.
    specs = [moved for _, moved in _q_metamorphic_cases(problems_dir)]
    for path in sorted(problems_dir.glob("*.alg")):
        spec = load_problem(path)
        p = spec.field.characteristic
        specs += [spec, add_field_equations(spec, p)] if p else [spec]
    for seed in (101, 202):
        for spec, p in _random_corpus(seed):
            specs += [spec, add_field_equations(spec, p)]
    budget = Budget(pair_cap=400)
    verdicts = Counter()
    for spec in specs:
        got = run_checks(spec, ["division"],
                         budget=budget).checks["division"].verdict
        want = _reference_division(spec, budget)
        if got is None or want is None:
            continue
        assert got == want, (spec.source, spec.generators)
        verdicts[got] += 1
    assert verdicts[True] >= 40 and verdicts[False] >= 40, verdicts


@pytest.mark.parametrize("checks", [["multiplication", "division"],
                                    ["division", "multiplication"],
                                    ["group-alt", "multiplication"],
                                    ["multiplication", "group-alt"]])
def test_division_and_multiplication_share_one_result(monkeypatch, t_runs,
                                                      checks):
    # No certificate holds here, so the false multiplication check ends in
    # t*f - 1 runs.  A report that holds both names runs the check once,
    # and the second name reuses the first's result.
    spec = parse_problem("n 1\nfield F 3\n(x1 - 1)^3*(x1^2 + 1)\n")
    alone = run_checks(spec, ["multiplication"]).checks["multiplication"]
    runs_alone = len(t_runs)
    assert runs_alone and alone.verdict is False
    t_runs.clear()
    ran = []
    real = _Run.closure_check
    monkeypatch.setattr(_Run, "closure_check",
                        lambda self, name: ran.append(name) or
                        real(self, name))
    report = run_checks(spec, checks)
    assert ran == ["multiplication"] and len(t_runs) == runs_alone
    assert report.checks["division"] is report.checks["multiplication"]
    shared = report.checks["division"]
    assert (shared.verdict, shared.witness_index, shared.witness,
            shared.gb_pairs) == (alone.verdict, alone.witness_index,
                                 alone.witness, alone.gb_pairs)


def _unseed(monkeypatch):
    """Runs `_Run` as if it computed no basis of I and reduced nothing:
    `_Run.seed` gives the raw generators, in place of I's basis, and the
    expanded determinant, and the engine takes them as plain generators,
    ahead of the others as a seed would be."""
    def seed(self, name, stats):
        self.seeded.discard(name)
        gens = [f for f in self.problem.generators if f]
        return gens, det_poly(self.problem.ring, "x")

    monkeypatch.setattr(_Run, "seed", seed)
    for engine in ("buchberger", "contains_one"):
        def plain(gens, *args, real=getattr(decide, engine), ring,
                  seed=None, **kwargs):
            if seed is not None:
                gens = [change_ring(f, ring) for f in seed] + list(gens)
            return real(gens, *args, ring=ring, **kwargs)

        monkeypatch.setattr(decide, engine, plain)


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
                                                         monkeypatch,
                                                         general_vstar):
    # The hat and I+det ideals are built on I's reduced basis and det
    # reduced modulo it; the ideals, hence the reduced bases and every
    # verdict and witness, are those of the raw generators.  Under field
    # equations I+det is built only with the normal form of
    # det^(q-1) - 1 switched off, as here.
    checks = ["group", "group-alt", "vstar-eq"]
    specs = _seeding_corpus(problems_dir)
    assert len(specs) == 64
    seeded = [run_checks(spec, checks) for spec in specs]
    for spec in specs:
        ring, gens = hat_ideal_reference(spec)
        want_hat = buchberger(gens, ring=ring).basis
        want_vstar = contains_one(list(spec.generators)
                                  + [det_poly(spec.ring, "x")],
                                  ring=spec.ring)
        run = _Run(spec, Budget())
        hat = run.ideal("hat", GBStats())
        assert hat.ring == ring and hat.basis == want_hat, spec
        assert run.check("variety_equals_vstar").verdict == want_vstar, spec
    _unseed(monkeypatch)
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


def test_the_doubled_basis_asks_the_hat_basis_whether_it_is_radical(
        problems_dir, monkeypatch):
    # The doubled ideal is radical exactly when its block's ideal is, so
    # its first certificate is decided on the block's basis, over half
    # the variables, even on a group-alt run that never tests inversion.
    # The block is the hat ideal on the hat route, and I on the route
    # modulo I, where the route itself asks I's basis first.  The three
    # problems added to the fixtures take the hat route.
    specs = [load_problem(path) for path in sorted(problems_dir.glob("*.alg"))]
    specs += [parse_problem(text) for text in (
        "n 3\nfield Q\nx2\n", "n 2\nfield Q\nx2 - x3\n",
        "n 2\nfield F 3\nx2 - x3\n")]
    calls = []
    real = groebner._certify_radical

    def counting(gb, degree_cap):
        calls.append(gb.ring.arity)
        return real(gb, degree_cap)

    monkeypatch.setattr(groebner, "_certify_radical", counting)
    false = Counter()
    for spec in specs:
        on_i = _Run(spec, Budget()).modulo_i(GBStats())
        block = spec.n ** 2 + (not on_i)  # I's variables, or with x0
        calls.clear()
        checks = run_checks(spec, ["group-alt"]).checks
        assert 2 * block not in calls, spec.source
        if checks["identity"].verdict and checks["division"].verdict is False:
            assert calls == [block], spec.source
            false[on_i] += 1
    assert false[False] >= 3 and false[True] >= 3, false


@pytest.mark.parametrize("name", ["fourth-roots.alg", "cubic-roots.alg"])
def test_det_is_built_as_often_whichever_check_needs_it_first(
        problem, monkeypatch, name):
    # I is zero-dimensional: det(x) modulo I is built on I's kept
    # CofactorTable, whether I + (det) or a closure check needs it first.
    built = []
    real = matrices.CofactorTable._build_minor

    def counting(self, block, rows, cols):
        if block == "x" and len(rows) == self.ring.n:
            built.append(self.ring)
        return real(self, block, rows, cols)

    monkeypatch.setattr(matrices.CofactorTable, "_build_minor", counting)
    counts = []
    for checks in (["vstar-eq", "group"], ["group", "vstar-eq"]):
        built.clear()
        run_checks(problem(name), checks)
        counts.append(len(built))
    assert counts[0] == counts[1], counts


def test_det_is_built_once_for_the_hat_ideal_and_i_plus_det(problem,
                                                            monkeypatch):
    calls = []
    real = decide.det_poly

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(decide, "det_poly", counting)
    # The hat route: I is positive-dimensional.
    spec = problem("diag-antidiag-f3.alg")
    run_checks(spec, ["group", "vstar-eq"])
    assert len(calls) == 1
    # A run that builds one of the two keeps no det once it is built.
    run = _Run(spec, Budget(), {"hat"})
    run.ideal("hat", GBStats())
    assert run._det is None
    # On the route modulo I, under field equations, det is read from I's
    # CofactorTable, which the inversion images share, and I + (det)
    # reads it there too.
    calls.clear()
    run = _Run(add_field_equations(spec, 3), Budget(), {"hat", "I+det"})
    assert run.check("inversion").verdict is not None
    assert run.check("variety_equals_vstar").verdict is not None
    assert calls == [] and run._det is None
    assert "hat" not in run.bases and run.tables["I"].minors


def test_seed_101_problem_13_decides_division_in_few_pairs():
    # Without field equations no certificate holds, so the false
    # division runs t*f - 1 on the doubled hat ideal.  On the quotient
    # image that took 1,398 pairs under the normal strategy and 685 under
    # sugar; on the product image it takes multiplication's 437.
    spec, _ = list(_random_corpus(101))[13]
    res = run_checks(spec, ["division"]).checks["division"]
    assert res.verdict is False and res.gb_pairs <= 800


def _t_route_cases():
    """(problem, checks, report check, (verdict, pairs)) of false
    closure checks that no certificate decides, so each ends in a
    `t*f - 1` run; the pair counts are the engine's as it stands, pinned
    so that a change to that run's input shows."""
    spec, _ = list(_random_corpus(101))[13]  # over F_2
    line = parse_problem("n 2\nfield Q\nx2\nx1 - x2 + x3 - x4\nx1 + x4 - 2\n")
    # division runs the product tests: multiplication's 12 pairs, where
    # the quotient image took 17.
    return [(spec, ["inversion"], "inversion", (False, 38)),
            (spec, ["multiplication"], "multiplication", (False, 437)),
            (line, ["group"], "inversion", (False, 3)),
            (line, ["group-alt"], "division", (False, 12))]


@pytest.mark.parametrize("case", range(4))
def test_t_times_f_minus_one_runs_keep_their_pair_counts(t_runs, case):
    spec, checks, name, want = _t_route_cases()[case]
    res = run_checks(spec, checks).checks[name]
    assert (res.verdict, res.gb_pairs) == want
    assert t_runs


def test_inert_generators_change_no_basis_or_pair_count(problems_dir,
                                                        monkeypatch):
    # A generator whose lead is a variable no other generator mentions
    # is left out of the reducers; the bases of I and of the hat ideal,
    # their pairs and their zero reductions are those with it kept in.
    specs = [load_problem(path) for path in sorted(problems_dir.glob("*.alg"))]
    specs += [spec for spec, _ in _random_corpus(101)]
    fired = []
    real = groebner._inert_generators

    def recording(*args):
        inert = real(*args)
        fired.append(len(inert))
        return inert

    def bases(spec):
        run = _Run(spec, Budget())
        run.ideal("hat", GBStats())
        return [(gb.basis, gb.stats)
                for gb in (run.bases["I"], run.bases["hat"])]

    monkeypatch.setattr(groebner, "_inert_generators", recording)
    want = [bases(spec) for spec in specs]
    assert sum(1 for count in fired if count) >= 10
    monkeypatch.setattr(groebner, "_inert_generators", lambda *args: set())
    assert [bases(spec) for spec in specs] == want


def _scaled(spec, rng):
    """The problem with each generator scaled by a random nonzero integer
    of at most 9, as the benchmark's large-n families are."""
    ring = spec.ring
    return respec(spec, generators=[
        f * ring.const(rng.choice((-1, 1)) * rng.randint(1, 9))
        for f in spec.generators])


def _route_corpus(problems_dir):
    """Problems whose I takes the route modulo I: the F_p corpora of
    seeds 101, 202 and 303 with field equations, and without them where
    I is zero-dimensional and proven radical; three fixtures; and the
    diagonal families of the benchmark at n=4, scaled."""
    specs = []
    for seed in (101, 202, 303):
        for spec, p in _random_corpus(seed):
            specs.append(add_field_equations(spec, p))
            if _Run(spec, Budget()).modulo_i(GBStats()):
                specs.append(spec)
    specs += [load_problem(problems_dir / name) for name in
              ("cubic-roots.alg", "fourth-roots.alg", "cubic-roots-f5.alg")]
    rng = random.Random(4)
    specs += [_scaled(_diagonal_family(4, quadratic), rng)
              for quadratic in ("{d}^2 - 1", "({d} - 1)*({d} - 2)")
              for _ in range(2)]
    return specs


def test_the_route_modulo_i_matches_the_hat_route(problems_dir, request):
    specs = _route_corpus(problems_dir)
    assert all(_Run(spec, Budget()).modulo_i(GBStats()) for spec in specs)
    assert sum(not spec.field_equations_q and spec.field.characteristic
               for spec in specs) >= 10
    got = [run_checks(spec, CLOSURE_CHECKS) for spec in specs]
    # Over F_p with field equations V(I) is its F_p points: the oracle
    # decides inversion and multiplication by exhaustion.
    oracle = 0
    for spec, report in zip(specs, got):
        if spec.field_equations_q:
            brute = is_group_bruteforce(enumerate_variety(spec))
            checks = report.checks
            assert (checks["inversion"].verdict,
                    checks["multiplication"].verdict) == \
                (brute.inversion, brute.multiplication), spec.generators
            oracle += 1
    assert oracle == 60
    request.getfixturevalue("hat_route_only")
    false = 0
    for spec, report in zip(specs, got):
        want = _closure_outcomes(run_checks(spec, CLOSURE_CHECKS))
        assert _closure_outcomes(report) == want, (spec.source,
                                                   spec.generators)
        false += sum(verdict is False for verdict, _ in want.values())
    assert false >= 60, false


@pytest.mark.parametrize("text, bases", [
    # Radical, positive-dimensional: inversion is false.
    ("n 7\nfield Q\nx2\n", {"I", "hat"}),
    # Zero-dimensional, not radical: (x1 - 1)^3 is a factor.
    ("n 1\nfield F 3\n(x1 - 1)^3*(x1^2 + 1)\n", {"I", "hat", "doubled hat"}),
    # Zero-dimensional and radical.
    ("n 2\nfield Q\nx2\nx3\nx1^2 - 1\nx4^2 - 1\n", {"I", "doubled I"}),
    ("n 2\nfield Q\nx2\nx3\n(x1 - 1)*(x1 - 2)\nx4^2 - 1\n", {"I"}),
    # Under field equations, which no closure check tests.
    ("n 1\nfield F 3\nx1^3 - x1\n", set()),
    ("n 1\nfield F 3\nx1 - 1\nx1^3 - x1\n", {"I", "doubled I"})])
def test_the_route_modulo_i_builds_no_hat_basis(text, bases):
    # `group` stops at the first check that is not true; every field
    # equation is left untested, and with nothing else to test no basis
    # is built.
    run = _Run(parse_problem(text), Budget())
    for name in ("identity", "inversion", "multiplication"):
        if run.check(name).verdict is not True:
            break
    assert set(run.bases) == bases
