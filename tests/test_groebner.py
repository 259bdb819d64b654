import fractions
import random
from collections import Counter
from math import gcd

import pytest
from conftest import hat_ideal_reference, s_polynomial_reference

from algroup import (Budget, BudgetExhausted, Polynomial, PrimeField,
                     ProblemSpec, QQ, VarRing, buchberger, change_ring,
                     contains_one, load_problem, normal_form, parse_poly,
                     radical_membership)
from algroup import groebner, parse_problem
from algroup.matrices import build_f0
from algroup.groebner import MAX_ENGINE_DEGREE

# Coefficients with non-unit numerators and denominators, for the
# fraction-free reduction over Q.
Q_COEFFS = [QQ.from_ratio(a, b) for a, b in
            [(1, 1), (-1, 1), (2, 1), (-3, 1), (3, 2), (-5, 7), (1, 3),
             (4, 9), (-7, 4)]]


def _field_coeffs(field):
    """Q_COEFFS mapped into field, the zeros left out."""
    if not field.characteristic:
        return Q_COEFFS
    images = (field.canonical(c.numerator * field.inv(c.denominator))
              for c in Q_COEFFS)
    return [c for c in images if c]


def _random_poly(rng, ring, variables, max_terms=3, max_degree=2):
    """A random polynomial over the ring's field whose first term is
    not constant."""
    coeffs = _field_coeffs(ring.field)
    terms = {}
    for k in range(rng.randint(1, max_terms)):
        exps = [0] * ring.arity
        for _ in range(rng.randint(k == 0, max_degree)):
            exps[rng.choice(variables)] += 1
        terms[tuple(exps)] = rng.choice(coeffs)
    return Polynomial(ring, terms)


def ring1():
    return VarRing.matrix_ring(1, QQ)


def ring2(field=QQ):
    return VarRing.matrix_ring(2, field)


def test_normal_form_examples():
    r = ring2()
    x1, x2 = r.var("x1"), r.var("x2")
    assert normal_form(x1 * x1, [x1]) == r.zero()
    assert normal_form(x1 * x1 + x2, [x1]) == x2
    f = parse_poly("x1^2*x3 - 7*x2 + 1", r)
    assert normal_form(f, []) == f


def test_normal_form_contract():
    # No term of the remainder is divisible by any lead monomial, and
    # the difference lies in the ideal.
    r = ring2()
    G = [parse_poly("x1*x4 - x2*x3 - 1", r), parse_poly("x1^2 + x2", r)]
    f = parse_poly("x1^3*x4 + x2^2*x3 - 5", r)
    rem = normal_form(f, G)
    key = r.codec.key
    leads = [r.codec.unpack(max(g.terms, key=key)) for g in G]
    for mono in rem.exponents():
        assert not any(all(a <= b for a, b in zip(lead, mono))
                       for lead in leads)
    assert normal_form(rem, G) == rem  # idempotence
    gb = buchberger(G)
    assert normal_form(f - rem, gb.basis) == r.zero()


def univariate_gcd(f, g):
    """Euclid's algorithm on univariate polynomials, as an independent
    oracle for single-variable Groebner bases."""
    ring = f.ring
    idx = next(i for m in (f or g).exponents() for i, e in enumerate(m) if e) \
        if (f or g) else 0

    def degree(p):
        return max((m[idx] for m in p.exponents()), default=-1)

    def lead_coeff(p):
        d = degree(p)
        return p.exponents()[tuple(d if i == idx else 0
                                   for i in range(ring.arity))]

    def shift(k):
        return Polynomial(ring, {tuple(k if i == idx else 0
                                       for i in range(ring.arity)): 1})

    a, b = f, g
    while b:
        while degree(a) >= degree(b) and a:
            factor = ring.const(lead_coeff(a) * QQ.inv(lead_coeff(b)))
            a = a - factor * shift(degree(a) - degree(b)) * b
        a, b = b, a
    if not a:
        return a
    return a * ring.const(QQ.inv(lead_coeff(a)))


def test_buchberger_univariate_matches_gcd():
    r = ring1()
    f = parse_poly("x1^2 - 1", r)
    g = parse_poly("x1 - 1", r)
    gb = buchberger([f, g])
    assert gb.basis == [univariate_gcd(f, g)]
    assert gb.basis == [parse_poly("x1 - 1", r)]

    f = parse_poly("(x1-1)*(x1^2-2)", r)
    g = parse_poly("(x1-1)*(x1+3)", r)
    gb = buchberger([f, g])
    assert gb.basis == [univariate_gcd(f, g)]


def test_buchberger_linear_and_empty():
    r = ring2()
    gb = buchberger([parse_poly("x1 + x2", r), r.var("x2")])
    assert gb.basis == [r.var("x2"), r.var("x1")]
    assert buchberger([]).basis == []
    assert buchberger([r.zero()]).basis == []
    # The basis of no generators seeds a run as no generator, with a
    # ring (that of I in a problem with none) or without.
    x0 = VarRing.matrix_ring(2, QQ, x0=True)
    f0 = build_f0(x0, "x")
    for empty in (buchberger([], ring=r), buchberger([])):
        assert buchberger([f0], ring=x0, seed=empty) == buchberger([f0])
        assert buchberger([], ring=x0, seed=empty).reducers == []
        assert not contains_one([f0], ring=x0, seed=empty)


def test_basis_is_reduced_and_monic():
    r = ring2()
    gens = [parse_poly("x1*x4 - x2*x3 - 1", r),
            parse_poly("2*x1^2 + 3*x2", r),
            parse_poly("x1^2*x4 + x2", r)]
    gb = buchberger(gens)
    key = r.codec.key
    unpack = r.codec.unpack
    leads = [unpack(max(g.terms, key=key)) for g in gb.basis]
    for i, g in enumerate(gb.basis):
        assert g.exponents()[leads[i]] == 1
        for j, lead in enumerate(leads):
            if i == j:
                continue
            assert not all(a <= b for a, b in zip(lead, leads[i]))
        for mono in g.exponents():
            for j, lead in enumerate(leads):
                if i != j or mono != leads[i]:
                    if j != i:
                        assert not all(a <= b for a, b in zip(lead, mono))


def test_all_s_pairs_reduce_to_zero():
    r = ring2()
    fixtures = [
        [parse_poly("x1*x4 - x2*x3 - 1", r), parse_poly("x1^2 + x2", r)],
        [parse_poly("x1^2 + x2^2 - 1", r), parse_poly("x1*x2 - 1", r)],
        [parse_poly("x1 + x2 + x3 + x4", r), parse_poly("x1*x2 - x3*x4", r),
         parse_poly("x2^2 - x3", r)],
    ]
    for gens in fixtures:
        basis = buchberger(gens).basis
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = s_polynomial_reference(basis[i], basis[j])
                assert normal_form(s, basis) == r.zero()


def test_membership_soundness_random():
    rng = random.Random(4)
    for field in (QQ, PrimeField(5), PrimeField(2**61 - 1)):
        r = ring2(field)
        gens = [parse_poly("x1*x4 - x2*x3 - 1", r),
                parse_poly("x2^2 + x3", r)]
        gb = buchberger(gens)
        for _ in range(20):
            combo = r.zero()
            for g in gens:
                coeff_terms = {}
                for _ in range(rng.randint(0, 3)):
                    exps = [0] * 4
                    for _ in range(rng.randint(0, 2)):
                        exps[rng.randrange(4)] += 1
                    c = field.canonical(rng.randint(-4, 4))
                    if c:
                        coeff_terms[tuple(exps)] = c
                combo = combo + Polynomial(r, coeff_terms) * g
            assert normal_form(combo, gb.basis) == r.zero()
            assert radical_membership(combo, gb)


def test_contains_one_examples():
    r = ring2()
    assert contains_one([r.var("x1"), parse_poly("x1 - 1", r)])
    det = parse_poly("x1*x4 - x2*x3", r)
    sl2 = parse_poly("x1*x4 - x2*x3 - 1", r)
    assert contains_one([sl2, det])
    assert not contains_one([det])
    assert not contains_one([])
    assert contains_one([r.const(3)])
    # A seed of (1) makes the ideal (1) with no pair processed.
    trivial = buchberger([det, sl2])
    assert trivial.is_trivial
    lifted = r.extend_front("t")
    t = lifted.var("t")
    assert contains_one([t], ring=lifted, seed=trivial)
    gb = buchberger([t], ring=lifted, seed=trivial)
    assert gb.reducers == [(0, 1, [])] and gb.stats.pairs_processed == 0


def test_radical_membership_examples():
    r = ring2()
    x1, x2 = r.var("x1"), r.var("x2")
    assert radical_membership(x1, buchberger([x1 * x1]))
    assert not radical_membership(x1, buchberger([x2]))
    assert radical_membership(x1 + x2, buchberger([(x1 + x2) ** 3]))
    assert radical_membership(r.zero(), buchberger([], ring=r))
    assert not radical_membership(x1, buchberger([], ring=r))


def plane(field=QQ):
    return VarRing(("x1", "x2"), field)


def _certified(texts, ring, degree_cap=200):
    gb = buchberger([parse_poly(text, ring) for text in texts])
    return gb.certified_radical(degree_cap)


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(7)])
def test_radical_certificates_prove_radical_ideals(field):
    r = plane(field)
    # (b): zero-dimensional, minimal polynomials x^2 - 1 and x.
    assert _certified(["x1^2 - 1", "x2"], r)
    # (b): the hat ideal of the n=2 (d-1)*(d-2) diagonal, whose leads
    # x1^2 and x4^2 are not squarefree.
    spec = parse_problem(f"n 2\nfield {field.name}\nx2\nx3\n"
                         "(x1 - 1)*(x1 - 2)\n(x4 - 1)*(x4 - 2)\n")
    hat, gens = hat_ideal_reference(spec)
    gb = buchberger(gens, ring=hat)
    assert any(e > 1 for lm, _, _ in gb.reducers
               for _, e in hat.codec.factors(lm))
    assert gb.certified_radical(200)
    # (a): squarefree leads, positive-dimensional (SL(2)).
    assert _certified(["x1*x4 - x2*x3 - 1"], ring2(field))
    # Trivially: the zero ideal and the whole ring.
    assert _certified([], r) and _certified(["1"], r)


@pytest.mark.parametrize("texts, field", [
    (["x1^2"], QQ), (["x1^2", "x2"], QQ), (["(x1 - 1)^2", "x2"], QQ),
    (["(x1 - 1)^2", "x2"], PrimeField(3)),
    # (x1 + 1)^2 and (x1 - 2)^3: their derivatives vanish.
    (["x1^2 + 1", "x2"], PrimeField(2)), (["x1^3 - 2", "x2"], PrimeField(3)),
    # Prime, but positive-dimensional with the lead x1^2.
    (["x1^2 - x2"], QQ)])
def test_radical_certificates_never_prove_what_they_cannot(texts, field):
    assert not _certified(texts, plane(field))


def test_uncertified_ideals_still_run_t_times_f_minus_one(monkeypatch):
    r = plane()
    calls = []
    real = groebner.contains_one

    def counting(gens, *args, **kwargs):
        calls.append(kwargs["ring"])
        return real(gens, *args, **kwargs)

    monkeypatch.setattr(groebner, "contains_one", counting)
    x1, x2 = r.var("x1"), r.var("x2")
    prime = buchberger([x1 * x1 - x2])
    assert not radical_membership(x1, prime)
    assert prime.radical is False and len(calls) == 1
    # A certified basis decides a nonzero normal form by itself, and its
    # answer is kept for the next test.
    certified = buchberger([x1 * x1 - 1, x2])
    for f in (x1, x1 - 2):
        assert not radical_membership(f, certified)
    assert certified.radical is True and len(calls) == 1
    # Another basis of the same ideal decides its certificate anew and
    # keeps its own answer; no t*f - 1 runs.
    fresh = buchberger(certified.basis)
    assert fresh.radical is None
    assert not radical_membership(x1, fresh)
    assert fresh.radical is True and len(calls) == 1


def test_a_power_bound_that_is_hit_proves_nothing():
    r = plane()
    # mu(x1) = x^4 - 2 (x1^2 = x2, x2^2 = 2) needs four powers.
    gens = ["x1^2 - x2", "x2^2 - 2"]
    assert _certified(gens, r, degree_cap=4)
    assert not _certified(gens, r, degree_cap=3)
    # A lead over the cap stops the search as well.
    assert _certified(["x1^3 - 1", "x2"], r, degree_cap=3)
    assert not _certified(["x1^3 - 1", "x2"], r, degree_cap=2)
    assert not _certified(["x1^3 - 1", "x2"], r, degree_cap=0)


def test_minimal_polynomials_match_sympy():
    # Criterion (b) against sympy: the minimal polynomial of x_k is the
    # monic generator of the elimination ideal, the univariate element
    # of a lex basis with x_k last, and it is squarefree exactly when
    # its gcd with its derivative is constant.
    sympy = pytest.importorskip("sympy")
    r = VarRing(("x1", "x2", "x3"), QQ)
    symbols = sympy.symbols(r.names)
    x1, x2, x3 = (r.var(name) for name in r.names)
    rng = random.Random(30)
    squarefree = Counter()
    for _ in range(12):
        # 1-4 roots of x3, repeats allowed; x1 and x2 are algebraic over
        # x3, so the ideal is zero-dimensional.
        p = r.one()
        for _ in range(rng.randint(1, 4)):
            p = p * (x3 - rng.randint(-2, 2))
        a, b, c = (r.const(rng.choice(Q_COEFFS)) for _ in range(3))
        gens = [p, x1 - a * x3 * x3 - b, x2 * x2 - x1 * x3 - c]
        gb = buchberger(gens)
        exprs = [_to_sympy(g, symbols) for g in gens]
        for k, x in enumerate((x1, x2, x3)):
            sym = symbols[k]
            lex = sympy.groebner(exprs, *symbols[:k], *symbols[k + 1:], sym,
                                 order="lex", domain="QQ")
            (want,) = [e for e in lex.exprs if e.free_symbols <= {sym}]
            want = sympy.Poly(want, sym, domain="QQ").monic()
            mu = groebner._minimal_polynomial(gb, x, 200)
            got = sympy.Poly(_to_sympy(mu, symbols), sym, domain="QQ")
            assert got == want, gens
            verdict = sympy.gcd(want, want.diff(sym)).degree() == 0
            assert groebner._squarefree(mu, x) == verdict, gens
            squarefree[verdict] += 1
    assert squarefree[True] and squarefree[False]


@pytest.mark.parametrize("field, roots", [
    # Each ideal is (p_1(x_1), p_2(x_2), ...), p_i the product of
    # (x_i - root)^multiplicity over the pairs of roots[i].
    (PrimeField(5), [[(1, 1), (2, 1), (4, 1)], [(0, 1), (3, 1)]]),
    (PrimeField(5), [[(1, 2), (3, 1)], [(2, 1), (4, 1)]]),
    (PrimeField(5), [[(0, 1), (4, 1)], [(1, 5)]]),  # x2^5 - 1: p' = 0
    (PrimeField(7), [[(0, 1), (1, 1), (2, 1), (3, 1), (6, 1)],
                     [(2, 1), (5, 1)]]),
    (PrimeField(7), [[(3, 1), (5, 1)], [(1, 3), (4, 2)]]),
    (PrimeField(7), [[(2, 7)], [(6, 2)]]),
    (PrimeField(3), [[(2, 3)]]),  # x1^3 - 2
])
def test_minimal_polynomials_over_prime_fields(field, roots):
    r = VarRing([f"x{i}" for i in range(1, len(roots) + 1)], field)
    xs = [r.var(name) for name in r.names]
    ps = []
    for x, factors in zip(xs, roots):
        p = r.one()
        for root, multiplicity in factors:
            p = p * (x - root) ** multiplicity
        ps.append(p)
    gb = buchberger(ps)
    for x, p, factors in zip(xs, ps, roots):
        mu = groebner._minimal_polynomial(gb, x, 200)
        assert mu == p
        assert groebner._squarefree(mu, x) == \
            all(m == 1 for _, m in factors)
    assert gb.certified_radical(200) == \
        all(m == 1 for factors in roots for _, m in factors)


def test_radical_membership_rejects_ring_with_t():
    ring = VarRing(("t", "u"), QQ)
    with pytest.raises(ValueError, match="t"):
        radical_membership(ring.var("u"), buchberger([ring.var("t")]))


def test_a_basis_refuses_polynomials_of_another_ring():
    # The hat basis lives in the ring with x0; a polynomial of I's ring is
    # refused, not divided by reducers packed for another ring.
    spec = parse_problem("n 2\nfield Q\nx1*x4 - x2*x3 - 1\n")
    hat, gens = hat_ideal_reference(spec)
    gb = buchberger(gens, ring=hat)
    f = spec.ring.var("x1") - spec.ring.one()
    for test in (normal_form, radical_membership):
        with pytest.raises(ValueError,
                           match="divisor lives in a different ring"):
            test(f, gb)
    lifted = hat.var("x1") - hat.one()
    assert normal_form(lifted, gb) == lifted
    assert not radical_membership(lifted, gb)


def test_ideal_membership_implies_radical_membership():
    rng = random.Random(6)
    r = ring2(PrimeField(3))
    gens = [parse_poly("x1*x2 - 1", r), parse_poly("x3^2 + x4", r)]
    gb = buchberger(gens)
    for _ in range(15):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = [0] * 4
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(4)] += 1
            c = rng.randrange(3)
            if c:
                terms[tuple(exps)] = c
        f = Polynomial(r, terms)
        if normal_form(f, gb.basis) == r.zero():
            assert radical_membership(f, gb)


def test_pair_budget_exhaustion():
    r = ring2()
    gens = [parse_poly("x1^2 + x2^2 - 1", r), parse_poly("x1*x2 - 1", r),
            parse_poly("x1*x3 - x4", r)]
    with pytest.raises(BudgetExhausted, match="pair cap"):
        buchberger(gens, budget=Budget(pair_cap=1))


def test_degree_budget_exhaustion():
    r = ring1()
    with pytest.raises(BudgetExhausted, match="degree"):
        buchberger([parse_poly("x1^9 + 1", r)], budget=Budget(degree_cap=5))
    # Degree growth during elimination is also caught: the S-polynomial
    # of (u*v - 1, u^3 + v^3 - 1) is v^4 + u^2 - v, past a cap of 3.
    r2v = VarRing(("u", "v"), QQ)
    gens = [parse_poly("u*v - 1", r2v), parse_poly("u^3 + v^3 - 1", r2v)]
    with pytest.raises(BudgetExhausted, match="monomial degree 4"):
        buchberger(gens, budget=Budget(degree_cap=3))
    # A seed's leads are checked as the generators are.
    seed = buchberger([parse_poly("x1^9 + 1", r)])
    lifted = r.extend_front("t")
    with pytest.raises(BudgetExhausted, match="input degree 9 over cap 5"):
        buchberger([lifted.var("t")], budget=Budget(degree_cap=5),
                   ring=lifted, seed=seed)


def test_normal_form_rejects_divisors_over_the_degree_cap():
    # Exponents past the packing bound once wrapped into a false zero;
    # now no polynomial can hold one, and a divisor at the bound divides
    # nothing of lower degree.
    r = ring1()
    x1 = r.var("x1")
    for e in (MAX_ENGINE_DEGREE + 1, 65538):
        with pytest.raises(OverflowError, match="degree exceeds"):
            x1 ** e
    assert normal_form(x1 ** 3, [x1 ** MAX_ENGINE_DEGREE]) == x1 ** 3
    with pytest.raises(BudgetExhausted, match="input degree 9 over cap 5"):
        normal_form(x1 ** 3, [x1 ** 9], degree_cap=5)
    # A basis's prepared reducers are checked alike; the message names
    # the first divisor over the cap.
    r = ring2()
    x1, x2 = r.var("x1"), r.var("x2")
    divisors = [x2 ** 2, x2 ** 7, x1 ** 9]
    gb = groebner.GroebnerBasis(r, groebner._prepare_reducers(divisors, r))
    for G in (divisors, gb, gb):
        with pytest.raises(BudgetExhausted, match="input degree 7 over cap 5"):
            normal_form(x1 ** 3, G, degree_cap=5)
        assert normal_form(x1 ** 3, G, degree_cap=9) == x1 ** 3


def test_stats_are_reported():
    r = ring1()
    gb = buchberger([parse_poly("x1^2 - 1", r), parse_poly("x1 - 1", r)])
    assert gb.stats.pairs_processed >= 1
    assert gb.stats.reductions_to_zero >= 1


def _to_sympy(f, symbols):
    import sympy
    expr = sympy.Integer(0)
    for mono, c in f.exponents().items():
        term = sympy.Rational(str(c))
        for i, e in enumerate(mono):
            if e:
                term *= symbols[i] ** e
        expr += term
    return expr


def _symplectic_gens(ring):
    """Entries on and above the diagonal of X^T*J*X - J, J = [[0, I],
    [-I, 0]] of size 4: the symplectic group Sp(4)."""
    n = 4
    J = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    X = [[ring.var(f"x{n * i + j + 1}") for j in range(n)] for i in range(n)]
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            e = sum((ring.const(J[k][l]) * X[k][i] * X[l][j]
                     for k in range(n) for l in range(n) if J[k][l]),
                    ring.zero())
            gens.append(e - ring.const(J[i][j]))
    return gens


def _assert_basis_matches_sympy(sympy, gens, ring, rng=None, samples=0):
    """buchberger(gens) equals sympy's reduced grevlex basis over QQ, and
    the normal forms of `samples` random polynomials agree."""
    symbols = sympy.symbols(ring.names)
    gb = buchberger(gens, ring=ring)
    mine = {sympy.expand(_to_sympy(g, symbols)) for g in gb.basis}
    theirs = sympy.groebner([_to_sympy(g, symbols) for g in gens],
                            *symbols, order="grevlex", domain="QQ")
    assert mine == {sympy.expand(e) for e in theirs.exprs}, gens
    for _ in range(samples):
        f = _random_poly(rng, ring, range(ring.arity), max_terms=4,
                         max_degree=3)
        want = theirs.reduce(_to_sympy(f, symbols))[1]
        got = normal_form(f, gb)
        assert sympy.expand(_to_sympy(got, symbols) - want) == 0, (gens, f)


def test_cross_check_against_sympy():
    sympy = pytest.importorskip("sympy")
    r = ring2()
    fixtures = [
        [parse_poly("x1^2 + x2^2 - 1", r), parse_poly("x1*x2 - 1", r)],
        [parse_poly("x1*x4 - x2*x3 - 1", r), parse_poly("x1 + x2 + x3", r)],
        [parse_poly("x1^2 - x2", r), parse_poly("x2^2 - x3", r),
         parse_poly("x3^2 - x1", r)],
    ]
    # Seeded random ideals with non-unit leading coefficients and
    # fractional coefficients, such as 3/2*x1^2 - 5*x2, which take the
    # scaling steps of the reduction; normal forms of random polynomials
    # are checked against sympy's reduction by its basis.
    rng = random.Random(20)
    fixtures += [[_random_poly(rng, r, range(3), max_terms=4)
                  for _ in range(3)] for _ in range(12)]
    for gens in fixtures:
        _assert_basis_matches_sympy(sympy, gens, r, rng, samples=3)
    # The problem ideals of O(3) (X^T*X - I) and Sp(4), and each one's hat
    # ideal I + (x0*det(x) - 1), whose det has 6 and 24 terms.
    for n, make in ((3, lambda ring: _orthogonal_group_gens(ring, 3)),
                    (4, _symplectic_gens)):
        ring = VarRing.matrix_ring(n, QQ)
        gens = make(ring)
        _assert_basis_matches_sympy(sympy, gens, ring)
        hat, hat_gens = hat_ideal_reference(ProblemSpec(n, QQ, gens, ring))
        _assert_basis_matches_sympy(sympy, hat_gens, hat)


def _naive_division(f, divisors):
    """Multivariate division with the lead terms divided in the field:
    the leading term of what is left is cancelled by the first divisor
    whose lead monomial divides it, or moved to the remainder."""
    ring = f.ring
    field = ring.field
    divides = ring.codec.divides
    rest, rem = f, ring.zero()
    while rest:
        m, c = rest.leading()
        for g in divisors:
            lm, lc = g.leading()
            if divides(lm, m):
                factor = Polynomial._make(
                    ring, {m - lm: field.canonical(c * field.inv(lc))})
                rest = rest - factor * g
                break
        else:
            lead = Polynomial._make(ring, {m: c})
            rem, rest = rem + lead, rest - lead
    return rem


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(2**61 - 1)])
def test_normal_form_matches_naive_division(field):
    # Over F_(2^61 - 1) the values the reduction loop holds before they
    # are taken exceed a machine word.
    rng = random.Random(31)
    r = ring2(field)
    for _ in range(40):
        divisors = [_random_poly(rng, r, range(4))
                    for _ in range(rng.randint(1, 3))]
        divisors = [g for g in divisors if not g.is_constant]
        f = _random_poly(rng, r, range(4), max_terms=5, max_degree=4)
        assert normal_form(f, divisors) == _naive_division(f, divisors), \
            (f, divisors)


def test_s_polynomial_is_the_monic_formula():
    rng = random.Random(32)
    for field in (QQ, PrimeField(5), PrimeField(2**61 - 1)):
        r = ring2(field)
        for _ in range(40):
            f, g = (_random_poly(rng, r, range(4)) for _ in range(2))
            (ma, ca), (mb, cb) = f.leading(), g.leading()
            l = r.codec.lcm(ma, mb)
            want = (Polynomial._make(r, {l - ma: field.inv(ca)}) * f
                    - Polynomial._make(r, {l - mb: field.inv(cb)}) * g)
            assert s_polynomial_reference(f, g) == want, (f, g)


def test_prepared_reducers_over_q_are_primitive_integer_polynomials():
    rng = random.Random(33)
    r = ring2()
    for _ in range(10):
        gb = buchberger([_random_poly(rng, r, range(4)) for _ in range(3)])
        for lm, lc, tail in gb.reducers:
            coeffs = [lc] + [c for _, c in tail]
            assert all(type(c) is int for c in coeffs)
            assert gcd(*coeffs) == 1 and lc > 0
            assert all(m != lm for m, _ in tail)
        for g in gb.basis:
            assert g.leading()[1] == 1


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(2**61 - 1)])
def test_a_basis_comes_with_the_reducers_its_interreduction_prepared(field):
    # The reducers buchberger hands its basis are those _prepare_reducers
    # makes from the basis: lead, lead coefficient and tail in order.
    rng = random.Random(55)
    r = ring2(field)
    cases = [[_random_poly(rng, r, range(4)) for _ in range(3)]
             for _ in range(10)]
    cases.append([r.var("x1"), r.var("x1") - r.one()])  # trivial
    if field.characteristic == 5:
        equations = [parse_poly(f"x{k}^5 - x{k}", r) for k in range(1, 5)]
        cases += [gens + equations for gens in cases[:5]]
    for gens in cases:
        gb = buchberger(gens, ring=r)
        assert gb.reducers == groebner._prepare_reducers(gb.basis, r)


def _seed_cases(problems_dir):
    """(seed, gens, ring): I's reduced basis with x0*det(x) - 1 in the
    ring with x0, for every fixture over Q, and the hat basis of sl2
    with t*(x1 - 1) - 1 in the ring with t."""
    for path in sorted(problems_dir.glob("*.alg")):
        spec = load_problem(path)
        if not spec.field.characteristic:
            hat = VarRing.matrix_ring(spec.n, spec.field, x0=True)
            yield buchberger(spec.generators, ring=spec.ring), \
                [build_f0(hat, "x")], hat
    sl2 = parse_problem("n 2\nfield Q\nx1*x4 - x2*x3 - 1\n")
    ring, gens = hat_ideal_reference(sl2)
    lifted = ring.extend_front("t")
    f = change_ring(ring.var("x1") - ring.one(), lifted)
    yield buchberger(gens, ring=ring), [lifted.var("t") * f - 1], lifted


def test_a_seeded_run_is_the_run_on_the_moved_basis(problems_dir):
    # The seed's reducers, moved by shifting, are those prepared from its
    # monic basis moved by name, and a run on them gives the reduced
    # basis of the run on the moved basis, with fewer pairs.
    cases = list(_seed_cases(problems_dir))
    assert len(cases) >= 9
    for seed, gens, ring in cases:
        moved = [change_ring(g, ring) for g in seed.basis]
        assert groebner.moved_reducers(seed, ring) == \
            groebner._prepare_reducers(moved, ring)
        seeded = buchberger(gens, ring=ring, seed=seed)
        plain = buchberger(moved + gens, ring=ring)
        assert seeded.reducers == plain.reducers, ring
        assert seeded.stats.pairs_processed <= plain.stats.pairs_processed


def test_a_seed_must_fit_the_ring():
    r = ring2()
    t = r.extend_front("t").var("t")
    # x1, x3 is no contiguous run of t, x1, x2, x3, x4; u is not there.
    for names in (("x1", "x3"), ("x1", "u")):
        source = VarRing(names, QQ)
        seed = buchberger([source.var("x1") ** 2 - source.one()])
        with pytest.raises(ValueError, match="no place"):
            buchberger([t], ring=t.ring, seed=seed)
        with pytest.raises(ValueError, match="no place"):
            contains_one([t], ring=t.ring, seed=seed)
    seed = buchberger([ring2(PrimeField(5)).var("x1")])
    with pytest.raises(ValueError, match="field"):
        buchberger([t], ring=t.ring, seed=seed)
    with pytest.raises(ValueError, match="field"):
        contains_one([t], ring=t.ring, seed=seed)


def _orthogonal_group_gens(ring, n, g=None):
    """Entries of Y^T*Y - I for Y = g^-1*X*g, the orthogonal group
    conjugated by g in SL_n(Z) (given with its inverse)."""
    X = [[ring.var(f"x{n * i + j + 1}") for j in range(n)] for i in range(n)]
    if g is not None:
        g, ginv = g
        X = [[sum((ring.const(ginv[i][k] * g[l][j]) * X[k][l]
                   for k in range(n) for l in range(n)), ring.zero())
              for j in range(n)] for i in range(n)]
    gens = []
    for i in range(n):
        for j in range(i, n):
            e = sum((X[k][i] * X[k][j] for k in range(n)), ring.zero())
            gens.append(e - ring.one() if i == j else e)
    return gens


def test_buchberger_over_q_builds_no_fractions_in_the_loop(monkeypatch):
    # Reduction over Q runs in integers, so Fractions are built only for
    # the monic basis returned.  The conjugated O(3) has non-unit leads:
    # monic reducers would make each of its reduction steps a fraction
    # product (104,499 constructions).
    ring = VarRing.matrix_ring(3, QQ)
    g = ([[1, 0, 0], [-1, 1, 0], [-1, 0, 1]], [[1, 0, 0], [1, 1, 0], [1, 0, 1]])
    built = []
    real = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return real(cls, *args, **kwargs)

    # Pairs under sugar selection, plain and conjugated.
    for gens, pairs in ((_orthogonal_group_gens(ring, 3), 224),
                        (_orthogonal_group_gens(ring, 3, g), 212)):
        built.clear()
        monkeypatch.setattr(fractions.Fraction, "__new__", counting)
        gb = buchberger(gens)
        monkeypatch.undo()
        assert gb.stats.pairs_processed == pairs
        assert len(built) <= sum(len(b.terms) for b in gb.basis)


def _random_monomial(rng, arity):
    """Exponents of total degree at most MAX_ENGINE_DEGREE, often zero or
    one exponent at the bound."""
    total = rng.choice([0, 1, rng.randint(0, MAX_ENGINE_DEGREE),
                        MAX_ENGINE_DEGREE])
    exps = [0] * arity
    if rng.random() < 0.3:
        exps[rng.randrange(arity)] = total
        return tuple(exps)
    places = rng.sample(range(arity), rng.randint(1, arity))
    cuts = sorted(rng.randint(0, total) for _ in range(len(places) - 1))
    for place, lo, hi in zip(places, [0] + cuts, cuts + [total]):
        exps[place] = hi - lo
    return tuple(exps)


def test_word_parallel_lcm_is_exact():
    # Pairs at arities 1 to 101, exponents up to
    # MAX_ENGINE_DEGREE; the largest is the doubled ring with both
    # witnesses at n=7 plus the radical-membership variable t.
    doubled = VarRing.matrix_ring(7, QQ, x0=True, y=True,
                                  y0=True).extend_front("t")
    assert doubled.arity == 101
    rings = [VarRing([f"v{i}" for i in range(arity)], QQ)
             for arity in range(1, 101)] + [doubled]
    rng = random.Random(11)
    for ring in rings:
        codec = ring.codec
        bound = [0] * ring.arity
        bound[-1] = MAX_ENGINE_DEGREE
        samples = [tuple(bound), (0,) * ring.arity]
        samples += [_random_monomial(rng, ring.arity) for _ in range(40)]
        for a in samples:
            for b in rng.sample(samples, 8) + [tuple(bound)]:
                want = tuple(max(x, y) for x, y in zip(a, b))
                got = codec.lcm(codec.pack(a), codec.pack(b))
                assert got == codec.pack(want), (ring.arity, a, b)
                assert codec.degree(got) == sum(want)


@pytest.mark.parametrize("caps", [{"pair_cap": -5}, {"degree_cap": -1},
                                  {"degree_cap": MAX_ENGINE_DEGREE + 1},
                                  {"degree_cap": 20000}])
def test_budget_rejects_caps_out_of_range(caps):
    with pytest.raises(ValueError):
        Budget(**caps)


def test_budget_accepts_caps_at_their_bounds():
    assert Budget(pair_cap=0, degree_cap=0).pair_cap == 0
    assert Budget(degree_cap=MAX_ENGINE_DEGREE).degree_cap == MAX_ENGINE_DEGREE
