import random

import pytest

from algroup import (Budget, BudgetExhausted, DEGREVLEX, Polynomial,
                     PrimeField, QQ, VarRing, buchberger, contains_one,
                     normal_form, parse_poly, radical_membership, s_polynomial)
from algroup.groebner import MAX_ENGINE_DEGREE, _codec


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
    key = r.sort_key(DEGREVLEX)
    leads = [max(g.terms, key=key) for g in G]
    for mono in rem.terms:
        assert not any(all(a <= b for a, b in zip(lead, mono))
                       for lead in leads)
    assert normal_form(rem, G) == rem  # idempotence
    gb = buchberger(G)
    assert normal_form(f - rem, gb.basis) == r.zero()


def univariate_gcd(f, g):
    """Euclid's algorithm on univariate polynomials, as an independent
    oracle for single-variable Groebner bases."""
    ring = f.ring
    idx = next(i for m in (f or g).terms for i, e in enumerate(m) if e) \
        if (f or g) else 0

    def degree(p):
        return max((m[idx] for m in p.terms), default=-1)

    def lead_coeff(p):
        d = degree(p)
        return p.terms[tuple(d if i == idx else 0 for i in range(ring.arity))]

    def shift(k):
        return Polynomial(ring, {tuple(k if i == idx else 0
                                       for i in range(ring.arity)): QQ.one()})

    a, b = f, g
    while b:
        while degree(a) >= degree(b) and a:
            factor = ring.const(QQ.div(lead_coeff(a), lead_coeff(b)))
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


def test_basis_is_reduced_and_monic():
    r = ring2()
    gens = [parse_poly("x1*x4 - x2*x3 - 1", r),
            parse_poly("2*x1^2 + 3*x2", r),
            parse_poly("x1^2*x4 + x2", r)]
    gb = buchberger(gens)
    key = r.sort_key(DEGREVLEX)
    leads = [max(g.terms, key=key) for g in gb.basis]
    for i, g in enumerate(gb.basis):
        assert g.terms[leads[i]] == QQ.one()
        for j, lead in enumerate(leads):
            if i == j:
                continue
            assert not all(a <= b for a, b in zip(lead, leads[i]))
        for mono in g.terms:
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
                s = s_polynomial(basis[i], basis[j])
                assert normal_form(s, basis) == r.zero()


def test_membership_soundness_random():
    rng = random.Random(4)
    for field in (QQ, PrimeField(5)):
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
                    c = field.from_int(rng.randint(-4, 4))
                    if c:
                        coeff_terms[tuple(exps)] = c
                combo = combo + Polynomial(r, coeff_terms) * g
            assert normal_form(combo, gb.basis) == r.zero()
            assert radical_membership(combo, gens)


def test_contains_one_examples():
    r = ring2()
    assert contains_one([r.var("x1"), parse_poly("x1 - 1", r)])
    det = parse_poly("x1*x4 - x2*x3", r)
    sl2 = parse_poly("x1*x4 - x2*x3 - 1", r)
    assert contains_one([sl2, det])
    assert not contains_one([det])
    assert not contains_one([])
    assert contains_one([r.from_int(3)])


def test_radical_membership_examples():
    r = ring2()
    x1, x2 = r.var("x1"), r.var("x2")
    assert radical_membership(x1, [x1 * x1])
    assert not radical_membership(x1, [x2])
    assert radical_membership(x1 + x2, [(x1 + x2) ** 3])
    assert radical_membership(r.zero(), [])
    assert not radical_membership(x1, [])


def test_radical_membership_rejects_ring_with_t():
    ring = VarRing(("t", "u"), QQ)
    with pytest.raises(ValueError, match="t"):
        radical_membership(ring.var("u"), [ring.var("t")])


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
            assert radical_membership(f, gens)


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


def test_stats_are_reported():
    r = ring1()
    gb = buchberger([parse_poly("x1^2 - 1", r), parse_poly("x1 - 1", r)])
    assert gb.stats.pairs_processed >= 1
    assert gb.stats.reductions_to_zero >= 1


def _to_sympy(f, symbols):
    import sympy
    expr = sympy.Integer(0)
    for mono, c in f.terms.items():
        term = sympy.Rational(str(c))
        for i, e in enumerate(mono):
            if e:
                term *= symbols[i] ** e
        expr += term
    return expr


def test_cross_check_against_sympy():
    sympy = pytest.importorskip("sympy")
    r = ring2()
    symbols = sympy.symbols("x1 x2 x3 x4")
    fixtures = [
        [parse_poly("x1^2 + x2^2 - 1", r), parse_poly("x1*x2 - 1", r)],
        [parse_poly("x1*x4 - x2*x3 - 1", r), parse_poly("x1 + x2 + x3", r)],
        [parse_poly("x1^2 - x2", r), parse_poly("x2^2 - x3", r),
         parse_poly("x3^2 - x1", r)],
    ]
    for gens in fixtures:
        mine = {sympy.expand(_to_sympy(g, symbols))
                for g in buchberger(gens).basis}
        theirs = sympy.groebner([_to_sympy(g, symbols) for g in gens],
                                *symbols, order="grevlex")
        assert mine == {sympy.expand(e) for e in theirs.exprs}


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
    # Arities 1 to 101; the largest is the doubled ring with both
    # witnesses at n=7 plus the radical-membership variable t.
    doubled = VarRing.matrix_ring(7, QQ, x0=True, y=True, y0=True, t=True)
    assert doubled.arity == 101
    rings = [VarRing([f"v{i}" for i in range(arity)], QQ)
             for arity in range(1, 101)] + [doubled]
    rng = random.Random(11)
    for ring in rings:
        codec = _codec(ring)
        bound = [0] * ring.arity
        bound[-1] = MAX_ENGINE_DEGREE
        samples = [tuple(bound), (0,) * ring.arity]
        samples += [_random_monomial(rng, ring.arity) for _ in range(40)]
        for a in samples:
            for b in rng.sample(samples, 8) + [tuple(bound)]:
                want = tuple(max(x, y) for x, y in zip(a, b))
                got = codec.lcm(codec.encode(a), codec.encode(b))
                assert got == codec.encode(want), (ring.arity, a, b)
                assert codec.degree(got) == sum(want)
