import random

import pytest

from algroup import (Polynomial, PrimeField, QQ, VarRing, change_ring,
                     parse_poly, render)
from algroup.poly import MAX_ENGINE_DEGREE


def ring2(field=QQ):
    return VarRing.matrix_ring(2, field)


def test_ring_construction_and_order_of_significance():
    ring = VarRing.matrix_ring(2, QQ, x0=True, y=True, y0=True)
    assert ring.names == ("y1", "y2", "y3", "y4", "y0", "x1", "x2", "x3", "x4", "x0")
    assert ring.extend_front("t").names[0] == "t"
    with pytest.raises(ValueError):
        VarRing.matrix_ring(2, QQ, y0=True)  # y0 without the y block
    with pytest.raises(ValueError):
        VarRing(("a", "a"), QQ)


def _factors_reference(codec, packed):
    """(index, exponent) of every nonzero field below the degree, read
    one 16-bit field at a time."""
    fields = [(packed >> (16 * i)) & 0xFFFF for i in range(codec.arity)]
    return [(i, e) for i, e in enumerate(fields) if e]


def test_factors_match_a_field_by_field_reference():
    # Every arity up to the widest ring a decision builds: the doubled
    # ring at n = 5 with the radical-membership variable t.  The highest
    # variable is always set, and exponents reach MAX_ENGINE_DEGREE, so
    # a field may hold any of the bits 0..13.
    widest = VarRing.matrix_ring(5, QQ, x0=True, y=True,
                                 y0=True).extend_front("t")
    assert widest.arity == 53
    rng = random.Random(53)
    for arity in range(1, 54):
        codec = VarRing([f"v{i}" for i in range(arity)], QQ).codec
        top = [0] * (arity - 1) + [MAX_ENGINE_DEGREE]
        samples = [top, [1] * arity]
        for _ in range(60):
            exps = [0] * arity
            left = MAX_ENGINE_DEGREE
            density = rng.choice([0.05, 0.3, 1.0])
            for i in [arity - 1] + rng.sample(range(arity - 1), arity - 1):
                if left and (i == arity - 1 or rng.random() < density):
                    e = rng.choice([1, 2, 1 << rng.randrange(14),
                                    rng.randint(1, MAX_ENGINE_DEGREE)])
                    exps[i] = min(e, left)
                    left -= exps[i]
            samples.append(exps)
        for exps in samples:
            packed = codec.pack(tuple(exps))
            assert codec.factors(packed) == _factors_reference(codec, packed)
            assert codec.factors(packed)[-1] == (arity - 1, exps[-1])
        assert codec.factors(0) == []


def test_basic_arithmetic():
    ring = ring2()
    x1, x2 = ring.var("x1"), ring.var("x2")
    square = (x1 + x2) * (x1 + x2)
    assert square == x1 * x1 + 2 * x1 * x2 + x2 * x2
    f = parse_poly("x1^3 - 2*x2 + 5", ring)
    assert f + (-f) == ring.zero()
    assert parse_poly("(x1-1)*(x1^2+1)", ring) == \
        parse_poly("x1^3 - x1^2 + x1 - 1", ring)


def test_ring_mismatch_is_an_error():
    a = ring2().var("x1")
    b = VarRing.matrix_ring(2, PrimeField(5)).var("x1")
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_substitute_examples():
    n = 1
    ring = VarRing.matrix_ring(n, QQ, x0=True)
    target = VarRing.matrix_ring(n, QQ, x0=True, y=True, y0=True)
    f = ring.var("x1") + ring.var("x0")
    phi = {"x1": target.var("y1"), "x0": target.var("y0")}
    assert f.substitute(phi, target) == target.var("y1") + target.var("y0")

    r = ring2()
    x1 = r.var("x1")
    assert (x1 * x1).substitute({"x1": x1}) == x1 * x1

    xy = VarRing.matrix_ring(2, QQ, y=True)
    prod_entry = xy.var("x1") * xy.var("y1") + xy.var("x2") * xy.var("y3")
    images = {"x1": prod_entry}
    assert change_ring(x1, VarRing.matrix_ring(2, QQ)).substitute(images, xy) \
        == prod_entry


def test_substitute_missing_image():
    ring = ring2()
    f = ring.var("x1") + ring.var("x2")
    with pytest.raises(ValueError, match="x2"):
        f.substitute({"x1": ring.var("x1")})


def test_eval_examples():
    ring = ring2()
    det = parse_poly("x1*x4 - x2*x3", ring)
    assert det.evaluate([1, 0, 0, 1]) == 1

    ring3 = VarRing.matrix_ring(3, QQ)
    f_no_id = parse_poly("22*x1+77*x2-6*x4-21*x5+48*x7+168*x8", ring3)
    identity3 = [1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert f_no_id.evaluate(identity3) == 1

    f_id = parse_poly("-3*x1+x3-9*x7+3*x9", ring3)
    assert f_id.evaluate(identity3) == 0

    with pytest.raises(ValueError):
        det.evaluate([1, 0])


def test_compare_examples():
    ring = ring2()
    key = ring.codec.key
    pack = ring.codec.pack
    x1sq = pack((2, 0, 0, 0))
    x1x2 = pack((1, 1, 0, 0))
    assert key(x1sq) > key(x1x2)
    const = pack((0, 0, 0, 0))
    x1 = pack((1, 0, 0, 0))
    assert key(const) < key(x1)
    x2ten = pack((0, 10, 0, 0))
    assert key(x1) < key(x2ten)


def random_poly(rng, ring, maxdeg=3, terms=4, coeff_span=9):
    out = {}
    field = ring.field
    for _ in range(rng.randint(0, terms)):
        exps = [0] * ring.arity
        for _ in range(rng.randint(0, maxdeg)):
            exps[rng.randrange(ring.arity)] += 1
        c = field.canonical(rng.randint(-coeff_span, coeff_span))
        if c:
            out[tuple(exps)] = c
    return Polynomial(ring, out)


def test_ring_axioms_random():
    rng = random.Random(3)
    rings = [ring2(), ring2(PrimeField(5)),
             VarRing(tuple(f"v{k}" for k in range(20)), PrimeField(3))]
    for ring in rings:
        for _ in range(30):
            f = random_poly(rng, ring)
            g = random_poly(rng, ring)
            h = random_poly(rng, ring)
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f - f == ring.zero()
            assert f * ring.one() == f
            assert f * ring.zero() == ring.zero()


def test_substitute_is_a_homomorphism():
    rng = random.Random(5)
    ring = ring2()
    target = VarRing.matrix_ring(2, QQ, y=True)
    images = {name: random_poly(rng, target, maxdeg=2, terms=3)
              for name in ring.names}
    for _ in range(15):
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        assert (f + g).substitute(images, target) == \
            f.substitute(images, target) + g.substitute(images, target)
        assert (f * g).substitute(images, target) == \
            f.substitute(images, target) * g.substitute(images, target)


def test_eval_after_substitute_composes():
    rng = random.Random(9)
    ring = ring2()
    target = VarRing.matrix_ring(2, QQ, y=True)
    for _ in range(15):
        f = random_poly(rng, ring)
        images = {name: random_poly(rng, target, maxdeg=2, terms=3)
                  for name in ring.names}
        point = [QQ.canonical(rng.randint(-4, 4)) for _ in range(target.arity)]
        direct = f.substitute(images, target).evaluate(point)
        via_images = f.evaluate([images[name].evaluate(point)
                                 for name in ring.names])
        assert direct == via_images


def test_compare_properties_random():
    rng = random.Random(13)
    ring = VarRing(tuple(f"v{k}" for k in range(5)), QQ)
    sort_key = ring.codec.key

    def key(exps):
        return sort_key(ring.codec.pack(exps))

    def rand_mono():
        return tuple(rng.randint(0, 4) for _ in range(5))
    for _ in range(600):
        a, b, c = rand_mono(), rand_mono(), rand_mono()
        # total: distinct monomials never tie
        assert (key(a) == key(b)) == (a == b)
        if key(a) <= key(b) and key(b) <= key(c):
            assert key(a) <= key(c)
        # multiplicative: a < b implies a*c < b*c
        if key(a) < key(b):
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert key(ac) < key(bc)
        # one is minimal
        assert key((0, 0, 0, 0, 0)) <= key(a)


def test_degree_overflow_aborts():
    ring = VarRing(("v",), QQ)
    huge = Polynomial(ring, {(MAX_ENGINE_DEGREE,): 1})
    with pytest.raises(OverflowError):
        huge * huge
    with pytest.raises(OverflowError):
        ring.var("v") ** (MAX_ENGINE_DEGREE + 1)


def test_render_canonical_form():
    ring = ring2()
    f = parse_poly("x1^2*x4 - 2*x2", ring)
    assert render(f) == "x1^2*x4 - 2*x2"
    assert render(ring.zero()) == "0"
    assert render(ring.const(-7)) == "-7"
    assert render(parse_poly("-x1 + 1", ring)) == "-x1 + 1"
    assert str(QQ.from_ratio(5, 6)) in render(
        Polynomial(ring, {(1, 0, 0, 0): QQ.from_ratio(5, 6)}))


def test_leading_term_and_degree():
    ring = ring2()
    f = parse_poly("x1*x4 - x2*x3 - 1", ring)
    mono, coeff = f.leading()
    assert ring.codec.unpack(mono) == (0, 1, 1, 0)  # degrevlex prefers x2*x3 over x1*x4
    assert coeff == QQ.canonical(-1)
    assert f.total_degree() == 2
    assert ring.zero().total_degree() == 0
    assert ring.one().is_constant and ring.zero().is_constant
    assert not f.is_constant
