import random
from fractions import Fraction

import pytest
from conftest import hat_ideal_reference, to_y_block_reference

from algroup import (QQ, VarRing, buchberger, change_ring, det_poly,
                     normal_form, parse_poly, parse_problem)
from algroup.matrices import (CofactorTable, build_f0,
                              eval_at_formal_inverse, subst_product,
                              subst_x_times_inverse_y)


def xring(n):
    return VarRing.matrix_ring(n, QQ)


def adjugate(ring):
    """The x block's classical adjoint, adj[i][j] = cofactor(j, i),
    0-based, read off a CofactorTable of the ring."""
    table = CofactorTable(ring)
    return [[table.adj("x", i, j) for j in range(ring.n)]
            for i in range(ring.n)]


def frac_matrix(rng, n, span=6):
    return [[Fraction(rng.randint(-span, span)) for _ in range(n)]
            for _ in range(n)]


def frac_det(m):
    """Determinant by Gaussian elimination over Fraction (independent of
    the cofactor code under test)."""
    n = len(m)
    a = [row[:] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return det


def frac_inverse(m):
    """Inverse by Gauss-Jordan over Fraction."""
    n = len(m)
    a = [row[:] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col])
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [[a[i][n + j] for j in range(n)] for i in range(n)]


def random_invertible(rng, n, span=6):
    while True:
        m = frac_matrix(rng, n, span)
        if frac_det(m):
            return m


def flatten(m):
    return [v for row in m for v in row]


def x_point(ring, matrix, extra=()):
    """Point in ring variable order for an x-block assignment."""
    values = {}
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            values[f"x{i * n + j + 1}"] = matrix[i][j]
    values.update(extra)
    return [values[name] for name in ring.names]


def test_det_small_cases():
    assert det_poly(xring(1)) == xring(1).var("x1")
    assert det_poly(xring(2)) == parse_poly("x1*x4 - x2*x3", xring(2))
    r3 = xring(3)
    d3 = det_poly(r3)
    assert len(d3.terms) == 6
    identity = [Fraction(int(i == j)) for i in range(3) for j in range(3)]
    assert d3.evaluate(identity) == 1


def test_det_matches_gaussian_elimination():
    rng = random.Random(21)
    for n in (1, 2, 3, 4):
        d = det_poly(xring(n))
        for _ in range(10):
            m = frac_matrix(rng, n)
            assert d.evaluate(flatten(m)) == frac_det(m)


def test_adjugate_small_cases():
    r2 = xring(2)
    adj = adjugate(r2)
    assert adj[0][0] == r2.var("x4")
    assert adj[0][1] == -r2.var("x2")
    assert adj[1][0] == -r2.var("x3")
    assert adj[1][1] == r2.var("x1")
    assert adjugate(xring(1)) == [[xring(1).one()]]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adjugate_identity_with_det(n):
    ring = xring(n)
    adj = adjugate(ring)
    det = det_poly(ring)
    x = [[ring.var(f"x{i * n + j + 1}") for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            left = sum((x[i][k] * adj[k][j] for k in range(n)), ring.zero())
            right = sum((adj[i][k] * x[k][j] for k in range(n)), ring.zero())
            expect = det if i == j else ring.zero()
            assert left == expect
            assert right == expect


def test_det_and_adjugate_at_identity():
    for n in (1, 2, 3):
        ring = xring(n)
        identity = [Fraction(int(i == j)) for i in range(n) for j in range(n)]
        assert det_poly(ring).evaluate(identity) == 1
        adj = adjugate(ring)
        for i in range(n):
            for j in range(n):
                assert adj[i][j].evaluate(identity) == int(i == j)


def test_build_f0():
    r1 = VarRing.matrix_ring(1, QQ, x0=True)
    assert build_f0(r1) == parse_poly("x0*x1 - 1", r1)
    r2 = VarRing.matrix_ring(2, QQ, x0=True)
    assert build_f0(r2) == parse_poly("x0*x1*x4 - x0*x2*x3 - 1", r2)
    point = x_point(r2, [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]],
                    extra={"x0": Fraction(1, 6)})
    assert build_f0(r2).evaluate(point) == 0


def test_build_hat_ideal():
    spec = parse_problem("n 1\nfield Q\n")
    hat_ring, gens = hat_ideal_reference(spec)
    assert gens == [parse_poly("x0*x1 - 1", hat_ring)]

    sl2 = parse_problem("n 2\nfield Q\nx1*x4 - x2*x3 - 1\n")
    hat_ring, gens = hat_ideal_reference(sl2)
    assert gens == [parse_poly("x1*x4 - x2*x3 - 1", hat_ring),
                    parse_poly("x0*x1*x4 - x0*x2*x3 - 1", hat_ring)]

    three = parse_problem(
        "n 3\nfield Q\n-3*x1+x3-9*x7+3*x9\n52*x1-16*x3+169*x7-52*x9\n3*x4-x6\n")
    hat_ring, gens = hat_ideal_reference(three)
    assert len(gens) == 4
    assert gens[-1] == build_f0(hat_ring)


def test_subst_product_examples():
    r2 = xring(2)
    target = VarRing.matrix_ring(2, QQ, x0=True, y=True, y0=True)
    assert subst_product(r2.var("x1"), CofactorTable(target)) == \
        parse_poly("x1*y1 + x2*y3", target)
    r1 = xring(1)
    t1 = VarRing.matrix_ring(1, QQ, x0=True, y=True, y0=True)
    assert subst_product(parse_poly("x1 - 1", r1), CofactorTable(t1)) == \
        parse_poly("x1*y1 - 1", t1)


def test_subst_product_numeric_contract():
    rng = random.Random(8)
    for n in (1, 2, 3):
        ring = xring(n)
        target = VarRing.matrix_ring(n, QQ, x0=True, y=True, y0=True)
        table = CofactorTable(target)
        for _ in range(10):
            f = _random_x_poly(rng, ring)
            v = frac_matrix(rng, n)
            w = frac_matrix(rng, n)
            product = [[sum(v[i][k] * w[k][j] for k in range(n))
                        for j in range(n)] for i in range(n)]
            point = _xy_point(target, v, w,
                              x0=Fraction(0), y0=Fraction(0))
            assert subst_product(f, table).evaluate(point) == \
                f.evaluate(flatten(product))


def _random_x_poly(rng, ring, maxdeg=3, terms=4):
    from algroup import Polynomial
    out = {}
    for _ in range(rng.randint(1, terms)):
        exps = [0] * ring.arity
        for _ in range(rng.randint(0, maxdeg)):
            exps[rng.randrange(ring.arity)] += 1
        c = QQ.canonical(rng.randint(-5, 5))
        if c:
            out[tuple(exps)] = c
    return Polynomial(ring, out)


def _xy_point(ring, v, w, x0, y0):
    n = len(v)
    values = {"x0": x0, "y0": y0}
    for i in range(n):
        for j in range(n):
            values[f"x{i * n + j + 1}"] = v[i][j]
            values[f"y{i * n + j + 1}"] = w[i][j]
    return [values[name] for name in ring.names]


def test_formal_inverse_examples():
    # The numerator over det^L, L the total degree, is f at the inverse.
    r1 = xring(1)
    f = parse_poly("x1 - 1", r1)
    assert f.total_degree() == 1
    assert eval_at_formal_inverse(f, CofactorTable(r1)) == \
        parse_poly("1 - x1", r1)

    r2 = xring(2)
    table = CofactorTable(r2)
    assert eval_at_formal_inverse(r2.var("x2"), table) == -r2.var("x2")

    det = det_poly(r2)
    assert (det - 1).total_degree() == 2
    assert eval_at_formal_inverse(det - 1, table) == det * (1 - det)

    assert eval_at_formal_inverse(r2.zero(), table) == r2.zero()

    # f moves into the table's ring.
    hat = VarRing.matrix_ring(2, QQ, x0=True)
    assert eval_at_formal_inverse(r2.var("x2"), CofactorTable(hat)) == \
        -hat.var("x2")


def test_formal_inverse_numeric_contract():
    # h(v) = det(v)^l * f(v^-1) exactly, on 100 random invertible matrices.
    rng = random.Random(17)
    cases = 0
    for n in (1, 2, 3):
        ring = xring(n)
        table = CofactorTable(ring)
        for _ in range(12):
            f = _random_x_poly(rng, ring)
            numerator = eval_at_formal_inverse(f, table)
            for _ in range(3):
                v = random_invertible(rng, n)
                d = frac_det(v)
                lhs = numerator.evaluate(flatten(v))
                rhs = d**f.total_degree() * \
                    f.evaluate(flatten(frac_inverse(v)))
                assert lhs == rhs
                cases += 1
    assert cases >= 100


def test_subst_x_times_inverse_y_examples():
    r1 = xring(1)
    t1 = VarRing.matrix_ring(1, QQ, x0=True, y=True, y0=True)
    assert subst_x_times_inverse_y(parse_poly("x1 - 1", r1),
                                   CofactorTable(t1)) == \
        parse_poly("x1*y0 - 1", t1)

    r2 = xring(2)
    t2 = VarRing.matrix_ring(2, QQ, x0=True, y=True, y0=True)
    assert subst_x_times_inverse_y(r2.var("x1"), CofactorTable(t2)) == \
        parse_poly("y0*(x1*y4 - x2*y3)", t2)


def test_subst_x_times_inverse_y_numeric_contract():
    rng = random.Random(31)
    for n in (1, 2, 3):
        ring = xring(n)
        target = VarRing.matrix_ring(n, QQ, x0=True, y=True, y0=True)
        table = CofactorTable(target)
        for _ in range(8):
            f = _random_x_poly(rng, ring)
            g = subst_x_times_inverse_y(f, table)
            v = frac_matrix(rng, n)
            w = random_invertible(rng, n)
            w_inv = frac_inverse(w)
            vw_inv = [[sum(v[i][k] * w_inv[k][j] for k in range(n))
                       for j in range(n)] for i in range(n)]
            point = _xy_point(target, v, w, x0=Fraction(0),
                              y0=1 / frac_det(w))
            assert g.evaluate(point) == f.evaluate(flatten(vw_inv))


def test_to_y_block():
    r2 = xring(2)
    target = VarRing.matrix_ring(2, QQ, x0=True, y=True, y0=True)
    f = parse_poly("x1*x4 - x2*x3 - 1", r2)
    assert to_y_block_reference(f, target) == \
        parse_poly("y1*y4 - y2*y3 - 1", target)


def test_x_block_only_guard():
    target = VarRing.matrix_ring(2, QQ, x0=True, y=True, y0=True)
    stray = target.var("y1") + target.var("x1")
    with pytest.raises(ValueError, match="y1"):
        subst_product(stray, CofactorTable(target))
    hat = VarRing.matrix_ring(2, QQ, x0=True)
    with pytest.raises(ValueError, match="x0"):
        eval_at_formal_inverse(change_ring(target.var("x0"), hat),
                               CofactorTable(hat))


def test_a_cofactor_table_serves_only_its_ring_and_basis():
    ring = xring(3)
    base = buchberger([ring.var("x2"), ring.var("x4") - ring.var("x7")],
                      ring=ring)
    table = CofactorTable(ring, base)
    assert table.det("x") == det_poly(ring, "x", base) == \
        normal_form(det_poly(ring), base)
    # x2 is zero modulo the basis, and x4 is congruent to x7: the
    # entries are their one-term normal forms.
    entries = table.entries("x")
    assert entries[0][1] == ring.zero() and entries[1][0] == ring.var("x7")
