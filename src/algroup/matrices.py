"""Symbolic constructions on the generic matrix blocks.

The x block identifies the variable x_{(i-1)n+j} with matrix entry
(i, j), row major; the y block does the same with y variables.  This
module provides the determinant and adjugate of a block, the
invertibility witness x0*det(x) - 1, the matrix-product substitution,
and the formal-inverse image of a polynomial with its denominator
exponent.

Each closure-check construction takes an optional `modulo`, a Groebner
basis of its target ring.  Normal form modulo a Groebner basis of J is a
ring map onto R/J: NF(a*b) = NF(NF(a)*NF(b)) and NF(a + b) = NF(a) +
NF(b).  So with `modulo` a construction reduces its pieces as it builds
them (each minor of the cofactor expansion, each determinant power,
each entry image) and returns NF(image), the same polynomial as the
normal form of the expanded image, without ever expanding it.  The
products inside a substitution are not reduced one by one: a reduction
per partial product costs more than it saves.  Without `modulo` each
construction returns the expanded polynomial.

The pieces that do not depend on the polynomial being mapped can be
passed in, so that one closure check builds them once for all of its
generators: the adjugate and the determinant, and two memos the
constructions fill on first use, the list of determinant powers and the
dict of entry images.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import groebner
from .groebner import GroebnerBasis
from .parsing import ProblemSpec
from .poly import Polynomial, VarRing, change_ring


def entry_name(block: str, i: int, j: int, n: int) -> str:
    """Variable name of matrix entry (i, j), both 1-based."""
    return f"{block}{(i - 1) * n + j}"


def _entries(ring: VarRing, block: str):
    n = ring.n
    if n is None:
        raise ValueError("ring does not carry a matrix dimension")
    return [[ring.var(entry_name(block, i, j, n)) for j in range(1, n + 1)]
            for i in range(1, n + 1)]


def _reduction(modulo: GroebnerBasis | None):
    """The normal form modulo the basis `modulo`, or the identity."""
    if modulo is None:
        return lambda p: p
    # Looked up at call time, so that a wrapper bound later is called.
    return lambda p: groebner.normal_form(p, modulo)


def _minor_function(entries, ring: VarRing, reduce):
    memo: dict = {}

    def minor(rows: tuple, cols: tuple) -> Polynomial:
        if not rows:
            return ring.one()
        key = (rows, cols)
        cached = memo.get(key)
        if cached is not None:
            return cached
        i = rows[0]
        acc = ring.zero()
        for pos, j in enumerate(cols):
            sub = minor(rows[1:], cols[:pos] + cols[pos + 1:])
            term = entries[i][j] * sub
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[key] = acc = reduce(acc)
        return acc

    return minor


def det_poly(ring: VarRing, block: str = "x",
             modulo: GroebnerBasis | None = None) -> Polynomial:
    """Determinant of the generic block, by cofactor expansion; with
    `modulo`, its normal form, each minor reduced as it is built."""
    entries = _entries(ring, block)
    n = ring.n
    minor = _minor_function(entries, ring, _reduction(modulo))
    return minor(tuple(range(n)), tuple(range(n)))


def adjugate(ring: VarRing, block: str = "x",
             modulo: GroebnerBasis | None = None) -> list[list[Polynomial]]:
    """Classical adjoint of the generic block: adj[i][j] = cofactor(j, i).

    Satisfies X * adj(X) = adj(X) * X = det(X) * identity as polynomial
    identities.  Indices in the result are 0-based.  With `modulo`, each
    entry is its normal form, each minor reduced as it is built.
    """
    entries = _entries(ring, block)
    n = ring.n
    minor = _minor_function(entries, ring, _reduction(modulo))
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            rows = tuple(r for r in range(n) if r != j)
            cols = tuple(c for c in range(n) if c != i)
            m = minor(rows, cols)
            row.append(m if (i + j) % 2 == 0 else -m)
        adj.append(row)
    return adj


def build_f0(ring: VarRing, block: str = "x",
             det: Polynomial | None = None) -> Polynomial:
    """The invertibility witness: x0*det(x) - 1 (or its y counterpart).
    `det`, when given, stands in for det(x): a polynomial of the ring
    congruent to it modulo an ideal, which the witness then extends to
    the same ideal."""
    if det is None:
        det = det_poly(ring, block)
    return ring.var(f"{block}0") * det - ring.one()


def build_hat_ideal(problem: ProblemSpec) -> tuple[VarRing, list[Polynomial]]:
    """Generators of the problem ideal extended by the witness relation."""
    hat = VarRing.matrix_ring(problem.n, problem.field, x0=True)
    gens = [change_ring(g, hat) for g in problem.generators]
    gens.append(build_f0(hat, "x"))
    return hat, gens


def _assert_x_block_only(f: Polynomial, allow_x0: bool = False) -> None:
    names = f.ring.names
    used = 0
    for m in f.terms:
        used |= m
    for i, _ in f.ring.codec.factors(used):
        if not (names[i].startswith("x") and (allow_x0 or names[i] != "x0")):
            raise ValueError(f"polynomial mentions {names[i]}, "
                             "expected x-block variables only")


def _matmul(a, b, zero: Polynomial):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), zero)
             for j in range(n)] for i in range(n)]


def _substitute(f: Polynomial, target: VarRing, entries,
                modulo: GroebnerBasis | None,
                images: dict | None) -> Polynomial:
    """f with x_{(i-1)n+j} replaced by entry (i, j) of the matrix that
    entries() returns; with `modulo`, the entries and the result are
    reduced.  `images` memoises the entry images: an empty dict is
    filled, and a filled one is used as it is."""
    _assert_x_block_only(f)
    reduce = _reduction(modulo)
    images = {} if images is None else images
    if not images:
        n = f.ring.n
        for i, row in enumerate(entries(), start=1):
            for j, e in enumerate(row, start=1):
                images[entry_name("x", i, j, n)] = reduce(e)
    return reduce(f.substitute(images, target))


def subst_product(f: Polynomial, target: VarRing,
                  modulo: GroebnerBasis | None = None, *,
                  images: dict | None = None) -> Polynomial:
    """f with each entry variable replaced by the matrix-product entry:
    x_{(i-1)n+j} maps to the (i, j) entry of X*Y in the target ring.

    With `modulo`, the entries of X*Y and the result are normal forms.
    `images`, when given, memoises the entry images for every call with
    the same target and `modulo`; an empty dict is filled.
    """
    return _substitute(f, target, lambda: _matmul(
        _entries(target, "x"), _entries(target, "y"), target.zero()),
        modulo, images)


def to_y_block(f: Polynomial, target: VarRing) -> Polynomial:
    """Rename every x_k in f to y_k inside the target ring, the witness
    variable x0 to y0 included."""
    _assert_x_block_only(f, allow_x0=True)
    return change_ring(f, target, rename=lambda name: "y" + name[1:])


@dataclass(frozen=True)
class FormalInverseImage:
    """numerator / det(x)^denom_exponent equals f at the formal inverse."""

    numerator: Polynomial
    denom_exponent: int


def eval_at_formal_inverse(f: Polynomial,
                           modulo: GroebnerBasis | None = None, *,
                           adj: list | None = None,
                           det_powers: list | None = None
                           ) -> FormalInverseImage:
    """Clear denominators out of f evaluated at the formal inverse.

    With L the total degree of f, a term of degree m contributes its
    coefficient times the matching adjugate entries times det^(L-m), so
    the numerator h satisfies h(v) = det(v)^L * f(v^-1) for every
    invertible v.  The denominator exponent is fixed at L.

    With `modulo`, the numerator is the normal form of h.  `adj` and
    `det_powers`, when given, are adj(X) and the list [1, det(X), ...]
    of f's ring, reduced modulo `modulo` when it is given; the list is
    extended in place up to det^L, so that one list serves every f.
    """
    _assert_x_block_only(f)
    ring = f.ring
    if not f:
        return FormalInverseImage(ring.zero(), 0)
    reduce = _reduction(modulo)
    n = ring.n
    if adj is None:
        adj = adjugate(ring, "x", modulo)
    if det_powers is None:
        det_powers = [ring.one(), det_poly(ring, "x", modulo)]
    degree = f.total_degree()
    while len(det_powers) <= degree:
        det_powers.append(reduce(det_powers[-1] * det_powers[1]))
    adj_for_index = {}
    for k in range(1, n * n + 1):
        i, j = (k - 1) // n, (k - 1) % n
        adj_for_index[ring.index(f"x{k}")] = adj[i][j]
    codec = ring.codec
    power_cache: dict = {}
    acc = ring.zero()
    for m, c in f.terms.items():
        term = ring.const(c) * det_powers[degree - codec.degree(m)]
        for key in codec.factors(m):
            p = power_cache.get(key)
            if p is None:
                p = adj_for_index[key[0]] ** key[1]
                power_cache[key] = p
            term = term * p
        acc = acc + term
    return FormalInverseImage(reduce(acc), degree)


def make_k(img: FormalInverseImage, modulo: GroebnerBasis | None = None, *,
           det: Polynomial | None = None) -> Polynomial:
    """Multiply the formal-inverse numerator by one more det factor,
    making it vanish on singular points as well.  With `modulo`, the
    result is a normal form; `det`, when given, is det(X), reduced
    modulo `modulo` when it is given."""
    if det is None:
        det = det_poly(img.numerator.ring, "x", modulo)
    return _reduction(modulo)(img.numerator * det)


def subst_x_times_inverse_y(f: Polynomial, target: VarRing,
                            modulo: GroebnerBasis | None = None, *,
                            images: dict | None = None) -> Polynomial:
    """f with entry (i, j) replaced by y0 times the (i, j) entry of
    X*adj(Y); modulo the y-block witness relation, y0 stands for
    det(y)^-1, so this represents f at x times the formal inverse of y.

    With `modulo`, adj(Y), the entry images and the result are normal
    forms.  `images`, when given, memoises the entry images for every
    call with the same target and `modulo`; an empty dict is filled.
    """
    def entries():
        y0 = target.var("y0")
        xadj = _matmul(_entries(target, "x"), adjugate(target, "y", modulo),
                       target.zero())
        return [[y0 * e for e in row] for row in xadj]

    return _substitute(f, target, entries, modulo, images)
