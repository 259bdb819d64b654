"""Symbolic constructions on the generic matrix blocks.

The x block identifies the variable x_{(i-1)n+j} with matrix entry
(i, j), row major; the y block does the same with y variables.  This
module provides the determinant and the adjugate entries of a block
(`CofactorTable`), the invertibility witness x0*det(x) - 1, the
matrix-product substitution, and the formal-inverse image of a
polynomial with its denominator exponent.

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

The pieces that do not depend on the polynomial being mapped live in a
CofactorTable of the target ring and `modulo`, which a caller passes to
every construction on that base: the block entries, each entry variable
replaced by its normal form when that has at most one term; the minors,
which the determinant and every adjugate entry share; the determinant
powers; and the entry images of the two substitutions.  Each piece is
built on first use, so an image builds only the entry images, adjugate
entries and cofactors of the variables its polynomial mentions, and a
zero entry drops out of every product it meets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import groebner
from .groebner import GroebnerBasis
from .parsing import ProblemSpec
from .poly import Polynomial, VarRing, change_ring


def entry_name(block: str, i: int, j: int, n: int) -> str:
    """Variable name of matrix entry (i, j), both 1-based."""
    return f"{block}{(i - 1) * n + j}"


def _reduction(modulo: GroebnerBasis | None):
    """The normal form modulo the basis `modulo`, or the identity."""
    if modulo is None:
        return lambda p: p
    # Looked up at call time, so that a wrapper bound later is called.
    return lambda p: groebner.normal_form(p, modulo)


def _without(n: int, k: int) -> tuple:
    return tuple(r for r in range(n) if r != k)


class CofactorTable:
    """The pieces of the closure-check images in one ring modulo one
    basis, each built on first use and kept: the entries of a block,
    its minors, determinant and determinant powers, the adjugate
    entries, and the entry images of the substitutions.  Every piece
    but an entry is reduced modulo `modulo` as it is built.

    An entry variable is replaced by its normal form when that form has
    at most one term, so that a zero entry drops out of every product.
    A variable is reducible modulo a Groebner basis only when it is the
    lead of an element g, which is then linear under degrevlex, and its
    normal form modulo a reduced basis is x - g; so the forms are read
    off the basis's linear elements.  Any representative of an entry's
    class modulo the basis gives the same reduced minors.

    Each minor is memoised under (block, rows, cols), so the
    determinant and every adjugate entry of a block share one Laplace
    expansion, along the first remaining row, that skips zero entries.
    A minor on s rows has terms of degree at most s in the variables of
    the entries, so it is already reduced when no lead of the basis of
    degree s or less lies in those variables; it is then kept as built.
    """

    def __init__(self, ring: VarRing, modulo: GroebnerBasis | None = None):
        if ring.n is None:
            raise ValueError("ring does not carry a matrix dimension")
        self.ring = ring
        self.modulo = modulo
        self.reduce = _reduction(modulo)
        self.minors: dict = {}  # (block, rows, cols) -> reduced minor
        self.images: dict = {}  # (kind, i, j) -> reduced image
        self._forms: dict | None = None
        self._entries: dict = {}
        self._floors: dict = {}
        self._adj: dict = {}
        self._powers: dict = {}

    def _entry_forms(self) -> dict:
        """Packed variable -> its normal form when that has one term or
        none, from the linear elements of the basis."""
        forms: dict = {}
        if self.modulo is not None:
            ring, field = self.ring, self.ring.field
            for g in self.modulo.basis:
                if len(g.terms) > 2 or g.total_degree() != 1:
                    continue
                lm, lc = g.leading()
                forms[lm] = Polynomial._make(ring, {
                    m: field.neg(field.div(c, lc))
                    for m, c in g.terms.items() if m != lm})
        return forms

    def entries(self, block: str) -> list[list[Polynomial]]:
        """The block's n x n entries, 0-based, each the entry variable or
        its normal form of at most one term."""
        rows = self._entries.get(block)
        if rows is None:
            if self._forms is None:
                self._forms = self._entry_forms()
            ring, forms, n = self.ring, self._forms, self.ring.n
            rows = []
            for i in range(1, n + 1):
                row = [ring.var(entry_name(block, i, j, n))
                       for j in range(1, n + 1)]
                rows.append([forms.get(next(iter(v.terms)), v) for v in row])
            self._entries[block] = rows
        return rows

    def _lead_floor(self, block: str) -> float:
        """The least degree of a lead of the basis whose variables all
        occur in the block's entries; infinite when there is none."""
        floor = self._floors.get(block)
        if floor is None:
            floor = math.inf
            if self.modulo is not None:
                codec = self.ring.codec
                used = 0
                for row in self.entries(block):
                    for e in row:
                        for m in e.terms:
                            used |= m
                outside = codec.low_mask & ~codec.support_mask(used)
                floor = min((codec.degree(lm) for lm, _, _
                             in self.modulo.reducers(self.ring)
                             if not lm & outside), default=math.inf)
            self._floors[block] = floor
        return floor

    def minor(self, block: str, rows: tuple, cols: tuple) -> Polynomial:
        """The reduced minor of the block on the given 0-based rows and
        columns."""
        if not rows:
            return self.ring.one()
        key = (block, rows, cols)
        m = self.minors.get(key)
        if m is None:
            m = self.minors[key] = self._build_minor(block, rows, cols)
        return m

    def _build_minor(self, block: str, rows: tuple, cols: tuple) -> Polynomial:
        row = self.entries(block)[rows[0]]
        acc = self.ring.zero()
        for pos, j in enumerate(cols):
            if not row[j]:
                continue
            term = row[j] * self.minor(block, rows[1:],
                                       cols[:pos] + cols[pos + 1:])
            acc = acc + term if pos % 2 == 0 else acc - term
        return acc if len(rows) < self._lead_floor(block) \
            else self.reduce(acc)

    def det(self, block: str) -> Polynomial:
        n = self.ring.n
        return self.minor(block, tuple(range(n)), tuple(range(n)))

    def adj(self, block: str, i: int, j: int) -> Polynomial:
        """Entry (i, j) of the block's adjugate, 0-based: cofactor (j, i)."""
        key = (block, i, j)
        a = self._adj.get(key)
        if a is None:
            n = self.ring.n
            a = self.minor(block, _without(n, j), _without(n, i))
            self._adj[key] = a = a if (i + j) % 2 == 0 else -a
        return a

    def det_power(self, block: str, e: int) -> Polynomial:
        """det(block)^e, reduced; the powers up to e are kept."""
        powers = self._powers.setdefault(block, [self.ring.one()])
        while len(powers) <= e:
            powers.append(self.det(block) if len(powers) == 1
                          else self.reduce(powers[-1] * powers[1]))
        return powers[e]


def _table(ring: VarRing, modulo: GroebnerBasis | None,
           table: CofactorTable | None) -> CofactorTable:
    if table is None:
        return CofactorTable(ring, modulo)
    if table.ring != ring or table.modulo is not modulo:
        raise ValueError("cofactor table of another ring or basis")
    return table


def det_poly(ring: VarRing, block: str = "x",
             modulo: GroebnerBasis | None = None) -> Polynomial:
    """Determinant of the generic block, by cofactor expansion; with
    `modulo`, its normal form, each minor reduced as it is built."""
    return CofactorTable(ring, modulo).det(block)


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


def _x_block_names(f: Polynomial, allow_x0: bool = False) -> list[str]:
    """The variables f mentions; ValueError unless each is an x-block
    entry (or x0, when allowed)."""
    names = f.ring.names
    used = 0
    for m in f.terms:
        used |= m
    out = []
    for i, _ in f.ring.codec.factors(used):
        if not (names[i].startswith("x") and (allow_x0 or names[i] != "x0")):
            raise ValueError(f"polynomial mentions {names[i]}, "
                             "expected x-block variables only")
        out.append(names[i])
    return out


def _position(name: str, n: int) -> tuple[int, int]:
    """The 0-based (i, j) of the entry variable `name`."""
    return divmod(int(name[1:]) - 1, n)


def _substitute(f: Polynomial, table: CofactorTable, kind: str,
                entry) -> Polynomial:
    """f with each x_{(i-1)n+j} it mentions replaced by entry(i - 1,
    j - 1) of the table's ring, reduced.  The reduced entry images are
    kept in table.images under (kind, i - 1, j - 1), and only the ones f
    mentions are built.  A linear combination of reduced polynomials is
    reduced, so the image of a linear form is not reduced again."""
    n = f.ring.n
    images = {}
    for name in _x_block_names(f):
        key = (kind, *_position(name, n))
        img = table.images.get(key)
        if img is None:
            img = table.images[key] = table.reduce(entry(*key[1:]))
        images[name] = img
    out = f.substitute(images, table.ring)
    linear_form = f.total_degree() == 1 and 0 not in f.terms
    return out if linear_form else table.reduce(out)


def subst_product(f: Polynomial, target: VarRing,
                  modulo: GroebnerBasis | None = None, *,
                  table: CofactorTable | None = None) -> Polynomial:
    """f with each entry variable replaced by the matrix-product entry:
    x_{(i-1)n+j} maps to the (i, j) entry of X*Y in the target ring.

    With `modulo`, the entries of X*Y and the result are normal forms.
    `table`, when given, is the CofactorTable of target and `modulo`
    that keeps the entry images for every call.
    """
    table = _table(target, modulo, table)
    x, y = table.entries("x"), table.entries("y")

    def entry(i: int, j: int) -> Polynomial:
        acc = target.zero()
        for k in range(target.n):
            if x[i][k] and y[k][j]:
                acc = acc + x[i][k] * y[k][j]
        return acc

    return _substitute(f, table, "product", entry)


def to_y_block(f: Polynomial, target: VarRing) -> Polynomial:
    """Rename every x_k in f to y_k inside the target ring, the witness
    variable x0 to y0 included."""
    _x_block_names(f, allow_x0=True)
    return change_ring(f, target, rename=lambda name: "y" + name[1:])


@dataclass(frozen=True)
class FormalInverseImage:
    """numerator / det(x)^denom_exponent equals f at the formal inverse."""

    numerator: Polynomial
    denom_exponent: int


def eval_at_formal_inverse(f: Polynomial,
                           modulo: GroebnerBasis | None = None, *,
                           table: CofactorTable | None = None
                           ) -> FormalInverseImage:
    """Clear denominators out of f evaluated at the formal inverse.

    With L the total degree of f, a term of degree m contributes its
    coefficient times the matching adjugate entries times det^(L-m), so
    the numerator h satisfies h(v) = det(v)^L * f(v^-1) for every
    invertible v.  The denominator exponent is fixed at L.

    With `modulo`, the numerator is the normal form of h.  Only the
    adjugate entries of the variables f mentions, and the determinant
    powers its terms need, are built.  `table`, when given, is the
    CofactorTable of f's ring and `modulo` that keeps them for every f.
    """
    names = _x_block_names(f)
    ring = f.ring
    if not f:
        return FormalInverseImage(ring.zero(), 0)
    table = _table(ring, modulo, table)
    n = ring.n
    adj = {ring.index(name): table.adj("x", *_position(name, n))
           for name in names}
    degree = f.total_degree()
    codec = ring.codec
    power_cache: dict = {}
    acc = ring.zero()
    for m, c in f.terms.items():
        term = ring.const(c) * table.det_power("x", degree - codec.degree(m))
        for key in codec.factors(m):
            p = power_cache.get(key)
            if p is None:
                p = power_cache[key] = adj[key[0]] ** key[1]
            term = term * p
        acc = acc + term
    if degree != 1:  # else a linear combination of adj entries and det
        acc = table.reduce(acc)
    return FormalInverseImage(acc, degree)


def subst_x_times_inverse_y(f: Polynomial, target: VarRing,
                            modulo: GroebnerBasis | None = None, *,
                            table: CofactorTable | None = None
                            ) -> Polynomial:
    """f with entry (i, j) replaced by y0 times the (i, j) entry of
    X*adj(Y); modulo the y-block witness relation, y0 stands for
    det(y)^-1, so this represents f at x times the formal inverse of y.

    With `modulo`, the cofactors of Y, the entry images and the result
    are normal forms.  An entry image takes only the cofactors of Y that
    meet a nonzero entry of X, and only the entries f mentions are
    built.  `table`, when given, is the CofactorTable of target and
    `modulo` that keeps the cofactors and entry images for every call.
    """
    table = _table(target, modulo, table)
    x, y0 = table.entries("x"), target.var("y0")

    def entry(i: int, j: int) -> Polynomial:
        acc = target.zero()
        for k in range(target.n):
            if x[i][k]:
                acc = acc + x[i][k] * table.adj("y", k, j)
        return y0 * acc

    return _substitute(f, table, "quotient", entry)
