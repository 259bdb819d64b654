"""Symbolic constructions on the generic matrix blocks.

The x block identifies the variable x_{(i-1)n+j} with matrix entry
(i, j), row major; the y block does the same with y variables.  This
module provides the determinant and the adjugate entries of a block
(`CofactorTable`), the invertibility witness x0*det(x) - 1, the
matrix-product substitution, and the numerator of a polynomial at the
formal inverse X^-1, homogenized by det(X).

No construction builds a quotient X*Y^-1.  V*(I) is closed in GL_n, and
a nonempty closed subsemigroup M of GL_n is a group (Putcha, Linear
Algebraic Monoids, 1988): for x in M the closed sets M, xM, x^2*M, ...
descend, so they stop, and then M = xM; from x = x*s in xM, 1 = s lies
in M, and from 1 = x*m, x^-1 = m does.  So closure under division and
closure under multiplication give one verdict, and `decide` decides
both through the product image.

Each closure-check construction takes one argument besides the
polynomial: a CofactorTable, whose ring is the target ring and whose
optional `modulo` is a Groebner basis of it.  The table holds the
pieces that do not depend on the polynomial being mapped, for every
construction on that base: the block entries, each entry variable
replaced by its normal form when that has at most one term; the minors,
which the determinant and every adjugate entry share; the determinant
powers; and the entry images of the product.  Each piece is
built on first use, so an image builds only the entry images, adjugate
entries and cofactors of the variables its polynomial mentions, and a
zero entry drops out of every product it meets.

Normal form modulo a Groebner basis of J is a ring map onto R/J:
NF(a*b) = NF(NF(a)*NF(b)) and NF(a + b) = NF(a) + NF(b).  So on a table
with `modulo` a construction reduces its pieces as it builds them (each
minor of the cofactor expansion, each determinant power, each entry
image) and returns NF(image), the same polynomial as the normal form of
the expanded image, without ever expanding it.  The products inside a
substitution are not reduced one by one: a reduction per partial
product costs more than it saves.  On `CofactorTable(ring)`, with no
basis, each construction returns the expanded polynomial.
"""

from __future__ import annotations

import math

from . import groebner
from .groebner import GroebnerBasis
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
    entries, and the entry images of the product.  Every piece
    but an entry is reduced modulo `modulo` as it is built.

    An entry variable is replaced by its normal form when that form has
    at most one term, so that a zero entry drops out of every product.
    A variable is reducible modulo a Groebner basis only when it is the
    lead of an element g, which is then linear under degrevlex, and its
    normal form modulo a reduced basis is x - g/lc(g); so the forms are
    read off the basis's linear reducers.  Any representative of an
    entry's class modulo the basis gives the same reduced minors.

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
        self.images: dict = {}  # (i, j) -> reduced entry (i, j) of X*Y
        self._forms: dict | None = None
        self._entries: dict = {}
        self._floors: dict = {}
        self._adj: dict = {}
        self._powers: dict = {}

    def _entry_forms(self) -> dict:
        """Packed variable -> its normal form when that has one term or
        none, from the linear reducers of the basis."""
        forms: dict = {}
        if self.modulo is not None:
            ring, field = self.ring, self.ring.field
            shift = ring.codec.deg_shift
            for lm, lc, tail in self.modulo.reducers:
                if len(tail) > 1 or lm >> shift != 1:
                    continue
                # Over Q a reducer's lead coefficient need not be 1.
                forms[lm] = Polynomial._make(ring, {
                    m: field.canonical(-c) if lc == 1
                    else field.from_ratio(-c, lc) for m, c in tail})
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
                             in self.modulo.reducers
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


def _x_block_names(f: Polynomial) -> list[str]:
    """The variables f mentions; ValueError unless each is an x-block
    entry."""
    names = f.ring.names
    used = 0
    for m in f.terms:
        used |= m
    out = []
    for i, _ in f.ring.codec.factors(used):
        if not names[i].startswith("x") or names[i] == "x0":
            raise ValueError(f"polynomial mentions {names[i]}, "
                             "expected x-block variables only")
        out.append(names[i])
    return out


def _position(name: str, n: int) -> tuple[int, int]:
    """The 0-based (i, j) of the entry variable `name`."""
    return divmod(int(name[1:]) - 1, n)


def subst_product(f: Polynomial, table: CofactorTable) -> Polynomial:
    """f with each entry variable replaced by the matrix-product entry:
    x_{(i-1)n+j} maps to the (i, j) entry of X*Y in the table's ring.

    Modulo the table's basis, the entries of X*Y and the result are
    normal forms.  Only the entries f mentions are built, and the table
    keeps them under their 0-based (i, j) for every call.  A linear
    combination of reduced polynomials is reduced, so the image of a
    linear form is not reduced again.
    """
    target, n = table.ring, table.ring.n
    x, y = table.entries("x"), table.entries("y")
    images = {}
    for name in _x_block_names(f):
        i, j = key = _position(name, n)
        img = table.images.get(key)
        if img is None:
            acc = target.zero()
            for k in range(n):
                if x[i][k] and y[k][j]:
                    acc = acc + x[i][k] * y[k][j]
            img = table.images[key] = table.reduce(acc)
        images[name] = img
    out = f.substitute(images, target)
    linear_form = f.total_degree() == 1 and 0 not in f.terms
    return out if linear_form else table.reduce(out)


def eval_at_formal_inverse(f: Polynomial,
                           table: CofactorTable) -> Polynomial:
    """The numerator h of f at the formal inverse, in the table's ring,
    into which f is moved.

    With L the total degree of f, a term of degree m contributes its
    coefficient times the matching adjugate entries times det^(L-m), so
    h(v) = det(v)^L * f(v^-1) for every invertible v: the denominator
    exponent is f.total_degree().

    Modulo the table's basis, h is a normal form.  Only the adjugate
    entries of the variables f mentions, and the determinant powers its
    terms need, are built, and the table keeps them for every f.
    """
    ring = table.ring
    adj = {ring.index(name): table.adj("x", *_position(name, ring.n))
           for name in _x_block_names(f)}
    f = change_ring(f, ring)
    if not f:
        return ring.zero()
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
    if degree != 1:  # else a linear combination of adjugate entries and det
        acc = table.reduce(acc)
    return acc
