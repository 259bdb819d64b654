"""Symbolic constructions on the generic matrix blocks.

The x block identifies the variable x_{(i-1)n+j} with matrix entry
(i, j), row major; the y block does the same with y variables.  This
module provides the expanded determinant and adjugate of a block, the
invertibility witness x0*det(x) - 1, the matrix-product substitution,
and the formal-inverse image of a polynomial with its denominator
exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _minor_function(entries, ring: VarRing):
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
        memo[key] = acc
        return acc

    return minor


def det_poly(ring: VarRing, block: str = "x") -> Polynomial:
    """Expanded determinant of the generic block, by cofactor expansion."""
    entries = _entries(ring, block)
    n = ring.n
    return _minor_function(entries, ring)(tuple(range(n)), tuple(range(n)))


def adjugate(ring: VarRing, block: str = "x") -> list[list[Polynomial]]:
    """Classical adjoint of the generic block: adj[i][j] = cofactor(j, i).

    Satisfies X * adj(X) = adj(X) * X = det(X) * identity as polynomial
    identities.  Indices in the result are 0-based.
    """
    entries = _entries(ring, block)
    n = ring.n
    minor = _minor_function(entries, ring)
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


def build_f0(ring: VarRing, block: str = "x") -> Polynomial:
    """The invertibility witness: x0*det(x) - 1 (or its y counterpart)."""
    return ring.var(f"{block}0") * det_poly(ring, block) - ring.one()


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


def subst_product(f: Polynomial, target: VarRing) -> Polynomial:
    """f with each entry variable replaced by the matrix-product entry:
    x_{(i-1)n+j} maps to the (i, j) entry of X*Y in the target ring."""
    _assert_x_block_only(f)
    n = f.ring.n
    images = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            acc = target.zero()
            for k in range(1, n + 1):
                acc = acc + target.var(entry_name("x", i, k, n)) * \
                    target.var(entry_name("y", k, j, n))
            images[entry_name("x", i, j, n)] = acc
    return f.substitute(images, target)


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


def eval_at_formal_inverse(f: Polynomial) -> FormalInverseImage:
    """Clear denominators out of f evaluated at the formal inverse.

    With L the total degree of f, a term of degree m contributes its
    coefficient times the matching adjugate entries times det^(L-m), so
    the numerator h satisfies h(v) = det(v)^L * f(v^-1) for every
    invertible v.  The denominator exponent is fixed at L.
    """
    _assert_x_block_only(f)
    ring = f.ring
    if not f:
        return FormalInverseImage(ring.zero(), 0)
    n = ring.n
    adj = adjugate(ring, "x")
    det = det_poly(ring, "x")
    degree = f.total_degree()
    det_pow = [ring.one()]
    for _ in range(degree):
        det_pow.append(det_pow[-1] * det)
    adj_for_index = {}
    for k in range(1, n * n + 1):
        i, j = (k - 1) // n, (k - 1) % n
        adj_for_index[ring.index(f"x{k}")] = adj[i][j]
    codec = ring.codec
    power_cache: dict = {}
    acc = ring.zero()
    for m, c in f.terms.items():
        term = ring.const(c) * det_pow[degree - codec.degree(m)]
        for key in codec.factors(m):
            p = power_cache.get(key)
            if p is None:
                p = adj_for_index[key[0]] ** key[1]
                power_cache[key] = p
            term = term * p
        acc = acc + term
    return FormalInverseImage(acc, degree)


def make_k(img: FormalInverseImage) -> Polynomial:
    """Multiply the formal-inverse numerator by one more det factor,
    making it vanish on singular points as well."""
    return img.numerator * det_poly(img.numerator.ring, "x")


def subst_x_times_inverse_y(f: Polynomial, target: VarRing) -> Polynomial:
    """f with entry (i, j) replaced by y0 times the (i, j) entry of
    X*adj(Y); modulo the y-block witness relation, y0 stands for
    det(y)^-1, so this represents f at x times the formal inverse of y."""
    _assert_x_block_only(f)
    n = f.ring.n
    adj_y = adjugate(target, "y")
    y0 = target.var("y0")
    images = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            acc = target.zero()
            for k in range(1, n + 1):
                acc = acc + target.var(entry_name("x", i, k, n)) * adj_y[k - 1][j - 1]
            images[entry_name("x", i, j, n)] = y0 * acc
    return f.substitute(images, target)
