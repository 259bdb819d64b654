"""Brute-force ground truth over prime fields.

Enumerates every n-by-n matrix over F_p, keeps the points where all
generators vanish, splits off the invertible ones, and checks the group
axioms by exhaustion.  Matrix arithmetic here is plain modular integer
work, independent of the symbolic engine it cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .fields import PrimeField
from .parsing import ProblemSpec

# About 100,000 candidates a second: n=2 over F_31 (923,521) takes about
# 9 s, and every kept point is a tuple in memory.
DEFAULT_POINT_LIMIT = 10**6


class EnumerationBudgetError(RuntimeError):
    pass


@dataclass
class VarietySet:
    """All F_p points of the variety, plus the invertible sublist."""

    n: int
    p: int
    points: list[tuple[int, ...]]
    invertible: list[tuple[int, ...]]


@dataclass
class BruteForceVerdict:
    identity: bool
    inversion: bool
    multiplication: bool
    group: bool
    witness: str | None = None


def mat_mul(a: tuple, b: tuple, n: int, p: int) -> tuple:
    return tuple(sum(a[i * n + k] * b[k * n + j] for k in range(n)) % p
                 for i in range(n) for j in range(n))


def mat_inv(a: tuple, n: int, p: int) -> tuple | None:
    """Inverse by Gauss-Jordan elimination mod p; None if singular."""
    rows = [[a[i * n + j] % p for j in range(n)] +
            [1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] % p), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], p - 2, p)
        rows[col] = [v * inv % p for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(v - factor * w) % p
                           for v, w in zip(rows[r], rows[col])]
    return tuple(rows[i][n + j] for i in range(n) for j in range(n))


def identity_matrix(n: int) -> tuple:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def format_matrix(m: tuple, n: int) -> str:
    return "[" + "; ".join(" ".join(str(m[i * n + j]) for j in range(n))
                           for i in range(n)) + "]"


def enumerate_variety(problem: ProblemSpec,
                      limit: int = DEFAULT_POINT_LIMIT) -> VarietySet:
    """Exact point list of the variety over F_p, via full enumeration."""
    if not isinstance(problem.field, PrimeField):
        raise ValueError("enumeration requires a prime coefficient field")
    p = problem.field.p
    n = problem.n
    total = p ** (n * n)
    if total > limit:
        raise EnumerationBudgetError(
            f"enumeration needs {total} evaluations, over the limit {limit}")
    gens = [g for g in problem.generators if g]
    points: list[tuple[int, ...]] = []
    invertible: list[tuple[int, ...]] = []
    for candidate in product(range(p), repeat=n * n):
        if all(g.evaluate(candidate) == 0 for g in gens):
            points.append(candidate)
            if mat_inv(candidate, n, p) is not None:
                invertible.append(candidate)
    return VarietySet(n, p, points, invertible)


def multiplication_closed(points, n: int,
                          p: int) -> tuple[bool, str | None]:
    """Whether all pairwise products of points land back among them."""
    member = set(points)
    for a in points:
        for b in points:
            if mat_mul(a, b, n, p) not in member:
                return False, (f"product {format_matrix(a, n)} * "
                               f"{format_matrix(b, n)} escapes")
    return True, None


def inversion_closed(vs: VarietySet) -> tuple[bool, str | None]:
    """Whether every invertible point's inverse is again a point."""
    member = set(vs.points)
    for a in vs.invertible:
        if mat_inv(a, vs.n, vs.p) not in member:
            return False, f"inverse of {format_matrix(a, vs.n)} missing"
    return True, None


def contains_identity(vs: VarietySet) -> bool:
    return identity_matrix(vs.n) in set(vs.points)


def is_group_bruteforce(vs: VarietySet) -> BruteForceVerdict:
    """Group axioms on the invertible part, checked by exhaustion."""
    identity = contains_identity(vs)
    witness = None if identity else "no identity"
    inversion, w = inversion_closed(vs)
    if witness is None and w:
        witness = w
    multiplication, w = multiplication_closed(vs.invertible, vs.n, vs.p)
    if witness is None and w:
        witness = w
    group = identity and inversion and multiplication
    return BruteForceVerdict(identity, inversion, multiplication, group, witness)
