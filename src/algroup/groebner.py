"""Groebner-basis engine: Buchberger's algorithm, normal forms, ideal
triviality, and radical membership via an adjoined inverse variable.

Basis elements are kept monic throughout.  Pair selection follows the
normal strategy (smallest lcm degree first); pair pruning follows the
Gebauer-Moeller update, which implements the coprime-lead and chain
criteria.  Every run is bounded by an explicit Budget, and exhausting it
raises BudgetExhausted instead of ever returning a possibly wrong
verdict.

The engine works on `Polynomial.terms` as they are: packed monomials
(see `poly`), whose products are integer additions and whose
divisibility, lcm and degrevlex key are the ring codec's word-parallel
integer operations, and coefficients in the field's canonical form.  A
basis element is prepared for division once, as its packed lead and its
tail made monic, and a GroebnerBasis keeps its prepared reducers for
every later normal form.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dataclass_field

from .poly import (MAX_ENGINE_DEGREE, Polynomial, VarRing, _degree_error,
                   change_ring)


@dataclass
class Budget:
    """Caps on a single Groebner computation: a pair cap that is not
    negative and a degree cap in 0..MAX_ENGINE_DEGREE."""

    pair_cap: int = 1_000_000
    degree_cap: int = 200

    def __post_init__(self):
        if self.pair_cap < 0:
            raise ValueError(f"pair cap {self.pair_cap} is negative")
        if not 0 <= self.degree_cap <= MAX_ENGINE_DEGREE:
            raise ValueError(f"degree cap {self.degree_cap} is outside "
                             f"0..{MAX_ENGINE_DEGREE}")


DEFAULT_BUDGET = Budget()


class BudgetExhausted(RuntimeError):
    def __init__(self, message: str):
        super().__init__(f"undecided: budget exhausted ({message})")
        self.detail = message


@dataclass
class GBStats:
    pairs_processed: int = 0
    reductions_to_zero: int = 0

    def merge(self, other: "GBStats") -> None:
        self.pairs_processed += other.pairs_processed
        self.reductions_to_zero += other.reductions_to_zero


@dataclass
class GroebnerBasis:
    basis: list[Polynomial]
    stats: GBStats
    _prepared: tuple | None = dataclass_field(default=None, init=False,
                                              repr=False, compare=False)

    @property
    def is_trivial(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant and bool(self.basis[0])

    def reducers(self, ring: VarRing) -> list:
        """The basis prepared for division in ring, once per basis."""
        if self._prepared is None:
            self._prepared = (ring, _prepare_reducers(self.basis, ring))
        elif self._prepared[0] != ring:
            raise ValueError("divisor lives in a different ring")
        return self._prepared[1]


# A prepared reducer is (packed lead, lead coefficient, packed tail items).


def _prepare_monic(terms: dict, codec, field):
    lm = max(terms, key=codec.key)
    lc = terms[lm]
    if lc == 1:
        tail = [(m, c) for m, c in terms.items() if m != lm]
    else:
        inv = field.inv(lc)
        fmul = field.mul
        tail = [(m, fmul(inv, c)) for m, c in terms.items() if m != lm]
    return lm, field.one(), tail


def _prepare_reducers(G, ring: VarRing) -> list:
    if any(g.ring != ring for g in G):
        raise ValueError("divisor lives in a different ring")
    return [_prepare_monic(g.terms, ring.codec, ring.field) for g in G if g]


def _as_poly(prep, ring: VarRing) -> Polynomial:
    lm, lc, tail = prep
    return Polynomial._make(ring, {**dict(tail), lm: lc})


def _reduce_terms(terms: dict, reducers, codec, field,
                  degree_cap: int) -> dict:
    """Fully reduce a packed term dict; returns the packed remainder."""
    work = dict(terms)
    rem: dict = {}
    deg_shift = codec.deg_shift
    guard = codec.guard
    keyf = codec.key
    heap = []
    for m in work:
        if m >> deg_shift > degree_cap:
            raise BudgetExhausted(
                f"monomial degree {m >> deg_shift} over cap {degree_cap}")
        heap.append((-keyf(m), m))
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    canonical = field.canonical
    while heap:
        m = pop(heap)[1]
        c = work.get(m)
        if c is None:
            continue
        gm = m | guard
        for lm, lc, tail in reducers:
            if (gm - lm) & guard == guard:
                break
        else:
            del work[m]
            rem[m] = c
            continue
        del work[m]
        u = m - lm
        for mt, ct in tail:
            mm = mt + u
            prev = work.get(mm)
            if prev is None:
                if mm >> deg_shift > degree_cap:
                    raise BudgetExhausted(
                        f"monomial degree {mm >> deg_shift} over cap {degree_cap}")
                work[mm] = canonical(-c * ct)
                push(heap, (-keyf(mm), mm))
            else:
                v = canonical(prev - c * ct)
                if v:
                    work[mm] = v
                else:
                    del work[mm]
    return rem


def normal_form(f: Polynomial, G, degree_cap: int | None = None) -> Polynomial:
    """Remainder of f under multivariate division by G.

    No term of the result is divisible by any lead monomial of G, and
    f minus the result lies in the ideal generated by G.  The divisors
    need not be a Groebner basis; a zero remainder proves membership
    either way.  G is a list of divisors or a GroebnerBasis, whose
    prepared reducers are reused.
    """
    ring = f.ring
    cap = MAX_ENGINE_DEGREE if degree_cap is None else degree_cap
    if cap > MAX_ENGINE_DEGREE:
        raise ValueError(f"degree cap {cap} exceeds the engine bound "
                         f"{MAX_ENGINE_DEGREE}")
    if isinstance(G, GroebnerBasis):
        reducers = G.reducers(ring)
    else:
        reducers = _prepare_reducers(G, ring)
    deg_shift = ring.codec.deg_shift
    for lm, _, _ in reducers:
        # A monic reducer's lead has its largest degree under degrevlex.
        if lm >> deg_shift > cap:
            raise BudgetExhausted(f"input degree {lm >> deg_shift} over cap {cap}")
    if not reducers or not f:
        return f
    rem = _reduce_terms(f.terms, reducers, ring.codec, ring.field, cap)
    return Polynomial._make(ring, rem)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The cancellation combination of the two lead terms, of f and g
    made monic."""
    if f.ring != g.ring:
        raise ValueError("polynomials from different rings")
    if not f or not g:
        raise ValueError("S-polynomial of the zero polynomial")
    ring = f.ring
    a = _prepare_monic(f.terms, ring.codec, ring.field)
    b = _prepare_monic(g.terms, ring.codec, ring.field)
    lcm = ring.codec.lcm(a[0], b[0])
    if lcm >> ring.codec.deg_shift > MAX_ENGINE_DEGREE:
        raise _degree_error(lcm >> ring.codec.deg_shift)
    return Polynomial._make(ring, _spair_terms(a, b, lcm, ring.field))


def _spair_terms(a, b, lcm, field) -> dict:
    # Both reducers are monic, so the lead terms cancel exactly.
    lma, _, taila = a
    lmb, _, tailb = b
    ua, ub = lcm - lma, lcm - lmb
    terms: dict = {}
    for m, c in taila:
        terms[m + ua] = c
    fsub, fneg = field.sub, field.neg
    for m, c in tailb:
        mm = m + ub
        prev = terms.get(mm)
        if prev is None:
            terms[mm] = fneg(c)
        else:
            v = fsub(prev, c)
            if v:
                terms[mm] = v
            else:
                del terms[mm]
    return terms


def _interreduce(G, ring, codec, field, degree_cap) -> list[Polynomial]:
    # Minimal basis: drop elements whose lead another lead divides.
    items = sorted(G, key=lambda prep: codec.key(prep[0]))
    minimal = []
    divides = codec.divides
    for prep in items:
        if not any(divides(other[0], prep[0]) for other in minimal):
            minimal.append(prep)
    # Reduced basis: tails carry no monomial divisible by any lead.
    changed = True
    while changed:
        changed = False
        for idx, (lm, lc, tail) in enumerate(minimal):
            if not tail:
                continue
            others = minimal[:idx] + minimal[idx + 1:]
            if not others:
                continue
            reduced = _reduce_terms(dict(tail), others, codec, field, degree_cap)
            if reduced != dict(tail):
                minimal[idx] = (lm, lc, sorted(reduced.items()))
                changed = True
    return [_as_poly(prep, ring) for prep in minimal]


def buchberger(gens, budget: Budget | None = None, *,
               ring: VarRing | None = None,
               assume_gb_prefix: int = 0, stats: GBStats | None = None,
               reduce_basis: bool = True) -> GroebnerBasis:
    """Reduced monic Groebner basis of the ideal generated by gens.

    assume_gb_prefix marks the first k generators as an already computed
    Groebner basis, so their internal S-pairs are skipped.  Exceeding the
    budget raises BudgetExhausted.  reduce_basis=False skips the final
    interreduction; the result still generates the ideal and has the
    Groebner property, but is not the canonical reduced basis.
    """
    budget = budget or DEFAULT_BUDGET
    local = GBStats()

    def finish(basis: list[Polynomial]) -> GroebnerBasis:
        if stats is not None:
            stats.merge(local)
        return GroebnerBasis(basis, local)

    polys = [g for g in gens if g]
    if ring is None:
        ring = polys[0].ring if polys else None
    if ring is None:
        return finish([])
    for g in polys:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
    if not polys:
        return finish([])
    if any(g.is_constant for g in polys):
        return finish([ring.one()])

    field = ring.field
    codec = ring.codec
    degree_cap = budget.degree_cap
    for g in polys:
        if g.total_degree() > degree_cap:
            raise BudgetExhausted(
                f"input degree {g.total_degree()} over cap {degree_cap}")

    divides = codec.divides
    lcm_of = codec.lcm
    keyf = codec.key
    deg_shift = codec.deg_shift

    try:
        G: list = []
        lms: list[int] = []
        # Reducers whose lead is divisible by a newer lead are redundant
        # for division; keep only the survivors in the scan list.
        active: list = []
        heap: list = []
        pending: dict[tuple[int, int], int] = {}

        def add_element(prep, make_pairs: bool) -> None:
            # Gebauer-Moeller update: among the new element's candidate
            # pairs, classes whose lcm has a coprime-lead member drop
            # entirely, each surviving lcm keeps one representative, and
            # no kept lcm divides another; old pairs whose lcm the new
            # lead properly refines are dropped.
            t = len(G)
            G.append(prep)
            lmt = prep[0]
            lms.append(lmt)
            active[:] = [old for old in active if not divides(lmt, old[0])]
            active.append(prep)
            if not make_pairs:
                return
            by_lcm: dict[int, tuple[int, bool]] = {}
            for i in range(t):
                l = lcm_of(lms[i], lmt)
                coprime = l == lms[i] + lmt  # lcm equals the product
                seen = by_lcm.get(l)
                if seen is None or (coprime and not seen[1]):
                    by_lcm[l] = (i, coprime)
            reps = sorted((keyf(l), l, i, coprime)
                          for l, (i, coprime) in by_lcm.items())
            kept: list[int] = []
            kept_out: list[tuple[int, int]] = []
            for _, l, i, coprime in reps:
                if not coprime and any(divides(l2, l) for l2 in kept):
                    continue
                kept.append(l)
                if not coprime:
                    kept_out.append((l, i))
            for (a, b), l in list(pending.items()):
                if divides(lmt, l) and lcm_of(lms[a], lmt) != l \
                        and lcm_of(lms[b], lmt) != l:
                    del pending[(a, b)]
            for l, i in kept_out:
                pending[(i, t)] = l
                heapq.heappush(heap, (l >> deg_shift, keyf(l), i, t))

        for j, g in enumerate(polys):
            add_element(_prepare_monic(g.terms, codec, field),
                        make_pairs=j >= assume_gb_prefix)

        while heap:
            _, _, i, j = heapq.heappop(heap)
            l = pending.pop((i, j), None)
            if l is None:
                continue  # pruned by a later update
            if local.pairs_processed >= budget.pair_cap:
                raise BudgetExhausted(f"pair cap {budget.pair_cap} reached")
            local.pairs_processed += 1
            sterms = _spair_terms(G[i], G[j], l, field)
            rem = _reduce_terms(sterms, active, codec, field, degree_cap)
            if not rem:
                local.reductions_to_zero += 1
                continue
            prep = _prepare_monic(rem, codec, field)
            if prep[0] >> deg_shift == 0:
                # A nonzero constant: the ideal is the whole ring.
                return finish([ring.one()])
            add_element(prep, make_pairs=True)

        if not reduce_basis:
            return finish([_as_poly(prep, ring) for prep in G])
        return finish(_interreduce(G, ring, codec, field, degree_cap))
    except BudgetExhausted:
        if stats is not None:
            stats.merge(local)
        raise


def contains_one(gens, budget: Budget | None = None, *,
                 ring: VarRing | None = None,
                 assume_gb_prefix: int = 0, stats: GBStats | None = None) -> bool:
    """Whether the ideal generated by gens is the whole ring."""
    polys = [g for g in gens if g]
    if not polys:
        return False
    if any(g.is_constant for g in polys):
        return True
    gb = buchberger(polys, budget, ring=ring,
                    assume_gb_prefix=assume_gb_prefix, stats=stats,
                    reduce_basis=False)
    return gb.is_trivial


def radical_membership(f: Polynomial, gens, budget: Budget | None = None, *,
                       base_gb: GroebnerBasis | None = None,
                       stats: GBStats | None = None) -> bool:
    """Whether f lies in the radical of the ideal generated by gens.

    Decided as 1 in (gens, t*f - 1) with a fresh variable t ranked
    highest; plain ideal membership of f is tried first since it already
    implies radical membership.  When base_gb is supplied, its basis is
    used in place of gens and its internal S-pairs are skipped.
    """
    ring = f.ring
    if ring.has("t"):
        raise ValueError("ring already uses the auxiliary variable t")
    budget = budget or DEFAULT_BUDGET
    base = list(base_gb.basis) if base_gb is not None else [g for g in gens if g]
    for g in base:
        if g.ring != ring:
            raise ValueError("generators live in a different ring")
    reduced = normal_form(f, base_gb if base_gb is not None else base,
                          degree_cap=budget.degree_cap)
    if not reduced:
        return True
    if reduced.total_degree() >= budget.degree_cap:
        # t*reduced - 1 is over the cap, and may be over the degree limit.
        raise BudgetExhausted(f"input degree {reduced.total_degree() + 1} "
                              f"over cap {budget.degree_cap}")
    ring_t = ring.extend_front("t")
    lifted = [change_ring(g, ring_t) for g in base]
    helper = ring_t.var("t") * change_ring(reduced, ring_t) - ring_t.one()
    return contains_one(lifted + [helper], budget, ring=ring_t,
                        assume_gb_prefix=len(lifted) if base_gb is not None else 0,
                        stats=stats)
