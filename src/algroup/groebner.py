"""Groebner-basis engine: Buchberger's algorithm, normal forms, ideal
triviality, and radical membership via an adjoined inverse variable.

Pair selection follows the normal strategy (smallest lcm degree first);
pair pruning follows the Gebauer-Moeller update, which implements the
coprime-lead and chain criteria.  Every run is bounded by an explicit
Budget, and exhausting it raises BudgetExhausted instead of ever
returning a possibly wrong verdict.

The engine works on `Polynomial.terms` as they are: packed monomials
(see `poly`), whose products are integer additions and whose
divisibility, lcm and degrevlex key are the ring codec's word-parallel
integer operations, and coefficients in the field's canonical form.  A
basis element is prepared for division once, as its packed lead, its
lead coefficient and its tail, and a GroebnerBasis keeps its prepared
reducers for every later normal form.

Over F_p a prepared reducer is monic.  Over Q it is a primitive integer
polynomial with a positive lead coefficient, and reduction is
fraction-free (Knuth, TAOCP vol. 2, 4.6.1): to cancel a term c*m by a
reducer of lead coefficient lc, the pending terms are multiplied by
lc/gcd(c, lc) instead of the reducer being divided by lc.  Each such
step is a nonzero multiple of the monic one, so both choose the same
reducers and reach the same zero remainders; a normal form divides by
the tracked scale once, at the end.  The bases returned are monic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dataclass_field
from itertools import islice
from math import gcd, lcm
from operator import attrgetter

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


# A prepared reducer is (packed lead, lead coefficient, packed tail
# items): monic over F_p, primitive with int coefficients and a positive
# lead coefficient over Q.

_denominator = attrgetter("denominator")


def _clear_denominators(terms: dict) -> tuple[dict, int]:
    """The terms times the lcm D of their denominators, as ints, and D."""
    den = lcm(*map(_denominator, terms.values()))
    if den == 1:
        return terms, 1
    # int() keeps gmpy2's integers out of the engine.
    return {m: int(c.numerator * (den // c.denominator))
            for m, c in terms.items()}, den


def _prepare(terms: dict, codec, p: int):
    lm = max(terms, key=codec.key)
    lc = terms[lm]
    if p:
        if lc != 1:
            inv = pow(lc, -1, p)
            terms = {m: inv * c % p for m, c in terms.items()}
    else:
        terms, _ = _clear_denominators(terms)
        g = gcd(*terms.values())
        if terms[lm] < 0:
            g = -g
        if g != 1:
            terms = {m: c // g for m, c in terms.items()}
    return lm, terms[lm], [(m, c) for m, c in terms.items() if m != lm]


def _prepare_reducers(G, ring: VarRing) -> list:
    if any(g.ring != ring for g in G):
        raise ValueError("divisor lives in a different ring")
    p = ring.field.characteristic
    return [_prepare(g.terms, ring.codec, p) for g in G if g]


def _divided(items, den: int, field) -> dict:
    """The terms (m, c) of items with c divided by den."""
    ratio = field.from_ratio
    return {m: ratio(c, den) for m, c in items}


def _as_poly(prep, ring: VarRing) -> Polynomial:
    """The prepared element made monic."""
    lm, lc, tail = prep
    terms = dict(tail) if lc == 1 else _divided(tail, lc, ring.field)
    terms[lm] = 1
    return Polynomial._make(ring, terms)


def _reduce_terms(terms: dict, reducers, codec, p: int,
                  degree_cap: int) -> tuple[dict, int]:
    """Fully reduce a packed term dict with integral coefficients.

    Returns (rem, s): rem is s times the remainder, for a positive
    integer s that is 1 over F_p (p > 0) and after steps by monic
    reducers only.
    """
    work = dict(terms)
    rem: dict = {}
    scale = 1
    # (terms in rem, scale they left at) before each rescaling of work.
    marks: list[tuple[int, int]] = []
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
        if lc != 1:
            # With the work scaled by lc/g, the term (lc/g)*c*m cancels
            # against (c/g)*x^u times the reducer's lead term.
            g = gcd(c, lc)
            f = lc // g
            c //= g
            if f != 1:
                if rem:
                    marks.append((len(rem), scale))
                scale *= f
                work = {k: v * f for k, v in work.items()}
        u = m - lm
        for mt, ct in tail:
            mm = mt + u
            prev = work.get(mm)
            if prev is None:
                if mm >> deg_shift > degree_cap:
                    raise BudgetExhausted(
                        f"monomial degree {mm >> deg_shift} over cap {degree_cap}")
                work[mm] = -c * ct % p if p else -c * ct
                push(heap, (-keyf(mm), mm))
            else:
                v = (prev - c * ct) % p if p else prev - c * ct
                if v:
                    work[mm] = v
                else:
                    del work[mm]
    if marks:
        # Bring the terms that left before a rescaling to the final scale.
        items = iter(rem.items())
        rem = {}
        done = 0
        for count, before in marks:
            f = scale // before
            for m, c in islice(items, count - done):
                rem[m] = c * f
            done = count
        rem.update(items)
    return rem, scale


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
        # A reducer's lead has its largest degree under degrevlex.
        if lm >> deg_shift > cap:
            raise BudgetExhausted(f"input degree {lm >> deg_shift} over cap {cap}")
    if not reducers or not f:
        return f
    p = ring.field.characteristic
    terms, den = (f.terms, 1) if p else _clear_denominators(f.terms)
    rem, scale = _reduce_terms(terms, reducers, ring.codec, p, cap)
    den *= scale
    if den != 1:
        rem = _divided(rem.items(), den, ring.field)
    return Polynomial._make(ring, rem)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The cancellation combination of the two lead terms, of f and g
    made monic."""
    if f.ring != g.ring:
        raise ValueError("polynomials from different rings")
    if not f or not g:
        raise ValueError("S-polynomial of the zero polynomial")
    ring = f.ring
    p = ring.field.characteristic
    a = _prepare(f.terms, ring.codec, p)
    b = _prepare(g.terms, ring.codec, p)
    l = ring.codec.lcm(a[0], b[0])
    if l >> ring.codec.deg_shift > MAX_ENGINE_DEGREE:
        raise _degree_error(l >> ring.codec.deg_shift)
    terms = _spair_terms(a, b, l, p)
    # The integral S-pair is lcm(lc_a, lc_b) times the monic one.
    den = lcm(a[1], b[1])
    if den != 1:
        terms = _divided(terms.items(), den, ring.field)
    return Polynomial._make(ring, terms)


def _spair_terms(a, b, l, p: int) -> dict:
    # (lc_b/g)*x^ua*a - (lc_a/g)*x^ub*b with g = gcd(lc_a, lc_b): the
    # lead terms cancel exactly and the result is integral.
    lma, lca, taila = a
    lmb, lcb, tailb = b
    fa = fb = 1
    if lca != lcb:
        g = gcd(lca, lcb)
        fa, fb = lcb // g, lca // g
    ua, ub = l - lma, l - lmb
    terms = {m + ua: fa * c for m, c in taila}
    for m, c in tailb:
        mm = m + ub
        prev = terms.get(mm)
        if prev is None:
            terms[mm] = -fb * c % p if p else -fb * c
        else:
            v = (prev - fb * c) % p if p else prev - fb * c
            if v:
                terms[mm] = v
            else:
                del terms[mm]
    return terms


def _interreduce(G, ring, codec, p, degree_cap) -> list[Polynomial]:
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
            terms = dict(tail)
            reduced, scale = _reduce_terms(terms, others, codec, p, degree_cap)
            if scale != 1 or reduced != terms:
                reduced[lm] = lc * scale
                minimal[idx] = _prepare(reduced, codec, p)
                changed = True
    return [_as_poly(prep, ring) for prep in minimal]


def buchberger(gens, budget: Budget | None = None, *,
               ring: VarRing | None = None,
               assume_gb_prefix: int = 0, stats: GBStats | None = None,
               reduce_basis: bool = True) -> GroebnerBasis:
    """Reduced monic Groebner basis of the ideal generated by gens.

    During the run the reducers are primitive integer polynomials with
    positive leads over Q and monic over F_p; the basis returned is monic.

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

    p = ring.field.characteristic
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
            add_element(_prepare(g.terms, codec, p),
                        make_pairs=j >= assume_gb_prefix)

        while heap:
            _, _, i, j = heapq.heappop(heap)
            l = pending.pop((i, j), None)
            if l is None:
                continue  # pruned by a later update
            if local.pairs_processed >= budget.pair_cap:
                raise BudgetExhausted(f"pair cap {budget.pair_cap} reached")
            local.pairs_processed += 1
            sterms = _spair_terms(G[i], G[j], l, p)
            rem, _ = _reduce_terms(sterms, active, codec, p, degree_cap)
            if not rem:
                local.reductions_to_zero += 1
                continue
            prep = _prepare(rem, codec, p)
            if prep[0] >> deg_shift == 0:
                # A nonzero constant: the ideal is the whole ring.
                return finish([ring.one()])
            add_element(prep, make_pairs=True)

        if not reduce_basis:
            return finish([_as_poly(prep, ring) for prep in G])
        return finish(_interreduce(G, ring, codec, p, degree_cap))
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
