"""Groebner-basis engine: Buchberger's algorithm, normal forms, ideal
triviality, and radical membership via an adjoined inverse variable.

Basis elements are kept monic throughout.  Pair selection follows the
normal strategy (smallest lcm degree first); pair pruning follows the
Gebauer-Moeller update, which implements the coprime-lead and chain
criteria.  Every run is bounded by an explicit Budget, and exhausting it
raises BudgetExhausted instead of ever returning a possibly wrong
verdict.

Internally a monomial is packed into a single integer, 16 bits per
variable with the total degree in the top field: multiplying monomials
is integer addition, divisibility is a borrow-free subtraction test, the
lcm uses the same guard bits to pick the larger exponent of every field
at once, and the degrevlex sort key is two integer operations.
The packing bounds the supported intermediate total degree at 10922; the
public polynomial API keeps plain exponent tuples.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .fields import PrimeField
from .poly import DEGREVLEX, MonomialOrder, Polynomial, VarRing, change_ring

_BITS = 16
_FIELD_CAP = 0x7FFF
MAX_ENGINE_DEGREE = _FIELD_CAP // 3  # three packed monomials may be summed


@dataclass
class Budget:
    """Caps on a single Groebner computation."""

    pair_cap: int = 1_000_000
    degree_cap: int = 200


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
    order: MonomialOrder
    stats: GBStats

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.basis, self.order)

    @property
    def is_trivial(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant and bool(self.basis[0])


class _Codec:
    """Packs exponent tuples of one ring into integers, and builds their
    integer degrevlex sort keys."""

    def __init__(self, ring: VarRing):
        arity = ring.arity
        self.arity = arity
        self.deg_shift = _BITS * arity
        self.guard = 0
        offs = 0
        for i in range(arity + 1):
            self.guard |= 1 << (_BITS * i + _BITS - 1)
        for i in range(arity):
            offs |= _FIELD_CAP << (_BITS * i)
        self.low_mask = (1 << self.deg_shift) - 1
        self._low_guard = self.guard & self.low_mask
        self._offs = offs

    # Variable i of the ring sits at bits [16*i, 16*i + 16); the total
    # degree occupies the field above all variables.

    def encode(self, mono: tuple) -> int:
        packed = sum(mono) << self.deg_shift
        for i, e in enumerate(mono):
            if e:
                packed |= e << (_BITS * i)
        return packed

    def decode(self, packed: int) -> tuple:
        return tuple((packed >> (_BITS * i)) & _FIELD_CAP
                     for i in range(self.arity))

    def degree(self, packed: int) -> int:
        return packed >> self.deg_shift

    def divides(self, a: int, b: int) -> bool:
        return ((b | self.guard) - a) & self.guard == self.guard

    def lcm(self, a: int, b: int) -> int:
        # Per field, (a_i | 0x8000) - b_i keeps bit 15 exactly when
        # a_i >= b_i and never borrows from the next field; spreading
        # that bit over the field selects the larger exponent.
        low = self.low_mask
        a &= low
        b &= low
        larger = ((((a | self.guard) - b) & self._low_guard)
                  >> (_BITS - 1)) * _FIELD_CAP
        out = (a & larger) | (b & ~larger)
        # The fields sum to the degree, and 2^16 = 1 mod 0xFFFF; the
        # remainder is exact because an lcm of two monomials of degree at
        # most MAX_ENGINE_DEGREE has degree at most 2 * MAX_ENGINE_DEGREE,
        # below 0xFFFF.
        return out | (out % 0xFFFF) << self.deg_shift

    def key(self, packed: int):
        """Integer key: ascending key order equals ascending degrevlex."""
        # Complementing every field reverses the tie-break exactly as
        # degrevlex requires when variable 0 is the most significant.
        return (packed >> self.deg_shift << self.deg_shift) \
            + self._offs - (packed & self.low_mask)


_CODEC_CACHE: dict = {}


def _codec(ring: VarRing) -> _Codec:
    codec = _CODEC_CACHE.get(ring)
    if codec is None:
        codec = _Codec(ring)
        _CODEC_CACHE[ring] = codec
    return codec


def _check_cap(degree_cap: int) -> int:
    if degree_cap > MAX_ENGINE_DEGREE:
        raise ValueError(f"degree cap {degree_cap} exceeds the engine bound "
                         f"{MAX_ENGINE_DEGREE}")
    return degree_cap


# A prepared reducer is (packed lead, lead coefficient, packed tail items).


def _encode_terms(p: Polynomial, codec: _Codec) -> dict:
    encode = codec.encode
    return {encode(m): c for m, c in p.terms.items()}


def _prepare_monic(terms: dict, codec: _Codec, field):
    lm = max(terms, key=codec.key)
    lc = terms[lm]
    if lc == field.one():
        tail = [(m, c) for m, c in terms.items() if m != lm]
    else:
        inv = field.inv(lc)
        fmul = field.mul
        tail = [(m, fmul(inv, c)) for m, c in terms.items() if m != lm]
    return lm, field.one(), tail


def _reduce_terms(terms: dict, reducers, codec: _Codec, field,
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
    prime = field.p if isinstance(field, PrimeField) else None
    fsub, fmul, fneg = field.sub, field.mul, field.neg
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
        if prime is not None:
            for mt, ct in tail:
                mm = mt + u
                prev = work.get(mm)
                if prev is None:
                    if mm >> deg_shift > degree_cap:
                        raise BudgetExhausted(
                            f"monomial degree {mm >> deg_shift} over cap {degree_cap}")
                    work[mm] = -c * ct % prime
                    push(heap, (-keyf(mm), mm))
                else:
                    v = (prev - c * ct) % prime
                    if v:
                        work[mm] = v
                    else:
                        del work[mm]
        else:
            for mt, ct in tail:
                mm = mt + u
                prev = work.get(mm)
                if prev is None:
                    if mm >> deg_shift > degree_cap:
                        raise BudgetExhausted(
                            f"monomial degree {mm >> deg_shift} over cap {degree_cap}")
                    work[mm] = fneg(fmul(c, ct))
                    push(heap, (-keyf(mm), mm))
                else:
                    v = fsub(prev, fmul(c, ct))
                    if v:
                        work[mm] = v
                    else:
                        del work[mm]
    return rem


def normal_form(f: Polynomial, G, order: MonomialOrder | None = None,
                degree_cap: int | None = None) -> Polynomial:
    """Remainder of f under multivariate division by G.

    No term of the result is divisible by any lead monomial of G, and
    f minus the result lies in the ideal generated by G.  The divisors
    need not be a Groebner basis; a zero remainder proves membership
    either way.
    """
    ring = f.ring
    codec = _codec(ring)
    cap = _check_cap(degree_cap) if degree_cap is not None else MAX_ENGINE_DEGREE
    reducers = []
    for g in G:
        if not g:
            continue
        if g.ring != ring:
            raise ValueError("divisor lives in a different ring")
        terms = _encode_terms(g, codec)
        lm = max(terms, key=codec.key)
        reducers.append((lm, terms[lm], [(m, c) for m, c in terms.items()
                                         if m != lm]))
    if not reducers or not f:
        return f
    field = ring.field
    monic = []
    for lm, lc, tail in reducers:
        if lc == field.one():
            monic.append((lm, lc, tail))
        else:
            inv = field.inv(lc)
            monic.append((lm, field.one(),
                          [(m, field.mul(inv, c)) for m, c in tail]))
    rem = _reduce_terms(_encode_terms(f, codec), monic, codec, field, cap)
    out = {codec.decode(m): c for m, c in rem.items()}
    return Polynomial(ring, out, _normalized=True)


def s_polynomial(f: Polynomial, g: Polynomial,
                 order: MonomialOrder | None = None) -> Polynomial:
    """The cancellation combination of the two lead terms."""
    if f.ring != g.ring:
        raise ValueError("polynomials from different rings")
    if not f or not g:
        raise ValueError("S-polynomial of the zero polynomial")
    ring = f.ring
    keyf = ring.sort_key(order)
    field = ring.field
    lmf = max(f.terms, key=keyf)
    lmg = max(g.terms, key=keyf)
    lcf, lcg = f.terms[lmf], g.terms[lmg]
    lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
    uf = tuple(a - b for a, b in zip(lcm, lmf))
    ug = tuple(a - b for a, b in zip(lcm, lmg))
    cf, cg = field.inv(lcf), field.inv(lcg)
    fmul, fsub = field.mul, field.sub
    terms: dict = {}
    for m, c in f.terms.items():
        terms[tuple(a + b for a, b in zip(m, uf))] = fmul(cf, c)
    for m, c in g.terms.items():
        mm = tuple(a + b for a, b in zip(m, ug))
        prev = terms.get(mm)
        v = fsub(prev, fmul(cg, c)) if prev is not None else field.neg(fmul(cg, c))
        if v:
            terms[mm] = v
        elif prev is not None:
            del terms[mm]
    return Polynomial(ring, terms, _normalized=True)


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


def _interreduce(G, ring, codec: _Codec, field, degree_cap) -> list[Polynomial]:
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
    out = []
    decode = codec.decode
    for lm, lc, tail in minimal:
        terms = {decode(m): c for m, c in tail}
        terms[decode(lm)] = lc
        out.append(Polynomial(ring, terms, _normalized=True))
    return out


def buchberger(gens, order: MonomialOrder | None = None,
               budget: Budget | None = None, *, ring: VarRing | None = None,
               assume_gb_prefix: int = 0, stats: GBStats | None = None,
               reduce_basis: bool = True) -> GroebnerBasis:
    """Reduced monic Groebner basis of the ideal generated by gens.

    assume_gb_prefix marks the first k generators as an already computed
    Groebner basis, so their internal S-pairs are skipped.  Exceeding the
    budget raises BudgetExhausted.  reduce_basis=False skips the final
    interreduction; the result still generates the ideal and has the
    Groebner property, but is not the canonical reduced basis.
    """
    order = order or DEGREVLEX
    budget = budget or DEFAULT_BUDGET
    local = GBStats()

    def finish(basis: list[Polynomial]) -> GroebnerBasis:
        if stats is not None:
            stats.merge(local)
        return GroebnerBasis(basis, order, local)

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
    codec = _codec(ring)
    degree_cap = _check_cap(budget.degree_cap)
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
            add_element(_prepare_monic(_encode_terms(g, codec), codec, field),
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
            decode = codec.decode
            out = []
            for lm, lc, tail in G:
                terms = {decode(m): c for m, c in tail}
                terms[decode(lm)] = lc
                out.append(Polynomial(ring, terms, _normalized=True))
            return finish(out)
        return finish(_interreduce(G, ring, codec, field, degree_cap))
    except BudgetExhausted:
        if stats is not None:
            stats.merge(local)
        raise


def contains_one(gens, order: MonomialOrder | None = None,
                 budget: Budget | None = None, *, ring: VarRing | None = None,
                 assume_gb_prefix: int = 0, stats: GBStats | None = None) -> bool:
    """Whether the ideal generated by gens is the whole ring."""
    polys = [g for g in gens if g]
    if not polys:
        return False
    if any(g.is_constant for g in polys):
        return True
    gb = buchberger(polys, order, budget, ring=ring,
                    assume_gb_prefix=assume_gb_prefix, stats=stats,
                    reduce_basis=False)
    return gb.is_trivial


def radical_membership(f: Polynomial, gens, order: MonomialOrder | None = None,
                       budget: Budget | None = None, *,
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
    reduced = normal_form(f, base, order, degree_cap=budget.degree_cap)
    if not reduced:
        return True
    ring_t = ring.extend_front("t")
    lifted = [change_ring(g, ring_t) for g in base]
    helper = ring_t.var("t") * change_ring(reduced, ring_t) - ring_t.one()
    return contains_one(lifted + [helper], order, budget, ring=ring_t,
                        assume_gb_prefix=len(lifted) if base_gb is not None else 0,
                        stats=stats)
