"""Groebner-basis engine: Buchberger's algorithm, normal forms, ideal
triviality, radical certificates, and radical membership.

Pair selection follows the sugar strategy (Giovini, Mora, Niesi,
Robbiano and Traverso, "One sugar cube, please", ISSAC 1991).  Each
element carries a sugar, the degree it would have if the generators were
homogenized: a generator's is its total degree, and an element found by
reducing a pair takes the pair's.  The sugar of a pair (i, j) with lcm l
is max(s_i + deg l - deg lm_i, s_j + deg l - deg lm_j), and the pair of
least (sugar, degrevlex key of l) goes first.  On inhomogeneous inputs,
such as the hat ideals and the `t*f - 1` runs, the order then follows
the degrees a run on the homogenized generators would reach, which the
lcm degree of the normal strategy does not track.  Pair pruning follows
the Gebauer-Moeller update (Gebauer and Moeller, JSC 1988; UPDATE in
Becker and Weispfenning, Groebner Bases, 1993), which implements the
coprime-lead and chain criteria.  A new element is paired only with the
live elements, those whose lead no later lead divides; the others also
leave the reducers.  The update makes one pass over the live elements,
which gives for each the lcm with the new lead, whether the two leads
are coprime, the lcm's class, and whether the new lead divides the live
one; the pending pairs are scanned for the chain criterion only when
some are pending.  A generator whose lead is a variable no other
generator mentions is never a reducer (`_inert_generators`), though it
stays in the basis, and it is appended without the update: its pairs
all have coprime leads, and its lead divides no pending lcm and no live
lead, so the update would change nothing.  A seed's reducers, a reduced
basis, are appended without the update too.  Every run is bounded by an
explicit Budget, and exhausting it raises BudgetExhausted instead of
ever returning a possibly wrong verdict.

The engine works on `Polynomial.terms` as they are: packed monomials
(see `poly`), whose products are integer additions and whose
divisibility, lcm and degrevlex key are the ring codec's word-parallel
integer operations, and coefficients in the field's canonical form.  A
basis element is prepared for division once, as its packed lead, its
lead coefficient and its tail, and a GroebnerBasis keeps its prepared
reducers, in one form: every later normal form divides by them, and the
monic `Polynomial`s of `GroebnerBasis.basis` are built from them when
read.

Reduction (`_reduce_terms`) is one loop for both fields.  It takes the
pending terms largest first from a heap of plain ints, one entry per
monomial: m enters as k = 2*(m & low_mask) - m = offs - key(m), so
ascending k is descending degrevlex, and m = 2*(k & low_mask) - k.  The
invariant is that the heap holds exactly the monomials of the work dict,
each once; a term that cancels stays in the dict until it is popped,
and every term a reduction step brings in is below the one it removes.

Over F_p a prepared reducer is monic, and the work dict holds integers
congruent to the values: a value is brought into [0, p) when its term
is popped, so a cancelled term may wait as a nonzero multiple of p.
Over Q a prepared reducer is a primitive integer polynomial with a
positive lead coefficient, and reduction is fraction-free (Knuth, TAOCP
vol. 2, 4.6.1): to cancel a term c*m by a reducer of lead coefficient
lc, the pending terms and the remainder so far are multiplied by
lc/gcd(c, lc) instead of the reducer being divided by lc.  Each such
step is a nonzero multiple of the monic one, so both choose the same
reducers and reach the same zero remainders; a normal form divides by
the tracked scale once, at the end.  `GroebnerBasis.basis` is monic.

Radical membership of f in J is plain membership when J is radical: a
nonzero normal form modulo a Groebner basis then decides false.
Otherwise it is decided as 1 in (J, t*f - 1), one more Buchberger run.
A GroebnerBasis decides once, on the first nonzero normal form of a
membership test, whether one of two criteria proves its ideal J radical,
and keeps the answer (`GroebnerBasis.certified_radical`):

- (a) every lead monomial is squarefree.  Then in(J) is generated by
  squarefree monomials, so it is radical.  Let f be in rad(J) and r its
  normal form, so r^k lies in J for some k.  Then lm(r)^k lies in in(J),
  hence lm(r) does, and r = 0 since no term of r is divisible by a lead
  (Sturmfels, Groebner Bases and Convex Polytopes, ch. 8).
- (b) J is zero-dimensional (every variable has a pure power among the
  leads), and the minimal polynomial mu_k of every variable x_k in R/J
  is squarefree: gcd(mu_k, mu_k') = 1.  mu_k is the first linear
  dependency among NF(1), NF(x_k), NF(x_k^2), ... (as in FGLM: Faugere,
  Gianni, Lazard and Mora, JSC 1993), a polynomial in x_k, and Euclid's
  algorithm on normal forms finds the gcd.  Over a perfect field, such
  as Q and F_p, this holds exactly when J is radical (Seidenberg's lemma;
  Kreuzer and Robbiano, Computational Commutative Algebra 1, 3.7).  The
  search stops after degree_cap powers; past that J is not proven.

An ideal neither criterion proves keeps the `t*f - 1` run.
"""

from __future__ import annotations

import heapq
from math import gcd, lcm
from operator import attrgetter

from .poly import MAX_ENGINE_DEGREE, Polynomial, VarRing, change_ring


class Budget:
    """Caps on a single Groebner computation: a pair cap that is not
    negative and a degree cap in 0..MAX_ENGINE_DEGREE."""

    def __init__(self, pair_cap: int = 1_000_000, degree_cap: int = 200):
        if pair_cap < 0:
            raise ValueError(f"pair cap {pair_cap} is negative")
        if not 0 <= degree_cap <= MAX_ENGINE_DEGREE:
            raise ValueError(f"degree cap {degree_cap} is outside "
                             f"0..{MAX_ENGINE_DEGREE}")
        self.pair_cap = pair_cap
        self.degree_cap = degree_cap


DEFAULT_BUDGET = Budget()


class BudgetExhausted(RuntimeError):
    def __init__(self, message: str):
        super().__init__(f"undecided: budget exhausted ({message})")
        self.detail = message


class GBStats:
    def __init__(self, pairs_processed: int = 0, reductions_to_zero: int = 0):
        self.pairs_processed = pairs_processed
        self.reductions_to_zero = reductions_to_zero

    def __eq__(self, other) -> bool:
        return isinstance(other, GBStats) and vars(self) == vars(other)

    def merge(self, other: "GBStats") -> None:
        self.pairs_processed += other.pairs_processed
        self.reductions_to_zero += other.reductions_to_zero


class GroebnerBasis:
    """A basis in `ring` as its elements prepared for division (`_prepare`),
    in ascending lead order when reduced.  Two bases are equal when their
    rings, reducers and stats are."""

    def __init__(self, ring: VarRing | None, reducers: list,
                 stats: GBStats | None = None,
                 radical_as: GroebnerBasis | None = None):
        self.ring = ring
        self.reducers = reducers
        self.stats = GBStats() if stats is None else stats
        # A basis whose ideal is radical exactly when this one's is, asked
        # in place of this basis: the doubled hat basis names its block's.
        self.radical_as = radical_as
        # Whether the ideal is proven radical; None until first asked.
        self.radical: bool | None = None

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroebnerBasis) and self.ring == other.ring
                and self.reducers == other.reducers
                and self.stats == other.stats)

    @property
    def basis(self) -> list[Polynomial]:
        """The monic elements, built from the reducers on each read."""
        return [_as_poly(prep, self.ring) for prep in self.reducers]

    @property
    def is_trivial(self) -> bool:
        # The packed constant monomial is 0.
        return len(self.reducers) == 1 and self.reducers[0][0] == 0

    @property
    def is_zero_dimensional(self) -> bool:
        """Whether R/J is finite-dimensional: J is (1), or every variable
        of the ring has a pure power among the leads."""
        if self.is_trivial:
            return True
        codec = self.ring.codec
        pure = set()
        for lm, _, _ in self.reducers:
            powers = codec.factors(lm)
            if len(powers) == 1:
                pure.add(powers[0][0])
        return len(pure) == self.ring.arity

    def certified_radical(self, degree_cap: int) -> bool:
        """Whether criterion (a) or (b) of the module docstring proves the
        ideal radical, decided on the first call and kept.  False means
        not proven, not that the ideal is not radical."""
        if self.radical is None:
            if self.radical_as is not None:
                self.radical = self.radical_as.certified_radical(degree_cap)
            else:
                self.radical = _certify_radical(self, degree_cap)
        return self.radical


# A prepared reducer is (packed lead, lead coefficient, packed tail
# items): monic over F_p, primitive with int coefficients and a positive
# lead coefficient over Q.

_denominator = attrgetter("denominator")


def _clear_denominators(terms: dict) -> tuple[dict, int]:
    """The terms times the lcm D of their denominators, as ints, and D."""
    den = lcm(*map(_denominator, terms.values()))
    if den == 1:
        return terms, 1
    return {m: c.numerator * (den // c.denominator)
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


def moved_reducers(gb: GroebnerBasis, ring: VarRing,
                   offset: int | None = None) -> list:
    """gb's prepared reducers in `ring`, with variable i of gb's ring as
    variable offset + i: each packed monomial's exponent fields move up
    by offset fields, and its degree field to that of `ring`.  The
    default offset is where gb's variable names run in those of `ring`;
    ValueError if they do not, or the fields differ.  Degrevlex on the
    moved variables is unchanged, so these are, in order, the reducers
    `_prepare` makes of gb's elements moved into `ring` by name."""
    source = gb.ring
    if source is None:  # buchberger([]) without a ring
        return []
    if source.field != ring.field:
        raise ValueError("target ring has a different coefficient field")
    k = source.arity
    if offset is None:
        offset = next((i for i in range(ring.arity - k + 1)
                       if ring.names[i:i + k] == source.names), -1)
    if not 0 <= offset <= ring.arity - k:
        raise ValueError(f"{ring!r} has no place for {source!r}")
    # m << bits moves the 16-bit exponent fields, and the degree with
    # them to bit src + bits; the degree times lift moves it on to dst.
    src, dst, bits = source.codec.deg_shift, ring.codec.deg_shift, 16 * offset
    lift = (1 << dst) - (1 << src + bits)
    return [((lm << bits) + (lm >> src) * lift, lc,
             [((m << bits) + (m >> src) * lift, c) for m, c in tail])
            for lm, lc, tail in gb.reducers]


def _reduce_terms(terms: dict, reducers, codec, p: int,
                  degree_cap: int) -> tuple[dict, int]:
    """Fully reduce a packed term dict with integral coefficients.

    Returns (rem, s): rem is s times the remainder, for a positive
    integer s that is 1 over F_p (p > 0) and after steps by monic
    reducers only.  Over F_p the values of rem are in [0, p).

    Terms are taken largest first from the heap of the module
    docstring, one plain int per monomial of the work dict.  Only the
    input's degrees are checked against degree_cap: a multiple mt*x^u of
    a tail term has degree at most that of the term m = lm*x^u it
    replaces, since a lead has its polynomial's largest degree.
    """
    deg_shift = codec.deg_shift
    low, guard = codec.low_mask, codec.guard
    for m in terms:
        if m >> deg_shift > degree_cap:
            raise BudgetExhausted(
                f"monomial degree {m >> deg_shift} over cap {degree_cap}")
    work = dict(terms)
    heap = [2 * (m & low) - m for m in work]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    rem: dict = {}
    scale = 1
    while heap:
        k = pop(heap)
        m = 2 * (k & low) - k
        c = work.pop(m)
        if p:
            c %= p
        if not c:
            continue
        gm = m | guard
        for lm, lc, tail in reducers:
            if (gm - lm) & guard == guard:
                break
        else:
            rem[m] = c
            continue
        if lc != 1:
            # With the work and rem scaled by lc/g, the term (lc/g)*c*m
            # cancels against (c/g)*x^u times the reducer's lead term.
            g = gcd(c, lc)
            f = lc // g
            c //= g
            if f != 1:
                scale *= f
                work = {mw: v * f for mw, v in work.items()}
                rem = {mr: v * f for mr, v in rem.items()}
        u = m - lm
        for mt, ct in tail:
            mm = mt + u
            prev = work.get(mm)
            if prev is None:
                work[mm] = -c * ct
                push(heap, 2 * (mm & low) - mm)
            else:
                work[mm] = prev - c * ct
    return rem, scale


def normal_form(f: Polynomial, G, degree_cap: int | None = None) -> Polynomial:
    """Remainder of f under multivariate division by G.

    No term of the result is divisible by any lead monomial of G, and
    f minus the result lies in the ideal generated by G.  The divisors
    need not be a Groebner basis; a zero remainder proves membership
    either way.  G is a list of divisors or a GroebnerBasis of f's ring,
    whose reducers are used as they are.
    """
    ring = f.ring
    cap = MAX_ENGINE_DEGREE if degree_cap is None else degree_cap
    if cap > MAX_ENGINE_DEGREE:
        raise ValueError(f"degree cap {cap} exceeds the engine bound "
                         f"{MAX_ENGINE_DEGREE}")
    if isinstance(G, GroebnerBasis):
        # An empty basis, which buchberger([]) gives with no ring, divides
        # nothing in every ring.
        if G.reducers and G.ring != ring:
            raise ValueError("divisor lives in a different ring")
        reducers = G.reducers
    else:
        reducers = _prepare_reducers(G, ring)
    # A lead has its polynomial's largest degree under degrevlex; the
    # message names the first reducer over the cap.
    deg_shift = ring.codec.deg_shift
    degree = next((lm >> deg_shift for lm, _, _ in reducers
                   if lm >> deg_shift > cap), None)
    if degree is not None:
        raise BudgetExhausted(f"input degree {degree} over cap {cap}")
    if not reducers or not f:
        return f
    p = ring.field.characteristic
    terms, den = (f.terms, 1) if p else _clear_denominators(f.terms)
    rem, scale = _reduce_terms(terms, reducers, ring.codec, p, cap)
    den *= scale
    if den != 1:
        rem = _divided(rem.items(), den, ring.field)
    return Polynomial._make(ring, rem)


def _spair_terms(a, b, l) -> dict:
    # (lc_b/g)*x^ua*a - (lc_a/g)*x^ub*b with g = gcd(lc_a, lc_b): the
    # lead terms cancel exactly and the result is integral.  Over F_p
    # both leads are 1, so a term is a difference of two values in
    # [0, p), which is 0 exactly when it is 0 mod p.
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
            terms[mm] = -fb * c
        else:
            v = prev - fb * c
            if v:
                terms[mm] = v
            else:
                del terms[mm]
    return terms


def _interreduce(G, codec, p, degree_cap) -> list:
    """The reduced basis of the Groebner basis G, as prepared elements in
    ascending lead order."""
    # Minimal basis: drop elements whose lead another lead divides.
    items = sorted(G, key=lambda prep: codec.key(prep[0]))
    minimal = []
    divides = codec.divides
    for prep in items:
        if not any(divides(other[0], prep[0]) for other in minimal):
            minimal.append(prep)
    # Reduced basis: tails carry no monomial divisible by any lead.  A
    # lead divides only monomials at or above it, and reduction only
    # brings in smaller ones, so in ascending lead order a tail needs
    # only the elements before it, which are reduced already.
    for idx, (lm, lc, tail) in enumerate(minimal):
        if not tail or not idx:
            continue
        terms = dict(tail)
        reduced, scale = _reduce_terms(terms, minimal[:idx], codec, p,
                                       degree_cap)
        if scale != 1 or reduced != terms:
            reduced[lm] = lc * scale
            minimal[idx] = _prepare(reduced, codec, p)
    return minimal


def _inert_generators(preps, codec) -> set[int]:
    """Indices of the generators whose lead is a single variable that no
    other generator mentions.  No polynomial of the run ever holds that
    variable: its pairs have coprime leads, so none is reduced, and no
    other element or S-polynomial brings it in.  Such a lead divides
    nothing the run reduces, so the element needs no place among the
    reducers; it stays in the basis, and `buchberger` appends it without
    the pair update, which would change nothing."""
    low = codec.low_mask
    supports = []
    for lm, _, tail in preps:
        mask = lm
        for m, _ in tail:
            mask |= m
        supports.append(mask & low)
    inert = set()
    for j, (lm, _, _) in enumerate(preps):
        if lm >> codec.deg_shift == 1:
            var = codec.support_mask(lm)
            if sum(1 for mask in supports if mask & var) == 1:
                inert.add(j)
    return inert


def buchberger(gens, budget: Budget | None = None, *,
               ring: VarRing | None = None,
               seed: GroebnerBasis | None = None,
               stats: GBStats | None = None,
               reduce_basis: bool = True) -> GroebnerBasis:
    """Reduced monic Groebner basis of the ideal generated by gens.

    The reducers are primitive integer polynomials with positive leads
    over Q and monic over F_p, and the GroebnerBasis returned keeps the
    interreduced ones as they are; its `basis` is monic.
    Pairs are taken in sugar order, the least (sugar, degrevlex key of
    the lcm, i, j) first, and pruned by the Gebauer-Moeller update; the
    inert generators (`_inert_generators`) skip the update and are no
    reducers.  The reduced basis does not depend on the pair order; the
    pair counts do.

    A seed, a reduced GroebnerBasis whose variables run among those of
    `ring`, joins gens as the first generators, its reducers moved into
    `ring` (`moved_reducers`).  Like the inert generators, they skip the
    pair update, and the pairs among them are skipped, as a Groebner
    basis stays one in more variables.  Exceeding the budget, or a lead
    of a generator or of the seed over the degree cap, raises
    BudgetExhausted.
    reduce_basis=False skips the final interreduction and returns the
    elements as the run kept them; the result still generates the ideal
    and has the Groebner property, but is not the canonical reduced
    basis.
    """
    budget = budget or DEFAULT_BUDGET
    local = GBStats()

    def finish(reducers: list) -> GroebnerBasis:
        if stats is not None:
            stats.merge(local)
        return GroebnerBasis(ring, reducers, local)

    polys = [g for g in gens if g]
    if ring is None:
        ring = polys[0].ring if polys else seed.ring if seed else None
    for g in polys:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
    seeded = [] if seed is None else moved_reducers(seed, ring)
    if not polys and not seeded:
        return finish([])

    p = ring.field.characteristic
    codec = ring.codec
    deg_shift = codec.deg_shift
    degree_cap = budget.degree_cap
    preps = seeded + [_prepare(g.terms, codec, p) for g in polys]
    if any(lm == 0 for lm, _, _ in preps):  # a constant: the ideal is (1)
        return finish([(0, 1, [])])
    for lm, _, _ in preps:  # a lead has its element's largest degree
        if lm >> deg_shift > degree_cap:
            raise BudgetExhausted(
                f"input degree {lm >> deg_shift} over cap {degree_cap}")

    keyf = codec.key
    lcm = codec.lcm
    guard, low, low_guard = codec.guard, codec.low_mask, codec.low_guard

    try:
        G: list = []
        lms: list[int] = []
        sugars: list[int] = []
        # The live elements, whose lead no later lead divides, as indices
        # into G; the others are redundant for division and for new pairs.
        # The reducers are the live elements less the inert generators.
        live: list[int] = []
        active: list = []
        heap: list = []
        pending: dict[tuple[int, int], int] = {}
        inert = _inert_generators(preps, codec)

        def add_element(prep, sugar: int) -> None:
            # Gebauer-Moeller update (UPDATE in Becker and Weispfenning):
            # the new element t is paired with the live elements only.
            # Among those candidates, classes whose lcm has a coprime-lead
            # member drop entirely, each surviving lcm keeps one
            # representative, and no kept lcm divides another.  A pending
            # pair (a, b) whose lcm the new lead divides is dropped unless
            # lcm(a, t) or lcm(b, t) equals it (the chain criterion).
            # Then the live elements whose lead the new lead divides leave.
            t = len(G)
            lmt = prep[0]
            b = lmt & low
            # One pass over the live elements: per field, bit 15 of ge
            # says lm_i >= lm_t there, which gives both whether lm_t
            # divides lm_i and lcm(lm_i, lm_t) (codec.lcm, inlined).  An
            # lcm class maps to its first member, or to -1 once a member
            # has a lead coprime to lm_t.
            shed = False
            classes: dict[int, int] = {}
            for i in live:
                a = lms[i]
                ge = ((a | guard) - b) & low_guard
                if ge == low_guard:
                    shed = True
                m = b ^ ((a ^ b) & (ge >> 15) * 0x7FFF)
                l = m | (m % 0xFFFF) << deg_shift
                if l == a + lmt:  # the lcm is the product: coprime
                    classes[l] = -1
                elif l not in classes:
                    classes[l] = i
            if pending:
                # Divisibility tests are codec.divides, inlined.
                chained = [pair for pair, l in pending.items()
                           if ((l | guard) - lmt) & guard == guard
                           and lcm(lms[pair[0]], lmt) != l
                           and lcm(lms[pair[1]], lmt) != l]
                for pair in chained:
                    del pending[pair]
            # An lcm is kept unless the lcm of another class divides it.
            # A proper divisor has a lower degree, so in order of degree
            # it is met first, and it is kept itself or has a kept
            # divisor of its own.
            reps = sorted((l >> deg_shift, l, i) for l, i in classes.items())
            # The sugar of a pair: the larger of its elements' sugars,
            # each raised by the degree its lead gains in the lcm.
            excess_t = sugar - (lmt >> deg_shift)
            kept: list[int] = []
            for degree, l, i in reps:
                if i >= 0:
                    lg = l | guard
                    if kept and any((lg - l2) & guard == guard
                                    for l2 in kept):
                        continue
                    pending[(i, t)] = l
                    excess = sugars[i] - (lms[i] >> deg_shift)
                    if excess < excess_t:
                        excess = excess_t
                    heapq.heappush(heap, (excess + degree, keyf(l), i, t))
                kept.append(l)
            G.append(prep)
            lms.append(lmt)
            sugars.append(sugar)
            if shed:
                live[:] = [i for i in live
                           if ((lms[i] | guard) - lmt) & guard != guard]
                active[:] = [G[i] for i in live if i not in inert]
            live.append(t)
            active.append(prep)

        # A generator's sugar is its degree, the degree of its lead.  The
        # seed, a reduced basis, needs no update: no lead of it divides
        # another, and the pairs among its elements are skipped.  An inert
        # generator's pairs all have coprime leads, and its lead, a
        # variable no other generator mentions, divides no pending lcm
        # and no live lead: the update would change nothing.
        for j, prep in enumerate(preps):
            sugar = prep[0] >> deg_shift
            if j < len(seeded) or j in inert:
                G.append(prep)
                lms.append(prep[0])
                sugars.append(sugar)
                live.append(j)
                if j not in inert:
                    active.append(prep)
            else:
                add_element(prep, sugar)

        while heap:
            sugar, _, i, j = heapq.heappop(heap)
            l = pending.pop((i, j), None)
            if l is None:
                continue  # pruned by a later update
            if local.pairs_processed >= budget.pair_cap:
                raise BudgetExhausted(f"pair cap {budget.pair_cap} reached")
            local.pairs_processed += 1
            sterms = _spair_terms(G[i], G[j], l)
            rem, _ = _reduce_terms(sterms, active, codec, p, degree_cap)
            if not rem:
                local.reductions_to_zero += 1
                continue
            prep = _prepare(rem, codec, p)
            if prep[0] >> deg_shift == 0:
                # A nonzero constant: the ideal is the whole ring.
                return finish([(0, 1, [])])
            add_element(prep, sugar)

        return finish(_interreduce(G, codec, p, degree_cap)
                      if reduce_basis else G)
    except BudgetExhausted:
        if stats is not None:
            stats.merge(local)
        raise


def contains_one(gens, budget: Budget | None = None, *,
                 ring: VarRing | None = None,
                 seed: GroebnerBasis | None = None,
                 stats: GBStats | None = None) -> bool:
    """Whether the ideal generated by gens, and by the seed as for
    `buchberger`, is the whole ring."""
    polys = [g for g in gens if g]
    if not polys and (seed is None or not seed.reducers):
        return False
    if seed is not None and seed.is_trivial \
            or any(g.is_constant for g in polys):
        return True
    return buchberger(polys, budget, ring=ring, seed=seed, stats=stats,
                      reduce_basis=False).is_trivial


def radical_membership(f: Polynomial, gb: GroebnerBasis,
                       budget: Budget | None = None, *,
                       stats: GBStats | None = None) -> bool:
    """Whether f lies in the radical of the ideal of the Groebner basis
    gb.

    Plain ideal membership of f is tried first since it already implies
    radical membership.  A nonzero normal form decides false when
    `gb.certified_radical` holds.  Otherwise the test is 1 in
    (gb, t*f - 1) with a fresh variable t ranked highest, a run that gb
    seeds, so its internal S-pairs are skipped.
    """
    ring = f.ring
    if ring.has("t"):
        raise ValueError("ring already uses the auxiliary variable t")
    budget = budget or DEFAULT_BUDGET
    reduced = normal_form(f, gb, degree_cap=budget.degree_cap)
    if not reduced:
        return True
    if gb.certified_radical(budget.degree_cap):
        return False
    if reduced.total_degree() >= budget.degree_cap:
        # t*reduced - 1 is over the cap, and may be over the degree limit.
        raise BudgetExhausted(f"input degree {reduced.total_degree() + 1} "
                              f"over cap {budget.degree_cap}")
    ring_t = ring.extend_front("t")
    return contains_one([ring_t.var("t") * change_ring(reduced, ring_t) - 1],
                        budget, ring=ring_t, seed=gb, stats=stats)


def _certify_radical(gb: GroebnerBasis, degree_cap: int) -> bool:
    """Criteria (a) and (b) of the module docstring on the Groebner
    basis gb; a search that runs out of budget proves nothing."""
    leads = [lm for lm, _, _ in gb.reducers]
    if not leads:
        return True  # the zero ideal, of a basis that may have no ring
    ring = gb.ring
    low, shift = ring.codec.low_mask, ring.codec.deg_shift
    # A monomial is squarefree when each exponent is 0 or 1, that is,
    # when its exponents have as many bits set as its degree.
    if all((lm & low).bit_count() == lm >> shift for lm in leads):
        return True
    if not gb.is_zero_dimensional:
        return False
    for name in ring.names:
        x = ring.var(name)
        try:
            mu = _minimal_polynomial(gb, x, degree_cap)
        except BudgetExhausted:
            return False
        if mu is None or not _squarefree(mu, x):
            return False
    return True


def _minimal_polynomial(gb: GroebnerBasis, x: Polynomial,
                        degree_cap: int) -> Polynomial | None:
    """The monic minimal polynomial of the variable x modulo the
    zero-dimensional ideal of gb, a polynomial in x: the first linear
    dependency among NF(1), NF(x), NF(x^2), ...  None when there is none
    up to x^degree_cap."""
    field = x.ring.field
    canonical = field.canonical
    (xm,) = x.terms
    # Echelon rows (pivot monomial, normal-form vector with 1 at the
    # pivot, the same vector as a combination of the powers x^k, keyed by
    # k*xm); each row is zero at the pivots of the rows before it.
    rows: list = []
    power = x.ring.one()
    for k in range(degree_cap + 1):
        if k:
            power = normal_form(power * x, gb, degree_cap)
        vec, combo = dict(power.terms), {k * xm: 1}
        for pivot, row, row_combo in rows:
            c = vec.get(pivot)
            if c:
                _subtract(vec, row, c, canonical)
                _subtract(combo, row_combo, c, canonical)
        if not vec:
            return Polynomial._make(x.ring, combo)
        pivot, c = next(iter(vec.items()))
        s = field.inv(c)
        rows.append((pivot, {m: canonical(v * s) for m, v in vec.items()},
                     {m: canonical(v * s) for m, v in combo.items()}))
    return None


def _subtract(vec: dict, row: dict, c, canonical) -> None:
    """vec -= c*row, in place, dropping the zeros."""
    for m, v in row.items():
        w = canonical(vec.get(m, 0) - c * v)
        if w:
            vec[m] = w
        else:
            vec.pop(m, None)


def _squarefree(mu: Polynomial, x: Polynomial) -> bool:
    """Whether mu, a polynomial in the variable x alone, is coprime to
    its derivative: Euclid's algorithm on normal forms ends at a nonzero
    constant.  Over F_p the derivative of x^p - a is 0, so the gcd is mu
    itself."""
    if mu.total_degree() <= 1:
        return True  # x - c, or 1 when R/J is the zero ring
    (xm,) = x.terms
    shift = x.ring.codec.deg_shift
    canonical = x.ring.field.canonical
    # In one variable the degree field is the exponent of x.
    derivative = {m - xm: d for m, c in mu.terms.items()
                  if m and (d := canonical((m >> shift) * c))}
    a, b = mu, Polynomial._make(x.ring, derivative)
    while b:
        a, b = b, normal_form(a, [b])
    return a.is_constant
