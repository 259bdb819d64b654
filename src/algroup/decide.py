"""Decision procedures for whether the invertible part of a matrix
variety forms a group under multiplication.

The standard route runs three checks: the identity matrix satisfies
every generator; closure under inversion; and closure under
multiplication.  The alternative route runs the identity check and
closure under division, which is decided as closure under
multiplication (below).  All verdicts are exact and hold over the
algebraic closure of the coefficient field; computing over the base
field is sound because triviality of an ideal does not change under
field extension.

Every closure check has the same shape: a base ideal, a rational map
applied to each generator, and a radical-membership test of each image
in the base ideal.  `_CLOSURE_CHECKS` holds one row per check, with a
base and an image for each of two routes.  The hat route serves every
problem:

- `inversion`: the hat ideal I + (x0*det(x) - 1), whose zero set is
  V*(I); the numerator h = det^L*f(X^-1) of the generator f of degree L
  at the formal inverse.  h lies in rad(I + (x0*det - 1)) exactly when h
  vanishes on V*(I) over the closure, that is, by the Nullstellensatz,
  exactly when det*h lies in rad(I);
- `multiplication`: the doubled hat ideal on the x and y blocks; the
  generator at the product X*Y.

The route modulo I serves the problems whose I has a reduced basis G
that is zero-dimensional (every entry variable has a pure power among
its leads) and is proven radical, by the field equations or by a
criterion of `groebner` (`_Run.modulo_i`).  Its images are padded by
r = NF_G(det(x)), which is nonzero exactly on the invertible points of
V(I):

- `inversion`: r*h modulo G;
- `multiplication`: r(x)*r(y)*f(X*Y) modulo G(x) + G(y), the doubled
  basis of I on the x and y blocks, in a ring without x0 and y0.

A padded image vanishes on V(I), or on V(I) x V(I), exactly where the
hat route's image vanishes on V*(I), or on V*(I) x V*(I): so by the
Nullstellensatz it lies in rad(I), or in rad(I(x) + I(y)), exactly when
the hat route's image lies in the radical of its base.  I is radical,
and so is I(x) + I(y) over a perfect field (Bourbaki, Algebra V section
15), so each test is one normal form and needs no further Groebner
run.  In a zero-dimensional ideal every reduced polynomial has at most
dim R/I terms, and at most its square on the two blocks, so the
padding stays small.  A positive-dimensional I stays on the hat route:
there the padded images grow without that bound (when every inversion
check used them, `x2` at n=7 took 25.9 s and 891 MB).  So does a
zero-dimensional I that is not proven radical, whose false tests would
each need a `t*f - 1` run.

`division` runs the multiplication row on both routes: the same base,
image and tests, reported under its own name.  V*(I) is closed in GL_n,
and a nonempty closed subsemigroup M of GL_n is a group (Putcha, Linear
Algebraic Monoids, 1988): for x in M the closed sets M, xM, x^2*M, ...
descend, so they stop by Noetherianity, x^k*M = x^(k+1)*M, and
multiplying by x^-k gives M = xM; from x = x*s with s in M, 1 = s lies
in M, and from 1 = x*m, x^-1 = m does.  So V*(I) closed under
multiplication is a group, hence closed under division; closed under
division, it holds x*x^-1 = 1, then 1*y^-1 and x*(y^-1)^-1 = x*y.  When
V*(I) is empty both hold vacuously.  The two checks therefore give one
verdict on every problem, over every field, and no quotient X*Y^-1 is
built.  A report that holds both shares one result: the second reuses
the first's, and runs no test again.

A reduced basis already computed moves into a larger ring one way: it
seeds the run there (`groebner.buchberger`'s `seed`), its prepared
reducers shifted into that ring and the pairs among them skipped.  G
seeds the hat ideal and I + (det(x)), which decides V(I) = V*(I) when
field equations do not (below).  det
is reduced to r = NF_G(det): on the route modulo I on I's
CofactorTable, which the run keeps for the padded inversion images, and
otherwise on a CofactorTable of its own that the run does not keep.
The hat basis is G's run on x0*r - 1, and I + (det(x)) the triviality
test of G's run on r.  det - r lies in I, so I + (x0*r - 1) =
I + (x0*det - 1) and I + (r) = I + (det): the ideals, and hence their
reduced bases, verdicts and witnesses, are those of the raw generators
and the expanded det.  A doubled basis is its block's reducers, of the
hat basis or of G, shifted into both blocks (`_Run.product_base`), and
each `t*f - 1` run is seeded with the basis of its base ideal.

Every image is built in the quotient ring R/J of the check's base ideal
J.  Whether an image lies in rad(J) depends only on its class modulo J,
and the normal form modulo a Groebner basis of J is a ring map onto
R/J: NF(a*b) = NF(NF(a)*NF(b)) (Cox, Little and O'Shea, Ideals,
Varieties, and Algorithms, ch. 2 section 6).  So the pieces of an image
(the adjugate and the determinants with their powers, or the entries
of X*Y) are reduced modulo the base basis as
they are built, and the image is their normal form.  The pieces depend
on the base basis only, so a run keeps them in one
`matrices.CofactorTable` per base, for every generator of every check
on that base.  A piece is built on first use: an image builds only the
entry images, adjugate entries and cofactors of the variables its
generator mentions, and the minors of det(x) serve the adjugate too.
The normal form modulo a reduced basis is canonical, so the membership
test, and its `t*f - 1` input, see the same polynomial as with the
expanded image: verdicts and pair counts are those of the expanded
images, and the reported witness is the reduced image.

A membership test is one normal form when its base ideal J is
radical: radical membership is then plain membership, and a nonzero
normal form modulo the reduced basis decides false.  Otherwise it takes
the `t*f - 1` run.  Two certificates prove J radical, both decided in
`groebner` on J's basis (`GroebnerBasis.certified_radical`), once, when
the first test of that basis meets a nonzero normal form, so a check
on the hat route whose tests all hold pays nothing for them; I's is
decided before its first check, when I is zero-dimensional, to choose
the route:

- squarefree leads (criterion (a)).  If every lead of a Groebner basis
  of J is squarefree, in(J) is a squarefree monomial ideal, hence
  radical.  For f in rad(J) with normal form r, r^k lies in J, so
  lm(r)^k and then lm(r) lie in in(J); as no term of r is divisible by
  a lead, r = 0.
- zero-dimensional with squarefree minimal polynomials (criterion (b)).
  The minimal polynomial mu_k of each variable x_k in R/J generates J
  meet k[x_k]; if every mu_k is coprime to its derivative, J contains a
  squarefree univariate polynomial in each variable, and over a perfect
  field such an ideal is radical (Seidenberg's lemma; Kreuzer-Robbiano,
  Computational Commutative Algebra 1, section 3.7); the converse holds
  too.

Field equations (`add_field_equations`, which records q on the problem
for the report) make I radical by the lemma of (b): `x^q - x` has
derivative -1, so it is squarefree, and F_p is perfect.  I holds
x_k^q - x_k for every entry, so it is zero-dimensional too.  So when
the generators hold the field equations of every entry
(`_Run.field_equations`), I's basis is marked radical as it is built,
no minimal polynomial is computed, and the closure checks take the
route modulo I: the hat basis is not built.  The hat ideal is radical
then as well, and is marked so when a run builds it: it holds
x_k^q - x_k, and x0^q - x0 too, since the coefficients lie in F_p and
q is a power of p, so det^q = det modulo the field equations,
x0*det = 1 in the hat ideal, and hence x0^q - x0 = x0*(x0^q*det -
x0*det) = 0.

A doubled ideal takes its block's answer, decided on the block's basis,
of the hat ideal or of I: over a perfect field, J(x) + J(y) is radical
when J is (Bourbaki, Algebra V section 15), and both criteria hold for
its basis exactly when they hold for J's.

Field equations need no closure test.  When one q, a power of the
characteristic p > 0, has the generator x_k^q - x_k for every entry
k = 1..n*n, every point of V(I) has its entries in F_q.  F_q is a
field, so the inverse of an invertible point, and the product of two,
have their entries in F_q too: the image of each of
these generators vanishes on V*(I), or on V*(I) x V*(I), and by the
Nullstellensatz lies in the radical of the check's base ideal.  A
closure check therefore tests only the other generators, reporting them
by their place in the full list, and when none is left it is true and
builds no basis.  The guard (`_field_equations`) reads the generators
themselves, terms {x_k^q: 1, x_k: -1} with q a power of p covering every
entry, and not the q that `add_field_equations` records on the problem:
that record proves nothing, as a problem may carry it without the
equations, or the equations without it.

Under field equations V(I) = V*(I) is one normal form modulo I, with
no run on I + (det(x)).  Let q be the least such q, and G I's reduced
basis.  Every point of V(I) has its entries in F_q, so det(x) takes its
values in F_q there, and for a in F_q, a^(q-1) is 1 when a is nonzero
and 0 when a = 0.  So det is nonzero on all of V(I) exactly when
det^(q-1) - 1 vanishes on V(I), that is, by the Nullstellensatz,
exactly when it lies in rad(I) = I: when NF_G(det^(q-1) - 1) = 0.  The
normal form is a ring map onto R/I, so that is NF_G(r^(q-1) - 1) for
r = NF_G(det), and r^(q-1) is built on I's CofactorTable by multiplying
by r and reducing after each product (`CofactorTable.det_power`).  The
test is against 0, not of NF_G(r^(q-1)) against 1: when G = (1), V(I)
is empty, V(I) = V*(I) holds, and every normal form is 0.  Each x_k^q
is a lead of I's initial ideal, so a reduced polynomial has degree
below q in every entry, r has degree at most n under degrevlex, and a
product has degree at most n^2*(q-1) + n.  The normal form decides when
that is within the budget's degree cap (`_Run.vstar_by_normal_form`);
otherwise I + (det) is built as below.

A closure check whose base has the block basis (1), I on the route
modulo I and the hat basis on the hat route, is true and builds nothing
more: the base's zero set is empty, and so is that of its doubled
ideal, so every image vanishes on it and lies in its radical, (1).  The
check counts the pairs of the block basis, as a run of every test would
(each image reduces to 0), and builds no doubled basis, no
CofactorTable and no image.

`run_checks` is the one entry point, for the library and the CLI alike:
it runs a list of check names against one `_Run` into one report.  A
`_Run` holds the problem, its budget, and the one Groebner computation
of each base ideal; `run_checks` keeps one result per check it runs,
which every report name that check decides shares.
The single-check functions and `is_group`/`is_group_alt` are one-line
calls to `run_checks`.
"""

from __future__ import annotations

import heapq
import time

from .fields import PrimeField
from .groebner import (Budget, BudgetExhausted, GBStats, GroebnerBasis,
                       buchberger, contains_one, moved_reducers,
                       radical_membership)
from .matrices import (CofactorTable, build_f0, det_poly,
                       eval_at_formal_inverse, subst_product)
from .parsing import ProblemSpec
from .poly import MAX_ENGINE_DEGREE, Polynomial, VarRing, change_ring

class CheckResult:
    """Outcome of one check: True, False, or None for undecided."""

    def __init__(self, verdict: bool | None, seconds: float = 0.0,
                 witness_index: int | None = None, witness: str | None = None,
                 gb_pairs: int = 0, gb_zero_reductions: int = 0,
                 undecided_reason: str | None = None,
                 note: str | None = None):
        self.verdict = verdict
        self.seconds = seconds
        self.witness_index = witness_index
        self.witness = witness
        self.gb_pairs = gb_pairs
        self.gb_zero_reductions = gb_zero_reductions
        self.undecided_reason = undecided_reason
        self.note = note

    def __eq__(self, other) -> bool:
        return isinstance(other, CheckResult) and vars(self) == vars(other)

    def to_dict(self) -> dict:
        # __init__ sets the attributes in the schema's order, so these
        # are the report keys in order; every value is immutable, so a
        # shallow copy is enough.
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "CheckResult":
        return cls(**data)


class DecisionReport:
    """Aggregated verdicts, witnesses, timings, and engine statistics."""

    def __init__(self, n: int, field: str, closure: str, num_generators: int,
                 mode: str = "standard", field_equations_q: int | None = None,
                 checks: dict[str, CheckResult] | None = None,
                 group: bool | None = None, group_alt: bool | None = None,
                 notes: list[str] | None = None):
        self.n = n
        self.field = field
        self.closure = closure
        self.num_generators = num_generators
        self.mode = mode
        self.field_equations_q = field_equations_q
        self.checks = {} if checks is None else checks
        self.group = group
        self.group_alt = group_alt
        self.notes = [] if notes is None else notes

    def __eq__(self, other) -> bool:
        return isinstance(other, DecisionReport) and vars(self) == vars(other)

    def to_dict(self) -> dict:
        """The report as plain JSON data: the attributes in the order
        `__init__` sets them, which is the documented schema's, each
        check as its `CheckResult.to_dict`."""
        data = dict(vars(self))
        data["checks"] = {name: result.to_dict()
                          for name, result in self.checks.items()}
        data["notes"] = list(self.notes)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionReport":
        data = dict(data)
        data["checks"] = {name: CheckResult.from_dict(res)
                          for name, res in data["checks"].items()}
        return cls(**data)


def closure_statement(problem: ProblemSpec) -> str:
    if isinstance(problem.field, PrimeField):
        return f"the algebraic closure of F_{problem.field.p}"
    return "the algebraic closure of Q"


def new_report(problem: ProblemSpec, mode: str = "standard") -> DecisionReport:
    return DecisionReport(
        n=problem.n,
        field=problem.field.name,
        closure=closure_statement(problem),
        num_generators=len(problem.generators),
        mode=mode,
        field_equations_q=problem.field_equations_q,
    )


def identity_point(problem: ProblemSpec) -> list:
    """Coordinates of the identity matrix in ring variable order."""
    n = problem.n
    diagonal = {(i - 1) * n + i for i in range(1, n + 1)}
    return [1 if k in diagonal else 0 for k in range(1, n * n + 1)]


_WITNESS_TERMS = 64


def _render_witness(f: Polynomial) -> str:
    """Canonical text of f; an image of more terms than _WITNESS_TERMS
    renders as its leading terms and its term count."""
    if len(f.terms) <= _WITNESS_TERMS:
        return str(f)
    head = heapq.nlargest(_WITNESS_TERMS, f.terms, key=f.ring.codec.key)
    text = str(Polynomial._make(f.ring, {m: f.terms[m] for m in head}))
    return f"{text} + ... ({len(f.terms)} terms)"


def check_identity(problem: ProblemSpec) -> CheckResult:
    """Every generator must vanish at the identity matrix."""
    start = time.perf_counter()
    point = identity_point(problem)
    for idx, f in enumerate(problem.generators, start=1):
        if not f:
            continue
        if f.evaluate(point):
            note = "empty variety" if f.is_constant else None
            return CheckResult(False, time.perf_counter() - start,
                               witness_index=idx, witness=_render_witness(f),
                               note=note)
    return CheckResult(True, time.perf_counter() - start)


def _padded(image: Polynomial, table: CofactorTable,
            *blocks: str) -> Polynomial:
    """The image times det of each block, reduced modulo the table's
    basis after each block, so that no product multiplies two
    polynomials of the doubled quotient's size."""
    for block in blocks:
        if not image:
            break
        image = table.reduce(image * table.det(block))
    return image


# One closure check per name: its base ideal and the reduced image of a
# generator, built on the base's CofactorTable, on the hat route and on
# the route modulo I (see the module docstring).  The lambdas look the
# matrices functions up in this module's globals at call time, so a
# wrapper or stub bound to those names later is called.
_CLOSURE_CHECKS = {
    "inversion": (
        ("hat", lambda f, t: eval_at_formal_inverse(f, t)),
        ("I", lambda f, t: _padded(eval_at_formal_inverse(f, t), t, "x"))),
    "multiplication": (
        ("doubled hat", lambda f, t: subst_product(f, t)),
        ("doubled I",
         lambda f, t: _padded(subst_product(f, t), t, "x", "y"))),
}

# Report names decided by another closure check: closure under division
# and under multiplication give one verdict (see the module docstring).
_DECIDED_AS = {"division": "multiplication"}


def _is_power_of(q: int, p: int) -> bool:
    """Whether q = p^t for some t >= 1."""
    remainder = q
    while remainder > 1 and remainder % p == 0:
        remainder //= p
    return remainder == 1 and q > 1


def _field_equations(problem: ProblemSpec) -> frozenset[int]:
    """Places, from 1, of the generators x_k^q - x_k, with terms
    {x_k^q: 1, x_k: -1} for an entry variable x_k, whose q is a power of
    the characteristic p > 0 and has such a generator for every entry.
    Their closure images lie in every base ideal's radical (see the
    module docstring)."""
    p = problem.field.characteristic
    if not p:
        return frozenset()
    ring, neg_one = problem.ring, problem.field.canonical(-1)
    shift = ring.codec.deg_shift
    entries = {m for k in range(1, problem.n**2 + 1)
               for m in ring.var(f"x{k}").terms}
    found: dict[int, tuple[set, list]] = {}  # q -> (entries, places)
    for idx, f in enumerate(problem.generators, start=1):
        if len(f.terms) != 2:
            continue
        m, power = sorted(f.terms)  # the degree is the top field
        q = power >> shift
        # Packed, x^q is q times x.
        if (m in entries and power == q * m and f.terms[power] == 1
                and f.terms[m] == neg_one and _is_power_of(q, p)):
            covered, places = found.setdefault(q, (set(), []))
            covered.add(m)
            places.append(idx)
    return frozenset(idx for covered, places in found.values()
                     if covered == entries for idx in places)


def _result(verdict, start: float, stats: GBStats, **fields) -> CheckResult:
    return CheckResult(verdict, time.perf_counter() - start,
                       gb_pairs=stats.pairs_processed,
                       gb_zero_reductions=stats.reductions_to_zero, **fields)


class _Run:
    """One decision run: the problem, its budget, and `bases`, the run's
    one Groebner computation for each ideal of the problem, under the
    ideal's name, each a reduced GroebnerBasis that carries its ring:

    - "I": the problem ideal;
    - "hat": I + (x0*det(x) - 1), whose zero set is V*(I);
    - "doubled hat", "doubled I": the hat ideal, or I, on the x and y
      blocks (`product_base`).

    The closure checks take the route modulo I, on "I" and "doubled I",
    when `modulo_i` holds, and the hat route otherwise (see the module
    docstring).  "hat" and "I+det" are seeded with I's reduced basis
    (`seed`).  "I+det" is I + (det(x)): the check "variety_equals_vstar"
    decides once whether it is the whole ring, that is, whether
    V(I) = V*(I), and keeps no basis of it; when `vstar_by_normal_form`
    holds, it decides that by one normal form modulo I instead, and
    builds no "I+det".  `tables` keeps one
    CofactorTable per base of a closure check, made once per run: its
    minors serve the determinant and adjugate images, and its entry
    images serve every generator of every check on that base.

    `field_equations` holds the places of the generators that no
    closure check tests (`_field_equations`), found once per run; if
    there are any, every base is marked radical as it is built, and the
    route is modulo I.  `field_q` is the least q among them, None when
    there are none: every point of V(I) is then F_q-rational.

    A computation's pairs count in the check that runs it.  `seeded`
    holds the ideals seeded with I's basis, "hat" and "I+det", that the
    run's checks may still build.  det(x) reduced modulo I is kept on
    I's CofactorTable when I is zero-dimensional, and otherwise in
    `_det`, for the second of them only.
    """

    def __init__(self, problem: ProblemSpec, budget: Budget,
                 seeded: set | None = None):
        self.problem = problem
        self.budget = budget
        self.seeded = set() if seeded is None else seeded
        self.bases: dict = {}
        self.tables: dict = {}
        self._det: Polynomial | None = None
        self.field_equations = _field_equations(problem)
        self.field_q = min((problem.generators[idx - 1].total_degree()
                            for idx in self.field_equations), default=None)

    def ideal(self, name: str, stats: GBStats) -> GroebnerBasis:
        if name in self.bases:
            return self.bases[name]
        problem = self.problem
        if name.startswith("doubled "):
            gb = self.product_base(name.removeprefix("doubled "), stats)
        elif name == "I":
            gb = buchberger(problem.generators, self.budget,
                            ring=problem.ring, stats=stats)
        else:
            seed, det = self.seed(name, stats)
            ring = VarRing.matrix_ring(problem.n, problem.field, x0=True)
            gb = buchberger([build_f0(ring, "x", change_ring(det, ring))],
                            self.budget, ring=ring, seed=seed, stats=stats)
        if self.field_equations:
            gb.radical = True
        self.bases[name] = gb
        return gb

    def modulo_i(self, stats: GBStats) -> bool:
        """Whether the closure checks take the route modulo I: I's
        reduced basis, computed on first use, is zero-dimensional, and
        I is proven radical, by the field equations or by a criterion
        of `groebner`."""
        gb = self.ideal("I", stats)
        return gb.is_zero_dimensional and \
            gb.certified_radical(self.budget.degree_cap)

    def vstar_by_normal_form(self) -> bool:
        """Whether "variety_equals_vstar" is decided as
        NF_I(det^(q-1) - 1) = 0: the field equations hold with q =
        `field_q`, and every product r^k * r of the powers of
        r = NF_I(det), of degree at most n^2*(q-1) + n, stays within the
        degree cap (see the module docstring)."""
        q, n = self.field_q, self.problem.n
        return q is not None and n * n * (q - 1) + n <= self.budget.degree_cap

    def empty_base(self, block: str, stats: GBStats) -> bool:
        """Whether the block basis of a closure check's base, "I" or
        "hat", computed on first use, is (1): the base's zero set is then
        empty, and every image lies in its radical."""
        return self.ideal(block, stats).is_trivial

    def seed(self, name: str, stats: GBStats) -> tuple[GroebnerBasis,
                                                       Polynomial]:
        """(seed, det) for building the ideal `name` of `seeded`, which
        leaves `seeded`: I's reduced basis, computed on first use, and
        det(x) reduced modulo it.  When I is zero-dimensional, det is
        read from I's CofactorTable, which the run keeps: the route
        modulo I pads its images by it, whichever check comes first, and
        its pieces have at most dim R/I terms each.  Otherwise it is
        built on a CofactorTable that is not kept, since I is then the
        base of no check, and det is kept only while another ideal of
        `seeded` is still to be built: at n = 9 it can hold most of the
        run's memory."""
        self.seeded.discard(name)
        gb = self.ideal("I", stats)
        if gb.is_zero_dimensional:
            return gb, self.table("I").det("x")
        det = self._det
        if det is None:
            det = det_poly(gb.ring, "x", gb)
        self._det = det if self.seeded else None
        return gb, det

    def table(self, name: str) -> CofactorTable:
        """The CofactorTable of the base `name`, which must already be
        computed; made once."""
        if name not in self.tables:
            base = self.bases[name]
            self.tables[name] = CofactorTable(base.ring, base)
        return self.tables[name]

    def product_base(self, block: str, stats: GBStats) -> GroebnerBasis:
        """Reduced basis of J(x) + J(y), J the ideal `block`, "hat" or
        "I", and J(y) its copy in the y block: J's reducers moved into
        the doubled ring, with y0 when J is the hat ideal, by name for
        the x copy and to offset 0, a renaming, for the y copy.  The
        blocks share no variable, so the union is already reduced: every
        cross pair has coprime leads (Buchberger's first criterion), no
        lead of one block divides a term of the other, and degrevlex
        keeps its ranking on either block.  Whether it is radical is
        asked of J's basis (see the module docstring), over half the
        variables, and the answer is kept there for J's own tests too."""
        problem = self.problem
        hat = block == "hat"
        ring = VarRing.matrix_ring(problem.n, problem.field, x0=hat, y=True,
                                   y0=hat)
        gb = self.ideal(block, stats)
        copies = moved_reducers(gb, ring)
        if not gb.is_trivial:  # the basis (1) needs one copy
            copies += moved_reducers(gb, ring, offset=0)
        # Ascending leads, the order buchberger returns a reduced basis
        # in: the block basis already ascends, and degrevlex ranks every y
        # lead above every x lead of the same degree, so a stable sort by
        # degree interleaves the two copies.
        copies.sort(key=lambda prep: ring.codec.degree(prep[0]))
        return GroebnerBasis(ring, copies, radical_as=gb)

    def check(self, name: str) -> CheckResult:
        """Run one check by report name."""
        if name == "identity":
            return check_identity(self.problem)
        if name == "variety_equals_vstar":
            start, stats = time.perf_counter(), GBStats()
            try:
                if self.vstar_by_normal_form():
                    self.seeded.discard("I+det")
                    self.ideal("I", stats)
                    table = self.table("I")
                    power = table.det_power("x", self.field_q - 1)
                    verdict = not table.reduce(power - 1)
                else:
                    seed, det = self.seed("I+det", stats)
                    verdict = contains_one([det], self.budget,
                                           ring=self.problem.ring,
                                           seed=seed, stats=stats)
                return _result(verdict, start, stats)
            except BudgetExhausted as exc:
                return _result(None, start, stats, undecided_reason=str(exc))
        return self.closure_check(_DECIDED_AS.get(name, name))

    def closure_check(self, name: str) -> CheckResult:
        """Run the closure check `name` of `_CLOSURE_CHECKS`, on the route
        modulo I when `modulo_i` holds and on the hat route otherwise:
        one radical-membership test of each generator's image, in
        generator order, up to the first that fails or runs out of
        budget.  The field equations of `field_equations` are not
        tested, and on an empty base (`empty_base`) nothing is.  An
        image builds only the pieces its generator needs, modulo the
        base basis, and the base's CofactorTable keeps them
        for the later generators and checks on that base.  When the base
        ideal is proven radical, each test is one normal form.  Only the
        reported generator's image is rendered."""
        hat_route, route_modulo_i = _CLOSURE_CHECKS[name]
        start = time.perf_counter()
        gens = [(idx, f) for idx, f in enumerate(self.problem.generators,
                                                 start=1)
                if f and idx not in self.field_equations]
        if not gens:
            return CheckResult(True, time.perf_counter() - start)
        stats = GBStats()
        try:
            ideal, image = route_modulo_i if self.modulo_i(stats) \
                else hat_route
            if self.empty_base(ideal.removeprefix("doubled "), stats):
                return _result(True, start, stats)
            base = self.ideal(ideal, stats)
        except BudgetExhausted as exc:
            return _result(None, start, stats, undecided_reason=str(exc))
        table = self.table(ideal)
        for idx, f in gens:
            try:
                f = image(f, table)
            except OverflowError as exc:
                return _result(None, start, stats, witness_index=idx,
                               undecided_reason=f"undecided: image of the "
                                                f"generator: {exc}")
            try:
                ok = radical_membership(f, base, self.budget, stats=stats)
            except BudgetExhausted as exc:
                return _result(None, start, stats, witness_index=idx,
                               witness=_render_witness(f),
                               undecided_reason=str(exc))
            if not ok:
                return _result(False, start, stats, witness_index=idx,
                               witness=_render_witness(f))
        return _result(True, start, stats)


# Group checks by command-line name: the report field of the verdict and
# the checks run in order until one is not decidedly true.
_GROUP_CHECKS = {
    "group": ("group", ("identity", "inversion", "multiplication")),
    "group-alt": ("group_alt", ("identity", "division")),
}

# Report names of the command-line checks that differ from them.
_REPORT_NAMES = {"vstar-eq": "variety_equals_vstar"}

# Every check name `run_checks` accepts.
_CHECK_NAMES = ("identity", *_CLOSURE_CHECKS, *_DECIDED_AS, *_GROUP_CHECKS,
                *_REPORT_NAMES, *_REPORT_NAMES.values())


def run_checks(problem: ProblemSpec, checks, *,
               budget: Budget | None = None) -> DecisionReport:
    """Run checks, in order, into one report.

    A check is a command-line name (`identity`, `inversion`, `multiplication`,
    `group`, `group-alt`, `vstar-eq`) or the report name of a single check
    (`division`, `variety_equals_vstar`).  Each report check runs once,
    `division` and `multiplication` share one result, and each base
    ideal's basis is computed once for all of them.  The report is
    in "alt" mode exactly when `group-alt` is the only check.  An unknown
    name raises ValueError before any check runs.
    """
    checks = list(checks)
    for check in checks:
        if check not in _CHECK_NAMES:
            raise ValueError(f"unknown check {check!r}; expected one of "
                             f"{', '.join(_CHECK_NAMES)}")
    names = [step for check in checks
             for step in (_GROUP_CHECKS[check][1] if check in _GROUP_CHECKS
                          else (_REPORT_NAMES.get(check, check),))]
    seeded = {"hat" for name in names
              if _DECIDED_AS.get(name, name) in _CLOSURE_CHECKS}
    if "variety_equals_vstar" in names:
        seeded.add("I+det")
    run = _Run(problem, budget or Budget(), seeded)
    report = new_report(problem, "alt" if checks == ["group-alt"]
                        else "standard")

    decided: dict = {}  # check run -> its result, for every name it decides

    def result(name: str) -> CheckResult:
        step = _DECIDED_AS.get(name, name)
        if step not in decided:
            decided[step] = run.check(step)
        report.checks[name] = decided[step]
        return decided[step]

    for check in checks:
        if check not in _GROUP_CHECKS:
            result(_REPORT_NAMES.get(check, check))
            continue
        verdict_field, steps = _GROUP_CHECKS[check]
        for name in steps:
            verdict = result(name).verdict
            if verdict is not True:
                break
        setattr(report, verdict_field, verdict)
        note = report.checks["identity"].note
        if note and note not in report.notes:
            report.notes.append(note)
    return report


def variety_equals_vstar(problem: ProblemSpec, *,
                         budget: Budget | None = None) -> CheckResult:
    """Whether the variety has no singular points, i.e. equals its
    invertible part: 1 lies in the ideal extended by det."""
    return run_checks(problem, ["vstar-eq"],
                      budget=budget).checks["variety_equals_vstar"]


def check_inversion(problem: ProblemSpec, *,
                    budget: Budget | None = None) -> CheckResult:
    """Closure under inversion: for each generator f, the numerator of f
    at the formal inverse must lie in the radical of the hat ideal, or,
    on the route modulo I, times det in I."""
    return run_checks(problem, ["inversion"],
                      budget=budget).checks["inversion"]


# A second name of the one inversion check: `perfbench/tracing.py` wraps
# every name it lists, this one among them.
check_inversion_alt = check_inversion


def check_multiplication(problem: ProblemSpec, *,
                         budget: Budget | None = None) -> CheckResult:
    """Closure under multiplication: each generator, rewritten at the
    product of the two generic matrices, must lie in the radical of the
    doubled ideal with both invertibility witnesses, or, on the route
    modulo I, times det(x)*det(y) in I doubled."""
    return run_checks(problem, ["multiplication"],
                      budget=budget).checks["multiplication"]


def check_division(problem: ProblemSpec, *,
                   budget: Budget | None = None) -> CheckResult:
    """Closure under right division, decided as closure under
    multiplication: V*(I) is closed in GL_n, and a nonempty closed
    subsemigroup of GL_n is a group, so the two give one verdict (see
    the module docstring).  The witness is a generator at X*Y, and the
    pairs are those of the product tests.  Together with the identity
    check this decides the group property."""
    return run_checks(problem, ["division"], budget=budget).checks["division"]


def is_group(problem: ProblemSpec, *,
             budget: Budget | None = None) -> DecisionReport:
    """Identity, then inversion, then multiplication, short-circuiting at
    the first check that is not decidedly true.  An empty generator list
    yields true: the invertible part is then the whole general linear
    group."""
    return run_checks(problem, ["group"], budget=budget)


def is_group_alt(problem: ProblemSpec, *,
                 budget: Budget | None = None) -> DecisionReport:
    """Identity, then closure under division."""
    return run_checks(problem, ["group-alt"], budget=budget)


def add_field_equations(problem: ProblemSpec, q: int) -> ProblemSpec:
    """Restrict the variety to matrices over the field with q elements by
    adjoining x_k^q - x_k for every entry variable; q must be a power of
    the coefficient characteristic, else ValueError.  The report records
    q; the engine does not read it, and finds the equations among the
    generators instead."""
    p = problem.field.characteristic
    if p == 0:
        raise ValueError("field equations require a prime coefficient field")
    if not _is_power_of(q, p):
        raise ValueError(f"{q} is not a power of the field characteristic {p}")
    if q > MAX_ENGINE_DEGREE:
        raise ValueError(f"field equations of degree {q} exceed the "
                         f"supported degree {MAX_ENGINE_DEGREE}")
    ring, neg_one = problem.ring, problem.field.canonical(-1)
    xs = (ring.var(f"x{k}").terms for k in range(1, problem.n**2 + 1))
    # Packed, x^q is q times x.
    equations = [Polynomial._make(ring, {q * m: 1, m: neg_one})
                 for (m,) in xs]
    return ProblemSpec(problem.n, problem.field,
                       list(problem.generators) + equations, problem.ring,
                       problem.source, field_equations_q=q)
