"""Decision procedures for whether the invertible part of a matrix
variety forms a group under multiplication.

The standard route runs three checks: the identity matrix satisfies
every generator; closure under inversion; and closure under
multiplication.  The alternative route fuses the last two into a single
closure-under-division check.  All verdicts are exact and hold over the
algebraic closure of the coefficient field; computing over the base
field is sound because triviality of an ideal does not change under
field extension.

Every closure check has the same shape: a base ideal, a rational map
applied to each generator, and a radical-membership test of each image
in the base ideal.  `_CLOSURE_CHECKS` holds one row per check:

- `inversion`: the hat ideal I + (x0*det(x) - 1), whose zero set is
  V*(I); the numerator h = det^L*f(X^-1) of the generator at the formal
  inverse.  h lies in rad(I + (x0*det - 1)) exactly when h vanishes on
  V*(I) over the closure, that is, by the Nullstellensatz, exactly when
  det*h lies in rad(I);
- `multiplication`: the doubled hat ideal on the x and y blocks; the
  generator at the product X*Y;
- `division`: the doubled hat ideal; the generator at X*Y^-1.

The doubled ideal's basis is one block's basis joined with its copy in
the other block, since the two blocks share no variable.

I itself is the base of no check: its reduced basis G is the seed of
the hat ideal and of I + (det(x)), which decides V(I) = V*(I).  Both
contain I, so each is built on G.  det is reduced to r = NF_G(det) on a
CofactorTable of its own that the run does not keep, and the hat basis
is Buchberger's on G (moved to the ring with x0) plus x0*r - 1, with the
pairs inside G skipped because G is already a Groebner basis;
I + (det(x)) is the triviality test of G plus r, likewise.  det - r lies
in I, so I + (x0*r - 1) = I + (x0*det - 1) and I + (r) = I + (det): the
ideals, and hence their reduced bases, verdicts and witnesses, are
those of the raw generators and the expanded det.

Every image is built in the quotient ring R/J of the check's base ideal
J.  Whether an image lies in rad(J) depends only on its class modulo J,
and the normal form modulo a Groebner basis of J is a ring map onto
R/J: NF(a*b) = NF(NF(a)*NF(b)) (Cox, Little and O'Shea, Ideals,
Varieties, and Algorithms, ch. 2 section 6).  So the pieces of an image
(the adjugate and the determinant with its powers, or the entries of
X*Y or y0*X*adj(Y)) are reduced modulo the base basis as they are
built, and the image is their normal form.  The pieces depend on the
base basis only, so a run keeps them in one `matrices.CofactorTable` per
base, "hat" or "doubled", for every generator of every check on that
base.  A piece is built on first use: an image builds only the
entry images, adjugate entries and cofactors of the variables its
generator mentions, and the minors of det(x) serve the adjugate too.
The normal form modulo a reduced basis is canonical, so the membership
test, and its `t*f - 1` input, see the same polynomial as with the
expanded image: verdicts and pair counts are those of the expanded
images, and the reported witness is the reduced image.

A membership test is one normal form when its base ideal J is
radical: radical membership is then plain membership, and a nonzero
normal form modulo the reduced basis decides false.  Otherwise it takes
the `t*f - 1` run.  Three certificates prove J radical; the answer is
kept on J's basis (`GroebnerBasis.radical`), decided once, when the
first test of that basis meets a nonzero normal form, so a check whose
tests all hold pays nothing for it:

- field equations (`add_field_equations`, which records q on the
  problem).  Over a perfect field, an ideal that contains a squarefree
  univariate polynomial in each of its variables is radical
  (Seidenberg's lemma; Kreuzer-Robbiano, Computational Commutative
  Algebra 1, section 3.7).  Every base ideal qualifies: `x^q - x` has
  derivative -1, so it is squarefree, and F_p is perfect; the hat ideal
  contains `x0^q - x0`, because the coefficients lie in F_p and q is a
  power of p, so det^q = det modulo the field equations, x0*det = 1 in
  the hat ideal, and hence x0^q - x0 = x0*(x0^q*det - x0*det) = 0.  The
  runner does not infer this: only when the problem records q and
  every `x_k^q - x_k` is among its generators, checked once per run,
  does it mark each basis radical as it makes it.
- squarefree leads (`groebner` criterion (a)).  If every lead of a
  Groebner basis of J is squarefree, in(J) is a squarefree monomial
  ideal, hence radical.  For f in rad(J) with normal form r, r^k lies
  in J, so lm(r)^k and then lm(r) lie in in(J); as no term of r is
  divisible by a lead, r = 0.
- zero-dimensional with squarefree minimal polynomials (`groebner`
  criterion (b)).  The minimal polynomial mu_k of each variable x_k in
  R/J generates J meet k[x_k]; if every mu_k is coprime to its
  derivative, J contains a squarefree univariate polynomial in each
  variable and is radical by the same lemma, and over a perfect field
  the converse holds too.  The field-equation certificate is the case
  where mu_k divides x^q - x.

A doubled ideal takes its block's answer: over a perfect field, J(x) +
J(y) is radical when J is (Bourbaki, Algebra V section 15), and both
criteria hold for its basis exactly when they hold for J's.

`run_checks` is the one entry point, for the library and the CLI alike:
it runs a list of check names against one `_Run` into one report.  A
`_Run` holds the problem, its budget, and the one Groebner computation
of each base ideal; the report's checks are the only memo of results.
The single-check functions and `is_group`/`is_group_alt` are one-line
calls to `run_checks`.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import asdict, dataclass, field as dataclass_field, replace
from typing import Callable

from .fields import PrimeField
from .groebner import (Budget, BudgetExhausted, GBStats, GroebnerBasis,
                       buchberger, contains_one, radical_membership)
from .matrices import (CofactorTable, build_f0, det_poly,
                       eval_at_formal_inverse, subst_product,
                       subst_x_times_inverse_y, to_y_block)
from .parsing import ProblemSpec
from .poly import MAX_ENGINE_DEGREE, Polynomial, VarRing, change_ring

@dataclass
class CheckResult:
    """Outcome of one check: True, False, or None for undecided."""

    verdict: bool | None
    seconds: float = 0.0
    witness_index: int | None = None
    witness: str | None = None
    gb_pairs: int = 0
    gb_zero_reductions: int = 0
    undecided_reason: str | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CheckResult":
        return cls(**data)


@dataclass
class DecisionReport:
    """Aggregated verdicts, witnesses, timings, and engine statistics."""

    n: int
    field: str
    closure: str
    num_generators: int
    mode: str = "standard"
    field_equations_q: int | None = None
    checks: dict[str, CheckResult] = dataclass_field(default_factory=dict)
    group: bool | None = None
    group_alt: bool | None = None
    notes: list[str] = dataclass_field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

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
    field = problem.field
    n = problem.n
    diagonal = {(i - 1) * n + i for i in range(1, n + 1)}
    return [field.one() if k in diagonal else field.zero()
            for k in range(1, n * n + 1)]


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


_ImageFactory = Callable[[CofactorTable], Callable[[Polynomial], Polynomial]]


@dataclass(frozen=True)
class _ClosureCheck:
    """One closure check: the base ideal ("hat", or "doubled", the hat
    ideal on the x and y blocks) and the image of a generator in the
    base ring.  An image is made by a factory of the base's
    CofactorTable, which builds and keeps the pieces the generators'
    images share, and returns the map from a generator to its reduced
    image."""

    ideal: str
    image: _ImageFactory


# The factories look up the matrices functions in this module's globals
# at call time, so a wrapper or stub bound to those names later is
# called.  Every piece is built in the matrices functions, on first use,
# and reduced modulo the base basis.

def _inverse_numerator_image(table: CofactorTable):
    ring, base = table.ring, table.modulo
    return lambda f: eval_at_formal_inverse(
        change_ring(f, ring), base, table=table).numerator


def _product_image(table: CofactorTable):
    return lambda f: subst_product(f, table.ring, table.modulo, table=table)


def _quotient_image(table: CofactorTable):
    return lambda f: subst_x_times_inverse_y(f, table.ring, table.modulo,
                                             table=table)


_CLOSURE_CHECKS = {
    "inversion": _ClosureCheck("hat", _inverse_numerator_image),
    "multiplication": _ClosureCheck("doubled", _product_image),
    "division": _ClosureCheck("doubled", _quotient_image),
}


def _result(verdict, start: float, stats: GBStats, **fields) -> CheckResult:
    return CheckResult(verdict, time.perf_counter() - start,
                       gb_pairs=stats.pairs_processed,
                       gb_zero_reductions=stats.reductions_to_zero, **fields)


@dataclass
class _Run:
    """One decision run: the problem, its budget, and `bases`, the run's
    one Groebner computation for each ideal of the problem, under the
    ideal's name:

    - "I": (ring, reduced basis) of the problem ideal;
    - "hat": (ring, reduced basis) of I + (x0*det(x) - 1), whose zero set
      is V*(I);
    - "I+det": whether 1 lies in I + (det(x)), that is, V(I) = V*(I);
    - "doubled": (ring, reduced basis) of the hat ideal on the x and y
      blocks (`product_base`).

    "hat" and "I+det" are built on I's reduced basis (`seed`; see the
    module docstring).  `tables` keeps one CofactorTable per base,
    "hat" or "doubled", made once per run: its minors serve the
    inversion images, and its entry images serve every generator of
    every check on that base.

    A computation's pairs count in the check that runs it.  `radical`
    records whether every base ideal is radical because the generators
    hold the field equations the problem records; then every basis of
    the run is marked radical as it is made.
    """

    problem: ProblemSpec
    budget: Budget
    bases: dict = dataclass_field(default_factory=dict)
    tables: dict = dataclass_field(default_factory=dict)
    radical: bool = dataclass_field(init=False)

    def __post_init__(self):
        q = self.problem.field_equations_q
        try:
            equations = None if q is None else _field_equations(self.problem, q)
        except ValueError:
            equations = None
        self.radical = equations is not None \
            and set(equations) <= set(self.problem.generators)

    def ideal(self, name: str, stats: GBStats):
        if name in self.bases:
            return self.bases[name]
        problem = self.problem
        if name == "doubled":
            self.bases[name] = self.product_base(stats)
            return self.bases[name]
        if name == "I":
            ring, prefix = problem.ring, 0
            gens = [f for f in problem.generators if f]
        else:
            gens, prefix, det = self.seed(stats)
            if name == "I+det":
                self.bases[name] = contains_one(
                    gens + [det], self.budget, ring=problem.ring,
                    assume_gb_prefix=prefix, stats=stats)
                return self.bases[name]
            ring = VarRing.matrix_ring(problem.n, problem.field, x0=True)
            gens = [change_ring(g, ring) for g in gens]
            gens.append(build_f0(ring, "x", change_ring(det, ring)))
        gb = buchberger(gens, self.budget, ring=ring, assume_gb_prefix=prefix,
                        stats=stats)
        if self.radical:
            gb.radical = True
        self.bases[name] = ring, gb
        return self.bases[name]

    def seed(self, stats: GBStats) -> tuple[list[Polynomial], int,
                                            Polynomial]:
        """(gens, prefix, det): generators of I whose first `prefix` are
        a Groebner basis, and det(x) reduced modulo them.  These are I's
        reduced basis, computed on first use, and the normal form of
        det, built on a CofactorTable that is not kept: I is the base of
        no check, so its minors serve nothing else."""
        ring, gb = self.ideal("I", stats)
        return gb.basis, len(gb.basis), det_poly(ring, "x", gb)

    def table(self, name: str) -> CofactorTable:
        """The CofactorTable of the base `name`, which must already be
        computed; made once."""
        if name not in self.tables:
            self.tables[name] = CofactorTable(*self.bases[name])
        return self.tables[name]

    def product_base(self, stats: GBStats):
        """Reduced basis of the doubled hat ideal J(x) + J(y), where J is
        the problem ideal with the witness x0*det(x) - 1, and J(y) is its
        copy in the y block.

        The blocks share no variable, so the union of J's reduced basis
        and its renamed copy is already reduced: every cross pair has
        coprime leads (Buchberger's first criterion), no lead of one
        block divides a term of the other, and degrevlex restricted to
        either block is degrevlex with the same relative ranking.

        The doubled ideal is radical when J is, over a perfect field
        (Bourbaki, Algebra V section 15), so it takes J's answer when J
        has one.  Both criteria of `groebner` hold for the doubled basis
        exactly when they hold for J's, so otherwise it decides alike.
        """
        problem = self.problem
        ring = VarRing.matrix_ring(problem.n, problem.field, x0=True, y=True,
                                   y0=True)
        _, block = self.ideal("hat", stats)
        if block.is_trivial:
            return ring, GroebnerBasis([ring.one()], GBStats())
        basis = [change_ring(g, ring) for g in block.basis]
        basis.extend(to_y_block(g, ring) for g in block.basis)
        # Ascending leads, the order buchberger returns a reduced basis
        # in: the block basis already ascends, and degrevlex ranks every y
        # lead above every x lead of the same degree, so a stable sort by
        # degree interleaves the two copies.
        basis.sort(key=Polynomial.total_degree)
        return ring, GroebnerBasis(basis, GBStats(), radical=block.radical)

    def check(self, name: str) -> CheckResult:
        """Run one check by report name."""
        if name == "identity":
            return check_identity(self.problem)
        if name == "variety_equals_vstar":
            start, stats = time.perf_counter(), GBStats()
            try:
                return _result(self.ideal("I+det", stats), start, stats)
            except BudgetExhausted as exc:
                return _result(None, start, stats, undecided_reason=str(exc))
        return self.closure_check(name)

    def closure_check(self, name: str) -> CheckResult:
        """Run the closure check `name` of `_CLOSURE_CHECKS`: one
        radical-membership test of each generator's image, in generator
        order, up to the first that fails or runs out of budget.  An
        image builds only the pieces its generator needs, modulo the
        base basis, and the base's CofactorTable keeps them for the
        later generators and checks on that base.  When the base ideal is proven radical,
        each test is one normal form.  Only the reported generator's
        image is rendered."""
        check = _CLOSURE_CHECKS[name]
        start = time.perf_counter()
        gens = [(idx, f) for idx, f in enumerate(self.problem.generators,
                                                 start=1) if f]
        if not gens:
            return CheckResult(True, time.perf_counter() - start)
        stats = GBStats()
        try:
            _, base = self.ideal(check.ideal, stats)
        except BudgetExhausted as exc:
            return _result(None, start, stats, undecided_reason=str(exc))
        image = check.image(self.table(check.ideal))
        for idx, f in gens:
            try:
                f = image(f)
            except OverflowError as exc:
                return _result(None, start, stats, witness_index=idx,
                               undecided_reason=f"undecided: image of the "
                                                f"generator: {exc}")
            try:
                ok = radical_membership(f, base.basis, self.budget,
                                        base_gb=base, stats=stats)
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


def run_checks(problem: ProblemSpec, checks, *,
               budget: Budget | None = None) -> DecisionReport:
    """Run checks, in order, into one report.

    A check is a command-line name (`identity`, `inversion`,
    `multiplication`, `group`, `group-alt`, `vstar-eq`) or the report
    name of a single check (`division`, `variety_equals_vstar`).  Each report check runs once, and each base
    ideal's basis is computed once for all of them.  The report is in
    "alt" mode exactly when `group-alt` is the only check.
    """
    checks = list(checks)
    run = _Run(problem, budget or Budget())
    report = new_report(problem, "alt" if checks == ["group-alt"]
                        else "standard")

    def result(name: str) -> CheckResult:
        if name not in report.checks:
            report.checks[name] = run.check(name)
        return report.checks[name]

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
    at the formal inverse must lie in the radical of the hat ideal."""
    return run_checks(problem, ["inversion"],
                      budget=budget).checks["inversion"]


# A second name of the one inversion check: `perfbench/tracing.py` wraps
# every name it lists, this one among them.
check_inversion_alt = check_inversion


def check_multiplication(problem: ProblemSpec, *,
                         budget: Budget | None = None) -> CheckResult:
    """Closure under multiplication: each generator, rewritten at the
    product of the two generic matrices, must lie in the radical of the
    doubled ideal with both invertibility witnesses."""
    return run_checks(problem, ["multiplication"],
                      budget=budget).checks["multiplication"]


def check_division(problem: ProblemSpec, *,
                   budget: Budget | None = None) -> CheckResult:
    """Closure under right division: each generator at x times the formal
    inverse of y must lie in the radical of the doubled witness ideal.
    Together with the identity check this already decides the group
    property."""
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
    """Identity, then the fused closure-under-division check."""
    return run_checks(problem, ["group-alt"], budget=budget)


def add_field_equations(problem: ProblemSpec, q: int) -> ProblemSpec:
    """Restrict the variety to matrices over the field with q elements by
    adjoining x_k^q - x_k for every entry variable; q must be a power of
    the coefficient characteristic."""
    return replace(problem, generators=list(problem.generators)
                   + _field_equations(problem, q), field_equations_q=q)


def _field_equations(problem: ProblemSpec, q: int) -> list[Polynomial]:
    """x_k^q - x_k for every entry variable; ValueError unless q is a
    power of the coefficient characteristic."""
    p = problem.field.characteristic
    if p == 0:
        raise ValueError("field equations require a prime coefficient field")
    remainder, t = q, 0
    while remainder > 1 and remainder % p == 0:
        remainder //= p
        t += 1
    if remainder != 1 or t < 1:
        raise ValueError(f"{q} is not a power of the field characteristic {p}")
    if q > MAX_ENGINE_DEGREE:
        raise ValueError(f"field equations of degree {q} exceed the "
                         f"supported degree {MAX_ENGINE_DEGREE}")
    ring, neg_one = problem.ring, problem.field.neg(1)
    xs = (ring.var(f"x{k}").terms for k in range(1, problem.n**2 + 1))
    # Packed, x^q is q times x.
    return [Polynomial._make(ring, {q * m: 1, m: neg_one}) for (m,) in xs]
