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

- `inversion`: the problem ideal I; the generator at the formal inverse,
  padded with a determinant factor (`make_k`);
- `inversion_alt`: the hat ideal I + (x0*det(x) - 1); the numerator of
  the generator at the formal inverse;
- `multiplication`: the doubled hat ideal on the x and y blocks; the
  generator at the product X*Y;
- `division`: the doubled hat ideal; the generator at X*Y^-1.

On the fast path, taken only when V(I) = V*(I), the first three use I in
place of the hat ideal and the numerator in place of the padded image.
The doubled ideal's basis is one block's basis joined with its copy in
the other block, since the two blocks share no variable.  One runner,
`_closure_check`, executes a row; `_run_checks` runs a list of
command-line check names into one report, for the library and the CLI
alike.  A run's cache holds one Groebner computation per ideal and one
result per check.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Callable

from .fields import PrimeField
from .groebner import (Budget, BudgetExhausted, GBStats, GroebnerBasis,
                       buchberger, contains_one, radical_membership)
from .matrices import (build_hat_ideal, det_poly,
                       eval_at_formal_inverse, make_k, subst_product,
                       subst_x_times_inverse_y, to_y_block)
from .parsing import ProblemSpec
from .poly import DEGREVLEX, Polynomial, VarRing, change_ring

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
        return {
            "verdict": self.verdict,
            "seconds": self.seconds,
            "witness_index": self.witness_index,
            "witness": self.witness,
            "gb_pairs": self.gb_pairs,
            "gb_zero_reductions": self.gb_zero_reductions,
            "undecided_reason": self.undecided_reason,
            "note": self.note,
        }

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
    fast_path: bool = False
    field_equations_q: int | None = None
    checks: dict[str, CheckResult] = dataclass_field(default_factory=dict)
    group: bool | None = None
    group_alt: bool | None = None
    notes: list[str] = dataclass_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "field": self.field,
            "closure": self.closure,
            "num_generators": self.num_generators,
            "mode": self.mode,
            "fast_path": self.fast_path,
            "field_equations_q": self.field_equations_q,
            "checks": {name: res.to_dict() for name, res in self.checks.items()},
            "group": self.group,
            "group_alt": self.group_alt,
            "notes": list(self.notes),
        }

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


def new_report(problem: ProblemSpec, mode: str = "standard",
               fast_path: bool = False) -> DecisionReport:
    return DecisionReport(
        n=problem.n,
        field=problem.field.name,
        closure=closure_statement(problem),
        num_generators=len(problem.generators),
        mode=mode,
        fast_path=fast_path,
        field_equations_q=problem.field_equations_q,
    )


def identity_point(problem: ProblemSpec) -> list:
    """Coordinates of the identity matrix in ring variable order."""
    field = problem.field
    n = problem.n
    diagonal = {(i - 1) * n + i for i in range(1, n + 1)}
    return [field.one() if k in diagonal else field.zero()
            for k in range(1, n * n + 1)]


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
                               witness_index=idx, witness=str(f), note=note)
    return CheckResult(True, time.perf_counter() - start)


def _membership_worker(payload):
    f, base, budget = payload
    gb = GroebnerBasis(base, DEGREVLEX, GBStats())
    stats = GBStats()
    try:
        ok = radical_membership(f, base, DEGREVLEX, budget, base_gb=gb, stats=stats)
        return ("ok", ok, stats)
    except BudgetExhausted as exc:
        return ("undecided", str(exc), stats)


def _run_membership_tests(items, base_gb: GroebnerBasis, budget: Budget,
                          jobs: int, stats: GBStats):
    """Radical-membership tests for a batch of (index, image) pairs.

    Returns (verdict, witness_index, witness_image, undecided_reason);
    tests short-circuit on the first failure.  In parallel runs a
    failure anywhere wins over an undecided test, and a worker that
    raises makes its test undecided.
    """
    if jobs <= 1 or len(items) <= 1:
        for idx, f in items:
            try:
                ok = radical_membership(f, base_gb.basis, DEGREVLEX, budget,
                                        base_gb=base_gb, stats=stats)
            except BudgetExhausted as exc:
                return None, idx, f, str(exc)
            if not ok:
                return False, idx, f, None
        return True, None, None, None

    outcomes: dict[int, tuple] = {}
    # Under fork every worker starts with the pool, so more workers than
    # tests would only be forked to idle.
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        futures = {pool.submit(_membership_worker, (f, base_gb.basis, budget)): pos
                   for pos, (_, f) in enumerate(items)}
        remaining = set(futures)
        failed = False
        while remaining and not failed:
            done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for fut in done:
                try:
                    kind, value, wstats = fut.result()
                except Exception as exc:
                    kind, wstats = "undecided", GBStats()
                    value = (f"membership worker failed: "
                             f"{type(exc).__name__}: {exc}")
                stats.merge(wstats)
                outcomes[futures[fut]] = (kind, value)
                if kind == "ok" and value is False:
                    failed = True
        for fut in remaining:
            fut.cancel()
    # The loop stops early only after a failure, so without one every
    # test has an outcome.
    positions = sorted(outcomes)
    for pos in positions:
        if outcomes[pos] == ("ok", False):
            idx, f = items[pos]
            return False, idx, f, None
    for pos in positions:
        kind, value = outcomes[pos]
        if kind == "undecided":
            idx, f = items[pos]
            return None, idx, f, value
    return True, None, None, None


def _ideal(problem: ProblemSpec, name: str, budget: Budget, cache: dict | None,
           stats: GBStats):
    """The run's one Groebner computation for each ideal of the problem,
    kept in `cache` under the ideal's name:

    - "I": (ring, reduced basis) of the problem ideal;
    - "hat": (ring, reduced basis) of I + (x0*det(x) - 1), whose zero set
      is V*(I);
    - "I+det": whether 1 lies in I + (det(x)), that is, V(I) = V*(I).

    A computation's pairs count in `stats` only when it runs here.
    """
    if cache is not None and name in cache:
        return cache[name]
    if name == "I+det":
        gens = list(problem.generators) + [det_poly(problem.ring, "x")]
        value = contains_one(gens, DEGREVLEX, budget, ring=problem.ring,
                             stats=stats)
    else:
        if name == "hat":
            ring, gens = build_hat_ideal(problem)
        else:
            ring, gens = problem.ring, [f for f in problem.generators if f]
        value = ring, buchberger(gens, DEGREVLEX, budget, ring=ring,
                                 stats=stats)
    if cache is not None:
        cache[name] = value
    return value


def _product_base(problem: ProblemSpec, hats: bool, budget: Budget,
                  cache: dict, stats: GBStats):
    """Reduced basis of the doubled ideal J(x) + J(y), where J is the
    problem ideal, with the witness x0*det(x) - 1 when hats, and J(y) is
    its copy in the y block.

    The blocks share no variable, so the union of J's reduced basis and
    its renamed copy is already reduced: every cross pair has coprime
    leads (Buchberger's first criterion), no lead of one block divides a
    term of the other, and degrevlex restricted to either block is
    degrevlex with the same relative ranking.
    """
    ring = VarRing.matrix_ring(problem.n, problem.field, x0=hats, y=True,
                               y0=hats)
    _, block = _ideal(problem, "hat" if hats else "I", budget, cache, stats)
    if block.is_trivial:
        return ring, GroebnerBasis([ring.one()], DEGREVLEX, GBStats())
    basis = [change_ring(g, ring) for g in block.basis]
    basis.extend(to_y_block(g, ring) for g in block.basis)
    # Ascending leads, the order buchberger returns a reduced basis in:
    # the block basis already ascends, and degrevlex ranks every y lead
    # above every x lead of the same degree, so a stable sort by degree
    # interleaves the two copies.
    basis.sort(key=Polynomial.total_degree)
    return ring, GroebnerBasis(basis, DEGREVLEX, GBStats())


@dataclass(frozen=True)
class _ClosureCheck:
    """One closure check: the base ideal ("I" or "hat", doubled onto the
    x and y blocks or not) and the image of a generator in the base
    ring.  A row with a fast image has a fast path, which takes the base
    ideal I and the fast image when V(I) = V*(I)."""

    ideal: str
    doubled: bool
    image: Callable[[Polynomial, VarRing], Polynomial]
    fast_image: Callable[[Polynomial, VarRing], Polynomial] | None = None
    fast_note: str | None = None


# The images look up the matrices functions in this module's globals at
# call time, so a wrapper or stub bound to those names later is called.

def _padded_inverse_image(f: Polynomial, ring: VarRing) -> Polynomial:
    return make_k(eval_at_formal_inverse(f))


def _inverse_numerator_image(f: Polynomial, ring: VarRing) -> Polynomial:
    return change_ring(eval_at_formal_inverse(f).numerator, ring)


def _product_image(f: Polynomial, ring: VarRing) -> Polynomial:
    return subst_product(f, ring)


def _quotient_image(f: Polynomial, ring: VarRing) -> Polynomial:
    return subst_x_times_inverse_y(f, ring)


_NUMERATORS_NOTE = "fast path: testing numerators in the plain ideal"

_CLOSURE_CHECKS = {
    "inversion": _ClosureCheck("I", False, _padded_inverse_image,
                               _inverse_numerator_image, _NUMERATORS_NOTE),
    "inversion_alt": _ClosureCheck("hat", False, _inverse_numerator_image,
                                   _inverse_numerator_image, _NUMERATORS_NOTE),
    "multiplication": _ClosureCheck(
        "hat", True, _product_image, _product_image,
        "fast path: doubled ideal without invertibility witnesses"),
    "division": _ClosureCheck("hat", True, _quotient_image),
}


def _result(verdict, start: float, stats: GBStats, **fields) -> CheckResult:
    return CheckResult(verdict, time.perf_counter() - start,
                       gb_pairs=stats.pairs_processed,
                       gb_zero_reductions=stats.reductions_to_zero, **fields)


def _closure_check(name: str, problem: ProblemSpec, budget: Budget | None,
                   jobs: int, fast_path: bool, cache: dict | None) -> CheckResult:
    """Run the closure check `name` of `_CLOSURE_CHECKS`; the result is
    kept in `cache`.  Only the reported generator's image is rendered."""
    check = _CLOSURE_CHECKS[name]
    fast_path = fast_path and check.fast_image is not None
    key = (name, fast_path)
    if cache is not None and key in cache:
        return cache[key]
    start = time.perf_counter()
    gens = [(idx, f) for idx, f in enumerate(problem.generators, start=1) if f]
    if not gens:
        return CheckResult(True, time.perf_counter() - start)
    budget = budget or Budget()
    stats = GBStats()
    note = None
    try:
        use_fast = False
        if fast_path:
            use_fast = _ideal(problem, "I+det", budget, cache, stats)
            note = check.fast_note if use_fast \
                else "fast path requested but V(I) != V*(I)"
        ideal = "I" if use_fast else check.ideal
        if check.doubled:
            ring, base = _product_base(problem, ideal == "hat", budget, cache,
                                       stats)
        else:
            ring, base = _ideal(problem, ideal, budget, cache, stats)
        image = check.fast_image if use_fast else check.image
        items = [(idx, image(f, ring)) for idx, f in gens]
        verdict, index, witness, reason = _run_membership_tests(
            items, base, budget, jobs, stats)
        result = _result(verdict, start, stats, witness_index=index,
                         witness=None if witness is None else str(witness),
                         undecided_reason=reason, note=note)
    except BudgetExhausted as exc:
        result = _result(None, start, stats, undecided_reason=str(exc),
                         note=note)
    if cache is not None:
        cache[key] = result
    return result


def variety_equals_vstar(problem: ProblemSpec, *, budget: Budget | None = None,
                         _cache: dict | None = None) -> CheckResult:
    """Whether the variety has no singular points, i.e. equals its
    invertible part: 1 lies in the ideal extended by det."""
    start = time.perf_counter()
    stats = GBStats()
    try:
        value = _ideal(problem, "I+det", budget or Budget(), _cache, stats)
    except BudgetExhausted as exc:
        return _result(None, start, stats, undecided_reason=str(exc))
    return _result(value, start, stats)


def check_inversion(problem: ProblemSpec, *, budget: Budget | None = None,
                    jobs: int = 1, fast_path: bool = False,
                    _cache: dict | None = None) -> CheckResult:
    """Closure under inversion: for each generator f, the determinant
    padding k of f at the formal inverse must lie in the radical of the
    problem ideal."""
    return _closure_check("inversion", problem, budget, jobs, fast_path,
                          _cache)


def check_inversion_alt(problem: ProblemSpec, *, budget: Budget | None = None,
                        jobs: int = 1, fast_path: bool = False,
                        _cache: dict | None = None) -> CheckResult:
    """Closure under inversion, alternative form: the formal-inverse
    numerators must lie in the radical of the witness-extended ideal."""
    return _closure_check("inversion_alt", problem, budget, jobs, fast_path,
                          _cache)


def check_multiplication(problem: ProblemSpec, *, budget: Budget | None = None,
                         jobs: int = 1, fast_path: bool = False,
                         _cache: dict | None = None) -> CheckResult:
    """Closure under multiplication: each generator, rewritten at the
    product of the two generic matrices, must lie in the radical of the
    doubled ideal with both invertibility witnesses."""
    return _closure_check("multiplication", problem, budget, jobs, fast_path,
                          _cache)


def check_division(problem: ProblemSpec, *, budget: Budget | None = None,
                   jobs: int = 1, _cache: dict | None = None) -> CheckResult:
    """Closure under right division: each generator at x times the formal
    inverse of y must lie in the radical of the doubled witness ideal.
    Together with the identity check this already decides the group
    property."""
    return _closure_check("division", problem, budget, jobs, False, _cache)


# Group checks by command-line name: the report field of the verdict and
# the checks run in order until one is not decidedly true.
_GROUP_CHECKS = {
    "group": ("group", ("identity", "inversion", "multiplication")),
    "group-alt": ("group_alt", ("identity", "division")),
}

# Report names of the command-line checks that differ from them.
_REPORT_NAMES = {"vstar-eq": "variety_equals_vstar"}


def _run_checks(problem: ProblemSpec, checks, *, budget: Budget | None,
                jobs: int, fast_path: bool, cache: dict) -> DecisionReport:
    """Run command-line checks, in order, into one report.

    Each report check runs once.  The report is in "alt" mode exactly
    when `group-alt` is the only check; the fast path applies to the
    standard closure checks only.
    """
    report = new_report(problem, "alt" if list(checks) == ["group-alt"]
                        else "standard", fast_path)

    def run(name: str) -> CheckResult:
        if name not in report.checks:
            if name == "identity":
                report.checks[name] = check_identity(problem)
            elif name == "variety_equals_vstar":
                report.checks[name] = variety_equals_vstar(
                    problem, budget=budget, _cache=cache)
            else:
                report.checks[name] = _closure_check(name, problem, budget,
                                                     jobs, fast_path, cache)
        return report.checks[name]

    for check in checks:
        if check not in _GROUP_CHECKS:
            run(_REPORT_NAMES.get(check, check))
            continue
        verdict_field, steps = _GROUP_CHECKS[check]
        for name in steps:
            verdict = run(name).verdict
            if verdict is not True:
                break
        setattr(report, verdict_field, verdict)
        note = report.checks["identity"].note
        if note and note not in report.notes:
            report.notes.append(note)
    if fast_path and "group-alt" in checks:
        report.notes.append("fast path applies to the standard checks only")
    return report


def is_group(problem: ProblemSpec, *, budget: Budget | None = None,
             jobs: int = 1, fast_path: bool = False,
             _cache: dict | None = None) -> DecisionReport:
    """Identity, then inversion, then multiplication, short-circuiting at
    the first check that is not decidedly true.  An empty generator list
    yields true: the invertible part is then the whole general linear
    group."""
    return _run_checks(problem, ["group"], budget=budget, jobs=jobs,
                       fast_path=fast_path,
                       cache={} if _cache is None else _cache)


def is_group_alt(problem: ProblemSpec, *, budget: Budget | None = None,
                 jobs: int = 1, _cache: dict | None = None) -> DecisionReport:
    """Identity, then the fused closure-under-division check."""
    return _run_checks(problem, ["group-alt"], budget=budget, jobs=jobs,
                       fast_path=False, cache={} if _cache is None else _cache)


def add_field_equations(problem: ProblemSpec, q: int) -> ProblemSpec:
    """Restrict the variety to matrices over the field with q elements by
    adjoining x_k^q - x_k for every entry variable; q must be a power of
    the coefficient characteristic."""
    p = problem.field.characteristic
    if p == 0:
        raise ValueError("field equations require a prime coefficient field")
    remainder, t = q, 0
    while remainder > 1 and remainder % p == 0:
        remainder //= p
        t += 1
    if remainder != 1 or t < 1:
        raise ValueError(f"{q} is not a power of the field characteristic {p}")
    ring = problem.ring
    one = problem.field.one()
    neg_one = problem.field.neg(one)
    eqs = []
    for k in range(1, problem.n**2 + 1):
        idx = ring.index(f"x{k}")
        high = [0] * ring.arity
        high[idx] = q
        low = [0] * ring.arity
        low[idx] = 1
        eqs.append(Polynomial(ring, {tuple(high): one, tuple(low): neg_one},
                              _normalized=True))
    return replace(problem, generators=list(problem.generators) + eqs,
                   field_equations_q=q)
