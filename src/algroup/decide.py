"""Decision procedures for whether the invertible part of a matrix
variety forms a group under multiplication.

The standard route runs three checks: the identity matrix satisfies
every generator; closure under inversion (each generator, pushed through
the formal inverse and padded with a determinant factor, lies in the
radical of the ideal); and closure under multiplication (each generator
at a product of two generic matrices lies in the radical of the doubled
ideal with both invertibility witnesses).  The doubled ideal's basis is
one block's basis joined with its copy in the other block, since the two
blocks share no variable.  The alternative route fuses the last two into
a single closure-under-division check.  All verdicts are exact and hold
over the algebraic closure of the coefficient field; computing over the
base field is sound because triviality of an ideal does not change under
field extension.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field as dataclass_field

from .fields import PrimeField
from .groebner import (Budget, BudgetExhausted, GBStats, GroebnerBasis,
                       buchberger, contains_one, radical_membership)
from .matrices import (build_hat_ideal, det_poly,
                       eval_at_formal_inverse, make_k, subst_product,
                       subst_x_times_inverse_y, to_y_block)
from .parsing import ProblemSpec
from .poly import DEGREVLEX, Polynomial, VarRing, change_ring

CHECK_NAMES = ("identity", "inversion", "multiplication", "division",
               "variety_equals_vstar")


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
        return ("budget", str(exc), stats)


def _run_membership_tests(items, base_gb: GroebnerBasis, budget: Budget,
                          jobs: int, stats: GBStats):
    """Radical-membership tests for a batch of (index, poly, witness).

    Returns (verdict, witness_index, witness_text, undecided_reason);
    tests short-circuit on the first failure.
    """
    if jobs <= 1 or len(items) <= 1:
        for idx, f, witness in items:
            try:
                ok = radical_membership(f, base_gb.basis, DEGREVLEX, budget,
                                        base_gb=base_gb, stats=stats)
            except BudgetExhausted as exc:
                return None, idx, witness, str(exc)
            if not ok:
                return False, idx, witness, None
        return True, None, None, None

    payloads = [(f, base_gb.basis, budget) for _, f, _ in items]
    outcomes: dict[int, tuple] = {}
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(_membership_worker, payload): pos
                   for pos, payload in enumerate(payloads)}
        remaining = set(futures)
        failed = False
        while remaining:
            done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for fut in done:
                pos = futures[fut]
                kind, value, wstats = fut.result()
                stats.merge(wstats)
                outcomes[pos] = (kind, value)
                if kind == "ok" and value is False:
                    failed = True
            if failed:
                for fut in remaining:
                    fut.cancel()
                break
    failing = sorted(pos for pos, (kind, value) in outcomes.items()
                     if kind == "ok" and value is False)
    if failing:
        idx, _, witness = items[failing[0]]
        return False, idx, witness, None
    budgeted = sorted(pos for pos, (kind, _) in outcomes.items() if kind == "budget")
    if budgeted or len(outcomes) < len(items):
        if budgeted:
            pos = budgeted[0]
            idx, _, witness = items[pos]
            return None, idx, witness, outcomes[pos][1]
        return None, None, None, "cancelled"
    return True, None, None, None


def _finish(result_args, stats: GBStats, start: float, **extra) -> CheckResult:
    verdict, widx, witness, reason = result_args
    return CheckResult(verdict, time.perf_counter() - start,
                       witness_index=widx, witness=witness,
                       gb_pairs=stats.pairs_processed,
                       gb_zero_reductions=stats.reductions_to_zero,
                       undecided_reason=reason, **extra)


def _memoized(cache: dict | None, key):
    if cache is not None and key in cache:
        return cache[key]
    return None


def _memoize(cache: dict | None, key, result: CheckResult) -> CheckResult:
    if cache is not None:
        cache[key] = result
    return result


def _nonzero_generators(problem: ProblemSpec):
    return [(idx, f) for idx, f in enumerate(problem.generators, start=1) if f]


def _cached_gb(cache: dict, key, gens, ring: VarRing, budget: Budget,
               stats: GBStats) -> GroebnerBasis:
    gb = cache.get(key) if cache is not None else None
    if gb is None:
        gb = buchberger(gens, DEGREVLEX, budget, ring=ring, stats=stats)
        if cache is not None:
            cache[key] = gb
    return gb


def _vstar_equals_v(problem: ProblemSpec, budget: Budget, cache: dict,
                    stats: GBStats) -> bool:
    key = "vstar"
    if cache is not None and key in cache:
        return cache[key]
    det = det_poly(problem.ring, "x")
    value = contains_one(list(problem.generators) + [det], DEGREVLEX, budget,
                         ring=problem.ring, stats=stats)
    if cache is not None:
        cache[key] = value
    return value


def variety_equals_vstar(problem: ProblemSpec, *, budget: Budget | None = None,
                         _cache: dict | None = None) -> CheckResult:
    """Whether the variety has no singular points, i.e. equals its
    invertible part: 1 lies in the ideal extended by det."""
    cached = _memoized(_cache, "res_vstar")
    if cached is not None:
        return cached
    budget = budget or Budget()
    stats = GBStats()
    start = time.perf_counter()
    try:
        value = _vstar_equals_v(problem, budget, _cache, stats)
    except BudgetExhausted as exc:
        return _finish((None, None, None, str(exc)), stats, start)
    return _memoize(_cache, "res_vstar",
                    _finish((value, None, None, None), stats, start))


def check_inversion(problem: ProblemSpec, *, budget: Budget | None = None,
                    jobs: int = 1, fast_path: bool = False,
                    _cache: dict | None = None) -> CheckResult:
    """Closure under inversion: for each generator f, the determinant
    padding k of f at the formal inverse must lie in the radical of the
    problem ideal."""
    cached = _memoized(_cache, ("res_inversion", fast_path))
    if cached is not None:
        return cached
    budget = budget or Budget()
    stats = GBStats()
    start = time.perf_counter()
    note = None
    gens = _nonzero_generators(problem)
    if not gens:
        return CheckResult(True, time.perf_counter() - start)
    try:
        use_fast = False
        if fast_path:
            use_fast = _vstar_equals_v(problem, budget, _cache, stats)
            note = ("fast path: testing numerators in the plain ideal"
                    if use_fast else "fast path requested but V(I) != V*(I)")
        base_gb = _cached_gb(_cache, "gb_I", [f for _, f in gens], problem.ring,
                             budget, stats)
        items = []
        for idx, f in gens:
            img = eval_at_formal_inverse(f)
            witness_poly = img.numerator if use_fast else make_k(img)
            items.append((idx, witness_poly, str(witness_poly)))
    except BudgetExhausted as exc:
        return _finish((None, None, None, str(exc)), stats, start, note=note)
    outcome = _run_membership_tests(items, base_gb, budget, jobs, stats)
    return _memoize(_cache, ("res_inversion", fast_path),
                    _finish(outcome, stats, start, note=note))


def check_inversion_alt(problem: ProblemSpec, *, budget: Budget | None = None,
                        jobs: int = 1, fast_path: bool = False,
                        _cache: dict | None = None) -> CheckResult:
    """Closure under inversion, alternative form: the formal-inverse
    numerators must lie in the radical of the witness-extended ideal."""
    cached = _memoized(_cache, ("res_inversion_alt", fast_path))
    if cached is not None:
        return cached
    budget = budget or Budget()
    stats = GBStats()
    start = time.perf_counter()
    note = None
    gens = _nonzero_generators(problem)
    if not gens:
        return CheckResult(True, time.perf_counter() - start)
    try:
        use_fast = False
        if fast_path:
            use_fast = _vstar_equals_v(problem, budget, _cache, stats)
            note = ("fast path: testing numerators in the plain ideal"
                    if use_fast else "fast path requested but V(I) != V*(I)")
        if use_fast:
            base_gb = _cached_gb(_cache, "gb_I", [f for _, f in gens],
                                 problem.ring, budget, stats)
            items = []
            for idx, f in gens:
                h = eval_at_formal_inverse(f).numerator
                items.append((idx, h, str(h)))
        else:
            hat_ring, hat_gens = build_hat_ideal(problem)
            base_gb = _cached_gb(_cache, "gb_hat", hat_gens, hat_ring, budget,
                                 stats)
            items = []
            for idx, f in gens:
                h = change_ring(eval_at_formal_inverse(f).numerator, hat_ring)
                items.append((idx, h, str(h)))
    except BudgetExhausted as exc:
        return _finish((None, None, None, str(exc)), stats, start, note=note)
    outcome = _run_membership_tests(items, base_gb, budget, jobs, stats)
    return _memoize(_cache, ("res_inversion_alt", fast_path),
                    _finish(outcome, stats, start, note=note))


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
    if hats:
        block_ring, block_gens = build_hat_ideal(problem)
        block = _cached_gb(cache, "gb_hat", block_gens, block_ring, budget,
                           stats)
    else:
        block = _cached_gb(cache, "gb_I", [f for f in problem.generators if f],
                           problem.ring, budget, stats)
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


def check_multiplication(problem: ProblemSpec, *, budget: Budget | None = None,
                         jobs: int = 1, fast_path: bool = False,
                         _cache: dict | None = None) -> CheckResult:
    """Closure under multiplication: each generator, rewritten at the
    product of the two generic matrices, must lie in the radical of the
    doubled ideal with both invertibility witnesses."""
    cached = _memoized(_cache, ("res_multiplication", fast_path))
    if cached is not None:
        return cached
    budget = budget or Budget()
    stats = GBStats()
    start = time.perf_counter()
    note = None
    gens = _nonzero_generators(problem)
    if not gens:
        return CheckResult(True, time.perf_counter() - start)
    try:
        use_fast = False
        if fast_path:
            use_fast = _vstar_equals_v(problem, budget, _cache, stats)
            note = ("fast path: doubled ideal without invertibility witnesses"
                    if use_fast else "fast path requested but V(I) != V*(I)")
        ring, base_gb = _product_base(problem, not use_fast, budget, _cache,
                                      stats)
        items = []
        for idx, f in gens:
            g = subst_product(f, ring)
            items.append((idx, g, str(g)))
    except BudgetExhausted as exc:
        return _finish((None, None, None, str(exc)), stats, start, note=note)
    outcome = _run_membership_tests(items, base_gb, budget, jobs, stats)
    return _memoize(_cache, ("res_multiplication", fast_path),
                    _finish(outcome, stats, start, note=note))


def check_division(problem: ProblemSpec, *, budget: Budget | None = None,
                   jobs: int = 1, _cache: dict | None = None) -> CheckResult:
    """Closure under right division: each generator at x times the formal
    inverse of y must lie in the radical of the doubled witness ideal.
    Together with the identity check this already decides the group
    property."""
    cached = _memoized(_cache, "res_division")
    if cached is not None:
        return cached
    budget = budget or Budget()
    stats = GBStats()
    start = time.perf_counter()
    gens = _nonzero_generators(problem)
    if not gens:
        return CheckResult(True, time.perf_counter() - start)
    try:
        ring, base_gb = _product_base(problem, True, budget, _cache, stats)
        items = []
        for idx, f in gens:
            g = subst_x_times_inverse_y(f, ring)
            items.append((idx, g, str(g)))
    except BudgetExhausted as exc:
        return _finish((None, None, None, str(exc)), stats, start)
    outcome = _run_membership_tests(items, base_gb, budget, jobs, stats)
    return _memoize(_cache, "res_division", _finish(outcome, stats, start))


def is_group(problem: ProblemSpec, *, budget: Budget | None = None,
             jobs: int = 1, fast_path: bool = False,
             _cache: dict | None = None) -> DecisionReport:
    """Identity, then inversion, then multiplication, short-circuiting at
    the first check that is not decidedly true.  An empty generator list
    yields true: the invertible part is then the whole general linear
    group."""
    cache: dict = {} if _cache is None else _cache
    report = new_report(problem, "standard", fast_path)
    identity = check_identity(problem)
    report.checks["identity"] = identity
    if identity.note:
        report.notes.append(identity.note)
    if identity.verdict is not True:
        report.group = identity.verdict
        return report
    inversion = check_inversion(problem, budget=budget, jobs=jobs,
                                fast_path=fast_path, _cache=cache)
    report.checks["inversion"] = inversion
    if inversion.verdict is not True:
        report.group = inversion.verdict
        return report
    multiplication = check_multiplication(problem, budget=budget, jobs=jobs,
                                          fast_path=fast_path, _cache=cache)
    report.checks["multiplication"] = multiplication
    report.group = multiplication.verdict
    return report


def is_group_alt(problem: ProblemSpec, *, budget: Budget | None = None,
                 jobs: int = 1, _cache: dict | None = None) -> DecisionReport:
    """Identity, then the fused closure-under-division check."""
    cache: dict = {} if _cache is None else _cache
    report = new_report(problem, "alt")
    identity = check_identity(problem)
    report.checks["identity"] = identity
    if identity.note:
        report.notes.append(identity.note)
    if identity.verdict is not True:
        report.group_alt = identity.verdict
        return report
    division = check_division(problem, budget=budget, jobs=jobs, _cache=cache)
    report.checks["division"] = division
    report.group_alt = division.verdict
    return report


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
    return ProblemSpec(problem.n, problem.field,
                       list(problem.generators) + eqs, ring, problem.source)
