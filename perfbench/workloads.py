"""The benchmark's workloads: seeded input generators and reference verdicts.

Each workload turns a seed into a list of batches.  A batch is a list of
jobs with a composition that does not depend on the seed, so a run that
decides whole batches measures the same mix on every seed; the seed only
changes the concrete inputs and their order.  The order is shuffled so
that decisions of similar cost are spread over the run and each timing
metric averages over the drift of the machine's speed.  A job is one
`algroup decide` invocation: the `.alg` text, the flags, and where its
reference verdict comes from.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import mpoly


@dataclass(frozen=True)
class Job:
    """One decision: the program receives `text` and `args` only."""

    label: str
    text: str
    args: tuple
    # (report key, verdict) pairs known by construction; None means the
    # brute-force oracle supplies the reference.
    expect: tuple | None
    # Input properties whose share of the decisions each run reports.
    tags: frozenset


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    # Batches made at set-up, and the batches a traced run always
    # completes, whose exact counts must repeat between runs of one seed.
    setup_batches: int
    exact_batches: int
    # The tail latency percentile: fixed per workload so that it does not
    # move with the number of decisions a run makes, and chosen so that a
    # run on the reference machine has at least 10 samples beyond it.
    tail_percentile: float

    def batches(self, seed: int) -> list[list[Job]]:
        return _GENERATORS[self.name](self, seed)


# fp-fieldeq -----------------------------------------------------------------

FP_CHECKS = ("identity", "inversion", "multiplication", "vstar-eq")
FP_KEYS = ("identity", "inversion", "multiplication", "variety_equals_vstar")


def fp_generators(rng: random.Random, p: int, max_gens: int, max_terms: int,
                  max_degree: int) -> list[dict]:
    """The random 2x2 family of the test suite's oracle fuzzing
    (`random_matrix_problem` in tests/conftest.py), coefficients in
    [1, p).  The draws follow the same sequence as that family."""
    gens = []
    for _ in range(rng.randint(0, max_gens)):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * 4
            for _ in range(rng.randint(0, max_degree)):
                exps[rng.randrange(4)] += 1
            terms[tuple(exps)] = rng.randrange(1, p)
        gens.append(terms)
    return gens


def _fp_classify(p: int, gens: list[dict]) -> tuple[bool, int]:
    """(multiplication closed, number of invertible points) of the 2x2
    variety over F_p.  With field equations the F_p points are the whole
    variety, so the first is the multiplication verdict.  Computed here,
    without the program, only to shape the batches."""
    def value(g, m):
        total = 0
        for exps, c in g.items():
            for v, e in zip(m, exps):
                c *= v ** e
            total += c
        return total % p

    points = {m for m in itertools.product(range(p), repeat=4)
              if all(value(g, m) == 0 for g in gens)}
    inv = [m for m in points if (m[0] * m[3] - m[1] * m[2]) % p]
    for a in inv:
        for b in inv:
            prod = ((a[0] * b[0] + a[1] * b[2]) % p, (a[0] * b[1] + a[1] * b[3]) % p,
                    (a[2] * b[0] + a[3] * b[2]) % p, (a[2] * b[1] + a[3] * b[3]) % p)
            if prod not in points:
                return False, len(inv)
    return True, len(inv)


def _fp_batches(wl: Workload, seed: int) -> list[list[Job]]:
    rng = random.Random(seed)
    per_field = wl.params["problems_per_field_per_batch"]
    args = tuple(a for c in FP_CHECKS for a in ("--check", c))
    out = []
    for b in range(wl.setup_batches):
        batch = []
        for p in wl.params["primes"]:
            # Draw from the family, keeping the batch's count of false
            # multiplication checks at the family's rate.
            false_left = wl.params["multiplication_false_per_field"][str(p)]
            true_left = per_field - false_left
            while false_left or true_left:
                gens = fp_generators(rng, p, wl.params["max_gens"],
                                     wl.params["max_terms"],
                                     wl.params["max_degree"])
                closed, invertible = _fp_classify(p, gens)
                if not closed and invertible > wl.params["max_invertible_points_if_not_closed"]:
                    continue  # left out: see the workload notes
                if closed and true_left:
                    true_left -= 1
                elif not closed and false_left:
                    false_left -= 1
                else:
                    continue
                batch.append(Job(
                    label=f"fp-fieldeq/b{b}/{len(batch)}/F{p}",
                    text=mpoly.problem_text(2, f"F {p}", gens),
                    args=args + ("--field-equations", str(p)),
                    expect=None, tags=frozenset({f"F{p}"})))
        rng.shuffle(batch)  # spread similar decisions over the run
        out.append(batch)
    return out


# Catalogs over Q ------------------------------------------------------------

def _x(n):
    return [[mpoly.var(n, i, j) for j in range(n)] for i in range(n)]


def _c(n, v):
    return mpoly.const(n, v)


def _off_diagonal(n):
    X = _x(n)
    return [X[i][j] for i in range(n) for j in range(n) if i != j]


def _lower(n):
    X = _x(n)
    return [X[i][j] for i in range(n) for j in range(n) if i > j]


def _diag_minus_one(n):
    X = _x(n)
    return [mpoly.sub(X[i][i], _c(n, 1)) for i in range(n)]


def _det(n, X):
    if n == 1:
        return X[0][0]
    acc = {}
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in X[1:]]
        term = mpoly.mul(X[0][j], _det(n - 1, minor))
        acc = mpoly.add(acc, term if j % 2 == 0 else mpoly.scale(term, -1))
    return acc


def _orthogonal(n):
    """X^T X = I."""
    X = _x(n)
    gens = []
    for a in range(n):
        for b in range(a, n):
            dot = mpoly.add(*[mpoly.mul(X[k][a], X[k][b]) for k in range(n)])
            gens.append(mpoly.sub(dot, _c(n, 1)) if a == b else dot)
    return gens


def _diag_point_roots(n, root_poly):
    """diag(l, 1, ..., 1) with root_poly(l) = 0."""
    X = _x(n)
    rest = [mpoly.sub(X[i][i], _c(n, 1)) for i in range(1, n)]
    return _off_diagonal(n) + rest + [root_poly(X[0][0])]


def _lin(n, coeffs):
    """Linear form sum c_k x_k over the entries, coeffs indexed from 1."""
    out = {}
    for k, c in coeffs.items():
        i, j = divmod(k - 1, n)
        out = mpoly.add(out, mpoly.scale(mpoly.var(n, i, j), c))
    return out


def _q_catalog():
    """(name, n, is a group, generators).  Groups and non-groups whose
    verdict follows from the definition of the set."""
    X2, X3 = _x(2), _x(3)
    a, b, c, d = X2[0][0], X2[0][1], X2[1][0], X2[1][1]
    cat = [
        ("torus", 2, True, _off_diagonal(2)),
        ("borel", 2, True, _lower(2)),
        ("unipotent", 2, True, _lower(2) + _diag_minus_one(2)),
        ("sl", 2, True, [mpoly.sub(_det(2, X2), _c(2, 1))]),
        ("so2", 2, True, [mpoly.sub(a, d), mpoly.add(b, c),
                          mpoly.sub(mpoly.add(mpoly.mul(a, a), mpoly.mul(c, c)),
                                    _c(2, 1))]),
        ("o2", 2, True, _orthogonal(2)),
        ("mu3", 2, True, _diag_point_roots(
            2, lambda t: mpoly.sub(mpoly.power(t, 3, 2), _c(2, 1)))),
        # problems/diag-antidiag.alg: its invertible part is the torus.
        ("diag-antidiag", 2, True,
         [c, mpoly.mul(b, mpoly.sub(mpoly.mul(b, d), _c(2, 1))), mpoly.mul(a, b)]),
        # problems/fourth-roots.alg: three points, not closed under products.
        ("fourth-roots", 2, False, _diag_point_roots(
            2, lambda t: mpoly.mul(mpoly.sub(t, _c(2, 1)),
                                   mpoly.add(mpoly.mul(t, t), _c(2, 1))))),
        # problems/cubic-roots.alg on the first diagonal entry: {1, +-sqrt 2}.
        ("cubic-roots", 2, False, _diag_point_roots(
            2, lambda t: mpoly.mul(mpoly.sub(t, _c(2, 1)),
                                   mpoly.sub(mpoly.mul(t, t), _c(2, 2))))),
        # diag(1 + s, 1 - s): an affine line through the identity.
        ("affine-line", 2, False,
         _off_diagonal(2) + [mpoly.sub(mpoly.add(a, d), _c(2, 2))]),
        # Equal diagonal entries: closed under inverses, not under products.
        ("equal-diagonal", 2, False, [mpoly.sub(a, d)]),
        ("torus", 3, True, _off_diagonal(3)),
        ("borel", 3, True, _lower(3)),
        ("unipotent", 3, True, _lower(3) + _diag_minus_one(3)),
        ("sl", 3, True, [mpoly.sub(_det(3, X3), _c(3, 1))]),
        ("o3", 3, True, _orthogonal(3)),
        # GL(1) x GL(2) block diagonal.
        ("block", 3, True, [X3[0][1], X3[0][2], X3[1][0], X3[2][0]]),
        # SO(2) on the first two coordinates, fixing the third.
        ("so2-block", 3, True,
         [mpoly.sub(X3[0][0], X3[1][1]), mpoly.add(X3[0][1], X3[1][0]),
          mpoly.sub(mpoly.add(mpoly.mul(X3[0][0], X3[0][0]),
                              mpoly.mul(X3[1][0], X3[1][0])), _c(3, 1)),
          X3[0][2], X3[1][2], X3[2][0], X3[2][1],
          mpoly.sub(X3[2][2], _c(3, 1))]),
        # problems/linear-forms-3x3.alg.
        ("linear-forms", 3, True, [
            _lin(3, {1: 850, 2: -475, 3: -50, 4: 1496, 5: -836, 6: -88,
                     7: 238, 8: -133, 9: -14}),
            _lin(3, {1: 125, 2: -75, 3: 25, 4: 220, 5: -132, 6: 44, 7: 35,
                     8: -21, 9: 7})]),
        ("fourth-roots", 3, False, _diag_point_roots(
            3, lambda t: mpoly.mul(mpoly.sub(t, _c(3, 1)),
                                   mpoly.add(mpoly.mul(t, t), _c(3, 1))))),
        ("affine-line", 3, False,
         _off_diagonal(3) + [mpoly.sub(X3[1][1], _c(3, 1)),
                             mpoly.sub(mpoly.add(X3[0][0], X3[2][2]), _c(3, 2))]),
        # A single zero entry: not closed under products for n >= 3.
        ("zero-entry", 3, False, [X3[0][1]]),
        # problems/linear-forms-3x3-noid.alg: misses the identity.
        ("linear-forms-noid", 3, False, [
            _lin(3, {1: 22, 2: 77, 4: -6, 5: -21, 7: 48, 8: 168}),
            _lin(3, {7: 2, 8: 7}),
            _lin(3, {1: -14, 2: -49, 4: 4, 5: 14, 7: -28, 8: -98})]),
        # problems/linear-forms-3x3-noninv.alg: not closed under inverses.
        ("linear-forms-noninv", 3, False, [
            _lin(3, {1: -3, 3: 1, 7: -9, 9: 3}),
            _lin(3, {1: 52, 3: -16, 7: 169, 9: -52}),
            _lin(3, {4: 3, 6: -1})]),
    ]
    return cat


def _matmul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def conjugator_positions(n: int) -> list[tuple]:
    """The off-diagonal places of one row or one column: for n = 2 a
    single entry, for n = 3 the two non-diagonal entries of a row or a
    column (six sets)."""
    sets = set()
    for i in range(n):
        others = [j for j in range(n) if j != i]
        sets.add(tuple((i, j) for j in others))
        sets.add(tuple((j, i) for j in others))
    return sorted(sets)


def conjugator(positions: tuple, signs: tuple, n: int):
    """g in SL_n(Z) with g^-1: the identity plus signs at positions.  The
    places share a row or a column, so the transvections commute and
    g^-1 negates them."""
    g = [[int(r == c) for c in range(n)] for r in range(n)]
    ginv = [row[:] for row in g]
    for (r, c), s in zip(positions, signs):
        g[r][c], ginv[r][c] = s, -s
    if _matmul(g, ginv) != [[int(r == c) for c in range(n)] for r in range(n)]:
        raise AssertionError("conjugator inverse is wrong")
    return g, ginv


def conjugate(gens: list, n: int, g, ginv) -> list:
    """Generators of g S g^-1 from those of S: f(g^-1 Y g)."""
    Y = _x(n)
    images = []
    for i in range(n):
        for j in range(n):
            acc = {}
            for k in range(n):
                for l in range(n):
                    coef = ginv[i][k] * g[l][j]
                    if coef:
                        acc = mpoly.add(acc, mpoly.scale(Y[k][l], coef))
            images.append(acc)
    return [mpoly.substitute(f, images, n) for f in gens]


# (label suffix, check flag, report key)
ROUTES = (("group", "group", "group"), ("alt", "group-alt", "group_alt"))


def _route_jobs(label: str, text: str, is_group: bool, tags: set) -> list[Job]:
    """The problem decided twice: the standard and the division check."""
    jobs = []
    for route, check, key in ROUTES:
        jobs.append(Job(label=f"{label}/{route}", text=text,
                        args=("--check", check), expect=((key, is_group),),
                        tags=frozenset(tags)))
    return jobs


def _q_batches(wl: Workload, seed: int) -> list[list[Job]]:
    """Each catalog entry is conjugated once per place set of
    `conjugator_positions`, with random signs, so every batch covers the
    same shapes of g; O(3), whose decisions take seconds, gets one random
    shape per batch."""
    rng = random.Random(seed)
    catalog = _q_catalog()
    out = []
    for b in range(wl.setup_batches):
        batch = []
        for name, n, is_group, gens in catalog:
            shapes = conjugator_positions(n)
            if f"{name}-n{n}" in wl.params["one_random_shape"]:
                shapes = [rng.choice(shapes)]
            for positions in shapes:
                signs = tuple(rng.choice((-1, 1)) for _ in positions)
                g, ginv = conjugator(positions, signs, n)
                text = mpoly.problem_text(n, "Q", conjugate(gens, n, g, ginv))
                tags = {f"n{n}"} | (set() if is_group else {"non-group"})
                batch.extend(_route_jobs(
                    f"q-conjugates/b{b}/{name}-n{n}/g={g}", text, is_group,
                    tags))
        rng.shuffle(batch)  # spread similar decisions over the run
        out.append(batch)
    return out


# large-n ----------------------------------------------------------------------

def _large_family(name: str, n: int):
    """(is a group, quadratic, generators) of one family at dimension n."""
    X = _x(n)
    diag = [X[i][i] for i in range(n)]
    if name == "borel":
        return True, False, _lower(n)
    if name == "unipotent":
        return True, False, _lower(n) + _diag_minus_one(n)
    if name == "torus":
        return True, False, _off_diagonal(n)
    if name == "zero-entry":
        return False, False, [X[0][1]]
    if name == "diag-square-one":
        return True, True, _off_diagonal(n) + [
            mpoly.sub(mpoly.mul(t, t), _c(n, 1)) for t in diag]
    if name == "diag-one-two":
        return False, True, _off_diagonal(n) + [
            mpoly.mul(mpoly.sub(t, _c(n, 1)), mpoly.sub(t, _c(n, 2)))
            for t in diag]
    raise ValueError(name)


def _large_batches(wl: Workload, seed: int) -> list[list[Job]]:
    rng = random.Random(seed)
    out = []
    for b in range(wl.setup_batches):
        batch = []
        for n, families in wl.params["families"].items():
            n = int(n)
            for name in families:
                is_group, quadratic, gens = _large_family(name, n)
                # Scaling generators keeps the ideal.  Relabelling the
                # entries would not keep the cost: the single zero entry
                # at n=5 takes 0.3 s on the division route at x2 and 16 s
                # at other places.
                scale = wl.params["generator_scale"]
                gens = [mpoly.scale(f, rng.choice((-1, 1)) * rng.randint(1, scale))
                        for f in gens]
                text = mpoly.problem_text(n, "Q", gens)
                tags = {f"n{n}"} | ({"quadratic"} if quadratic else set())
                batch.extend(_route_jobs(f"large-n/b{b}/{name}-n{n}", text,
                                         is_group, tags))
        rng.shuffle(batch)  # spread similar decisions over the run
        out.append(batch)
    return out


_GENERATORS = {"fp-fieldeq": _fp_batches, "q-conjugates": _q_batches,
               "large-n": _large_batches}

WORKLOADS = {
    "fp-fieldeq": Workload(
        name="fp-fieldeq",
        params={"primes": [2, 3], "problems_per_field_per_batch": 25,
                # The family's rates over 20000 kept draws per field:
                # 40.0% over F_2 and 28.2% over F_3.
                "multiplication_false_per_field": {"2": 10, "3": 7},
                "max_gens": 3, "max_terms": 4, "max_degree": 2,
                "checks": list(FP_CHECKS), "field_equations": "p",
                # A false multiplication check on more invertible points
                # runs into seconds (only possible over F_3).
                "max_invertible_points_if_not_closed": 6},
        setup_batches=40, exact_batches=4, tail_percentile=98),
    "q-conjugates": Workload(
        name="q-conjugates",
        params={"catalog_size": len(_q_catalog()), "n": [2, 3],
                "conjugator": "identity with +-1 at the off-diagonal places "
                              "of one row or column",
                # O(3) takes ~3.5 s per decision, every other entry
                # under 0.7 s.
                "one_random_shape": ["o3-n3"], "routes": ["group", "group-alt"]},
        setup_batches=3, exact_batches=1, tail_percentile=95),
    "large-n": Workload(
        name="large-n",
        params={"families": {
            "4": ["borel", "unipotent", "torus", "zero-entry",
                  "diag-square-one", "diag-one-two"],
            "5": ["borel", "unipotent", "torus", "zero-entry"]},
            "generator_scale": 9,
            "routes": ["group", "group-alt"]},
        setup_batches=3, exact_batches=1, tail_percentile=75),
}


def observed(job: Job, report: dict) -> dict:
    """The verdicts a JSON report gives for the job's reference keys."""
    out = {}
    for key in (k for k, _ in job.expect) if job.expect else FP_KEYS:
        if key in ("group", "group_alt"):
            out[key] = report[key]
        else:
            check = report["checks"].get(key)
            out[key] = None if check is None else check["verdict"]
    return out
