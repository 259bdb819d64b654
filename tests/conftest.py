import pathlib

import pytest

from algroup import (Polynomial, PrimeField, ProblemSpec, VarRing, det_poly,
                     eval_at_formal_inverse, load_problem,
                     radical_membership)

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"


@pytest.fixture
def problems_dir():
    return PROBLEMS


@pytest.fixture
def problem():
    def load(name):
        return load_problem(PROBLEMS / name)
    return load


def random_matrix_problem(rng, p, n=2, max_gens=3, max_terms=4, max_degree=2):
    """Random generators over F_p for oracle cross-checks."""
    field = PrimeField(p)
    ring = VarRing.matrix_ring(n, field)
    gens = []
    for _ in range(rng.randint(0, max_gens)):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * ring.arity
            for _ in range(rng.randint(0, max_degree)):
                exps[rng.randrange(ring.arity)] += 1
            terms[tuple(exps)] = rng.randrange(1, p)
        gens.append(Polynomial(ring, terms))
    return ProblemSpec(n, field, gens, ring)


def padded_inverse_reference(spec):
    """Closure under inversion by the padded form, as (verdict, index of
    the first generator that fails): det*h in rad(I) for each generator
    f, with h the numerator of f at the formal inverse, I the ideal of
    the raw generators, and det and h expanded.  By the Nullstellensatz
    it holds exactly when h vanishes on V*(I)."""
    gens = [f for f in spec.generators if f]
    det = det_poly(spec.ring)
    for idx, f in enumerate(spec.generators, start=1):
        if f and not radical_membership(
                det * eval_at_formal_inverse(f).numerator, gens):
            return False, idx
    return True, None
