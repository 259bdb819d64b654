"""algroup: decide whether the invertible matrices in a polynomial
variety form a group under matrix multiplication, with exact arithmetic
over Q or a prime field."""

from .decide import (CheckResult, DecisionReport, add_field_equations,
                     check_division, check_identity, check_inversion,
                     check_multiplication, is_group, is_group_alt,
                     run_checks, variety_equals_vstar)
from .fields import PrimeField, QQ, RationalField, is_prime
from .groebner import (Budget, BudgetExhausted, GBStats, GroebnerBasis,
                       buchberger, contains_one, normal_form,
                       radical_membership)
from .matrices import det_poly
from .parsing import (ParseError, ProblemSpec, load_problem, parse_poly,
                      parse_problem)
from .poly import Polynomial, VarRing, change_ring, render

__version__ = "0.1.0"

# The brute-force oracle's names, imported on first use: a decision does
# not load the oracle.
_ORACLE_NAMES = {"BruteForceVerdict", "EnumerationBudgetError", "VarietySet",
                 "enumerate_variety", "inversion_closed",
                 "is_group_bruteforce", "multiplication_closed"}


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Budget", "BudgetExhausted", "BruteForceVerdict", "CheckResult",
    "DecisionReport", "EnumerationBudgetError", "GBStats", "GroebnerBasis",
    "ParseError", "Polynomial", "PrimeField", "ProblemSpec", "QQ",
    "RationalField", "VarRing", "VarietySet", "add_field_equations",
    "buchberger", "change_ring", "check_division",
    "check_identity", "check_inversion", "check_multiplication",
    "contains_one", "det_poly", "enumerate_variety", "inversion_closed",
    "is_group", "is_group_alt", "is_group_bruteforce", "is_prime",
    "load_problem", "multiplication_closed", "normal_form", "parse_poly",
    "parse_problem", "radical_membership", "render", "run_checks",
    "variety_equals_vstar",
]
