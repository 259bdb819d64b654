"""algroup: decide whether the invertible matrices in a polynomial
variety form a group under matrix multiplication, with exact arithmetic
over Q or a prime field."""

from .decide import (CheckResult, DecisionReport, add_field_equations,
                     check_division, check_identity, check_inversion,
                     check_inversion_alt, check_multiplication, is_group,
                     is_group_alt, run_checks, variety_equals_vstar)
from .fields import PrimeField, QQ, RationalField, is_prime
from .groebner import (Budget, BudgetExhausted, GBStats, GroebnerBasis,
                       buchberger, contains_one, normal_form,
                       radical_membership, s_polynomial)
from .matrices import (FormalInverseImage, build_f0, build_hat_ideal,
                       det_poly, eval_at_formal_inverse, subst_product,
                       subst_x_times_inverse_y, to_y_block)
from .oracle import (BruteForceVerdict, EnumerationBudgetError, VarietySet,
                     enumerate_variety, inversion_closed, is_group_bruteforce,
                     multiplication_closed)
from .parsing import (ParseError, ProblemSpec, load_problem, parse_poly,
                      parse_problem)
from .poly import Polynomial, VarRing, change_ring, render

__version__ = "0.1.0"

__all__ = [
    "Budget", "BudgetExhausted", "BruteForceVerdict", "CheckResult",
    "DecisionReport", "EnumerationBudgetError", "FormalInverseImage",
    "GBStats", "GroebnerBasis", "ParseError", "Polynomial", "PrimeField",
    "ProblemSpec", "QQ", "RationalField", "VarRing", "VarietySet",
    "add_field_equations", "buchberger", "build_f0", "build_hat_ideal",
    "change_ring", "check_division", "check_identity", "check_inversion",
    "check_inversion_alt", "check_multiplication", "contains_one",
    "det_poly", "enumerate_variety", "eval_at_formal_inverse",
    "inversion_closed", "is_group", "is_group_alt", "is_group_bruteforce",
    "is_prime", "load_problem", "multiplication_closed", "normal_form",
    "parse_poly", "parse_problem", "radical_membership", "render",
    "run_checks", "s_polynomial", "subst_product",
    "subst_x_times_inverse_y", "to_y_block", "variety_equals_vstar",
]
