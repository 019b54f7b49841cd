"""Exact difference-radical calculus for polynomials over quadratic towers.

The package computes the kappa-difference radical of a polynomial, checks
the degree bounds it implies for coprime polynomial sums, and verifies the
consequences for factorial-polynomial power equations and zero-counting
divisors.  All arithmetic is exact.  The integrated counts N(r) are
enclosed by integer pairs, and floating point appears only in their last
step: each enclosure is rounded to a reported value and an error bound.
check_truncation's integrated verdict (N_holds) is still a float test on
those values, with the error bounds as slack.
"""

from .divisor import (
    CountingValue,
    Divisor,
    N_integrated,
    N_tilde_q_integrated,
    check_ord_inequality,
    check_truncation,
    divisor_of,
    factorial_divisor,
    n_count,
    n_tilde_q,
    shift_divisor,
)
from .errors import (
    DependentInputsError,
    NonPositiveMultiplicityError,
    NonRealRadicandError,
    NotDivisibleError,
    ParseError,
    SquareRadicandError,
    TowerDepthError,
    ZeroPolynomialError,
    ZeroRadicandError,
    ZeroShiftError,
    ZeroSumError,
)
from .fermat import (
    FermatBound,
    FermatInstance,
    Form,
    check_fermat_theorem,
    factorial_poly,
    fermat_bound,
    verify_fermat,
)
from .field import FieldElement, FieldTower, compare_real, default_tower
from .mason import (
    casoratian,
    check_mason_multi,
    check_mason_triple,
    linearly_independent,
    pairwise_coprime,
    setwise_coprime,
)
from .parser import (
    parse_constant,
    parse_factored,
    parse_poly,
    print_element,
    print_factored,
    print_poly,
)
from .poly import FactoredPoly, Polynomial, gcd, multi_gcd, shift_gcd_factor
from .radical import (
    RadicalResult,
    classical_radical,
    diff_radical,
    diff_radical_from_roots,
    diff_radical_m,
    n_tilde,
    n_tilde_sum_bound,
)
from .report import CheckReport, Hypothesis, Statement

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "CountingValue",
    "DependentInputsError",
    "Divisor",
    "FactoredPoly",
    "FermatBound",
    "FermatInstance",
    "FieldElement",
    "FieldTower",
    "Form",
    "Hypothesis",
    "N_integrated",
    "N_tilde_q_integrated",
    "NonPositiveMultiplicityError",
    "NonRealRadicandError",
    "NotDivisibleError",
    "ParseError",
    "Polynomial",
    "RadicalResult",
    "SquareRadicandError",
    "Statement",
    "TowerDepthError",
    "ZeroPolynomialError",
    "ZeroRadicandError",
    "ZeroShiftError",
    "ZeroSumError",
    "casoratian",
    "check_fermat_theorem",
    "check_mason_multi",
    "check_mason_triple",
    "check_ord_inequality",
    "check_truncation",
    "classical_radical",
    "compare_real",
    "default_tower",
    "diff_radical",
    "diff_radical_from_roots",
    "diff_radical_m",
    "divisor_of",
    "factorial_divisor",
    "factorial_poly",
    "fermat_bound",
    "gcd",
    "linearly_independent",
    "multi_gcd",
    "n_count",
    "n_tilde",
    "n_tilde_q",
    "n_tilde_sum_bound",
    "pairwise_coprime",
    "parse_constant",
    "parse_factored",
    "parse_poly",
    "print_element",
    "print_factored",
    "print_poly",
    "setwise_coprime",
    "shift_gcd_factor",
    "verify_fermat",
]
