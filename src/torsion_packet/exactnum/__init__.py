"""Exact arithmetic foundation: rationals, quadratic and cyclotomic fields.

``Rational`` is the stdlib ``fractions.Fraction``; it already satisfies
the canonical-form contract (lowest terms, positive denominator).
"""

from fractions import Fraction as Rational

from ..errors import ArithmeticInconsistencyError
from .cyclotomic import (
    CyclotomicElem,
    MinPoly,
    conductor_units,
    galois_apply,
    galois_orbit,
    inv_one_minus_zeta,
    minimal_polynomial,
)
from .polynomial import RationalPoly, cyclotomic_polynomial, divisors, euler_phi
from .quadratic import (
    QuadraticElem,
    quadratic_from_minpoly,
    real_display,
    real_value,
    squarefree_part,
)
from .signs import PRECISION_ENV, default_precision_bits, sign_of_real

__all__ = [
    "ArithmeticInconsistencyError",
    "CyclotomicElem",
    "MinPoly",
    "PRECISION_ENV",
    "QuadraticElem",
    "Rational",
    "RationalPoly",
    "conductor_units",
    "cyclotomic_polynomial",
    "default_precision_bits",
    "divisors",
    "euler_phi",
    "galois_apply",
    "galois_orbit",
    "inv_one_minus_zeta",
    "minimal_polynomial",
    "quadratic_from_minpoly",
    "real_display",
    "real_value",
    "sign_of_real",
    "squarefree_part",
]
