"""Exact arithmetic foundation: quadratic and cyclotomic fields.

Rationals are the stdlib ``fractions.Fraction``, which already keeps values
in lowest terms with a positive denominator.
"""

from ..errors import ArithmeticInconsistencyError
from .cyclotomic import (
    CyclotomicElem,
    MinPoly,
    conductor_units,
    galois_apply,
    i_tan,
    inv_one_minus_zeta,
    minimal_polynomial,
    tan_conductor,
)
from .polynomial import cyclotomic_int_coeffs
from .quadratic import (
    QuadraticElem,
    real_display,
    real_value,
    squarefree_part,
)
from .signs import sign_of_real
