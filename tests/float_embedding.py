"""A floating-point embedding of cyclotomic elements, for sanity cross-checks.

The package decides nothing in floating point on a cyclotomic element;
this helper lives with the tests that compare exact values to floats.
"""

import math

from torsion_packet.exactnum import CyclotomicElem


def complex_embedding(e: CyclotomicElem) -> complex:
    """Floating-point value of ``e`` under zeta_m -> exp(2*pi*i/m)."""
    total = 0j
    for j, c in enumerate(e.coeffs):
        if c:
            angle = 2.0 * math.pi * j / e.m
            total += float(c) * complex(math.cos(angle), math.sin(angle))
    return total
