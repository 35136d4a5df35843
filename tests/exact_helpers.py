"""Exact cyclotomic values that only the tests need.

The package builds i*tan in Cayley form and never tan, sin or an element
moved into a larger field; the tests that check those forms build them
here, from the public API.  The stratum-2 limit differential at a point is
here too: the package checks its closed form in integers only.
"""

import math
from fractions import Fraction

from torsion_packet import tanratio
from torsion_packet.exactnum import CyclotomicElem
from torsion_packet.tanratio import TangentRatio, i_tan


def classified_ratio(alpha: tuple[int, int], beta: tuple[int, int]) -> TangentRatio:
    """``ratio(alpha, beta)`` of the angles as reduced pairs (p, q),
    classified on its own, as the representative of its orbit: the per-pair
    oracle of the stabilizer and the minimal polynomial that
    ``tanratio.classify`` computes once per orbit."""
    t = tanratio.ratio(alpha, beta)
    t.stabilizer = tanratio._stabilizer(*alpha, *beta, None)
    t.orbit = (t, False, False)
    return t


def conductor(angle: Fraction) -> int:
    """Conductor lcm(4, 2q) of the cyclotomic field holding tan(pi * p/q)."""
    return math.lcm(4, 2 * angle.denominator)


def embed(e: CyclotomicElem, m2: int) -> CyclotomicElem:
    """``e`` in Q(zeta_m2), m2 a multiple of its conductor m: the sum of
    c_j * zeta(m2, j*m2/m) over its coordinates c_j."""
    if m2 % e.m:
        raise ValueError(f"{m2} is not a multiple of the conductor {e.m}")
    step = m2 // e.m
    out = CyclotomicElem.zero(m2)
    for j, c in enumerate(e.coeffs):
        if c:
            out = out + c * CyclotomicElem.zeta(m2, j * step)
    return out


def tan_of(angle: Fraction) -> CyclotomicElem:
    """tan(pi * angle) as an element of Q(zeta_lcm(4, 2q)): -i = zeta_m^(3m/4)
    times the Cayley form i*tan.  It is real and positive."""
    m = conductor(angle)
    return CyclotomicElem.zeta(m, 3 * m // 4) * i_tan(m, m * angle.numerator // angle.denominator)


def sin_of(angle: Fraction) -> CyclotomicElem:
    """sin(pi * angle) = (zeta^p - zeta^-p) / (2i) in Q(zeta_lcm(4, 2q))."""
    m = conductor(angle)
    a = angle.numerator * (m // (2 * angle.denominator))
    i = CyclotomicElem.zeta(m, m // 4)
    diff = CyclotomicElem.zeta(m, a) - CyclotomicElem.zeta(m, -a)
    return diff * (-i) / 2


def check_addition_formula(x: Fraction, y: Fraction) -> bool:
    """Exact check of tan(pi(x+y)/2)/tan(pi(x-y)/2) = (s+1)/(s-1), s = sin(pi x)/sin(pi y).

    Requires x > y so that the half-difference angle avoids the zero of
    the tangent.  The left side is the one-product ratio of two Cayley
    forms, as for mu; the sines are A/(2i), B/(2i) with A = z_x - 1/z_x,
    B = z_y - 1/z_y for z = exp(i*pi*angle), so the right side is
    (A + B)/(A - B).  Both live in one common cyclotomic field and are
    compared after clearing A - B, so the result is exact.
    """
    if not y < x:
        raise ValueError(f"need x > y, got x = {x}, y = {y}")
    half_sum, half_diff = (x + y) / 2, (x - y) / 2
    m = math.lcm(*map(conductor, (x, y, half_sum, half_diff)))
    e_sum = m * half_sum.numerator // half_sum.denominator
    e_diff = m * half_diff.numerator // half_diff.denominator
    lhs = i_tan(m, e_sum) * i_tan(m, e_diff + m // 2)
    ax = x.numerator * (m // (2 * x.denominator))
    ay = y.numerator * (m // (2 * y.denominator))
    big_a = CyclotomicElem.zeta(m, ax) - CyclotomicElem.zeta(m, -ax)
    big_b = CyclotomicElem.zeta(m, ay) - CyclotomicElem.zeta(m, -ay)
    return lhs * (big_a - big_b) == big_a + big_b


def stratum2_limit_differential(x, y):
    """The stratum-2 generator at the point (x, y), written out apart from
    the closed-form strings: residues (y/x, -y/x, -1, 1) at (x, -x, y, -y)."""
    one = x - x + 1
    return y / x, -y / x, -one, one
