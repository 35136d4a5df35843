"""Exact cyclotomic values that only the tests need.

The package builds i*tan in Cayley form and never tan, sin or an element
moved into a larger field; the tests that check those forms build them
here, from the public API.  The stratum-2 limit differential at a point is
here too: the package checks its closed form in integers only.  So is the
reduced row echelon kernel basis: the package computes only the rank of
its condition rows, and the basis is the oracle for the closed forms it
certifies as generators.  So is the reset of the package's caches, for
the tests that need them empty.
"""

import functools
import math
import sys
from fractions import Fraction
from typing import Union

from torsion_packet import stablefiber, tanratio
from torsion_packet.exactnum import (
    CyclotomicElem,
    MinPoly,
    QuadraticElem,
    conductor_units,
    galois_apply,
    real_value,
)
from torsion_packet.tanratio import i_tan


def stabilizer(alpha: tuple[int, int], beta: tuple[int, int]) -> tuple[int, tuple[int, ...]]:
    """(degree, Stab) of ``ratio(alpha, beta)``, the angles as reduced pairs
    (p, q), certified for this pair on its own with no degree cap."""
    (pa, qa), (pb, qb) = tanratio.ratio(alpha, beta)
    return tanratio._stabilizer(pa, qa, pb, qb, None)[:2]


def classified_ratio(
    alpha: tuple[int, int], beta: tuple[int, int]
) -> tuple[tuple[int, tuple[int, ...]], MinPoly]:
    """(stabilizer, minimal polynomial) of ``ratio(alpha, beta)``, classified
    on its own, as the one member of its own orbit: the per-pair oracle of
    what ``tanratio.classify`` certifies and ``orbit_rows`` builds once per
    orbit, checked against the certified degree."""
    found = stabilizer(alpha, beta)
    ((_, _, poly, _),) = tanratio.orbit_rows(found[0], [(alpha, beta, False, False)])
    return found, poly


def ratio_value(alpha: tuple[int, int], beta: tuple[int, int]) -> Union[Fraction, QuadraticElem]:
    """The exact value of a ratio of degree at most 2, from its own mu and
    the oracle's polynomial."""
    return real_value(tanratio.exact_mu(alpha, beta), classified_ratio(alpha, beta)[1])


def conductor(angle: Fraction) -> int:
    """Conductor lcm(4, 2q) of the cyclotomic field holding tan(pi * p/q)."""
    return math.lcm(4, 2 * angle.denominator)


def embed(e: CyclotomicElem, m2: int) -> CyclotomicElem:
    """``e`` in Q(zeta_m2), m2 a multiple of its conductor m: the sum of
    c_j * zeta(m2, j*m2/m) over its coordinates c_j."""
    if m2 % e.m:
        raise ValueError(f"{m2} is not a multiple of the conductor {e.m}")
    step = m2 // e.m
    out = CyclotomicElem.from_rational(m2, 0)
    for j, c in enumerate(e.coeffs):
        if c:
            out = out + c * CyclotomicElem.zeta(m2, j * step)
    return out


def full_unit_orbit(e: CyclotomicElem) -> list[CyclotomicElem]:
    """The distinct images sigma_k(e) over every unit k of Z/m, ascending, in
    the order of first appearance: the Galois orbit, of size deg e."""
    seen, orbit = set(), []
    for k in conductor_units(e.m):
        img = galois_apply(e, k)
        if img not in seen:
            seen.add(img)
            orbit.append(img)
    return orbit


def orbit_product(e: CyclotomicElem) -> MinPoly:
    """The minimal polynomial of ``e`` as the product of x - r over its
    Galois orbit, multiplied out in Q(zeta_m): the reference for
    ``minimal_polynomial``, which uses no Galois action."""
    poly = [CyclotomicElem.one(e.m)]
    for root in full_unit_orbit(e):
        nxt = [CyclotomicElem.from_rational(e.m, 0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * root
        poly = nxt
    return MinPoly(c.to_rational() for c in poly)


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
    return diff * (-i) * Fraction(1, 2)


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


def field_inverse(x):
    """1/x for a nonzero int, Fraction or CyclotomicElem: the package's
    cyclotomic elements have ``inverse()`` and no division."""
    return x.inverse() if isinstance(x, CyclotomicElem) else Fraction(1, x)


def kernel_basis(rows: list[list], ncols: int, zero, one) -> list[list]:
    """Basis of the right kernel, by reduced row echelon form over a field.
    ``rows`` may hold the integers 0 and 1; pivots inverted in the field of
    ``one`` make every pivot row a row of field elements, and the field's
    ``zero`` fills only the free entries of each vector."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = one * field_inverse(mat[r][c])
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][free]
        basis.append(vec)
    return basis


def rref_basis(config: stablefiber.NodalConfig) -> list[tuple]:
    """The kernel basis of ``config``'s condition rows, the rows whose rank
    ``stablefiber.differential_space`` computes, each differential its tuple
    of residues in the order of ``config.poles``, in the field of the node
    points."""
    poles = config.poles
    rows = stablefiber._residue_rows(config, poles) + stablefiber._zero_order_rows(config, poles)
    zero = poles[0] - poles[0]
    return [tuple(vec) for vec in kernel_basis(rows, len(poles), zero, zero + 1)]


def clear_caches() -> None:
    """Clear every ``functools.lru_cache`` in the loaded modules of the
    package; a module not yet loaded has filled none."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "torsion_packet":
            for value in vars(module).values():
                if isinstance(value, functools._lru_cache_wrapper):
                    value.cache_clear()
