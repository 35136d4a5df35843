"""Tangent ratios of rational angles, classified by algebraic degree.

For rational angles 0 < alpha < beta < 1/2 (in units of pi), the ratio
mu = tan(pi*beta)/tan(pi*alpha) is embedded exactly in a cyclotomic
field in Cayley form: for m even, e = m*p/q an integer and
w = zeta_m^e = exp(2*pi*i*p/q),

    i*tan(pi*p/q) = (w - 1)/(w + 1) = 1 - 2/(1 - zeta_m^(e + m/2)),

with the closed-form inverse of the binomial (``inv_one_minus_zeta``).
Since tan(x + pi/2) = -1/tan(x), the same form shifted by m/2 is
1/(i*tan(pi*p/q)) = (w + 1)/(w - 1) = 1 - 2/(1 - w).  So mu is one
product, the factors of i cancelling:

    mu = (1 - 2/(1 - zeta_m^(e_beta + m/2))) * (1 - 2/(1 - zeta_m^e_alpha)),

in the lcm m of the two angles' conductors.  ``i_tan`` is this one form.
No command needs tan(pi*p/q) itself, only i*tan(pi*p/q) and its inverse,
so the factor i never enters a product.

The degree of mu is an index.  The automorphism zeta_m -> zeta_m^k sends
mu to tan(pi*k*beta)/tan(pi*k*alpha) (the factors of i cancel in the
ratio).  For alpha = p1/q1, beta = p2/q2 this depends only on k mod
L = lcm(q1, q2) (tan has period pi) and only on +-k (tan is odd), so
Galois acts on mu through G = (Z/L)^*/{+-1}, and deg mu = |G|/|Stab(mu)|.
``_stabilizer`` certifies Stab(mu) in two steps:

* A float scan reads each conjugate as one division of two entries of a
  tan table.  Each entry is s/c, correctly rounded, for integer balls
  (c, s) +- rad around cos and sin at 96 bits
  (``exactnum.signs.cos_sin_ball``), so it has a proven relative error
  bound, and two computed conjugates of equal true value lie within 2^-48
  relative of each other (see ``_REL_SEPARATION``).  A unit k whose
  conjugate is farther than that from mu has sigma_k(mu) != mu; the
  others form the candidate set C.  Every k in Stab(mu) computes to mu's
  value within that bound, so Stab(mu) is contained in C.
* Each candidate c != 1 is decided exactly, without mu.  Write
  w_j = exp(2*pi*i*x_j) for x = (c*beta, alpha, beta, c*alpha) and
  W = w_1*w_2*w_3*w_4.  Clearing the (w_j + 1) denominators of
  tan(pi*c*beta)*tan(pi*alpha) = tan(pi*beta)*tan(pi*c*alpha) leaves
  sum_j s_j*(w_j + W/w_j) = 0, s = (-1, -1, 1, 1): the terms of even degree
  cancel, and prod s = 1.  This is a sum of 8 powers of zeta_L.

Both steps are exact, so no fallback exists, and when C = {1} no exact
arithmetic runs.  The scan also stops, with no exact step, once more
conjugates than a given cap are pairwise separated: the degree then
provably exceeds the cap.  The minimal polynomial multiplies out one
conjugate per coset of Stab(mu), and ``exactnum.minimal_polynomial``
checks that its coefficients are rational.

The enumeration classifies one pair per Galois orbit, not every pair.
Folding an angle back into (0, 1/2) changes a tangent only by a sign, and
swapping the two angles inverts mu; neither changes the stabilizer, and G
is abelian, so the whole orbit of the unordered, folded pair
{p1/q1, p2/q2} under the units k shares L and Stab(mu).  Scaling by
k = p1^-1 mod q1 gives p1 = 1; the units that then fix 1/q1 up to sign
move p2 freely within its class +-p2*p1^-1 mod g, g = gcd(q1, q2).  Each
orbit therefore has one representative {1/q1, p2/q2} with q1 <= q2 and
p2/q2 the least of its class, where for q1 = q2 the swap also identifies
the class of c with that of c^-1 (see ``_orbit_representatives``).  The
orbit's members are the representative's images under the units k, each
angle folded back into (0, 1/2) (``_orbit_members``).

Only finitely many pairs produce a ratio of any fixed degree, but that
finiteness is ineffective; the enumeration here is a bounded search, and
the shipped reference list is supported by a stability sweep (raising the
bound adds nothing new), not by an unconditional completeness proof.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Union

from .errors import ArithmeticInconsistencyError
from .exactnum import (
    CyclotomicElem,
    MinPoly,
    QuadraticElem,
    conductor_units,
    galois_apply,
    inv_one_minus_zeta,
    minimal_polynomial,
    real_value,
)
from .exactnum.signs import cos_sin_ball

# Working precision of the tan-table balls, and the largest relative width
# an enclosure of a tangent may have.  At 96 bits the cosine and sine balls
# have radius at most 2 (see ``cos_sin_ball``), so the widest enclosure for
# any denominator up to 200 is about 2^-86 relative; ``_tan_row`` checks
# every enclosure against the limit all the same.
_TABLE_BITS = 96
_TABLE_MAX_REL_WIDTH_BITS = 60

# Relative gap that certifies two computed conjugates v, r as distinct.
# With u = 2^-53, the unit roundoff of a double:
# * a table entry is s/c, rounded to nearest once (CPython divides ints
#   with correct rounding), where c, s are the centres of balls of integer
#   radius around cos and sin; the quotient and the true tangent both lie
#   in the enclosure [(s - rad)/(c + rad), (s + rad)/(c - rad)] of relative
#   width <= 2^-60, so an entry's relative error is at most
#   e = (1 + u)(1 + 2^-60) - 1 < u + 2^-59;
# * a conjugate is one float division of two entries, so its relative
#   error is at most (1 + e)(1 + u)/(1 - e) - 1 < 3.1u;
# * two conjugates with the same true value w therefore compute to values
#   within 2 * 3.1u|w| of each other, which is below 6.3u max(|v|, |r|)
#   even after the one rounding of the float subtraction.
# A computed gap |v - r| above 2^-48 = 32u times max(|v|, |r|) is more
# than five times what equal conjugates can show, so v and r are distinct.
# Scaling by a power of two is exact.  Tangents of these angles are
# nonzero and, for any bound in reach, far from float underflow and
# overflow, so the relative bounds above hold.
_REL_SEPARATION = 2.0**-48

_HALF = Fraction(1, 2)


def _common_conductor(alpha: Fraction, beta: Fraction) -> int:
    """Conductor lcm(4, 2*q_alpha, 2*q_beta) of the field holding both tangents."""
    return math.lcm(4, 2 * alpha.denominator, 2 * beta.denominator)


def i_tan(m: int, e: int) -> CyclotomicElem:
    """i*tan(pi*e/m) in Q(zeta_m), m even, in Cayley form 1 - 2/(1 - zeta_m^(e + m/2)).

    e = m/2 mod m, a pole, raises ZeroDivisionError.  At e + m/2 this is
    1/(i*tan(pi*e/m)) (see the module docstring).
    """
    return 1 - 2 * inv_one_minus_zeta(m, e + m // 2)


class TangentRatio:
    """A classified ratio mu = tan(pi*beta)/tan(pi*alpha), computed lazily.

    ``alpha`` and ``beta`` are the angles as reduced ``Fraction``s, checked
    by ``ratio``.  ``stabilizer`` is (degree, Stab(mu)) from ``_stabilizer``.
    The degree needs no ``mu``, which ``minpoly`` and ``value`` build, so a
    ratio of degree above 2 is displayed from its conductor alone.
    ``minpoly`` (and ``trace``, ``norm``, ``is_unit``) takes one conjugate
    per coset of Stab.  ``value``, read for degree at most 2, is the exact
    value of mu derived once from ``mu`` and ``minpoly``.
    """

    def __init__(self, alpha: Fraction, beta: Fraction):
        self.alpha = alpha
        self.beta = beta

    @cached_property
    def mu(self) -> CyclotomicElem:
        """mu in the common conductor of the two angles."""
        alpha, beta = self.alpha, self.beta
        m = _common_conductor(alpha, beta)
        e_alpha = m * alpha.numerator // alpha.denominator
        e_beta = m * beta.numerator // beta.denominator
        mu = i_tan(m, e_beta) * i_tan(m, e_alpha + m // 2)
        if not mu.is_real():
            raise ArithmeticInconsistencyError(f"ratio of tangents {alpha}, {beta} is not real")
        return mu

    @cached_property
    def stabilizer(self) -> tuple[int, tuple[int, ...]]:
        a, b = self.alpha, self.beta
        return _stabilizer(a.numerator, a.denominator, b.numerator, b.denominator, None)

    @property
    def degree(self) -> int:
        return self.stabilizer[0]

    @cached_property
    def minpoly(self) -> MinPoly:
        _, stab = self.stabilizer
        lcm = math.lcm(self.alpha.denominator, self.beta.denominator)
        mu = self.mu
        covered: set[int] = set()
        images = []
        for g in range(1, lcm // 2 + 1):
            if g not in covered and math.gcd(g, lcm) == 1:
                covered.update(_fold_mod(g * s, lcm) for s in stab)
                images.append(galois_apply(mu, g if g % 2 else g + lcm))
        return minimal_polynomial(mu, images)

    @property
    def is_unit(self) -> bool:
        return self.minpoly.is_unit

    @property
    def trace(self) -> Fraction:
        return self.minpoly.trace

    @property
    def norm(self) -> Fraction:
        return self.minpoly.norm

    @cached_property
    def value(self) -> Union[Fraction, QuadraticElem]:
        """mu as a rational or as a + b*sqrt(D); only for degree at most 2."""
        return real_value(self.mu, self.minpoly)

    def mu_display(self) -> str:
        if self.degree > 2:
            m = _common_conductor(self.alpha, self.beta)
            return f"degree-{self.degree} element of Q(zeta_{m})"
        return str(self.value)

    def __repr__(self) -> str:
        return f"TangentRatio(alpha={self.alpha}, beta={self.beta}, mu={self.mu_display()})"


def ratio(alpha: Fraction, beta: Fraction) -> TangentRatio:
    """tan(pi*beta)/tan(pi*alpha) in the common conductor, classified lazily.

    Each angle is a reduced ``Fraction``, its coefficient of pi; this is the
    one check that 0 < alpha < beta < 1/2.
    """
    if not 0 < alpha < beta < _HALF:
        raise ValueError(f"need 0 < alpha < beta < 1/2, got alpha = {alpha}, beta = {beta}")
    return TangentRatio(alpha, beta)


# --------------------------------------------------------------------------
# The degree as the index of a certified stabilizer


@lru_cache(maxsize=None)
def _tan_row(q: int) -> tuple[float, ...]:
    """Floats of tan(pi*r/q), r = 0, ..., q - 1; 0.0 where gcd(r, q) > 1.

    Each entry is s/c correctly rounded, for the ``cos_sin_ball`` (c, s, rad)
    at 96 bits; the enclosure [(s - rad)/(c + rad), (s + rad)/(c - rad)] of
    the tangent is checked to be positive with relative width <= 2^-60.
    """
    row = [0.0] * q
    for r in _numerators(q):
        c, s, rad = cos_sin_ball(r, q, _TABLE_BITS)
        # Width of the enclosure, 2 rad (s + c) / (c^2 - rad^2), at most
        # 2^-60 times its lower end (s - rad)/(c + rad).
        if not (s > rad and c > rad) or (
            2 * rad * (s + c) << _TABLE_MAX_REL_WIDTH_BITS
        ) > (s - rad) * (c - rad):
            raise ArithmeticInconsistencyError(
                f"enclosure of tan(pi*{r}/{q}) from the balls ({c}, {s}) +- {rad} "
                f"is not positive with relative width at most 2^-60"
            )
        row[r] = s / c
        # tan(pi*(q-r)/q) = -tan(pi*r/q), and negation is exact.
        row[q - r] = -row[r]
    return tuple(row)


def _stabilizer(
    pa: int, qa: int, pb: int, qb: int, cap: Optional[int]
) -> Optional[tuple[int, tuple[int, ...]]]:
    """(degree, Stab) of mu = tan(pi*pb/qb)/tan(pi*pa/qa), or None above ``cap``.

    G = (Z/L)^*/{+-1}, L = lcm(qa, qb), is walked as the units k <= L/2
    (see the module docstring).  None means that more than ``cap``
    conjugates were certified pairwise distinct; with no cap, the pairwise
    count is skipped.  A candidate other than 1 is decided by the sum of 8
    powers of zeta_L of the module docstring.  An index that is not an
    integer, or is below the count of certified distinct conjugates, raises.
    """
    lcm = math.lcm(qa, qb)
    ta, tb = _tan_row(qa), _tan_row(qb)
    value = tb[pb] / ta[pa]
    reps = [value]  # pairwise certified distinct conjugates, mu first
    candidates = []
    order = 1
    for k in range(2, lcm // 2 + 1):
        if math.gcd(k, lcm) != 1:
            continue
        order += 1
        v = tb[k * pb % qb] / ta[k * pa % qa]
        if abs(v - value) <= _REL_SEPARATION * max(abs(v), abs(value)):
            candidates.append(k)
        elif cap is not None:
            for r in reps:
                if abs(v - r) <= _REL_SEPARATION * max(abs(v), abs(r)):
                    break
            else:
                reps.append(v)
                if len(reps) > cap:
                    return None
    stab = [1]
    zeta, ea, eb = CyclotomicElem.zeta, pa * (lcm // qa), pb * (lcm // qb)
    for c in candidates:
        e = (c * eb, ea, eb, c * ea)
        total = sum(e)
        if not sum(s * (zeta(lcm, x) + zeta(lcm, total - x)) for s, x in zip((-1, -1, 1, 1), e)):
            stab.append(c)
    if order % len(stab) or order // len(stab) < len(reps):
        raise ArithmeticInconsistencyError(
            f"stabilizer {stab} of tan(pi*{pb}/{qb})/tan(pi*{pa}/{qa}) in a group of order "
            f"{order} does not have an integer index of at least {len(reps)}"
        )
    return order // len(stab), tuple(stab)


@lru_cache(maxsize=None)
def _numerators(q: int) -> tuple[int, ...]:
    """Numerators p of the reduced angles p/q in (0, 1/2)."""
    return tuple(p for p in range(1, (q + 1) // 2) if math.gcd(p, q) == 1)


def angles_up_to(max_denominator: int) -> list[Fraction]:
    """All reduced rational angles p/q in (0, 1/2) with q <= max_denominator."""
    return sorted(Fraction(p, q) for q in range(3, max_denominator + 1) for p in _numerators(q))


# An angle p/q as the integer pair (p, q).
_Angle = tuple[int, int]


def _fold_mod(r: int, g: int) -> int:
    """The least of r and -r modulo g."""
    r %= g
    return min(r, g - r)


def _ordered(a: _Angle, b: _Angle) -> tuple[_Angle, _Angle]:
    return (a, b) if a[0] * b[1] < b[0] * a[1] else (b, a)


def _orbit_representatives(max_denominator: int) -> Iterator[tuple[_Angle, _Angle]]:
    """One pair per Galois orbit of the pairs of distinct angles up to the
    bound: 1/q1 and the least p2/q2 of its class, q1 <= q2, as (alpha, beta).

    The class of p2 is +-c mod g, g = gcd(q1, q2).  For q1 < q2 the classes
    c are the units of (Z/g)^* up to sign, max(1, phi(g)/2) of them.  For
    q1 = q2 the class of +-1 would pair an angle with itself and is left
    out, and the swap of the two angles identifies c with +-c^-1, so c is
    the least of the four.
    """
    for q2 in range(3, max_denominator + 1):
        for q1 in range(3, q2 + 1):
            g = math.gcd(q1, q2)
            for c in range(1, max(1, g // 2) + 1):
                if math.gcd(c, g) != 1:
                    continue
                if q1 == q2 and (c == 1 or _fold_mod(pow(c, -1, g), g) < c):
                    continue
                p2 = next(p for p in _numerators(q2) if (p - c) % g == 0 or (p + c) % g == 0)
                yield _ordered((1, q1), (p2, q2))


def _orbit_members(rep: tuple[_Angle, _Angle]) -> set[tuple[_Angle, _Angle]]:
    """Every pair (alpha, beta), alpha < beta, of the orbit of ``rep``: the
    images of its two angles under the units k <= L/2, L = lcm(q1, q2),
    each folded back into (0, 1/2)."""
    (p1, q1), (p2, q2) = rep
    lcm = math.lcm(q1, q2)
    return {
        _ordered((_fold_mod(k * p1, q1), q1), (_fold_mod(k * p2, q2), q2))
        for k in range(1, lcm // 2 + 1)
        if math.gcd(k, lcm) == 1
    }


def enumerate_ratios(degree_target: int, max_denominator: int) -> list[TangentRatio]:
    """All ratios of the requested degree with both denominators bounded.

    One representative per Galois orbit of angle pairs is classified (see
    the module docstring); the orbits come from ``_orbit_representatives``
    in integers.  ``_stabilizer`` drops the orbit as soon as
    ``degree_target + 1`` conjugates are certified pairwise distinct, and
    otherwise certifies the stabilizer from the representative's four
    integers, building no mu.  An orbit of exactly the target degree is
    expanded into its member pairs, each handed the representative's
    stabilizer.  Output is sorted by (alpha, beta).
    """
    if degree_target < 1:
        raise ValueError(f"degree target must be positive, got {degree_target}")
    if max_denominator < 3:
        raise ValueError(f"max_denominator must be at least 3, got {max_denominator}")
    kept: list[TangentRatio] = []
    for rep in _orbit_representatives(max_denominator):
        (pa, qa), (pb, qb) = rep
        found = _stabilizer(pa, qa, pb, qb, degree_target)
        if found is None or found[0] != degree_target:
            continue
        for a, b in _orbit_members(rep):
            t = ratio(Fraction(*a), Fraction(*b))
            t.stabilizer = found
            kept.append(t)
    kept.sort(key=lambda t: (t.alpha, t.beta))
    return kept


# --------------------------------------------------------------------------
# Galois normalization


def normalize_by_galois(t: TangentRatio) -> TangentRatio:
    """An equivalent ratio whose alpha has numerator 1.

    Applies the Galois substitution zeta -> zeta^k to both tangent factors
    for the smallest k that sends alpha's numerator class to +-1 mod its
    denominator, then re-reads the two angles (folded back into (0, 1/2)
    and reordered).  The degree is invariant under this operation.  No
    command calls it: the tests keep it as the oracle of
    ``normalized_nonunit_rows``.
    """
    if t.alpha.numerator == 1:
        return t
    (pa, qa), (pb, qb) = t.alpha.as_integer_ratio(), t.beta.as_integer_ratio()
    for k in conductor_units(_common_conductor(t.alpha, t.beta)):
        lo, hi = _ordered((_fold_mod(k * pa, qa), qa), (_fold_mod(k * pb, qb), qb))
        if lo[0] == 1:
            return ratio(Fraction(*lo), Fraction(*hi))
    raise ArithmeticInconsistencyError(
        f"no Galois substitution normalizes alpha = {t.alpha}"
    )


def normalized_nonunit_rows(max_denominator: int = 12) -> list[TangentRatio]:
    """Degree-2 non-unit ratios up to the bound whose alpha has numerator 1.

    These are exactly the normal forms that ``normalize_by_galois`` gives
    the non-units.  It fixes each member whose alpha has numerator 1, and
    it sends any other member to a pair of the same Galois orbit, which
    ``enumerate_ratios`` also yields (it yields whole orbits) and which is a
    non-unit too (a Galois conjugate, a sign and an inverse each keep a
    unit a unit).  One orbit of unordered pairs can hold mu and a conjugate
    of -1/mu', two rows of different trace and norm, such as (1/12, 1/6)
    and (1/6, 5/12).  The numerator is tested first, so that the other
    members build no mu.
    """
    return [
        t for t in enumerate_ratios(2, max_denominator) if t.alpha.numerator == 1 and not t.is_unit
    ]
