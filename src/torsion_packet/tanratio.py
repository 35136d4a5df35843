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

    mu = (1 - 2/(1 - zeta_m^(e_beta + m/2))) * (1 - 2/(1 - zeta_m^e_alpha)).

``exactnum.i_tan`` is this one form, built next to the binomial inverse it
calls; it needs only an even m with q | m, so every exact tangent lives in
Q(zeta_m), m = lcm(2, q, ...) (``exactnum.tan_conductor``).
No command needs tan(pi*p/q) itself, only i*tan(pi*p/q) and its inverse,
so the factor i never enters a product, and 4 need not divide m.

The degree of mu is an index.  The automorphism zeta_m -> zeta_m^k sends
mu to tan(pi*k*beta)/tan(pi*k*alpha) (the factors of i cancel in the
ratio).  For alpha = p1/q1, beta = p2/q2 this depends only on k mod
L = lcm(q1, q2) (tan has period pi) and only on +-k (tan is odd), so
Galois acts on mu through G = (Z/L)^*/{+-1}, and deg mu = |G|/|Stab(mu)|.
``_stabilizer`` certifies Stab(mu) in two steps:

* A float scan reads each conjugate as one division of two entries of a
  tan table.  Each entry is s/c, correctly rounded, for integer balls
  (c, s) +- 2 around cos and sin at 96 bits.  A row q takes one
  ``exactnum.signs.cos_sin_ball``, of exp(i*pi/q), and walks r = 1, 2, ...
  by fixed-point rotation with a proven error bound (``_rotation_balls``).
  So each entry has a proven relative error bound, and two computed
  conjugates of equal true value lie within 2^-48 relative of each other
  (see ``_REL_SEPARATION``).  A unit k whose
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
provably exceeds the cap.

``classify`` walks one pair per Galois orbit, not every pair.  Folding an
angle back into (0, 1/2) changes a tangent only by a sign, and swapping
the two angles inverts mu; neither changes the stabilizer, and G is
abelian, so the whole orbit of the unordered, folded pair
{p1/q1, p2/q2} under the units k shares L and Stab(mu).  Scaling by
k = p1^-1 mod q1 gives p1 = 1; the units that then fix 1/q1 up to sign
move p2 freely within its class +-p2*p1^-1 mod g, g = gcd(q1, q2).  Each
orbit therefore has one representative {1/q1, p2/q2} with q1 <= q2 and
p2 the first unit mod q2 in its class c, g - c, g + c, ... (c <= g/2),
where for q1 = q2 the swap also identifies the class of c with that of
c^-1 (see ``_orbit_representatives``).  The orbit's members are the
representative's images under the units k, each angle folded back into
(0, 1/2).  Units keep denominators, so ``classify`` walks the pairs up to
a bound, or ``stratum2``'s handoffs A/N < B/N: the pairs whose
denominators divide N.  A member is
mu' = +-sigma_k(mu)^(+-1) for the representative's mu, negated when
exactly one angle folds and inverted when the two swap, and sigma_k keeps
the minimal polynomial p.  So only the representative multiplies out its
Galois orbit (``exactnum.minimal_polynomial``), whose degree must equal
the certified index, and a member's polynomial is p(-x) and/or p
reversed, made monic again.

For a degree target, ``classify`` first drops whole denominator pairs
(q1, q2), before any orbit is walked or any tangent is read, by a
certificate in integers (``_pair_admits_degree``).  Let deg mu = d for
alpha = p1/q1, beta = p2/q2, and g = gcd(q1, q2).  G/Stab(mu) has order
d, so by Lagrange sigma_(k^d) fixes mu for every unit k.  Take a unit u of
Z/q2 with u = 1 mod g.  As 1 and u agree mod g, the Chinese remainder
theorem gives k mod L with k = 1 mod q1 and k = u mod q2, a unit mod L.
Then k^d = 1 mod q1 leaves tan(pi*k^d*alpha) = tan(pi*alpha), so
sigma_(k^d)(mu) = mu says tan(pi*u^d*p2/q2) = tan(pi*p2/q2); tan is
injective mod pi and gcd(p2, q2) = 1, so u^d = 1 mod q2.  With q1 and q2
swapped, the same holds mod q1.  So a pair of denominators q1, q2 has a
ratio of degree d only if, for both q = q1 and q = q2, the group
K(q, g) = {u in (Z/q)^* : u = 1 mod g} has exponent dividing d.  The
check reads neither numerator, and ``_kernel_exponent_divides`` caches it
per (q, g, d).  A diagonal pair q1 = q2 has K(q, q) = {1} and is never
dropped.  For d = 2, 141 of the 1,711 pairs up to 60 are kept.

Only finitely many pairs produce a ratio of any fixed degree, but that
finiteness is ineffective; the enumeration here is a bounded search, and
the shipped reference list is supported by a stability sweep (raising the
bound adds nothing new), not by an unconditional completeness proof.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence, Union

from .errors import ArithmeticInconsistencyError
from .exactnum import (
    CyclotomicElem,
    MinPoly,
    QuadraticElem,
    conductor_units,
    i_tan,
    minimal_polynomial,
    real_value,
    tan_conductor,
)
from .exactnum.signs import cos_sin_ball

# Working precision of the tan-table balls, and the largest relative width
# an enclosure of a tangent may have.  At 96 bits the cosine and sine balls
# have radius 2 (see ``_rotation_balls``), so the widest enclosure in the
# row of q is about 2.6q * 2^-96 relative (2^-84.7 at q = 2000), below
# 2^-60 for every q up to about 2 * 10^10; ``_tan_row`` checks every
# enclosure against the limit all the same.
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

# An angle p/q, its coefficient of pi, as the reduced integer pair (p, q).
_Angle = tuple[int, int]


def angle_str(angle: _Angle) -> str:
    """The display "p/q" of an angle (p, q)."""
    return f"{angle[0]}/{angle[1]}"


class TangentRatio:
    """A classified ratio mu = tan(pi*beta)/tan(pi*alpha), computed lazily.

    ``alpha`` and ``beta`` are the angles as reduced pairs (p, q), checked by
    ``ratio``.  ``classify`` writes ``stabilizer``, (degree, Stab(mu)) from
    ``_stabilizer``, and ``orbit``, (representative, negated, inverted).
    The degree needs no ``mu``, which ``minpoly`` and ``value`` build, so a
    ratio of degree above 2 is displayed from its ``tan_conductor`` alone.
    ``minpoly`` (and ``trace``, ``norm``, ``is_unit``) is built once per
    orbit.  ``value``, read for degree at most 2, is the exact value of mu
    derived once from ``mu`` and ``minpoly``.
    """

    def __init__(self, alpha: _Angle, beta: _Angle):
        self.alpha, self.beta = alpha, beta

    @cached_property
    def mu(self) -> CyclotomicElem:
        """mu in Q(zeta_m), m = ``tan_conductor`` of the two denominators."""
        (pa, qa), (pb, qb) = self.alpha, self.beta
        m = tan_conductor(qa, qb)
        mu = i_tan(m, m * pb // qb) * i_tan(m, m * pa // qa + m // 2)
        if not mu.is_real():
            raise ArithmeticInconsistencyError(f"ratio of tangents {pa}/{qa}, {pb}/{qb} is not real")
        return mu

    @property
    def degree(self) -> int:
        return self.stabilizer[0]

    @cached_property
    def minpoly(self) -> MinPoly:
        rep, negated, inverted = self.orbit
        if rep is not self:
            cs = rep.minpoly.coeffs
            if negated:
                cs = [-c if (len(cs) - i) % 2 == 0 else c for i, c in enumerate(cs)]
            return MinPoly([c / cs[0] for c in reversed(cs)] if inverted else cs)
        poly = minimal_polynomial(self.mu)
        if poly.degree != self.degree:
            raise ArithmeticInconsistencyError(
                f"tan(pi*{angle_str(self.beta)})/tan(pi*{angle_str(self.alpha)}) has an orbit "
                f"product of degree {poly.degree}, not the certified {self.degree}"
            )
        return poly

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
            m = tan_conductor(self.alpha[1], self.beta[1])
            return f"degree-{self.degree} element of Q(zeta_{m})"
        return str(self.value)

    def __repr__(self) -> str:
        mu = f", mu={self.mu_display()}" if hasattr(self, "stabilizer") else ""
        return f"TangentRatio(alpha={angle_str(self.alpha)}, beta={angle_str(self.beta)}{mu})"


def ratio(alpha: _Angle, beta: _Angle) -> TangentRatio:
    """tan(pi*beta)/tan(pi*alpha), not yet classified.

    Each angle is an integer pair (p, q), its coefficient p/q of pi; this is
    the one check that both are reduced and 0 < alpha < beta < 1/2.
    """
    (p1, q1), (p2, q2) = alpha, beta
    reduced = math.gcd(p1, q1) == math.gcd(p2, q2) == 1
    if not (reduced and q1 > 0 and 0 < p1 * q2 < p2 * q1 and 0 < 2 * p2 < q2):
        raise ValueError(f"need reduced 0 < alpha < beta < 1/2, got alpha = {p1}/{q1}, beta = {p2}/{q2}")
    return TangentRatio(alpha, beta)


# --------------------------------------------------------------------------
# The degree as the index of a certified stabilizer


def _rotation_balls(q: int) -> Iterator[tuple[int, int, int]]:
    """(r, c, s) for the units r < q/2 of Z/q, with |cos(pi*r/q) 2^96 - c| <= 2
    and |sin(pi*r/q) 2^96 - s| <= 2, from one ``cos_sin_ball`` and a rotation.

    With g = bitlen(5q) guard bits and w = 96 + g, z_1 = c1 + i*s1 is the
    ``cos_sin_ball`` of exp(i*pi/q) at w bits, each part within 2, and
    z_(r+1) = z_r*z_1 / 2^w with each part floored:
    (c, s) <- ((c*c1 - s*s1) >> w, (s*c1 + c*s1) >> w).  Let
    Z_r = 2^w exp(i*pi*r/q) and E_r = |z_r - Z_r|, so E_1 <= 2 sqrt 2.  As
    z_r z_1 - Z_r Z_1 = (z_r - Z_r) z_1 + Z_r (z_1 - Z_1), |Z_r| = 2^w,
    |z_1| <= 2^w + E_1 and the two floors cost less than sqrt 2,
    E_(r+1) <= E_r (1 + eps) + 3 sqrt 2 with eps = E_1 / 2^w.  By induction
    E_r <= 3 sqrt 2 r (1 + eps)^(r-1), and as r < q/2 and 2^w > 5q 2^96,
    r eps < 2q / 2^w < 2^-96, so E_r < 5r.  Dropping the g guard bits with
    a floor leaves each of c and s off by less than 1 + 5r / 2^g < 2 units
    of 2^-96, as 2^g > 5q.
    """
    g = (5 * q).bit_length()
    w = _TABLE_BITS + g
    c1, s1, _ = cos_sin_ball(1, q, w)
    c, s = c1, s1
    for r in range(1, (q + 1) // 2):
        if math.gcd(r, q) == 1:
            yield r, c >> g, s >> g
        c, s = (c * c1 - s * s1) >> w, (s * c1 + c * s1) >> w


@lru_cache(maxsize=None)
def _tan_row(q: int) -> array:
    """Floats of tan(pi*r/q), r = 0, ..., q - 1; 0.0 where gcd(r, q) > 1.

    The row is an ``array('d')``, 8 bytes an entry, as every row read stays
    cached; callers only read it.  Each entry is s/c correctly rounded, for
    the balls (c, s) +- 2 at 96 bits of ``_rotation_balls``; the enclosure
    [(s - rad)/(c + rad), (s + rad)/(c - rad)] of the tangent, rad = 2, is
    checked to be positive with relative width <= 2^-60.
    """
    row = array("d", [0.0]) * q
    rad = 2
    for r, c, s in _rotation_balls(q):
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
    return row


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


def _by_value(max_denominator: int):
    """Exact integer sort key of angles (p, q), q <= max_denominator:
    floor(p*D/q), D = max_denominator^2, as two differ by >= 1/(q1*q2) >= 1/D."""
    d = max_denominator * max_denominator
    return lambda angle: angle[0] * d // angle[1]


def angles_up_to(max_denominator: int) -> list[_Angle]:
    """All reduced rational angles (p, q), p/q in (0, 1/2) and
    q <= max_denominator, in ascending order of p/q."""
    angles = [(p, q) for q in range(3, max_denominator + 1) for p in _numerators(q)]
    return sorted(angles, key=_by_value(max_denominator))


def _fold_mod(r: int, g: int) -> int:
    """The least of r and -r modulo g."""
    r %= g
    return min(r, g - r)


def _ordered(a: _Angle, b: _Angle) -> tuple[_Angle, _Angle]:
    return (a, b) if a[0] * b[1] < b[0] * a[1] else (b, a)


@lru_cache(maxsize=None)
def _kernel_exponent_divides(q: int, g: int, d: int) -> bool:
    """Whether u^d = 1 mod q for every unit u of Z/q with u = 1 mod g, g | q:
    whether the exponent of K(q, g) divides d (see the module docstring)."""
    return all(pow(u, d, q) == 1 for u in range(1 + g, q, g) if math.gcd(u, q) == 1)


def _pair_admits_degree(q1: int, q2: int, degree: int) -> bool:
    """False only if no pair of angles with denominators q1, q2 has a ratio
    of this degree: the Lagrange/CRT certificate of the module docstring."""
    g = math.gcd(q1, q2)
    return _kernel_exponent_divides(q1, g, degree) and _kernel_exponent_divides(q2, g, degree)


def _orbit_representatives(
    denominators: Sequence[int], degree: Optional[int] = None
) -> Iterator[tuple[_Angle, _Angle]]:
    """One pair per Galois orbit of the pairs of distinct angles whose
    denominators lie in ``denominators`` (ascending, each at least 3):
    1/q1 and the least p2/q2 of its class, q1 <= q2, as (alpha, beta).
    With a ``degree``, the denominator pairs that ``_pair_admits_degree``
    rules out are skipped whole.

    The class of p2 is +-c mod g, g = gcd(q1, q2).  For q1 < q2 the classes
    c are the units of (Z/g)^* up to sign, max(1, phi(g)/2) of them.  For
    q1 = q2 the class of +-1 would pair an angle with itself and is left
    out, and the swap of the two angles identifies c with +-c^-1, so c is
    the least of the four.  The units of the class are symmetric under
    p -> q2 - p, so its least, p2 < q2/2, is the first unit mod q2 in the
    ascending c, g - c, g + c, 2g - c, ...; on the diagonal it is c.
    """
    for j, q2 in enumerate(denominators):
        for q1 in denominators[: j + 1]:
            if degree is not None and not _pair_admits_degree(q1, q2, degree):
                continue
            g = math.gcd(q1, q2)
            for c in range(1, max(1, g // 2) + 1):
                if math.gcd(c, g) != 1:
                    continue
                if q1 == q2 and (c == 1 or _fold_mod(pow(c, -1, g), g) < c):
                    continue
                p2 = next(p for n in range(0, q2, g) for p in (n + c, n + g - c) if math.gcd(p, q2) == 1)
                yield _ordered((1, q1), (p2, q2))


def classify(denominators: Sequence[int], degree: Optional[int] = None) -> list[TangentRatio]:
    """Every pair of distinct angles whose denominators lie in
    ``denominators`` (ascending, each at least 3), in the order of the walk;
    with a ``degree``, only the pairs of that degree.

    ``_stabilizer`` runs once per orbit, on its representative from
    ``_orbit_representatives``, with ``degree`` as its cap: it drops the
    orbit once ``degree + 1`` conjugates are certified pairwise distinct,
    and builds no mu.  With a ``degree``, the walk skips the denominator
    pairs that cannot hold it.  Each member of a kept orbit, from the units
    k <= L/2, L = lcm(q1, q2), is handed the stabilizer and its ``orbit``
    (see the module docstring); k = 1 gives the representative itself.
    """
    kept: list[TangentRatio] = []
    for rep in _orbit_representatives(denominators, degree):
        found = _stabilizer(*rep[0], *rep[1], degree)
        if found is None or degree not in (None, found[0]):
            continue
        (p1, q1), (p2, q2) = rep
        members: dict[tuple[_Angle, _Angle], tuple[bool, bool]] = {}
        for k in _numerators(math.lcm(q1, q2)):
            a, b = k * p1 % q1, k * p2 % q2
            fold_a, fold_b = 2 * a > q1, 2 * b > q2
            x, y = (q1 - a if fold_a else a, q1), (q2 - b if fold_b else b, q2)
            inverted = x[0] * q2 > y[0] * q1
            members.setdefault((y, x) if inverted else (x, y), (fold_a != fold_b, inverted))
        head = None
        for (a, b), flags in members.items():
            t = ratio(a, b)
            head = head or t
            t.stabilizer, t.orbit = found, (head, *flags)
            kept.append(t)
    return kept


def enumerate_ratios(degree_target: int, max_denominator: int) -> list[TangentRatio]:
    """``classify`` for one degree, denominators up to a bound, by (alpha, beta)."""
    if degree_target < 1:
        raise ValueError(f"degree target must be positive, got {degree_target}")
    if max_denominator < 3:
        raise ValueError(f"max_denominator must be at least 3, got {max_denominator}")
    kept = classify(range(3, max_denominator + 1), degree_target)
    key = _by_value(max_denominator)
    return sorted(kept, key=lambda t: (key(t.alpha), key(t.beta)))


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
    if t.alpha[0] == 1:
        return t
    (pa, qa), (pb, qb) = t.alpha, t.beta
    for k in conductor_units(tan_conductor(qa, qb)):
        lo, hi = _ordered((_fold_mod(k * pa, qa), qa), (_fold_mod(k * pb, qb), qb))
        if lo[0] == 1:
            return ratio(lo, hi)
    raise ArithmeticInconsistencyError(f"no Galois substitution normalizes alpha = {angle_str(t.alpha)}")


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
    return [t for t in enumerate_ratios(2, max_denominator) if t.alpha[0] == 1 and not t.is_unit]
