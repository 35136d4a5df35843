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
  (c, s) +- 2 around cos and sin at 96 bits.  A row q reads one
  fixed-point rotation from exp(i*pi/q) over r = 1, 2, ..., with a proven
  error bound (``exactnum.signs.rotation_balls``, the one source of cosine
  and sine balls, which the signs share).  So each entry has a proven
  relative error bound, and two computed conjugates of equal true value
  lie within 2^-48 relative of each other (see ``_REL_SEPARATION``).  A
  unit k whose conjugate is farther than that from mu has
  sigma_k(mu) != mu; the others form the candidate set C.  Every k in
  Stab(mu) computes to mu's value within that bound, so Stab(mu) is
  contained in C.
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
(0, 1/2), and the one walk of the units k <= L/2 that certifies Stab
(``_stabilizer``) records them, so each kept orbit's units are walked
once.  Units keep denominators, so ``classify`` walks the pairs up to
a bound, or ``stratum2``'s handoffs A/N < B/N: the pairs whose
denominators divide N.  A member is
mu' = +-sigma_k(mu)^(+-1) for the representative's mu, negated when
exactly one angle folds and inverted when the two swap, and sigma_k keeps
the minimal polynomial p.  So ``classify`` returns an orbit as the integer
rows (degree, Stab, members), each member (alpha, beta, negated, inverted),
``members[0]`` the representative.  ``orbit_rows`` gives each member its
row (alpha, beta, p, mu), mu its own: only the representative builds its
minimal polynomial, whose degree must equal the certified index, and a
member's polynomial is p(-x) and/or p reversed, made monic again.  The
representative's row comes first, and each mu is built only when its row
is read, so what holds for the whole orbit is decided on that row:
neither a sign nor an inversion nor sigma_k changes whether mu is a unit,
so ``enumerate_ratios`` drops a unit orbit there when it is asked for
non-units only, and the ``stratum2`` command takes unit status and the
exclusion (the four candidates +-mu^(+-1) of every member have the same
traces and norms) once per degree-2 orbit.

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
check reads neither numerator, and the walk memoizes
``_kernel_exponent_divides`` per (q, g) for its one d.  A diagonal pair
q1 = q2 has K(q, q) = {1} and is never dropped.  For d = 2, 141 of the 1,711 pairs up to 60 are kept.

The same Lagrange argument drops most orbits that are left on one
comparison, before their conjugates are scanned: sigma_(k^d) fixes mu of
degree d, so a unit s = k^d that moves mu rules d out.  ``_lagrange_power``
caches per (L, d) the power s of the first unit k <= L/2 with
k^d != +-1 mod L, or None if there is none; ``_stabilizer`` reads
sigma_s(mu) from two table entries and drops the orbit when
``_REL_SEPARATION`` certifies it apart from mu.  At d = 2 this drops 555
of the 584 orbits walked at bound 60, and 160,210 of 160,250 at 1000.

Only finitely many pairs produce a ratio of any fixed degree, but that
finiteness is ineffective; the enumeration here is a bounded search, and
the shipped reference list is supported by a stability sweep (raising the
bound adds nothing new), not by an unconditional completeness proof.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .errors import ArithmeticInconsistencyError
from .exactnum import (
    CyclotomicElem,
    MinPoly,
    conductor_units,
    i_tan,
    minimal_polynomial,
    tan_conductor,
)
from .exactnum.signs import rotation_balls

# Working precision of the tan-table balls, and the largest relative width
# an enclosure of a tangent may have.  At 96 bits the cosine and sine balls
# have radius 2 (see ``exactnum.signs.rotation_balls``), so the widest
# enclosure in the row of q is about 2.6q * 2^-96 relative (2^-84.7 at
# q = 2000), below 2^-60 for every q up to about 2 * 10^10; ``_tan_row``
# checks every enclosure against the limit all the same.
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


# A member of a classified orbit, (alpha, beta, negated, inverted), and its
# row of ``orbit_rows``, (alpha, beta, minimal polynomial, mu).
Member = tuple[_Angle, _Angle, bool, bool]
Row = tuple[_Angle, _Angle, MinPoly, CyclotomicElem]


def ratio(alpha: _Angle, beta: _Angle) -> tuple[_Angle, _Angle]:
    """The pair (alpha, beta) of tan(pi*beta)/tan(pi*alpha), checked.

    Each angle is an integer pair (p, q), its coefficient p/q of pi; this is
    the one check that both are reduced and 0 < alpha < beta < 1/2.
    """
    (p1, q1), (p2, q2) = alpha, beta
    reduced = math.gcd(p1, q1) == math.gcd(p2, q2) == 1
    if not (reduced and q1 > 0 and 0 < p1 * q2 < p2 * q1 and 0 < 2 * p2 < q2):
        raise ValueError(f"need reduced 0 < alpha < beta < 1/2, got alpha = {p1}/{q1}, beta = {p2}/{q2}")
    return alpha, beta


def exact_mu(alpha: _Angle, beta: _Angle) -> CyclotomicElem:
    """mu in Q(zeta_m), m = ``tan_conductor`` of the two denominators."""
    (pa, qa), (pb, qb) = alpha, beta
    m = tan_conductor(qa, qb)
    mu = i_tan(m, m * pb // qb) * i_tan(m, m * pa // qa + m // 2)
    if not mu.is_real():
        raise ArithmeticInconsistencyError(f"ratio of tangents {pa}/{qa}, {pb}/{qb} is not real")
    return mu


def orbit_rows(degree: int, members: Sequence[Member]) -> Iterator[Row]:
    """The row (alpha, beta, minimal polynomial, mu) of each member of an
    orbit of ``classify``, in order, built as it is read.  The
    representative's row comes first: it builds its mu and the orbit's
    polynomial p, checked against ``degree``, so a caller can decide for
    the whole orbit from that row (unit status; the exclusion) before any
    other mu is built.  Each other member builds its own mu, and its
    polynomial is p(-x) when negated and p reversed when inverted, made monic."""
    poly = None
    for alpha, beta, negated, inverted in members:
        mu = exact_mu(alpha, beta)
        if poly is None:
            poly = minimal_polynomial(mu)
            if poly.degree != degree:
                raise ArithmeticInconsistencyError(
                    f"tan(pi*{angle_str(beta)})/tan(pi*{angle_str(alpha)}) has a minimal "
                    f"polynomial of degree {poly.degree}, not the certified {degree}"
                )
        cs = poly.coeffs
        if negated:
            cs = [-c if (len(cs) - i) % 2 == 0 else c for i, c in enumerate(cs)]
        if inverted:
            cs = [c / cs[0] for c in reversed(cs)]
        yield alpha, beta, MinPoly(cs) if negated or inverted else poly, mu


def field_display(degree: int, alpha: _Angle, beta: _Angle) -> str:
    """The display of a mu of degree above 2: its degree and field, which
    every member of its orbit shares."""
    return f"degree-{degree} element of Q(zeta_{tan_conductor(alpha[1], beta[1])})"


# --------------------------------------------------------------------------
# The degree as the index of a certified stabilizer


@lru_cache(maxsize=None)
def _tan_row(q: int) -> array:
    """Floats of tan(pi*r/q), r = 0, ..., q - 1; 0.0 where gcd(r, q) > 1.

    The row is an ``array('d')``, 8 bytes an entry, as every row read stays
    cached; callers only read it.  Each entry is s/c correctly rounded, for
    the balls (c, s) +- 2 at 96 bits of one ``exactnum.signs.rotation_balls``
    walk over r < q/2, of which the units r are kept; the enclosure
    [(s - rad)/(c + rad), (s + rad)/(c - rad)] of the tangent, rad = 2, is
    checked to be positive with relative width <= 2^-60.
    """
    row = array("d", [0.0]) * q
    rad = 2
    for r, (c, s) in enumerate(rotation_balls(q, (q - 1) // 2, _TABLE_BITS), 1):
        if math.gcd(r, q) != 1:
            continue
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
) -> Optional[tuple[int, tuple[int, ...], dict[tuple[_Angle, _Angle], tuple[bool, bool]]]]:
    """(degree, Stab, images) of mu = tan(pi*pb/qb)/tan(pi*pa/qa), for
    pa/qa < pb/qb, or None if the degree is not ``cap``.

    G = (Z/L)^*/{+-1}, L = lcm(qa, qb), is walked once, as the units
    k <= L/2 (see the module docstring).  The same walk records the orbit:
    ``images`` maps each distinct image of the pair under k, folded and
    ordered, to (negated, inverted) of the first k that reaches it, the
    pair itself first.  None means that the degree is certified
    not to be ``cap``: sigma_s(mu), s = ``_lagrange_power(L, cap)``, is
    certified apart from mu (Lagrange), or more than ``cap`` conjugates
    are certified pairwise distinct.  With no cap, neither test runs.  A
    candidate other than 1 is decided by the sum of 8 powers of zeta_L of
    the module docstring.  An index that is not an
    integer, or is below the count of certified distinct conjugates, raises.
    """
    lcm = math.lcm(qa, qb)
    ta, tb = _tan_row(qa), _tan_row(qb)
    value = tb[pb] / ta[pa]
    if cap is not None:
        s = _lagrange_power(lcm, cap)
        if s is not None:
            v = tb[s * pb % qb] / ta[s * pa % qa]
            if abs(v - value) > _REL_SEPARATION * max(abs(v), abs(value)):
                return None
    reps = [value]  # pairwise certified distinct conjugates, mu first
    candidates = []
    images = {((pa, qa), (pb, qb)): (False, False)}
    order = 1
    for k in range(2, lcm // 2 + 1):
        if math.gcd(k, lcm) != 1:
            continue
        order += 1
        a, b = k * pa % qa, k * pb % qb
        # The image of the pair, each angle folded into (0, 1/2) and the
        # two in order: negated when exactly one folds, inverted on a swap.
        x, y = (min(a, qa - a), qa), (min(b, qb - b), qb)
        inverted = x[0] * qb > y[0] * qa
        images.setdefault((y, x) if inverted else (x, y), ((2 * a > qa) != (2 * b > qb), inverted))
        v = tb[b] / ta[a]
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
    return order // len(stab), tuple(stab), images


@lru_cache(maxsize=None)
def _lagrange_power(lcm: int, d: int) -> Optional[int]:
    """k^d mod L for the first unit k <= L/2 of Z/L with k^d != +-1 mod L,
    or None if every unit's d-th power is +-1 (see the module docstring)."""
    for k in range(2, lcm // 2 + 1):
        if math.gcd(k, lcm) == 1:
            s = pow(k, d, lcm)
            if s not in (1, lcm - 1):
                return s
    return None


def _by_value(max_denominator: int):
    """Exact integer sort key of angles (p, q), q <= max_denominator:
    floor(p*D/q), D = max_denominator^2, as two differ by >= 1/(q1*q2) >= 1/D."""
    d = max_denominator * max_denominator
    return lambda angle: angle[0] * d // angle[1]


def angles_up_to(max_denominator: int) -> list[_Angle]:
    """All reduced rational angles (p, q), p/q in (0, 1/2) and
    q <= max_denominator, in ascending order of p/q."""
    qs = range(3, max_denominator + 1)
    angles = [(p, q) for q in qs for p in range(1, (q + 1) // 2) if math.gcd(p, q) == 1]
    return sorted(angles, key=_by_value(max_denominator))


def _fold_mod(r: int, g: int) -> int:
    """The least of r and -r modulo g."""
    r %= g
    return min(r, g - r)


def _ordered(a: _Angle, b: _Angle) -> tuple[_Angle, _Angle]:
    return (a, b) if a[0] * b[1] < b[0] * a[1] else (b, a)


def _kernel_exponent_divides(q: int, g: int, d: int) -> bool:
    """Whether u^d = 1 mod q for every unit u of Z/q with u = 1 mod g, g | q:
    whether the exponent of K(q, g) divides d (see the module docstring)."""
    return all(pow(u, d, q) == 1 for u in range(1 + g, q, g) if math.gcd(u, q) == 1)


def _pair_admits_degree(q1: int, q2: int, degree: int, divides: dict[tuple[int, int], bool]) -> bool:
    """False only if no pair of angles with denominators q1, q2 has a ratio
    of this degree: the Lagrange/CRT certificate of the module docstring.
    ``divides`` memoizes ``_kernel_exponent_divides`` per (q, g) for this
    ``degree``, for as long as one walk runs."""
    g = math.gcd(q1, q2)
    ok = divides.get((q1, g))
    if ok is None:
        ok = divides[q1, g] = _kernel_exponent_divides(q1, g, degree)
    if ok:
        ok = divides.get((q2, g))
        if ok is None:
            ok = divides[q2, g] = _kernel_exponent_divides(q2, g, degree)
    return ok


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
    ascending c, g - c, g + c, 2g - c, ...: c itself when c is a unit mod
    q2, as on the diagonal.
    """
    divides: dict[tuple[int, int], bool] = {}
    for j, q2 in enumerate(denominators):
        for q1 in denominators[: j + 1]:
            if degree is not None and not _pair_admits_degree(q1, q2, degree, divides):
                continue
            g = math.gcd(q1, q2)
            for c in range(1, max(1, g // 2) + 1):
                if math.gcd(c, g) != 1:
                    continue
                if q1 == q2 and (c == 1 or _fold_mod(pow(c, -1, g), g) < c):
                    continue
                if math.gcd(c, q2) == 1:
                    p2 = c
                else:
                    p2 = next(p for n in range(0, q2, g) for p in (n + c, n + g - c) if math.gcd(p, q2) == 1)
                yield _ordered((1, q1), (p2, q2))


def classify(
    denominators: Sequence[int], degree: Optional[int] = None
) -> list[tuple[int, tuple[int, ...], tuple[Member, ...]]]:
    """(degree, Stab, members) for each Galois orbit of the pairs of distinct
    angles whose denominators lie in ``denominators`` (ascending, each at
    least 3), in the order of the walk; with a ``degree``, only the orbits
    of that degree.

    ``_stabilizer`` runs once per orbit, on its representative from
    ``_orbit_representatives``, with ``degree`` as its cap: it drops the
    orbit when one Lagrange comparison rules the degree out or once
    ``degree + 1`` conjugates are certified pairwise distinct, and builds
    no mu.  With a ``degree``, the walk skips the denominator
    pairs that cannot hold it.  The members of a kept orbit are the images
    that the same walk of the units k <= L/2, L = lcm(q1, q2), recorded
    (see the module docstring), each checked by ``ratio``; k = 1 gives the
    representative, ``members[0]``.
    """
    kept = []
    for rep in _orbit_representatives(denominators, degree):
        found = _stabilizer(*rep[0], *rep[1], degree)
        if found is None or degree not in (None, found[0]):
            continue
        degree_found, stab, images = found
        kept.append((degree_found, stab, tuple((*ratio(a, b), *flags) for (a, b), flags in images.items())))
    return kept


def enumerate_ratios(degree_target: int, max_denominator: int, non_units_only: bool = False) -> list[Row]:
    """Every ratio of one degree with both denominators up to a bound, as
    the ``orbit_rows`` row (alpha, beta, minimal polynomial, mu), by (alpha,
    beta).  Only each orbit's representative builds a minimal polynomial.

    With ``non_units_only``, an orbit whose representative's polynomial is a
    unit's is dropped whole, before any other member builds its mu: a
    member's polynomial is the representative's up to x -> -x and reversal,
    and neither changes whether it is a unit's."""
    if degree_target < 1:
        raise ValueError(f"degree target must be positive, got {degree_target}")
    if max_denominator < 3:
        raise ValueError(f"max_denominator must be at least 3, got {max_denominator}")
    rows: list[Row] = []
    for degree, _, members in classify(range(3, max_denominator + 1), degree_target):
        orbit = orbit_rows(degree, members)
        first = next(orbit)
        if not (non_units_only and first[2].is_unit):
            rows += [first, *orbit]
    key = _by_value(max_denominator)
    return sorted(rows, key=lambda row: (key(row[0]), key(row[1])))


# --------------------------------------------------------------------------
# Galois normalization


def normalize_by_galois(pair: tuple[_Angle, _Angle]) -> tuple[_Angle, _Angle]:
    """An equivalent pair (alpha, beta) whose alpha has numerator 1.

    Applies the Galois substitution zeta -> zeta^k to both tangent factors
    for the smallest k that sends alpha's numerator class to +-1 mod its
    denominator, then re-reads the two angles (folded back into (0, 1/2)
    and reordered).  The degree is invariant under this operation.  No
    command calls it: the tests keep it as the oracle of
    ``normalized_nonunit_rows``.
    """
    (pa, qa), (pb, qb) = pair
    if pa == 1:
        return pair
    for k in conductor_units(tan_conductor(qa, qb)):
        lo, hi = _ordered((_fold_mod(k * pa, qa), qa), (_fold_mod(k * pb, qb), qb))
        if lo[0] == 1:
            return ratio(lo, hi)
    raise ArithmeticInconsistencyError(f"no Galois substitution normalizes alpha = {pa}/{qa}")


def normalized_nonunit_rows(max_denominator: int) -> list[Row]:
    """Degree-2 non-unit rows of ``enumerate_ratios`` whose alpha has numerator 1.

    These are exactly the normal forms that ``normalize_by_galois`` gives
    the non-units.  It fixes each member whose alpha has numerator 1, and
    it sends any other member to a pair of the same Galois orbit, which
    ``enumerate_ratios`` also yields (it yields whole orbits) and which is a
    non-unit too (a Galois conjugate, a sign and an inverse each keep a
    unit a unit).  One orbit of unordered pairs can hold mu and a conjugate
    of -1/mu', two rows of different trace and norm, such as (1/12, 1/6)
    and (1/6, 5/12).
    """
    return [row for row in enumerate_ratios(2, max_denominator, True) if row[0][0] == 1]
