"""Tangent ratios of rational angles, classified by algebraic degree.

For rational angles 0 < alpha < beta < 1/2 (in units of pi), the ratio
mu = tan(pi*beta)/tan(pi*alpha) is embedded exactly in a cyclotomic
field: with zeta = exp(i*pi*p/q) one has

    tan(pi*p/q) = -i (zeta - 1/zeta) / (zeta + 1/zeta),

so the natural home of tan(pi*p/q) is Q(zeta_m) with m = lcm(4, 2q)
(the 4 contributes i).  Degrees are computed as Galois orbit sizes; the
enumeration over a denominator bound keeps a pair exactly when its orbit
size equals the requested degree.

The enumeration has one degree filter for every pair.  The conjugates
tan(pi*k*beta)/tan(pi*k*alpha) of a pair are evaluated as one float
division of two entries of a tan table whose every entry carries a proven
relative error bound; from that bound follows a relative separation that
certifies two computed conjugates as truly distinct (see
``_REL_SEPARATION``).  A pair is dropped only when more conjugates than
the requested degree are certified pairwise distinct, and every other
pair is confirmed by exact orbit counting, so no verdict rests on
floating point.

Only finitely many pairs produce a ratio of any fixed degree, but that
finiteness is ineffective; the enumeration here is a bounded search, and
the shipped reference list is supported by a stability sweep (raising the
bound adds nothing new), not by an unconditional completeness proof.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from mpmath.libmp import to_rational

from .errors import ArithmeticInconsistencyError
from .exactnum import (
    CyclotomicElem,
    MinPoly,
    QuadraticElem,
    conductor_units,
    euler_phi,
    galois_apply,
    inv_one_minus_zeta,
    minimal_polynomial,
    quadratic_from_minpoly,
    sign_of_real,
)
from .exactnum.signs import interval_context

# Working precision of the tan-table enclosures, and the largest relative
# width an enclosure may have.  At 96 bits the widest enclosure for any
# denominator up to 200 is about 2^-86 relative; the builder checks every
# enclosure against the limit all the same.
_TABLE_BITS = 96
_TABLE_MAX_REL_WIDTH = Fraction(1, 2**60)

# Relative gap that certifies two computed conjugates v, r as distinct.
# With u = 2^-53, the unit roundoff of a double:
# * a table entry is the float nearest the midpoint of an enclosure of
#   relative width <= 2^-60, so its relative error is at most u + 2^-60
#   (one rounding to nearest, plus half the width);
# * a conjugate is one float division of two entries, so its relative
#   error is at most (1 + u + 2^-60)(1 + u)/(1 - u - 2^-60) - 1 < 3.1u;
# * two conjugates with the same true value w therefore compute to values
#   within 2 * 3.1u|w| of each other, which is below 6.3u max(|v|, |r|)
#   even after the one rounding of the float subtraction.
# A computed gap |v - r| above 2^-48 = 32u times max(|v|, |r|) is more
# than five times what equal conjugates can show, so v and r are distinct.
# Scaling by a power of two is exact.  Tangents of these angles are
# nonzero and, for any bound in reach, far from float underflow and
# overflow, so the relative bounds above hold.
_REL_SEPARATION = 2.0**-48

# Largest field degree for which an exact orbit confirmation is attempted.
_EXACT_DEGREE_GUARD = 600


@dataclass(frozen=True, order=True)
class RationalAngle:
    """A rational multiple of pi strictly between 0 and pi/2.

    ``value`` is the rational coefficient: the angle is value * pi.
    """

    value: Fraction

    def __post_init__(self):
        v = self.value
        if not isinstance(v, Fraction):
            object.__setattr__(self, "value", Fraction(v))
            v = self.value
        if not (0 < v < Fraction(1, 2)):
            raise ValueError(f"angle must lie strictly between 0 and 1/2, got {v}")

    @classmethod
    def of(cls, numerator: int, denominator: int) -> RationalAngle:
        return cls(Fraction(numerator, denominator))

    @property
    def numerator(self) -> int:
        return self.value.numerator

    @property
    def denominator(self) -> int:
        return self.value.denominator

    @property
    def conductor(self) -> int:
        """Conductor of the cyclotomic field housing tan(pi * value)."""
        return math.lcm(4, 2 * self.denominator)

    def __str__(self) -> str:
        return str(self.value)


def _common_conductor(alpha: RationalAngle, beta: RationalAngle) -> int:
    return math.lcm(alpha.conductor, beta.conductor)


def _tan_parts(angle: RationalAngle, m: int) -> tuple[CyclotomicElem, CyclotomicElem]:
    """(numerator, denominator) of tan(pi*angle) inside Q(zeta_m)."""
    q = angle.denominator
    if m % (2 * q) or m % 4:
        raise ValueError(f"conductor {m} does not contain zeta_{2*q} and i")
    a = angle.numerator * (m // (2 * q))
    i = CyclotomicElem.zeta(m, m // 4)
    num = -i * (CyclotomicElem.zeta(m, a) - CyclotomicElem.zeta(m, -a))
    den = CyclotomicElem.zeta(m, a) + CyclotomicElem.zeta(m, -a)
    return num, den


def _tan_value(angle: RationalAngle, m: int) -> CyclotomicElem:
    # den = zeta^a + zeta^-a = zeta^-a (1 - zeta^(2a + m/2)), so its inverse
    # is zeta^a times the closed-form inverse of the binomial.
    q = angle.denominator
    a = angle.numerator * (m // (2 * q))
    num, _ = _tan_parts(angle, m)
    den_inv = CyclotomicElem.zeta(m, a) * inv_one_minus_zeta(m, (2 * a + m // 2) % m)
    return num * den_inv


def _cot_value(angle: RationalAngle, m: int) -> CyclotomicElem:
    # num = -i (zeta^a - zeta^-a) = i zeta^-a (1 - zeta^(2a)); invert both factors.
    q = angle.denominator
    a = angle.numerator * (m // (2 * q))
    _, den = _tan_parts(angle, m)
    i = CyclotomicElem.zeta(m, m // 4)
    num_inv = -i * CyclotomicElem.zeta(m, a) * inv_one_minus_zeta(m, (2 * a) % m)
    return den * num_inv


def tan_of(angle: RationalAngle) -> CyclotomicElem:
    """tan(pi * angle) as an element of Q(zeta_lcm(4, 2q)).

    The result is fixed by complex conjugation and positive.
    """
    return _tan_value(angle, angle.conductor)


def sin_of(angle: RationalAngle) -> CyclotomicElem:
    """sin(pi * angle) = (zeta^p - zeta^-p) / (2i) in Q(zeta_lcm(4, 2q))."""
    m = angle.conductor
    a = angle.numerator * (m // (2 * angle.denominator))
    i = CyclotomicElem.zeta(m, m // 4)
    diff = CyclotomicElem.zeta(m, a) - CyclotomicElem.zeta(m, -a)
    return diff * (-i) / 2


class TangentRatio:
    """A classified ratio mu = tan(pi*beta)/tan(pi*alpha).

    ``minpoly``, ``degree``, ``trace``, ``norm`` and ``is_unit`` are
    computed on first access from the Galois orbit of ``mu``.
    """

    def __init__(self, alpha: RationalAngle, beta: RationalAngle, mu: CyclotomicElem):
        self.alpha = alpha
        self.beta = beta
        self.mu = mu

    @cached_property
    def minpoly(self) -> MinPoly:
        return minimal_polynomial(self.mu)

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    @property
    def is_unit(self) -> bool:
        return self.minpoly.is_unit

    @property
    def trace(self) -> Fraction:
        return self.minpoly.trace

    @property
    def norm(self) -> Fraction:
        return self.minpoly.norm

    def mu_as_quadratic(self) -> QuadraticElem:
        """The value of mu as a + b*sqrt(D); only for degree-2 ratios."""
        if self.degree != 2:
            raise ValueError(f"mu has degree {self.degree}, not 2")
        # The sign of the sqrt coefficient is the exact sign of mu - trace/2.
        which = sign_of_real(self.mu - self.trace / 2)
        return quadratic_from_minpoly(self.minpoly, which)

    def mu_display(self) -> str:
        if self.degree == 1:
            return str(self.mu.to_rational())
        if self.degree == 2:
            return str(self.mu_as_quadratic())
        return f"degree-{self.degree} element of Q(zeta_{self.mu.m})"

    def __repr__(self) -> str:
        return f"TangentRatio(alpha={self.alpha}, beta={self.beta}, mu={self.mu_display()})"


def ratio(alpha: RationalAngle, beta: RationalAngle) -> TangentRatio:
    """tan(pi*beta)/tan(pi*alpha) in the common conductor, classified."""
    if not alpha < beta:
        raise ValueError(f"need alpha < beta, got {alpha} >= {beta}")
    m = _common_conductor(alpha, beta)
    mu = _tan_value(beta, m) * _cot_value(alpha, m)
    if not mu.is_real():
        raise ArithmeticInconsistencyError(f"ratio of tangents {alpha}, {beta} is not real")
    return TangentRatio(alpha, beta, mu)


# --------------------------------------------------------------------------
# Degree filtering


def _units_half(m: int) -> array:
    # mu and all its conjugates are real, so sigma_k and sigma_(m-k) agree
    # on them; one representative per pair {k, m-k} suffices.  Every
    # conductor here is a multiple of 4, so the units are odd.  A C array,
    # not a list: at bound 60 the enumeration caches 330k units, which as
    # int objects would add about 10 MB to peak memory.
    return array("I", [k for k in range(1, m // 2 + 1, 2) if math.gcd(k, m) == 1])


def _pair_degree_exact(alpha: RationalAngle, beta: RationalAngle, cap: int) -> Optional[int]:
    """Number of distinct Galois conjugates of mu, or None once above ``cap``.

    Works on the fraction representation (numerator, denominator) of mu,
    comparing conjugates by cross-multiplication, so no field inversion
    is ever needed.
    """
    m = _common_conductor(alpha, beta)
    na, da = _tan_parts(alpha, m)
    nb, db = _tan_parts(beta, m)
    num = nb * da
    den = db * na
    reps: list[tuple[CyclotomicElem, CyclotomicElem]] = [(num, den)]
    for k in _units_half(m):
        if k == 1:
            continue
        nk = galois_apply(num, k)
        dk = galois_apply(den, k)
        if any(nk * d0 == n0 * dk for n0, d0 in reps):
            continue
        reps.append((nk, dk))
        if len(reps) > cap:
            return None
    return len(reps)


def _tan_table(max_denominator: int) -> dict[int, list[float]]:
    """Floats of tan(pi*r/q) for every reduced r/q in (0, 1), q <= max_denominator.

    ``table[q][r]`` is the float nearest the midpoint of an interval
    enclosure of tan(pi*r/q) of relative width <= 2^-60, evaluated in this
    thread's private interval context; its relative error is therefore at
    most 2^-53 + 2^-60.  Entries with gcd(r, q) > 1 are never read and
    hold 0.0.
    """
    table = {}
    with interval_context(_TABLE_BITS) as ctx:
        for q in range(3, max_denominator + 1):
            row = [0.0] * q
            for r in range(1, (q + 1) // 2):
                if math.gcd(r, q) == 1:
                    row[r] = _nearest_float_of_enclosure(ctx.tan(ctx.pi * r / q), r, q)
                    # tan(pi*(q-r)/q) = -tan(pi*r/q), and negation is exact.
                    row[q - r] = -row[r]
            table[q] = row
    return table


def _nearest_float_of_enclosure(x, r: int, q: int) -> float:
    # The enclosure's endpoints, exactly, as binary fractions.
    lo, hi = (Fraction(*to_rational(end)) for end in x._mpi_)
    if not 0 < lo <= hi or hi - lo > _TABLE_MAX_REL_WIDTH * lo:
        raise ArithmeticInconsistencyError(
            f"enclosure [{float(lo)}, {float(hi)}] of tan(pi*{r}/{q}) is not "
            f"positive with relative width at most 2^-60"
        )
    # Fraction -> float is correctly rounded to nearest.
    return float((lo + hi) / 2)


def _float_degree_exceeds(
    ta: list[float], pa: int, tb: list[float], pb: int, units: array, cap: int
) -> bool:
    """True only when mu provably has more than ``cap`` distinct conjugates.

    The conjugates of mu = tan(pi*pb/qb)/tan(pi*pa/qa) are
    tan(pi*k*pb/qb)/tan(pi*k*pa/qa) over the units k <= m/2, with the
    tangents read from tan-table rows ``ta`` and ``tb`` (row q has length
    q).  Two values are counted apart only when their gap certifies them
    distinct (see _REL_SEPARATION).  A False answer is never trusted:
    callers confirm survivors exactly.
    """
    qa, qb = len(ta), len(tb)
    reps: list[float] = []
    for k in units:
        v = tb[k * pb % qb] / ta[k * pa % qa]
        for r in reps:
            if abs(v - r) <= _REL_SEPARATION * max(abs(v), abs(r)):
                break
        else:
            reps.append(v)
            if len(reps) > cap:
                return True
    return False


def _confirm_degree(alpha: RationalAngle, beta: RationalAngle, cap: int) -> Optional[int]:
    m = _common_conductor(alpha, beta)
    if euler_phi(m) > _EXACT_DEGREE_GUARD:
        # No ratio of degree <= 2 is expected outside small conductors; a
        # survivor here means either a numeric artifact or a discovery,
        # and both must be surfaced loudly rather than decided cheaply.
        raise ArithmeticInconsistencyError(
            f"pair ({alpha}, {beta}) passed the numeric degree filter but its "
            f"conductor {m} is too large for exact confirmation"
        )
    return _pair_degree_exact(alpha, beta, cap)


def angles_up_to(max_denominator: int) -> list[RationalAngle]:
    """All reduced rational angles p/q in (0, 1/2) with q <= max_denominator."""
    out = []
    for q in range(3, max_denominator + 1):
        for p in range(1, (q - 1) // 2 + 1):
            if math.gcd(p, q) == 1:
                out.append(RationalAngle.of(p, q))
    out.sort()
    return out


def enumerate_ratios(degree_target: int, max_denominator: int) -> list[TangentRatio]:
    """All ratios of the requested degree with both denominators bounded.

    Every pair goes through the same filter.  Its Galois conjugates are
    evaluated in floating point from a tan table built once per call,
    whose entries have relative error at most 2^-53 + 2^-60; the pair is
    dropped as soon as ``degree_target + 1`` conjugates are pairwise
    separated by more than 2^-48 relative, a gap that two equal
    conjugates provably cannot show, so its degree is provably larger.
    Every pair that is not dropped is confirmed by exact orbit counting.
    Output is sorted by (alpha, beta).
    """
    if degree_target < 1:
        raise ValueError(f"degree target must be positive, got {degree_target}")
    if max_denominator < 3:
        raise ValueError(f"max_denominator must be at least 3, got {max_denominator}")
    angles = angles_up_to(max_denominator)
    table = _tan_table(max_denominator)
    units_by_conductor: dict[int, array] = {}
    out = []
    for i, alpha in enumerate(angles):
        pa, qa = alpha.numerator, alpha.denominator
        ta = table[qa]
        for beta in angles[i + 1 :]:
            pb, qb = beta.numerator, beta.denominator
            m = math.lcm(4, 2 * qa, 2 * qb)  # _common_conductor, inlined
            units = units_by_conductor.get(m)
            if units is None:
                units = units_by_conductor[m] = _units_half(m)
            if _float_degree_exceeds(ta, pa, table[qb], pb, units, degree_target):
                continue
            if _confirm_degree(alpha, beta, degree_target) == degree_target:
                out.append(ratio(alpha, beta))
    return out


# --------------------------------------------------------------------------
# Galois normalization


def _fold(f: Fraction) -> Fraction:
    """Fold an angle coefficient into (0, 1/2) using the period and odd
    symmetry of |tan|."""
    r = f % 1
    if r > Fraction(1, 2):
        r = 1 - r
    if r == 0 or r == Fraction(1, 2):
        raise ArithmeticInconsistencyError(f"angle {f} folded onto a tangent zero or pole")
    return r


def normalize_by_galois(t: TangentRatio) -> TangentRatio:
    """An equivalent ratio whose alpha has numerator 1.

    Applies the Galois substitution zeta -> zeta^k to both tangent factors
    for the smallest k that sends alpha's numerator class to +-1 mod its
    denominator, then re-reads the two angles (folded back into (0, 1/2)
    and reordered).  The degree is invariant under this operation.
    """
    if t.alpha.numerator == 1:
        return t
    m = _common_conductor(t.alpha, t.beta)
    for k in conductor_units(m):
        fa = _fold(k * t.alpha.value)
        fb = _fold(k * t.beta.value)
        lo, hi = (fa, fb) if fa < fb else (fb, fa)
        if lo.numerator == 1:
            return ratio(RationalAngle(lo), RationalAngle(hi))
    raise ArithmeticInconsistencyError(
        f"no Galois substitution normalizes alpha = {t.alpha}"
    )


def normalized_nonunit_rows(max_denominator: int = 12) -> list[TangentRatio]:
    """Degree-2 non-unit ratios up to the bound, Galois-normalized and deduplicated."""
    seen: set[tuple[Fraction, Fraction]] = set()
    rows = []
    for t in enumerate_ratios(2, max_denominator):
        if t.is_unit:
            continue
        n = normalize_by_galois(t)
        key = (n.alpha.value, n.beta.value)
        if key in seen:
            continue
        seen.add(key)
        rows.append(n)
    rows.sort(key=lambda r: (r.alpha.value, r.beta.value))
    return rows


# --------------------------------------------------------------------------
# The tangent/sine addition identity


def check_addition_formula(x: RationalAngle, y: RationalAngle) -> bool:
    """Exact check of tan(pi(x+y)/2)/tan(pi(x-y)/2) = (s+1)/(s-1), s = sin(pi x)/sin(pi y).

    Requires x > y so that the half-difference angle avoids the zero of
    the tangent.  Everything is evaluated in one common cyclotomic field
    and compared after clearing denominators, so the result is exact.
    """
    if not y < x:
        raise ValueError(f"need x > y, got x = {x}, y = {y}")
    half_sum = RationalAngle((x.value + y.value) / 2)
    half_diff = RationalAngle((x.value - y.value) / 2)
    m = math.lcm(x.conductor, y.conductor, half_sum.conductor, half_diff.conductor)
    np_, dp = _tan_parts(half_sum, m)
    nm, dm = _tan_parts(half_diff, m)
    # s = A/B with A = zeta^px - zeta^-px, B = zeta^py - zeta^-py (the 1/2i
    # factors of the sines cancel), so (s+1)/(s-1) = (A+B)/(A-B).
    ax = x.numerator * (m // (2 * x.denominator))
    ay = y.numerator * (m // (2 * y.denominator))
    big_a = CyclotomicElem.zeta(m, ax) - CyclotomicElem.zeta(m, -ax)
    big_b = CyclotomicElem.zeta(m, ay) - CyclotomicElem.zeta(m, -ay)
    return np_ * dm * (big_a - big_b) == nm * dp * (big_a + big_b)
