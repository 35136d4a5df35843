"""Exact arithmetic in real quadratic fields Q(sqrt(D)).

An element (an + bn*sqrt(d))/den is stored as four integers, the layout of
FLINT/Antic ``nf_elem``: the numerators ``an`` and ``bn``, one common
denominator ``den > 0`` with gcd(an, bn, den) = 1, and a squarefree
radicand ``d >= 2``.  The form is canonical, so equality and hashing are
tuple comparisons, and arithmetic runs in integers without building a
``Fraction``.

The radicand is validated once: the public constructor
``QuadraticElem(a, b, d)`` takes int or ``Fraction`` coefficients and
rejects a radicand that is below 2 or not squarefree.  Results of
arithmetic inherit an already-validated radicand and go through the
private ``_from_parts``, which only reduces by the gcd; callers that take
the radicand straight from ``squarefree_part`` or ``squarefree_cores`` may
use it too.

The exclusion argument compares the trace and norm of +-mu^(+-1) with
those of lambda + 1, so the type carries only negation, inverse, trace,
norm and display (and the product of two elements, which the exactnum
micro-benchmark times).  There is no addition and no ordering.  Rational
values have bn = 0; their radicand is a formality and equality ignores
it, so the same rational compares equal across fields.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from typing import Optional, Union

from ..errors import ArithmeticInconsistencyError
from .cyclotomic import CyclotomicElem, MinPoly, minimal_polynomial
from .signs import sign_of_real

Scalar = Union[int, Fraction]


def squarefree_cores(limit: int) -> array:
    """cores[n] = the squarefree D with n = s^2 * D, for 1 <= n <= limit
    (cores[0] = 0), so that s = isqrt(n // D); one sieve over the squares k^2.

    Counting k down, the first k^2 to reach n is the largest square dividing
    n.  An ``array`` of machine integers, 8 bytes each.
    """
    cores = array("q", range(limit + 1))
    for k in range(math.isqrt(limit), 1, -1):
        kk = k * k
        for n in range(kk, limit + 1, kk):
            if cores[n] == n:
                cores[n] = n // kk
    return cores


def squarefree_part(n: int) -> tuple[int, int]:
    """Decompose a positive integer as n = s^2 * D with D squarefree.

    Returns (s, D).  Trial division is plenty here: inputs are small
    discriminants of quadratic minimal polynomials.
    """
    if n <= 0:
        raise ValueError(f"squarefree_part expects a positive integer, got {n}")
    s, d = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            count = 0
            while n % p == 0:
                n //= p
                count += 1
            s *= p ** (count // 2)
            if count % 2:
                d *= p
        p += 1 if p == 2 else 2
    d *= n
    return s, d


class QuadraticElem:
    """(an + bn*sqrt(d))/den with den > 0, gcd(an, bn, den) = 1, d squarefree >= 2."""

    __slots__ = ("an", "bn", "den", "d")

    def __init__(self, a: Scalar, b: Scalar, d: int):
        if d < 2:
            raise ValueError(f"radicand must be >= 2, got {d}")
        s, sf = squarefree_part(d)
        if s != 1:
            raise ValueError(f"radicand must be squarefree, got {d} = {s}^2 * {sf}")
        a, b = Fraction(a), Fraction(b)
        # With a and b in lowest terms, scaling both to the lcm of their
        # denominators leaves gcd(an, bn, den) = 1.
        den = math.lcm(a.denominator, b.denominator)
        _set_an(self, a.numerator * (den // a.denominator))
        _set_bn(self, b.numerator * (den // b.denominator))
        _set_den(self, den)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticElem is immutable")

    # ----- structure ----------------------------------------------------

    def is_rational(self) -> bool:
        return self.bn == 0

    def trace(self) -> Fraction:
        """Sum with the Galois conjugate: 2a."""
        return Fraction(2 * self.an, self.den)

    def norm(self) -> Fraction:
        """Product with the Galois conjugate: a^2 - d*b^2."""
        return Fraction(self.an * self.an - self.d * self.bn * self.bn, self.den * self.den)

    # ----- arithmetic ---------------------------------------------------

    def __neg__(self) -> QuadraticElem:
        return _from_parts(-self.an, -self.bn, self.den, self.d)

    def __mul__(self, other):
        if type(other) is not QuadraticElem:
            return NotImplemented
        d = self.d
        if other.d != d and other.bn != 0:
            if self.bn != 0:
                raise ValueError(f"radicand mismatch: sqrt({self.d}) vs sqrt({other.d})")
            d = other.d
        a1, b1, a2, b2 = self.an, self.bn, other.an, other.bn
        return _from_parts(a1 * a2 + d * b1 * b2, a1 * b2 + b1 * a2, self.den * other.den, d)

    def inverse(self) -> QuadraticElem:
        """1/x = (an - bn*sqrt(d)) * den / (an^2 - d*bn^2)."""
        an, bn, den, d = self.an, self.bn, self.den, self.d
        n = an * an - d * bn * bn
        if n == 0:
            raise ZeroDivisionError("inverse of zero quadratic element")
        if n < 0:
            n, den = -n, -den
        return _from_parts(an * den, -bn * den, n, d)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.bn == 0 and self.den == 1 and self.an == other
        if isinstance(other, QuadraticElem):
            return (
                self.an == other.an
                and self.bn == other.bn
                and self.den == other.den
                and (self.bn == 0 or self.d == other.d)
            )
        if isinstance(other, Fraction):
            return self.bn == 0 and self.an == other.numerator and self.den == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        if self.bn == 0:
            return hash(Fraction(self.an, self.den))
        return hash((self.an, self.bn, self.den, self.d))

    def __repr__(self) -> str:
        return f"QuadraticElem({self})"

    def __str__(self) -> str:
        an, bn, den = self.an, self.bn, self.den
        if bn == 0:
            return _ratio_str(an, den)
        root = f"sqrt({self.d})"
        if bn == den:
            tail = root
        elif bn == -den:
            tail = f"-{root}"
        else:
            tail = f"{_ratio_str(bn, den)}*{root}"
        if an == 0:
            return tail
        op = "-" if bn < 0 else "+"
        mag = tail.lstrip("-")
        return f"{_ratio_str(an, den)} {op} {mag}"


_new = object.__new__
_set_an = QuadraticElem.an.__set__
_set_bn = QuadraticElem.bn.__set__
_set_den = QuadraticElem.den.__set__
_set_d = QuadraticElem.d.__set__


def _from_parts(an: int, bn: int, den: int, d: int) -> QuadraticElem:
    """(an + bn*sqrt(d))/den reduced by the gcd, for den > 0 and a radicand
    already known to be squarefree and >= 2 (it is not checked again)."""
    g = math.gcd(an, bn, den)
    if g != 1:
        an, bn, den = an // g, bn // g, den // g
    elem = _new(QuadraticElem)
    _set_an(elem, an)
    _set_bn(elem, bn)
    _set_den(elem, den)
    _set_d(elem, d)
    return elem


def _ratio_str(n: int, q: int) -> str:
    """str(Fraction(n, q)) for q > 0, without building the Fraction."""
    g = math.gcd(n, q)
    n, q = n // g, q // g
    return str(n) if q == 1 else f"{n}/{q}"


def quadratic_from_minpoly(p: MinPoly, which_root: int = 1) -> QuadraticElem:
    """The real root (-t +- sqrt(disc))/2 of a degree-2 minimal polynomial.

    ``which_root`` selects the sign of the sqrt(D) coefficient (+1 or -1).
    Rejects polynomials whose discriminant is not a positive non-square,
    since only those have a real quadratic-field model.
    """
    if p.degree != 2:
        raise ValueError(f"expected a quadratic, got degree {p.degree}")
    if which_root not in (1, -1):
        raise ValueError("which_root must be +1 or -1")
    c0, c1, _ = p.coeffs
    disc = c1 * c1 - 4 * c0
    if disc <= 0:
        raise ValueError(f"discriminant {disc} is not positive; no real quadratic model")
    s, d = squarefree_part(disc.numerator * disc.denominator)
    if d == 1:
        raise ValueError(f"discriminant {disc} is a perfect square; the roots are rational")
    b = Fraction(s, 2 * disc.denominator) * which_root
    root = QuadraticElem(-c1 / 2, b, d)
    if root.trace() != -c1 or root.norm() != c0:
        raise ArithmeticInconsistencyError("quadratic root failed the trace/norm round-trip")
    return root


def real_value(e: CyclotomicElem, p: MinPoly) -> Union[Fraction, QuadraticElem]:
    """The exact value of a real cyclotomic element of degree at most 2.

    ``p`` is the minimal polynomial of ``e``.  A degree-2 element is the
    root of ``p`` whose sqrt(D) coefficient has the exact sign of
    e - trace/2.
    """
    if p.degree == 1:
        return p.trace
    if p.degree == 2:
        return quadratic_from_minpoly(p, sign_of_real(e - p.trace / 2))
    raise ValueError(f"expected degree at most 2, got degree {p.degree}")


def real_display(e: CyclotomicElem, p: Optional[MinPoly] = None) -> str:
    """A rational or a + b*sqrt(D) for a real element of degree at most 2;
    above that, only the degree, as "degree-n element"."""
    if p is None:
        p = minimal_polynomial(e)
    if p.degree > 2:
        return f"degree-{p.degree} element"
    return str(real_value(e, p))
