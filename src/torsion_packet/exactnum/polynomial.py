"""Dense univariate polynomials over the rationals, and cyclotomic polynomials.

A polynomial is stored as a tuple of ``Fraction`` coefficients, constant
term first, with trailing zeros trimmed.  ``Rational`` is an alias for
``fractions.Fraction``: the stdlib type already keeps values in lowest
terms with a positive denominator, which is exactly the canonical form
the rest of the package relies on.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

from ..errors import ArithmeticInconsistencyError

Rational = Fraction

RationalLike = Union[int, Fraction]


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """Euler's totient of a positive integer.

    >>> [euler_phi(m) for m in (1, 2, 12, 20)]
    [1, 1, 4, 8]
    """
    if m < 1:
        raise ValueError(f"euler_phi expects a positive integer, got {m}")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if n > 1:
        result -= result // n
    return result


def divisors(m: int) -> list[int]:
    """All positive divisors of ``m``, ascending."""
    if m < 1:
        raise ValueError(f"divisors expects a positive integer, got {m}")
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


class RationalPoly:
    """A polynomial with rational coefficients.

    >>> p = RationalPoly([1, 0, 1])
    >>> p.degree, str(p)
    (2, 'x^2 + 1')
    >>> str(p * p)
    'x^4 + 2*x^2 + 1'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike]):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> RationalPoly:
        return cls([])

    @classmethod
    def x_power(cls, n: int, coeff: RationalLike = 1) -> RationalPoly:
        return cls([0] * n + [coeff])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RationalPoly([other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> RationalPoly:
        return RationalPoly([-c for c in self.coeffs])

    def __add__(self, other: RationalPoly | RationalLike) -> RationalPoly:
        other = self._coerce(other)
        return RationalPoly(
            a + b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=Fraction(0))
        )

    __radd__ = __add__

    def __sub__(self, other: RationalPoly | RationalLike) -> RationalPoly:
        return self + (-self._coerce(other))

    def __rsub__(self, other: RationalPoly | RationalLike) -> RationalPoly:
        return self._coerce(other) - self

    def __mul__(self, other: RationalPoly | RationalLike) -> RationalPoly:
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return RationalPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return RationalPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> RationalPoly:
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = RationalPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        dlead = other.coeffs[-1]
        dd = other.degree
        while len(rem) - 1 >= dd and rem:
            k = len(rem) - 1 - dd
            q = rem[-1] / dlead
            quo[k] = q
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= q * c
            while rem and rem[-1] == 0:
                rem.pop()
        return RationalPoly(quo), RationalPoly(rem)

    def __truediv__(self, other: RationalPoly) -> RationalPoly:
        """Exact division; raises if the remainder is nonzero."""
        quo, rem = divmod(self, other)
        if not rem.is_zero():
            raise ValueError(f"{self} is not divisible by {other}")
        return quo

    def __call__(self, point):
        """Evaluate by Horner's rule; ``point`` may live in any ring with 0."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * point + c
        if acc is None:
            return point - point
        return acc

    def _coerce(self, other) -> RationalPoly:
        if isinstance(other, RationalPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalPoly([other])
        raise TypeError(f"cannot interpret {other!r} as a rational polynomial")

    def __repr__(self) -> str:
        return f"RationalPoly({str(self)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = " + " if (c > 0 and parts) else (" - " if parts else ("-" if c < 0 else ""))
            mag = abs(c)
            var = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if var and mag == 1:
                body = var
            elif var:
                body = f"{mag}*{var}"
            else:
                body = f"{mag}"
            parts.append(sign + body)
        return "".join(parts)


def _int_div_exact(num: list[int], den: Sequence[int]) -> list[int]:
    # Exact division of integer polynomials; used only where divisibility
    # is guaranteed (products of cyclotomic polynomials).
    rem = list(num)
    dd = len(den) - 1
    dlead = den[-1]
    quo = [0] * (len(rem) - dd)
    for k in range(len(rem) - 1 - dd, -1, -1):
        q, r = divmod(rem[k + dd], dlead)
        if r:
            raise ArithmeticInconsistencyError("inexact integer polynomial division")
        quo[k] = q
        if q:
            for i, c in enumerate(den):
                rem[k + i] -= q * c
    if any(rem):
        raise ArithmeticInconsistencyError("nonzero remainder in exact polynomial division")
    return quo


@lru_cache(maxsize=None)
def cyclotomic_int_coeffs(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, constant first.

    Computed by exact division of x^m - 1 by the product of all lower
    cyclotomic polynomials at divisors of m.
    """
    if m < 1:
        raise ValueError(f"cyclotomic polynomials are indexed by positive integers, got {m}")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in divisors(m):
        if d < m:
            poly = _int_div_exact(poly, cyclotomic_int_coeffs(d))
    return tuple(poly)


def cyclotomic_polynomial(m: int) -> RationalPoly:
    """The m-th cyclotomic polynomial, monic of degree phi(m).

    >>> str(cyclotomic_polynomial(1)), str(cyclotomic_polynomial(4))
    ('x - 1', 'x^2 + 1')
    >>> str(cyclotomic_polynomial(12))
    'x^4 - x^2 + 1'
    """
    return RationalPoly(cyclotomic_int_coeffs(m))
