"""Integer helpers for cyclotomic fields: Euler's totient, divisors, and
cyclotomic polynomials as tuples of integer coefficients, constant term first.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from ..errors import ArithmeticInconsistencyError


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
