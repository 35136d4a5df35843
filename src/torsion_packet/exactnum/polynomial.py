"""Cyclotomic polynomials as tuples of integer coefficients, constant term first."""

from __future__ import annotations

from ..errors import ArithmeticInconsistencyError


def cyclotomic_int_coeffs(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, constant first.

    Moebius inversion of x^m - 1 = prod_{d | m} Phi_d gives
    Phi_m = prod_{d | m squarefree} (x^(m/d) - 1)^mu(d).  The factors with
    mu(d) = +1 are multiplied first, so that each division by a factor with
    mu(d) = -1 is exact.
    """
    if m < 1:
        raise ValueError(f"cyclotomic polynomials are indexed by positive integers, got {m}")
    # Each squarefree d | m with the sign mu(d), built from the distinct
    # prime factors of m, found by trial division.
    signed = [(1, 1)]
    n, p = m, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            signed += [(d * p, -s) for d, s in signed]
        p += 1
    if n > 1:
        signed += [(d * n, -s) for d, s in signed]
    poly = [1]
    for d, s in signed:
        if s == 1:
            # poly * (x^k - 1)
            k = m // d
            out = [-c for c in poly] + [0] * k
            for i, c in enumerate(poly):
                out[i + k] += c
            poly = out
    for d, s in signed:
        if s == -1:
            # poly / (x^k - 1): poly[i] = q[i - k] - q[i], solved from the top.
            k = m // d
            q = poly[k:]
            for j in range(len(q) - 1 - k, -1, -1):
                q[j] += q[j + k]
            if any(a + b for a, b in zip(poly, q[:k] + [0] * (k - len(q)))):
                raise ArithmeticInconsistencyError("nonzero remainder in exact polynomial division")
            poly = q
    return tuple(poly)
