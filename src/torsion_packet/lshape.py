"""L-shaped surface parameters and the non-unit exclusion engine.

An admissible parameter pair is (b, e) with e in {-1, 0, 1}, b a positive
integer, e + 1 < b, and b even when e = 1; it determines
lambda = (e + sqrt(e^2 + 4b))/2, the positive root of x^2 = e*x + b.
The quantity that matters downstream is lambda + 1, whose trace is e + 2
(hence in {1, 2, 3}) and whose norm is e + 1 - b (a negative integer).
Both are closed forms; ``is_positive_root`` is the one certificate that
lambda is the root they rest on.  It reads lambda = (an + bn*sqrt(d))/den
as its four integers, so a triple is the plain row (b, e, an, bn, den, d),
as ``enumerate_triples`` and ``make_triple`` yield it.

The exclusion engine takes the value of a quadratic tangent ratio mu, a
``QuadraticElem`` (``real_value`` of mu against its minimal polynomial),
and checks the four candidates mu, -mu, 1/mu, -1/mu (sign changes and
swapping the two height coordinates) against those trace/norm
constraints; a ratio is excluded when no candidate matches any
admissible pair.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterator

from .exactnum import QuadraticElem, squarefree_part
from .exactnum.quadratic import parts_str, squarefree_cores

Triple = tuple[int, int, int, int, int, int]


def is_admissible(b: int, e: int) -> bool:
    return e in (-1, 0, 1) and b >= 1 and e + 1 < b and not (e == 1 and b % 2)


def is_positive_root(b: int, e: int, an: int, bn: int, den: int, d: int) -> bool:
    """Whether lam = (an + bn*sqrt(d))/den is the positive root of
    x^2 = e*x + b, for b > 0, den > 0 and a squarefree radicand d >= 2.

    Here den^2 * (lam^2 - e*lam - b) is
    (an^2 + d*bn^2 - e*an*den - b*den^2) + bn*(2*an - e*den)*sqrt(d).
    For bn != 0 the radicand d >= 2 is squarefree, so sqrt(d) is
    irrational and the quadratic holds exactly when both integers vanish;
    for a rational lam, bn = 0 and only the first one is left.  The other
    root e - lam satisfies the same quadratic, and of the two roots
    (product -b < 0) lam is the positive one exactly when 2*lam - e > 0;
    once the quadratic holds, one of bn and 2*an - e*den is zero, so that
    sign is the sign of 2*an - e*den + bn.
    """
    twice_shift = 2 * an - e * den
    return not (
        an * an + d * bn * bn - e * an * den - b * den * den
        or bn * twice_shift
        or twice_shift + bn <= 0
    )


def make_triple(b: int, e: int) -> Triple:
    """The row (b, e, an, bn, den, d) of admissible (b, e), as
    ``enumerate_triples`` yields it, certified by ``is_positive_root``."""
    if not is_admissible(b, e):
        raise ValueError(f"(b={b}, e={e}) is not admissible")
    row = (b, e, *_lambda_parts(b, e, squarefree_part(e * e + 4 * b)[1]))
    if not is_positive_root(*row):
        raise ValueError(f"lambda = {parts_str(*row[2:])} does not satisfy x^2 = {e}x + {b}")
    return row


def _lambda_parts(b: int, e: int, d: int) -> tuple[int, int, int, int]:
    """(an, bn, den, d) in lowest terms of lambda = (e + sqrt(e^2 + 4b))/2,
    for admissible (b, e) and the squarefree d with e^2 + 4b = s^2 * d.

    s = e (mod 2): e^2 + 4b = e^2 (mod 4), and a squarefree d is not a
    multiple of 4.  So e + s is even, and s is even when e = 0.  A
    perfect-square discriminant (d = 1) gives a rational lambda, whose
    radicand is the inert 2.
    """
    s = isqrt((e * e + 4 * b) // d)
    if d == 1:
        return (e + s) // 2, 0, 1, 2
    return (e, s, 2, d) if e else (0, s // 2, 1, d)


def enumerate_triples(b_max: int) -> Iterator[Triple]:
    """The rows (b, e, an, bn, den, d) of every admissible (b, e) with
    b <= b_max, sorted by (b, e), one at a time: plain integers, with
    lambda = (an + bn*sqrt(d))/den as ``make_triple`` derives it.

    The squarefree parts of the discriminants e^2 + 4b come from one sieve.
    Each row is left for ``is_positive_root`` to certify.
    """
    if b_max < 1:
        raise ValueError(f"b_max must be positive, got {b_max}")
    cores = squarefree_cores(4 * b_max + 1)
    return (
        (b, e, *_lambda_parts(b, e, cores[e * e + 4 * b]))
        for b in range(1, b_max + 1)
        for e in (-1, 0, 1)
        if is_admissible(b, e)
    )


def trace_norm_lambda_plus_one(b: int, e: int) -> tuple[int, int]:
    """(trace, norm) of lambda + 1: (e + 2, e + 1 - b).

    The other root of lambda + 1 is e + 1 - lambda, and
    (lambda + 1)(e + 1 - lambda) = e + 1 - b + (e*lambda + b - lambda^2),
    so the product is the norm exactly when lambda is a root, which
    ``is_positive_root`` certifies.
    """
    return e + 2, e + 1 - b


def unit_case_triples() -> list[Triple]:
    """Admissible (b, e) with |norm(lambda + 1)| = |e + 1 - b| = 1.

    Admissibility forces b > e + 1, so the norm is at most -1 and the
    condition pins b = e + 2: (b=1, e=-1), (b=2, e=0), and (b=3, e=1),
    which is not admissible because e = 1 needs an even b.  The answer
    therefore covers every admissible (b, e), with no bound on b.
    """
    return [make_triple(e + 2, e) for e in (-1, 0, 1) if is_admissible(e + 2, e)]


def matching_triples_for(trace: Fraction, norm: Fraction) -> tuple[list[Triple], str]:
    """Admissible triples whose lambda + 1 has the given trace and norm, and
    the reason a candidate record gives: "matched", "trace not in {1,2,3}",
    "norm not an integer" or "no admissible b".

    The trace fixes e and the norm then fixes b, so the answer covers every
    admissible (b, e), with no bound on b.
    """
    trace, norm = Fraction(trace), Fraction(norm)
    if trace.denominator != 1 or trace not in (1, 2, 3):
        return [], "trace not in {1,2,3}"
    if norm.denominator != 1:
        return [], "norm not an integer"
    e = int(trace) - 2
    b = e + 1 - int(norm)
    if not is_admissible(b, e):
        return [], "no admissible b"
    return [make_triple(b, e)], "matched"


def exclude_against_table1(mu: QuadraticElem) -> tuple[list[dict], tuple[Triple, ...]]:
    """Test mu, -mu, 1/mu, -1/mu against every admissible (b, e).

    Returns the four candidate records {label, value, trace, norm, reason}
    and the distinct admissible triples they match; mu is excluded when
    there are none.  ``mu`` is an irrational ``QuadraticElem``.  No bound
    on b is needed: when a candidate's trace and norm are both integers in
    range, they determine (b, e) (``matching_triples_for``), so an
    exclusion holds for all admissible parameters.  A unit mu is not
    refused: its candidates have norm +-1, which only the pentagon and
    octagon triples match.
    """
    if not isinstance(mu, QuadraticElem) or mu.is_rational():
        raise ValueError(f"exclusion needs a degree-2 value, got {mu!r}")
    candidates = []
    all_matches: list[Triple] = []
    inv = mu.inverse()
    for label, value in (("mu", mu), ("-mu", -mu), ("1/mu", inv), ("-1/mu", -inv)):
        trace, norm = value.trace(), value.norm()
        matches, reason = matching_triples_for(trace, norm)
        all_matches.extend(m for m in matches if m not in all_matches)
        candidates.append({"label": label, "value": value, "trace": trace, "norm": norm, "reason": reason})
    return candidates, tuple(all_matches)
