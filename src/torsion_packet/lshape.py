"""L-shaped surface parameters and the non-unit exclusion engine.

An admissible parameter pair is (b, e) with e in {-1, 0, 1}, b a positive
integer, e + 1 < b, and b even when e = 1; it determines
lambda = (e + sqrt(e^2 + 4b))/2, the positive root of x^2 = e*x + b.
The quantity that matters downstream is lambda + 1, whose trace is e + 2
(hence in {1, 2, 3}) and whose norm is e + 1 - b (a negative integer).

The exclusion engine takes a quadratic tangent ratio mu and checks the
four candidates mu, -mu, 1/mu, -1/mu (sign changes and swapping the two
height coordinates) against those trace/norm constraints; a ratio is
excluded when no candidate matches any admissible pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator, Union

from .errors import ArithmeticInconsistencyError
from .exactnum import QuadraticElem, squarefree_part
from .exactnum.quadratic import _from_parts, squarefree_cores
from .tanratio import TangentRatio

MuSource = Union[TangentRatio, QuadraticElem]


@dataclass(frozen=True)
class AdmissibleTriple:
    """(b, e) with the derived lambda = (e + sqrt(e^2 + 4b))/2."""

    b: int
    e: int
    lam: QuadraticElem

    def __post_init__(self):
        if not is_admissible(self.b, self.e):
            raise ValueError(f"(b={self.b}, e={self.e}) is not admissible")
        if self.lam * (self.lam - self.e) != self.b:
            raise ValueError(f"lambda = {self.lam} does not satisfy x^2 = {self.e}x + {self.b}")

    def __str__(self) -> str:
        return f"(b={self.b}, e={self.e}, lambda={self.lam})"


def is_admissible(b: int, e: int) -> bool:
    return e in (-1, 0, 1) and b >= 1 and e + 1 < b and not (e == 1 and b % 2)


def make_triple(b: int, e: int) -> AdmissibleTriple:
    """Construct the triple for admissible (b, e), deriving lambda exactly."""
    if not is_admissible(b, e):
        raise ValueError(f"(b={b}, e={e}) is not admissible")
    return _triple(b, e, squarefree_part(e * e + 4 * b)[1])


def _triple(b: int, e: int, d: int) -> AdmissibleTriple:
    """The triple for admissible (b, e), given the squarefree d with
    e^2 + 4b = s^2 * d."""
    s = isqrt((e * e + 4 * b) // d)
    # The radicand is the squarefree d (or 2 for a rational lambda), so the
    # constructor that skips the radicand check is safe here.
    if d == 1:
        # Perfect-square discriminant: lambda is rational (a square-tiled
        # case); the radicand of the stored element is then inert.
        lam = _from_parts(e + s, 0, 2, 2)
    else:
        lam = _from_parts(e, s, 2, d)
    return AdmissibleTriple(b, e, lam)


def enumerate_triples(b_max: int) -> Iterator[AdmissibleTriple]:
    """All admissible (b, e) with b <= b_max, sorted by (b, e), one at a time.

    The squarefree parts of the discriminants e^2 + 4b come from one sieve.
    """
    if b_max < 1:
        raise ValueError(f"b_max must be positive, got {b_max}")
    cores = squarefree_cores(4 * b_max + 1)
    return (
        _triple(b, e, cores[e * e + 4 * b])
        for b in range(1, b_max + 1)
        for e in (-1, 0, 1)
        if is_admissible(b, e)
    )


def trace_norm_lambda_plus_one(t: AdmissibleTriple) -> tuple[int, int]:
    """(trace, norm) of lambda + 1, the norm cross-checked in the field.

    The closed forms are trace = e + 2 and norm = e + 1 - b.  The other
    root of the defining quadratic is e - lambda, so that of lambda + 1 is
    (e + 1) - lambda: for irrational lambda the quadratic-field conjugate.
    The two roots sum to e + 2 whatever lambda is, so only their product
    tests lambda.
    """
    trace, norm = t.e + 2, t.e + 1 - t.b
    lam1 = t.lam + 1
    if lam1 * ((t.e + 1) - t.lam) != norm:
        raise ArithmeticInconsistencyError(
            f"closed-form trace/norm ({trace}, {norm}) disagree with {lam1}"
        )
    return trace, norm


def unit_case_triples(b_max: int) -> list[AdmissibleTriple]:
    """Admissible (b, e) with |norm(lambda + 1)| = |e + 1 - b| = 1.

    Since admissibility forces b > e + 1, the condition pins b = e + 2,
    which survives only for (b=1, e=-1) and (b=2, e=0) (e = 1 would need
    the odd b = 3).  The scan below checks the condition for every b up
    to the bound rather than trusting that closed form.
    """
    if b_max < 3:
        raise ValueError(f"b_max must be at least 3, got {b_max}")
    hits = [
        (b, e)
        for b in range(1, b_max + 1)
        for e in (-1, 0, 1)
        if is_admissible(b, e) and abs(e + 1 - b) == 1
    ]
    return [make_triple(b, e) for b, e in hits]


@dataclass(frozen=True)
class CandidateCheck:
    """One of the four height-ratio candidates and how it fared."""

    label: str
    value: QuadraticElem
    trace: Fraction
    norm: Fraction
    matches: tuple[AdmissibleTriple, ...]
    reason: str  # "matched", "trace not in {1,2,3}", "norm not an integer", "no admissible b"


@dataclass(frozen=True)
class ExclusionVerdict:
    """Result of testing one quadratic ratio against all admissible pairs."""

    mu_source: MuSource
    mu_value: QuadraticElem
    candidates_checked: tuple[CandidateCheck, ...]
    matching_triples: tuple[AdmissibleTriple, ...]
    excluded: bool


def matching_triples_for(trace: Fraction, norm: Fraction) -> list[AdmissibleTriple]:
    """Admissible triples whose lambda + 1 has the given trace and norm.

    The trace fixes e and the norm then fixes b, so the answer covers every
    admissible (b, e), with no bound on b.
    """
    trace, norm = Fraction(trace), Fraction(norm)
    if trace.denominator != 1 or trace not in (1, 2, 3) or norm.denominator != 1:
        return []
    e = int(trace) - 2
    b = e + 1 - int(norm)
    return [make_triple(b, e)] if is_admissible(b, e) else []


def _match_reason(trace: Fraction, norm: Fraction, matches: list[AdmissibleTriple]) -> str:
    if matches:
        return "matched"
    if trace.denominator != 1 or trace not in (1, 2, 3):
        return "trace not in {1,2,3}"
    if norm.denominator != 1:
        return "norm not an integer"
    return "no admissible b"


def as_quadratic_ratio(mu_source: MuSource) -> QuadraticElem:
    """The quadratic value of a ratio source (classified ratio or explicit)."""
    if isinstance(mu_source, TangentRatio):
        if mu_source.degree != 2:
            raise ValueError(f"exclusion needs a degree-2 ratio, got degree {mu_source.degree}")
        if mu_source.is_unit:
            raise ValueError("exclusion applies to non-unit ratios only")
        return mu_source.mu_as_quadratic()
    if isinstance(mu_source, QuadraticElem):
        if mu_source.is_rational():
            raise ValueError("exclusion needs a degree-2 value, got a rational")
        return mu_source
    raise TypeError(f"cannot read a quadratic ratio from {mu_source!r}")


def exclude_against_table1(row: MuSource) -> ExclusionVerdict:
    """Test mu, -mu, 1/mu, -1/mu against every admissible (b, e).

    No bound on b is needed: when a candidate's trace and norm are both
    integers in range, they determine (b, e) (``matching_triples_for``), so
    an exclusion holds for all admissible parameters.
    """
    mu = as_quadratic_ratio(row)
    candidates = []
    all_matches: list[AdmissibleTriple] = []
    for label, value in (
        ("mu", mu),
        ("-mu", -mu),
        ("1/mu", mu.inverse()),
        ("-1/mu", -mu.inverse()),
    ):
        trace, norm = value.trace(), value.norm()
        matches = matching_triples_for(trace, norm)
        all_matches.extend(m for m in matches if m not in all_matches)
        candidates.append(
            CandidateCheck(
                label=label,
                value=value,
                trace=trace,
                norm=norm,
                matches=tuple(matches),
                reason=_match_reason(trace, norm, matches),
            )
        )
    return ExclusionVerdict(
        mu_source=row,
        mu_value=mu,
        candidates_checked=tuple(candidates),
        matching_triples=tuple(all_matches),
        excluded=not all_matches,
    )
