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

from fractions import Fraction
from math import isqrt
from typing import Iterator, NamedTuple, Union

from .errors import ArithmeticInconsistencyError
from .exactnum import QuadraticElem, squarefree_part
from .exactnum.quadratic import _from_parts, squarefree_cores
from .tanratio import TangentRatio

MuSource = Union[TangentRatio, QuadraticElem]


class AdmissibleTriple:
    """(b, e) with the derived lambda = (e + sqrt(e^2 + 4b))/2; immutable."""

    __slots__ = ("b", "e", "lam")

    def __init__(self, b: int, e: int, lam: QuadraticElem):
        """Certify that (b, e) is admissible and lam the positive root of
        x^2 = e*x + b.

        With lam = (an + bn*sqrt(d))/den, den^2 * (lam^2 - e*lam - b) is
        (an^2 + d*bn^2 - e*an*den - b*den^2) + bn*(2*an - e*den)*sqrt(d).
        For bn != 0 the radicand d >= 2 is squarefree, so sqrt(d) is
        irrational and the quadratic holds exactly when both integers
        vanish; for a rational lam, bn = 0 and only the first one is left.
        The other root e - lam satisfies the same quadratic, and of the two
        roots (product -b < 0) lam is the positive one exactly when
        2*lam - e > 0; once the quadratic holds, one of bn and 2*an - e*den
        is zero, so that sign is the sign of 2*an - e*den + bn.
        """
        if not is_admissible(b, e):
            raise ValueError(f"(b={b}, e={e}) is not admissible")
        an, bn, den = lam.an, lam.bn, lam.den
        twice_shift = 2 * an - e * den
        if (
            an * an + lam.d * bn * bn - e * an * den - b * den * den
            or bn * twice_shift
            or twice_shift + bn <= 0
        ):
            raise ValueError(f"lambda = {lam} does not satisfy x^2 = {e}x + {b}")
        # The class refuses attribute assignment; the slot descriptors set
        # the fields directly, as in QuadraticElem.
        _set_b(self, b)
        _set_e(self, e)
        _set_lam(self, lam)

    def __setattr__(self, name, value):
        raise AttributeError("AdmissibleTriple is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, AdmissibleTriple):
            return (self.b, self.e, self.lam) == (other.b, other.e, other.lam)
        return NotImplemented

    def __str__(self) -> str:
        return f"(b={self.b}, e={self.e}, lambda={self.lam})"

    def __repr__(self) -> str:
        return f"AdmissibleTriple{self}"


_set_b = AdmissibleTriple.b.__set__
_set_e = AdmissibleTriple.e.__set__
_set_lam = AdmissibleTriple.lam.__set__


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
    """(trace, norm) of lambda + 1, the norm cross-checked on lambda's integers.

    The closed forms are trace = e + 2 and norm = e + 1 - b.  The other
    root of the defining quadratic is e - lambda, so that of lambda + 1 is
    (e + 1) - lambda: for irrational lambda the quadratic-field conjugate.
    The two roots sum to e + 2 whatever lambda is, so only their product
    tests lambda.  With lambda = (an + bn*sqrt(d))/den, den^2 times that
    product is ((an + den)*((e + 1)*den - an) - d*bn^2)
    + bn*(e*den - 2*an)*sqrt(d); sqrt(d) is irrational for bn != 0 (d >= 2
    squarefree), so the product is the norm exactly when the first integer
    is norm*den^2 and the second is 0.  The conjugate root gives the same
    product, so lambda must also be the positive root: 2*lambda - e > 0,
    whose sign is that of 2*an - e*den + bn once the product matches.
    """
    b, e, lam = t.b, t.e, t.lam
    trace, norm = e + 2, e + 1 - b
    an, bn, den = lam.an, lam.bn, lam.den
    twice_shift = 2 * an - e * den
    if (
        (an + den) * ((e + 1) * den - an) - lam.d * bn * bn != norm * den * den
        or bn * twice_shift
        or twice_shift + bn <= 0
    ):
        raise ArithmeticInconsistencyError(
            f"closed-form trace/norm ({trace}, {norm}) disagree with lambda = {lam}"
        )
    return trace, norm


def unit_case_triples() -> list[AdmissibleTriple]:
    """Admissible (b, e) with |norm(lambda + 1)| = |e + 1 - b| = 1.

    Admissibility forces b > e + 1, so the norm is at most -1 and the
    condition pins b = e + 2: (b=1, e=-1), (b=2, e=0), and (b=3, e=1),
    which is not admissible because e = 1 needs an even b.  The answer
    therefore covers every admissible (b, e), with no bound on b.
    """
    return [make_triple(e + 2, e) for e in (-1, 0, 1) if is_admissible(e + 2, e)]


class CandidateCheck(NamedTuple):
    """One of the four height-ratio candidates and how it fared."""

    label: str
    value: QuadraticElem
    trace: Fraction
    norm: Fraction
    reason: str  # "matched", "trace not in {1,2,3}", "norm not an integer", "no admissible b"


class ExclusionVerdict(NamedTuple):
    """Result of testing one quadratic ratio against all admissible pairs."""

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
                reason=_match_reason(trace, norm, matches),
            )
        )
    return ExclusionVerdict(
        mu_value=mu,
        candidates_checked=tuple(candidates),
        matching_triples=tuple(all_matches),
        excluded=not all_matches,
    )
