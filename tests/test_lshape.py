"""Tests for admissible L-shaped parameters and the exclusion engine."""

from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torsion_packet import lshape
from torsion_packet.cli import cmd_lshape
from torsion_packet.errors import UsageError
from torsion_packet.exactnum import QuadraticElem, real_value
from torsion_packet.exactnum.quadratic import parts_str, squarefree_part
from torsion_packet.lshape import (
    enumerate_triples,
    exclude_against_table1,
    is_admissible,
    is_positive_root,
    make_triple,
    matching_triples_for,
    trace_norm_lambda_plus_one,
    unit_case_triples,
)
from torsion_packet.tanratio import normalized_nonunit_rows

from exact_helpers import ratio_value
from quadratic_reference import RefQuadratic


def _parts(lam):
    """The integers (an, bn, den, d) of lam = (an + bn*sqrt(d))/den."""
    return lam.an, lam.bn, lam.den, lam.d


def test_admissibility_conditions():
    assert is_admissible(1, -1) and is_admissible(2, 0) and is_admissible(4, 1)
    assert not is_admissible(1, 0)  # e + 1 < b fails
    assert not is_admissible(5, 1)  # odd b with e = 1
    assert not is_admissible(3, 2)  # e out of range


def test_enumerate_smallest_cases():
    rows = list(enumerate_triples(2))
    assert rows == [(1, -1, -1, 1, 2, 5), (2, -1, 1, 0, 1, 2), (2, 0, 0, 1, 1, 2)]


def test_pentagon_and_octagon_lambdas():
    assert make_triple(1, -1) == (1, -1, *_parts(QuadraticElem(F(-1, 2), F(1, 2), 5)))
    assert make_triple(2, 0) == (2, 0, *_parts(QuadraticElem(0, 1, 2)))


def test_sieved_enumeration_matches_make_triple():
    # Each sieved row is make_triple's row, and the public QuadraticElem
    # constructor, which reduces and checks the radicand, gives its lambda
    # the same parts (the inert radicand of a rational lambda included)
    # and the same display.
    pairs = [(b, e) for b in range(1, 301) for e in (-1, 0, 1) if is_admissible(b, e)]
    rows = list(enumerate_triples(300))
    assert [row[:2] for row in rows] == pairs
    for row in rows:
        an, bn, den, d = row[2:]
        lam = QuadraticElem(F(an, den), F(bn, den), d)
        assert row == make_triple(*row[:2]) == (*row[:2], *_parts(lam))
        assert is_positive_root(*row)
        assert parts_str(*row[2:]) == str(lam)


def test_lambda_satisfies_its_quadratic():
    for b, e, *parts in enumerate_triples(50):
        lam = RefQuadratic.of_parts(*parts)
        e, b = RefQuadratic(e, 0, lam.d), RefQuadratic(b, 0, lam.d)
        assert lam * lam == e * lam + b
        assert lam.sign() == 1


def test_rational_lambda_case():
    # e = 0, b = 4 has square discriminant 16, so lambda = 2.
    assert make_triple(4, 0) == (4, 0, 2, 0, 1, 2)


def test_trace_norm_examples():
    for (b, e), expected in (((1, -1), (1, -1)), ((2, 0), (2, -1)), ((4, 1), (3, -2))):
        t = make_triple(b, e)
        assert trace_norm_lambda_plus_one(*t[:2]) == expected
    with pytest.raises(ValueError):
        make_triple(5, 1)


def test_forged_lambda_fails_trace_norm_cross_check():
    # sqrt(2) in place of sqrt(3) for (b=3, e=0): the trace of lambda + 1
    # still matches, the norm does not, and the certificate refuses it.
    assert is_positive_root(*make_triple(3, 0))
    assert not is_positive_root(3, 0, *_parts(QuadraticElem(0, 1, 2)))


def test_trace_norm_closed_form_matches_field_arithmetic():
    for b, e, an, bn, den, d in enumerate_triples(60):
        trace, norm = trace_norm_lambda_plus_one(b, e)
        lam = RefQuadratic.of_parts(an, bn, den, d)
        lam1 = lam + RefQuadratic(1, 0, lam.d)
        if bn:
            # quadratic-field trace/norm agree with the defining-quadratic frame
            assert lam1.trace() == trace and lam1.norm() == norm
        assert lam1 * (RefQuadratic(e + 1, 0, lam.d) - lam) == RefQuadratic(norm, 0, lam.d)
        assert trace in (1, 2, 3) and norm <= -1


def _unit_case_scan(b_max):
    """The oracle of the closed form: every admissible (b, e) with
    b <= b_max and |e + 1 - b| = 1, found by trying them all."""
    return [
        (b, e)
        for b in range(1, b_max + 1)
        for e in (-1, 0, 1)
        if is_admissible(b, e) and abs(e + 1 - b) == 1
    ]


def test_unit_case_is_pentagon_and_octagon_only():
    # the closed form against the scan, exhaustively over small bounds,
    # then spot checks at larger ones
    closed_form = [t[:2] for t in unit_case_triples()]
    assert closed_form == [(1, -1), (2, 0)]
    for b_max in range(3, 200):
        assert _unit_case_scan(b_max) == closed_form
    for b_max in (1000, 10_000):
        assert _unit_case_scan(b_max) == closed_form


def test_unit_case_large_bound():
    assert _unit_case_scan(10**6) == [t[:2] for t in unit_case_triples()]


def test_unit_case_bound_validation():
    # Only enumerate reads --b-max, so only enumerate validates it; the
    # unit case is a closed form and takes no bound.
    with pytest.raises(UsageError):
        cmd_lshape("enumerate", 2)
    report = cmd_lshape("unit-case", 2)
    assert report.verdict == "verified" and "b_max" not in report.parameters


# --------------------------------------------------------------------------
# exclusion engine


def test_sqrt5_row_is_excluded_on_trace():
    candidates, matches = exclude_against_table1(ratio_value((1, 10), (1, 5)))
    assert matches == ()
    assert [str(c["trace"]) for c in candidates] == ["0", "0", "0", "0"]
    inv_norms = {c["label"]: c["norm"] for c in candidates}
    assert inv_norms["1/mu"] == F(-1, 5)


def test_trace_two_candidate_fails_on_norm():
    candidates, matches = exclude_against_table1(ratio_value((1, 10), (2, 5)))
    assert matches == ()
    by_label = {c["label"]: c for c in candidates}
    assert list(by_label) == ["mu", "-mu", "1/mu", "-1/mu"]
    assert list(by_label["1/mu"]) == ["label", "value", "trace", "norm", "reason"]
    assert by_label["1/mu"]["trace"] == 2
    assert by_label["1/mu"]["norm"] == F(1, 5)
    assert by_label["1/mu"]["reason"] == "norm not an integer"
    assert {by_label[l]["reason"] for l in ("mu", "-mu", "-1/mu")} == {"trace not in {1,2,3}"}


def test_all_reference_rows_excluded():
    rows = normalized_nonunit_rows(12)
    assert len(rows) == 9
    for _, _, poly, mu in rows:
        assert exclude_against_table1(real_value(mu, poly))[1] == ()


def test_exclusion_rejects_a_rational_value():
    # tan(pi/3)/tan(pi/6) = 3 has degree 1: its value is a Fraction.
    with pytest.raises(ValueError, match="degree-2"):
        exclude_against_table1(ratio_value((1, 6), (1, 3)))
    with pytest.raises(ValueError, match="degree-2"):
        exclude_against_table1(QuadraticElem(3, 0, 2))


def test_engine_sensitivity_to_norm_mutation():
    # A trace-compatible synthetic mutation must produce a match: trace 2
    # with norm -1 corresponds to the octagon parameters.
    assert [t[:2] for t in matching_triples_for(F(2), F(-1))[0]] == [(2, 0)]
    assert [t[:2] for t in matching_triples_for(F(1), F(-1))[0]] == [(1, -1)]
    # 1 + sqrt(2) has trace 2, norm -1: the engine reports a match,
    # so the nine exclusions above are not vacuous.
    _, matches = exclude_against_table1(QuadraticElem(1, 1, 2))
    assert matches == (make_triple(2, 0),)


def test_matching_requires_admissibility():
    assert matching_triples_for(F(3), F(-2)) == ([make_triple(4, 1)], "matched")
    assert matching_triples_for(F(3), F(-1)) == ([], "no admissible b")  # b = 3 odd with e = 1
    assert matching_triples_for(F(2), F(1, 5)) == ([], "norm not an integer")
    assert matching_triples_for(F(4), F(-1)) == ([], "trace not in {1,2,3}")
    assert matching_triples_for(F(5, 2), F(1, 5)) == ([], "trace not in {1,2,3}")


def test_exclusion_has_no_bound_on_b():
    # 1 + sqrt(20001) has trace 2 and norm -20,000, the lambda + 1 of
    # (b=20001, e=0): the norm fixes b, however large.
    assert [t[:2] for t in matching_triples_for(F(2), F(-20_000))[0]] == [(20_001, 0)]
    _, matches = exclude_against_table1(QuadraticElem(1, 1, 20_001))
    assert [t[:2] for t in matches] == [(20_001, 0)]


def test_candidate_set_closed_under_inversion():
    rows = normalized_nonunit_rows(12)
    for _, _, poly, exact in rows:
        mu = real_value(exact, poly)
        candidates1, matches1 = exclude_against_table1(mu)
        candidates2, matches2 = exclude_against_table1(mu.inverse())
        assert set(matches1) == set(matches2)
        vals1 = {(c["trace"], c["norm"]) for c in candidates1}
        vals2 = {(c["trace"], c["norm"]) for c in candidates2}
        assert vals1 == vals2


# Traces and norms around the admissible ones, and their inverses' norms.
_TRACE_OR_NORM = st.one_of(
    st.integers(-40, 40).map(F),
    st.integers(-40, 40).filter(bool).map(lambda k: F(1, k)),
    st.fractions(-6, 6, max_denominator=6),
)


@settings(max_examples=300, deadline=None)
@given(_TRACE_OR_NORM, _TRACE_OR_NORM)
@example(F(3), F(-2))  # mu = (3 + sqrt(17))/2 matches (b=4, e=1)
@example(F(-3, 2), F(-1, 2))  # mu = (-3 + sqrt(17))/4: its 1/mu matches (b=4, e=1)
def test_a_non_unit_matches_on_at_most_one_candidate(trace, norm):
    # A matched candidate has an integer trace in {1, 2, 3} and an integer
    # norm.  For a non-unit, mu and 1/mu cannot both have integer norms,
    # and of +-x only one has a positive trace, so at most one of the four
    # candidates matches, and so at most one triple.  This is why one
    # representative decides the exclusion for its whole Galois orbit.
    disc = trace * trace - 4 * norm
    assume(disc > 0)
    s, d = squarefree_part(disc.numerator * disc.denominator)
    assume(d >= 2)
    mu = QuadraticElem(trace / 2, F(s, 2 * disc.denominator), d)
    assert (mu.trace(), mu.norm()) == (trace, norm)
    assume(not (trace.denominator == 1 and norm in (1, -1)))
    candidates, matches = exclude_against_table1(mu)
    matched = [c["label"] for c in candidates if c["reason"] == "matched"]
    assert len(matched) <= 1 and len(matches) == len(matched), (mu, matched)


def test_triple_construction_validation(monkeypatch):
    with pytest.raises(ValueError, match=r"\(b=1, e=0\) is not admissible"):
        make_triple(1, 0)
    assert not is_positive_root(2, 0, *_parts(QuadraticElem(0, 1, 3)))  # wrong lambda
    monkeypatch.setattr(lshape, "_lambda_parts", lambda b, e, d: (0, 1, 1, 3))
    with pytest.raises(ValueError, match=r"lambda = sqrt\(3\) does not satisfy x\^2 = 0x \+ 2"):
        make_triple(2, 0)


# --------------------------------------------------------------------------
# the integer certificates of lambda


_PAIRS = st.tuples(st.integers(1, 120), st.sampled_from((-1, 0, 1))).filter(
    lambda p: is_admissible(*p)
)
_FRESH_PARTS = {
    "an": st.integers(-60, 60),
    "bn": st.integers(-6, 6),
    "den": st.integers(1, 4),
    "d": st.sampled_from((2, 3, 5, 6, 7, 10, 13, 17, 21, 33)),
}


@st.composite
def _pair_and_lambda(draw):
    """An admissible (b, e) and a lambda built by the public constructor:
    the true root, the true root with one of (an, bn, den, d) redrawn, or
    all four drawn afresh."""
    b, e = draw(_PAIRS)
    parts = dict(zip(_FRESH_PARTS, make_triple(b, e)[2:]))
    change = draw(st.sampled_from(("none", "an", "bn", "den", "d", "all")))
    for name, fresh in _FRESH_PARTS.items():
        if change in (name, "all"):
            parts[name] = draw(fresh)
    den = parts["den"]
    return b, e, QuadraticElem(F(parts["an"], den), F(parts["bn"], den), parts["d"])


@settings(max_examples=400, deadline=None)
@given(_pair_and_lambda())
def test_integer_certificates_agree_with_field_arithmetic(case):
    b, e, lam = case
    ref = RefQuadratic.of(lam)

    def rational(x):
        return RefQuadratic(x, 0, ref.d)

    positive = ref.sign() > 0
    accepted = is_positive_root(b, e, *_parts(lam))
    assert accepted == (ref * (ref - rational(e)) == rational(b) and positive)

    # The same certificate is the field identity that makes e + 1 - b the
    # norm of lambda + 1, (lambda + 1)(e + 1 - lambda) = e + 1 - b.
    lam1 = ref + rational(1)
    assert accepted == (lam1 * (rational(e + 1) - ref) == rational(e + 1 - b) and positive)


def _forgeries(b, e, an, bn, den, d):
    """Wrong lambdas for the row (b, e, an, bn, den, d), by name."""
    disc = e * e + 4 * b
    s = isqrt(disc // d) if bn else isqrt(disc)
    # e - lambda = ((e*den - an) - bn*sqrt(d))/den
    forged = {"conjugate root": QuadraticElem(F(e * den - an, den), F(-bn, den), d)}
    if bn:
        forged["wrong radicand"] = QuadraticElem(F(e, 2), F(s, 2), 3 if d == 2 else 2)
        forged["rational lambda"] = QuadraticElem(F(e + s, 2), 0, 2)
        forged["den 1 for 2"] = QuadraticElem(e, s, d)
    else:
        forged["den 1 for 2"] = QuadraticElem(e + s, 0, 2)
    return forged


def test_forged_lambdas_fail_both_checks(monkeypatch):
    # Each forgery fails the certificate, and make_triple, handed its
    # parts in place of the derived ones, refuses it.  The rows are sieved
    # before any forgery replaces _lambda_parts.
    seen = set()
    for row in list(enumerate_triples(60)):
        b, e = row[:2]
        assert is_positive_root(*row)
        for name, lam in _forgeries(*row).items():
            seen.add(name)
            assert not is_positive_root(b, e, *_parts(lam))
            monkeypatch.setattr(lshape, "_lambda_parts", lambda b, e, d: _parts(lam))
            with pytest.raises(ValueError, match="does not satisfy"):
                make_triple(b, e)
    assert seen == {"conjugate root", "wrong radicand", "rational lambda", "den 1 for 2"}
