"""Tests for admissible L-shaped parameters and the exclusion engine."""

from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsion_packet.cli import cmd_lshape
from torsion_packet.errors import ArithmeticInconsistencyError, UsageError
from torsion_packet.exactnum import QuadraticElem
from torsion_packet.lshape import (
    AdmissibleTriple,
    enumerate_triples,
    exclude_against_table1,
    is_admissible,
    make_triple,
    matching_triples_for,
    trace_norm_lambda_plus_one,
    unit_case_triples,
)
from torsion_packet.tanratio import normalized_nonunit_rows, ratio

from quadratic_reference import RefQuadratic


def test_admissibility_conditions():
    assert is_admissible(1, -1) and is_admissible(2, 0) and is_admissible(4, 1)
    assert not is_admissible(1, 0)  # e + 1 < b fails
    assert not is_admissible(5, 1)  # odd b with e = 1
    assert not is_admissible(3, 2)  # e out of range


def test_enumerate_smallest_cases():
    triples = [(t.b, t.e) for t in enumerate_triples(2)]
    assert triples == [(1, -1), (2, -1), (2, 0)]


def test_pentagon_and_octagon_lambdas():
    pentagon = make_triple(1, -1)
    octagon = make_triple(2, 0)
    assert pentagon.lam == QuadraticElem(F(-1, 2), F(1, 2), 5)
    assert octagon.lam == QuadraticElem(0, 1, 2)


def test_sieved_enumeration_matches_make_triple():
    pairs = [(b, e) for b in range(1, 301) for e in (-1, 0, 1) if is_admissible(b, e)]
    sieved, direct = list(enumerate_triples(300)), [make_triple(b, e) for b, e in pairs]
    assert sieved == direct
    # Equality ignores the inert radicand of a rational lambda; compare it too.
    assert [t.lam.d for t in sieved] == [t.lam.d for t in direct]


def test_lambda_satisfies_its_quadratic():
    for t in enumerate_triples(50):
        lam = RefQuadratic.of(t.lam)
        e, b = RefQuadratic(t.e, 0, lam.d), RefQuadratic(t.b, 0, lam.d)
        assert lam * lam == e * lam + b
        assert lam.sign() == 1


def test_rational_lambda_case():
    # e = 0, b = 4 has square discriminant 16, so lambda = 2.
    t = make_triple(4, 0)
    assert t.lam == 2


def test_trace_norm_examples():
    assert trace_norm_lambda_plus_one(make_triple(1, -1)) == (1, -1)
    assert trace_norm_lambda_plus_one(make_triple(2, 0)) == (2, -1)
    assert trace_norm_lambda_plus_one(make_triple(4, 1)) == (3, -2)
    with pytest.raises(ValueError):
        make_triple(5, 1)


def test_forged_lambda_fails_trace_norm_cross_check():
    # sqrt(2) in place of sqrt(3) for (b=3, e=0): the trace of lambda + 1
    # still matches, the norm does not.
    t = make_triple(3, 0)
    object.__setattr__(t, "lam", QuadraticElem(0, 1, 2))
    with pytest.raises(ArithmeticInconsistencyError, match="disagree"):
        trace_norm_lambda_plus_one(t)


def test_trace_norm_closed_form_matches_field_arithmetic():
    for t in enumerate_triples(60):
        trace, norm = trace_norm_lambda_plus_one(t)
        lam = RefQuadratic.of(t.lam)
        lam1 = lam + RefQuadratic(1, 0, lam.d)
        if not t.lam.is_rational():
            # quadratic-field trace/norm agree with the defining-quadratic frame
            assert lam1.trace() == trace and lam1.norm() == norm
        assert lam1 * (RefQuadratic(t.e + 1, 0, lam.d) - lam) == RefQuadratic(norm, 0, lam.d)
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
    closed_form = [(t.b, t.e) for t in unit_case_triples()]
    assert closed_form == [(1, -1), (2, 0)]
    for b_max in range(3, 200):
        assert _unit_case_scan(b_max) == closed_form
    for b_max in (1000, 10_000):
        assert _unit_case_scan(b_max) == closed_form


def test_unit_case_large_bound():
    assert _unit_case_scan(10**6) == [(t.b, t.e) for t in unit_case_triples()]


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
    row = ratio(F(1, 10), F(1, 5))
    verdict = exclude_against_table1(row)
    assert verdict.excluded and not verdict.matching_triples
    assert [str(c.trace) for c in verdict.candidates_checked] == ["0", "0", "0", "0"]
    inv_norms = {c.label: c.norm for c in verdict.candidates_checked}
    assert inv_norms["1/mu"] == F(-1, 5)


def test_trace_two_candidate_fails_on_norm():
    row = ratio(F(1, 10), F(2, 5))
    verdict = exclude_against_table1(row)
    assert verdict.excluded
    by_label = {c.label: c for c in verdict.candidates_checked}
    assert by_label["1/mu"].trace == 2
    assert by_label["1/mu"].norm == F(1, 5)
    assert by_label["1/mu"].reason == "norm not an integer"
    assert {by_label[l].reason for l in ("mu", "-mu", "-1/mu")} == {"trace not in {1,2,3}"}


def test_all_reference_rows_excluded():
    rows = normalized_nonunit_rows(12)
    assert len(rows) == 9
    for row in rows:
        assert exclude_against_table1(row).excluded


def test_exclusion_rejects_wrong_degree_or_units():
    with pytest.raises(ValueError, match="degree-2"):
        exclude_against_table1(ratio(F(1, 6), F(1, 3)))
    with pytest.raises(ValueError, match="non-unit"):
        exclude_against_table1(ratio(F(1, 12), F(1, 4)))


def test_engine_sensitivity_to_norm_mutation():
    # A trace-compatible synthetic mutation must produce a match: trace 2
    # with norm -1 corresponds to the octagon parameters.
    assert [(t.b, t.e) for t in matching_triples_for(F(2), F(-1))] == [(2, 0)]
    assert [(t.b, t.e) for t in matching_triples_for(F(1), F(-1))] == [(1, -1)]
    # 1 + sqrt(2) has trace 2, norm -1: the engine reports a match,
    # so the nine exclusions above are not vacuous.
    verdict = exclude_against_table1(QuadraticElem(1, 1, 2))
    assert not verdict.excluded
    assert [(t.b, t.e) for t in verdict.matching_triples] == [(2, 0)]


def test_matching_requires_admissibility():
    assert matching_triples_for(F(3), F(-2)) == [make_triple(4, 1)]
    assert matching_triples_for(F(3), F(-1)) == []  # b = 3 odd with e = 1
    assert matching_triples_for(F(2), F(1, 5)) == []  # non-integral norm
    assert matching_triples_for(F(4), F(-1)) == []  # trace out of range


def test_exclusion_has_no_bound_on_b():
    # 1 + sqrt(20001) has trace 2 and norm -20,000, the lambda + 1 of
    # (b=20001, e=0): the norm fixes b, however large.
    assert [(t.b, t.e) for t in matching_triples_for(F(2), F(-20_000))] == [(20_001, 0)]
    verdict = exclude_against_table1(QuadraticElem(1, 1, 20_001))
    assert not verdict.excluded
    assert [(t.b, t.e) for t in verdict.matching_triples] == [(20_001, 0)]


def test_candidate_set_closed_under_inversion():
    rows = normalized_nonunit_rows(12)
    for row in rows:
        mu = row.mu_as_quadratic()
        v1 = exclude_against_table1(mu)
        v2 = exclude_against_table1(mu.inverse())
        assert v1.excluded == v2.excluded
        vals1 = {(c.trace, c.norm) for c in v1.candidates_checked}
        vals2 = {(c.trace, c.norm) for c in v2.candidates_checked}
        assert vals1 == vals2


def test_triple_construction_validation():
    with pytest.raises(ValueError):
        make_triple(1, 0)
    with pytest.raises(ValueError):
        AdmissibleTriple(2, 0, QuadraticElem(0, 1, 3))  # wrong lambda


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
    root = make_triple(b, e).lam
    parts = {"an": root.an, "bn": root.bn, "den": root.den, "d": root.d}
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
    try:
        AdmissibleTriple(b, e, lam)
        accepted = True
    except ValueError as exc:
        assert "does not satisfy" in str(exc)
        accepted = False
    assert accepted == (ref * (ref - rational(e)) == rational(b) and positive)

    t = make_triple(b, e)
    object.__setattr__(t, "lam", lam)
    try:
        assert trace_norm_lambda_plus_one(t) == (e + 2, e + 1 - b)
        cross_checked = True
    except ArithmeticInconsistencyError as exc:
        assert "disagree" in str(exc)
        cross_checked = False
    lam1 = ref + rational(1)
    assert cross_checked == (lam1 * (rational(e + 1) - ref) == rational(e + 1 - b) and positive)


def _forgeries(t):
    """Wrong lambdas for the triple t, by name."""
    disc = t.e * t.e + 4 * t.b
    an, bn, den, d = t.lam.an, t.lam.bn, t.lam.den, t.lam.d
    s = isqrt(disc // d) if bn else isqrt(disc)
    # e - lambda = ((e*den - an) - bn*sqrt(d))/den
    forged = {"conjugate root": QuadraticElem(F(t.e * den - an, den), F(-bn, den), d)}
    if bn:
        forged["wrong radicand"] = QuadraticElem(F(t.e, 2), F(s, 2), 3 if d == 2 else 2)
        forged["rational lambda"] = QuadraticElem(F(t.e + s, 2), 0, 2)
        forged["den 1 for 2"] = QuadraticElem(t.e, s, d)
    else:
        forged["den 1 for 2"] = QuadraticElem(t.e + s, 0, 2)
    return forged


def test_forged_lambdas_fail_both_checks():
    seen = set()
    for t in enumerate_triples(60):
        for name, lam in _forgeries(t).items():
            seen.add(name)
            with pytest.raises(ValueError, match="does not satisfy"):
                AdmissibleTriple(t.b, t.e, lam)
            forged = make_triple(t.b, t.e)
            object.__setattr__(forged, "lam", lam)
            with pytest.raises(ArithmeticInconsistencyError, match="disagree"):
                trace_norm_lambda_plus_one(forged)
    assert seen == {"conjugate root", "wrong radicand", "rational lambda", "den 1 for 2"}
