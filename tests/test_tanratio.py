"""Tests for tangent-ratio embedding, classification and enumeration."""

import math
from fractions import Fraction as F

import pytest

from torsion_packet.exactnum import (
    MinPoly,
    QuadraticElem,
    minimal_polynomial,
    sign_of_real,
)
from torsion_packet.tanratio import (
    RationalAngle,
    _pair_degree_exact,
    _tan_table,
    angles_up_to,
    check_addition_formula,
    enumerate_ratios,
    normalize_by_galois,
    normalized_nonunit_rows,
    ratio,
    sin_of,
    tan_of,
)


def ang(p, q):
    return RationalAngle.of(p, q)


# --------------------------------------------------------------------------
# angles and tangent embedding


def test_angle_domain():
    for bad in (F(0), F(1, 2), F(-1, 4), F(3, 5)):
        with pytest.raises(ValueError):
            RationalAngle(bad)
    assert ang(1, 4).conductor == 8
    assert ang(1, 10).conductor == 20


def test_tan_of_quarter_pi_is_one():
    assert tan_of(ang(1, 4)) == 1


def test_tan_of_pi_over_six_squares_to_one_third():
    t = tan_of(ang(1, 6))
    assert t * t == F(1, 3)
    assert minimal_polynomial(t) == MinPoly([F(-1, 3), 0, 1])


def test_tan_of_pi_over_five_minpoly():
    # tan(pi/5) has minimal polynomial x^4 - 10x^2 + 5: verified by the
    # exact Galois orbit product.
    mp = minimal_polynomial(tan_of(ang(1, 5)))
    assert mp == MinPoly([5, 0, -10, 0, 1])


def test_tan_values_are_real_and_positive():
    for p, q in ((1, 3), (1, 8), (3, 10), (5, 12), (2, 7)):
        t = tan_of(ang(p, q))
        assert t.is_real()
        assert sign_of_real(t) == 1


def test_sin_embedding_satisfies_pythagoras():
    for p, q in ((1, 6), (1, 4), (2, 5)):
        m = ang(p, q).conductor
        s = sin_of(ang(p, q))
        c = s / tan_of(ang(p, q))
        assert s * s + c * c == 1


def test_tan_against_generic_inverse():
    # the closed-form cotangent used inside ratio() agrees with a plain
    # field inversion of the tangent
    for p, q in ((1, 5), (3, 8), (5, 12)):
        t = tan_of(ang(p, q))
        assert t * t.inverse() == 1
        assert ratio(ang(1, 7), ang(p, q)).mu * tan_of(ang(1, 7)).to_conductor(
            ratio(ang(1, 7), ang(p, q)).mu.m
        ) == tan_of(ang(p, q)).to_conductor(ratio(ang(1, 7), ang(p, q)).mu.m)


# --------------------------------------------------------------------------
# ratios


def test_ratio_examples_from_reference_list():
    r = ratio(ang(1, 10), ang(2, 5))
    assert r.degree == 2 and r.trace == 10 and r.norm == 5
    assert r.mu_as_quadratic() == QuadraticElem(5, 2, 5)

    r = ratio(ang(1, 12), ang(1, 6))
    assert r.degree == 2 and r.trace == 2 and r.norm == F(-1, 3)
    assert r.mu_as_quadratic() == QuadraticElem(1, F(2, 3), 3)


def test_ratio_degree_one():
    r = ratio(ang(1, 6), ang(1, 3))
    assert r.degree == 1 and r.mu == 3


def test_ratio_requires_alpha_below_beta():
    with pytest.raises(ValueError):
        ratio(ang(1, 3), ang(1, 4))
    with pytest.raises(ValueError):
        ratio(ang(1, 4), ang(1, 4))


def test_mu_exceeds_one():
    for r in enumerate_ratios(2, 8):
        assert sign_of_real(r.mu - 1) == 1
    assert sign_of_real(ratio(ang(1, 6), ang(1, 3)).mu - 1) == 1


def test_unit_flags():
    assert not ratio(ang(1, 10), ang(1, 5)).is_unit  # sqrt(5), norm -5
    r = ratio(ang(1, 12), ang(1, 4))
    assert r.mu_as_quadratic() == QuadraticElem(2, 1, 3)
    assert r.is_unit  # 2 + sqrt(3), norm 1


# --------------------------------------------------------------------------
# enumeration


def test_enumerate_smallest_bound():
    # The only pair with both denominators <= 4 is (1/4, 1/3), whose ratio
    # tan(pi/3)/tan(pi/4) = sqrt(3) is quadratic (it is a shipped row of
    # the reference list).
    rows = enumerate_ratios(2, 4)
    assert [(str(r.alpha), str(r.beta)) for r in rows] == [("1/4", "1/3")]
    assert rows[0].trace == 0 and rows[0].norm == -3


def test_enumerate_degree_one():
    rows = enumerate_ratios(1, 6)
    assert any((r.alpha.value, r.beta.value, r.mu) == (F(1, 6), F(1, 3), 3) for r in rows)


def test_enumerate_is_sorted_and_respects_bound():
    rows = enumerate_ratios(2, 12)
    keys = [(r.alpha.value, r.beta.value) for r in rows]
    assert keys == sorted(keys)
    assert all(
        r.alpha.denominator <= 12 and r.beta.denominator <= 12 for r in rows
    )
    assert all(r.degree == 2 for r in rows)


def test_enumerate_parameter_validation():
    with pytest.raises(ValueError):
        enumerate_ratios(0, 12)
    with pytest.raises(ValueError):
        enumerate_ratios(2, 2)


def test_numeric_prefilter_agrees_with_exact_path():
    # Oracle: exact orbit counting on every pair up to bound 14.  The
    # certified float filter with exact confirmation keeps exactly the
    # pairs of each exact degree.
    angles = angles_up_to(14)
    exact_degree = {
        (a.value, b.value): _pair_degree_exact(a, b, 4)
        for i, a in enumerate(angles)
        for b in angles[i + 1 :]
    }
    for d in range(1, 5):
        kept = [(r.alpha.value, r.beta.value) for r in enumerate_ratios(d, 14)]
        assert kept, d
        assert kept == sorted(k for k, deg in exact_degree.items() if deg == d)


def test_tan_table_entries_within_their_error_bound():
    # Ties the float table to the exact core: every entry t with q <= 12
    # has the exact tangent strictly between t*(1 - 2^-52) and t*(1 + 2^-52).
    table = _tan_table(12)
    assert sorted(table) == list(range(3, 13))
    eps = F(1, 2**52)
    checked = 0
    for q, row in table.items():
        assert len(row) == q
        for r in range(1, q):
            if math.gcd(r, q) != 1:
                continue
            if 2 * r < q:
                exact = tan_of(ang(r, q))
            else:
                exact = -tan_of(ang(q - r, q))
            t = F(row[r])
            lo, hi = sorted((t * (1 - eps), t * (1 + eps)))
            assert sign_of_real(exact - lo) == 1 and sign_of_real(hi - exact) == 1, (r, q)
            checked += 1
    assert checked == sum(1 for q in range(3, 13) for r in range(1, q) if math.gcd(r, q) == 1)


# --------------------------------------------------------------------------
# Galois normalization


def test_normalize_identity_when_already_normalized():
    r = ratio(ang(1, 10), ang(1, 5))
    assert normalize_by_galois(r) is r


def test_normalize_moves_numerator_to_one():
    r = ratio(ang(3, 10), ang(2, 5))
    n = normalize_by_galois(r)
    assert (n.alpha.value, n.beta.value) == (F(1, 10), F(1, 5))
    assert n.trace == r.trace and n.norm == r.norm


def test_normalize_preserves_degree():
    for r in enumerate_ratios(2, 12):
        assert normalize_by_galois(r).degree == r.degree


def test_normalized_nonunit_rows_at_12():
    rows = normalized_nonunit_rows(12)
    got = [(str(r.alpha), str(r.beta), r.trace, r.norm) for r in rows]
    assert got == [
        ("1/12", "1/6", 2, F(-1, 3)),
        ("1/12", "1/3", 6, -3),
        ("1/10", "1/5", 0, -5),
        ("1/10", "2/5", 10, 5),
        ("1/6", "1/4", 0, -3),
        ("1/6", "5/12", 6, -3),
        ("1/5", "3/10", 2, F(1, 5)),
        ("1/4", "1/3", 0, -3),
        ("1/3", "5/12", 2, F(-1, 3)),
    ]
    assert all(not r.is_unit for r in rows)


def test_stability_up_to_20():
    # A light version of the acceptance stability sweep.
    at_12 = [(r.alpha.value, r.beta.value) for r in normalized_nonunit_rows(12)]
    at_20 = [(r.alpha.value, r.beta.value) for r in normalized_nonunit_rows(20)]
    assert at_12 == at_20


# --------------------------------------------------------------------------
# floating-point cross-check (sanity only, never the source of truth)


def test_float_agreement_denominators_up_to_16():
    angles = angles_up_to(16)
    for i, alpha in enumerate(angles):
        for beta in angles[i + 1 :]:
            r = ratio(alpha, beta)
            approx = r.mu.complex_embedding()
            expected = math.tan(math.pi * float(beta.value)) / math.tan(
                math.pi * float(alpha.value)
            )
            assert abs(approx.imag) < 1e-9
            assert abs(approx.real - expected) <= 1e-9 * max(1.0, abs(expected))


# --------------------------------------------------------------------------
# addition formula


def test_addition_formula_examples():
    assert check_addition_formula(ang(1, 3), ang(1, 6))
    assert check_addition_formula(ang(2, 5), ang(1, 5))
    assert check_addition_formula(ang(1, 4), ang(1, 12))


def test_addition_formula_rejects_equal_angles():
    with pytest.raises(ValueError):
        check_addition_formula(ang(1, 6), ang(1, 6))
    with pytest.raises(ValueError):
        check_addition_formula(ang(1, 6), ang(1, 3))


def test_addition_formula_random_sample():
    pairs = [((2, 7), (1, 9)), ((3, 8), (1, 11)), ((4, 9), (2, 13)), ((5, 11), (3, 7))]
    for (px, qx), (py, qy) in pairs:
        assert check_addition_formula(ang(px, qx), ang(py, qy))
