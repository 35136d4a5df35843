"""Tests for tangent-ratio embedding, classification and enumeration."""

import math
from fractions import Fraction as F
from typing import Optional

import pytest

from torsion_packet import cli, tanratio
from torsion_packet.exactnum import (
    CyclotomicElem,
    MinPoly,
    QuadraticElem,
    cyclotomic,
    galois_apply,
    galois_orbit,
    minimal_polynomial,
    sign_of_real,
)
from torsion_packet.stablefiber import solve_torsion_pairs
from torsion_packet.tanratio import (
    _REL_SEPARATION,
    _common_conductor,
    _orbit_members,
    _orbit_representatives,
    _tan_row,
    angles_up_to,
    enumerate_ratios,
    normalize_by_galois,
    normalized_nonunit_rows,
    ratio,
)

from exact_helpers import check_addition_formula, conductor, embed, sin_of, tan_of
from float_embedding import complex_embedding


def ang(p, q):
    return F(p, q)


def _tan_parts(angle: F, m: int) -> tuple[CyclotomicElem, CyclotomicElem]:
    """(numerator, denominator) of tan(pi*angle) in Q(zeta_m) as sums of roots.

    With z = zeta_m^a = exp(i*pi*p/q), tan(pi*p/q) = -i(z - 1/z) / (z + 1/z).
    A reference independent of the Cayley form that ``tanratio`` uses.
    """
    q = angle.denominator
    assert m % (2 * q) == 0 and m % 4 == 0
    a = angle.numerator * (m // (2 * q))
    z, z_inv = CyclotomicElem.zeta(m, a), CyclotomicElem.zeta(m, -a)
    return -CyclotomicElem.zeta(m, m // 4) * (z - z_inv), z + z_inv


def _pair_degree_exact(alpha: F, beta: F, cap: int) -> Optional[int]:
    """Number of distinct Galois conjugates of mu, or None once above ``cap``.

    The exact per-pair reference for the orbit scan, independent of
    ``ratio`` and ``inv_one_minus_zeta``: it works on the fraction
    representation (numerator, denominator) of mu, comparing conjugates by
    cross-multiplication, so no field inversion is ever needed.
    """
    m = _common_conductor(alpha, beta)
    na, da = _tan_parts(alpha, m)
    nb, db = _tan_parts(beta, m)
    num = nb * da
    den = db * na
    reps: list[tuple[CyclotomicElem, CyclotomicElem]] = [(num, den)]
    # mu is real, so the units k < m/2 give every conjugate; m is a multiple
    # of 4, so they are odd.
    for k in range(3, m // 2, 2):
        if math.gcd(k, m) != 1:
            continue
        nk = galois_apply(num, k)
        dk = galois_apply(den, k)
        if any(nk * d0 == n0 * dk for n0, d0 in reps):
            continue
        reps.append((nk, dk))
        if len(reps) > cap:
            return None
    return len(reps)


# --------------------------------------------------------------------------
# angles and tangent embedding


def test_angle_domain():
    # ratio() is the one check of 0 < alpha < beta < 1/2, for either angle.
    for bad in (F(0), F(1, 2), F(-1, 4), F(3, 5)):
        with pytest.raises(ValueError, match="0 < alpha < beta < 1/2"):
            ratio(bad, F(1, 3))
        with pytest.raises(ValueError, match="0 < alpha < beta < 1/2"):
            ratio(F(1, 12), bad)
    assert conductor(ang(1, 4)) == 8
    assert conductor(ang(1, 10)) == 20


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
        m = conductor(ang(p, q))
        s = sin_of(ang(p, q))
        c = s / tan_of(ang(p, q))
        assert s * s + c * c == 1


def test_tan_and_mu_against_sums_of_roots():
    # tan_of and mu against the sum-of-roots fractions, cross-multiplied so
    # that no inverse is taken on the reference side.
    for alpha in angles_up_to(40):
        num, den = _tan_parts(alpha, conductor(alpha))
        assert tan_of(alpha) * den == num, alpha
    angles = angles_up_to(16)
    for i, alpha in enumerate(angles):
        for beta in angles[i + 1 :]:
            m = _common_conductor(alpha, beta)
            na, da = _tan_parts(alpha, m)
            nb, db = _tan_parts(beta, m)
            mu = ratio(alpha, beta).mu
            assert mu.m == m and mu * db * na == nb * da, (alpha, beta)


def test_tan_against_generic_inverse():
    # the closed-form cotangent used inside ratio() agrees with a plain
    # field inversion of the tangent
    for p, q in ((1, 5), (3, 8), (5, 12)):
        t = tan_of(ang(p, q))
        assert t * t.inverse() == 1
        mu = ratio(ang(1, 7), ang(p, q)).mu
        assert mu * embed(tan_of(ang(1, 7)), mu.m) == embed(t, mu.m)


# --------------------------------------------------------------------------
# ratios


def test_ratio_examples_from_reference_list():
    r = ratio(ang(1, 10), ang(2, 5))
    assert r.degree == 2 and r.trace == 10 and r.norm == 5
    assert r.value == QuadraticElem(5, 2, 5)

    r = ratio(ang(1, 12), ang(1, 6))
    assert r.degree == 2 and r.trace == 2 and r.norm == F(-1, 3)
    assert r.value == QuadraticElem(1, F(2, 3), 3)


def test_degree_is_orbit_size_on_stratum2_handoff_pairs():
    # Every handoff pair (A/N, B/N), 0 < A < B, of stratum2 at N = 12.
    n = 12
    positive = [a for a in solve_torsion_pairs(n).tangent_indices if a > 0]
    assert positive == [1, 2, 3, 4, 5]
    for a in positive:
        for b in positive:
            if a < b:
                r = ratio(F(a, n), F(b, n))
                assert r.degree == minimal_polynomial(r.mu).degree


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
    assert r.value == QuadraticElem(2, 1, 3)
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
    assert any((r.alpha, r.beta, r.mu) == (F(1, 6), F(1, 3), 3) for r in rows)


def test_enumerate_is_sorted_and_respects_bound():
    rows = enumerate_ratios(2, 12)
    keys = [(r.alpha, r.beta) for r in rows]
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
    # certified stabilizer routine keeps exactly the pairs of each exact
    # degree.
    angles = angles_up_to(14)
    exact_degree = {
        (a, b): _pair_degree_exact(a, b, 4)
        for i, a in enumerate(angles)
        for b in angles[i + 1 :]
    }
    for d in range(1, 5):
        kept = [(r.alpha, r.beta) for r in enumerate_ratios(d, 14)]
        assert kept, d
        assert kept == sorted(k for k, deg in exact_degree.items() if deg == d)


def _pair_scan(degree, max_denominator):
    # The per-pair scan the orbit scan replaced: on every pair a float
    # filter over the units k < m/2 of the conductor (the certified
    # separation, counted greedily up to degree + 1), then exact orbit
    # counting on the survivors.
    angles = angles_up_to(max_denominator)
    kept = []
    for i, a in enumerate(angles):
        for b in angles[i + 1 :]:
            m = math.lcm(conductor(a), conductor(b))
            ta, tb = _tan_row(a.denominator), _tan_row(b.denominator)
            reps = []
            for k in range(1, m // 2, 2):
                if math.gcd(k, m) != 1:
                    continue
                v = tb[k * b.numerator % b.denominator] / ta[k * a.numerator % a.denominator]
                if all(abs(v - r) > _REL_SEPARATION * max(abs(v), abs(r)) for r in reps):
                    reps.append(v)
                    if len(reps) > degree:
                        break
            if len(reps) <= degree and _pair_degree_exact(a, b, degree) == degree:
                kept.append((a, b))
    return kept


def _pair_count(max_denominator):
    n = len(angles_up_to(max_denominator))
    return n * (n - 1) // 2


def test_orbit_scan_matches_pair_scan():
    for d in range(1, 5):
        got = [(r.alpha, r.beta) for r in enumerate_ratios(d, 20)]
        assert got, d
        assert got == _pair_scan(d, 20), d
    for bound, pairs, orbits in ((20, 1953, 191), (60, 150_975, 2289)):
        reps = list(_orbit_representatives(bound))
        assert len(reps) == len(set(reps)) == orbits
        assert _pair_count(bound) == pairs
        assert sum(len(_orbit_members(rep)) for rep in reps) == pairs


def test_degree_is_the_orbit_size_on_every_orbit_representative():
    # The stabilizer index against the exact orbit, on all 191 orbits up to
    # denominator 20.
    reps = list(_orbit_representatives(20))
    assert len(reps) == 191
    for a, b in reps:
        r = ratio(ang(*a), ang(*b))
        assert r.degree == len(galois_orbit(r.mu)), (a, b)


def _handoff_degrees(n):
    positive = [a for a in solve_torsion_pairs(n).tangent_indices if a > 0]
    return [
        ratio(F(a, n), F(b, n)).degree
        for a in positive
        for b in positive
        if a < b
    ]


def test_degrees_hold_when_every_unit_is_a_candidate(monkeypatch):
    # With a separation no gap can exceed, nothing is certified distinct:
    # every unit is a stabilizer candidate and is decided exactly, and the
    # float scan never drops an orbit.
    def classified():
        rows = [
            [(r.alpha, r.beta, r.trace, r.norm) for r in enumerate_ratios(d, 14)]
            for d in range(1, 5)
        ]
        return rows, _handoff_degrees(12)

    certified = classified()
    monkeypatch.setattr(tanratio, "_REL_SEPARATION", 2.0)
    assert classified() == certified


def test_stabilizer_is_the_units_that_fix_mu(monkeypatch):
    # With every unit a candidate, each one is decided by the 8-term sum in
    # Q(zeta_L); the oracle applies the unit, lifted to an odd one, to mu.
    monkeypatch.setattr(tanratio, "_REL_SEPARATION", 2.0)
    pairs = [(F(*a), F(*b)) for a, b in _orbit_representatives(20)]
    for n in (24, 30, 60):
        positive = [a for a in solve_torsion_pairs(n).tangent_indices if a > 0]
        pairs += [(F(a, n), F(b, n)) for a in positive for b in positive if a < b]
    fixing = 0
    for alpha, beta in pairs:
        lcm = math.lcm(alpha.denominator, beta.denominator)
        mu = ratio(alpha, beta).mu
        expected = tuple(
            k
            for k in range(1, lcm // 2 + 1)
            if math.gcd(k, lcm) == 1 and galois_apply(mu, k if k % 2 else k + lcm) == mu
        )
        _, stab = tanratio._stabilizer(*alpha.as_integer_ratio(), *beta.as_integer_ratio(), None)
        assert stab == expected, (alpha, beta)
        fixing += len(stab) > 1
    assert fixing


def test_mu_is_built_only_where_it_is_read(monkeypatch):
    # The degree needs no mu: stratum2 builds it, two tangents each, only
    # for the handoffs of degree at most 2, and the enumeration not at all.
    calls = []

    def counting(m, e):
        calls.append(e)
        return i_tan(m, e)

    i_tan = tanratio.i_tan
    monkeypatch.setattr(tanratio, "i_tan", counting)
    report = cli.cmd_stratum2(120)
    low = [r for r in report.records if r["stage"] == "handoff" and r["degree"] <= 2]
    assert len(calls) == 2 * len(low) == 54
    calls.clear()
    assert enumerate_ratios(6, 40)
    assert calls == []


def test_stratum2_handoff_needs_no_exact_orbit(monkeypatch):
    def no_orbit(*args, **kwargs):
        raise AssertionError("galois_orbit called")

    calls = []

    def counting(e, k):
        calls.append(k)
        return galois_apply(e, k)

    monkeypatch.setattr(cyclotomic, "galois_orbit", no_orbit)
    monkeypatch.setattr(tanratio, "galois_apply", counting)
    report = cli.cmd_stratum2(41)
    assert report.verdict == "verified"
    # Every handoff at N = 41 has no stabilizer candidate but 1, so the
    # degrees need no exact arithmetic at all.
    assert len([r for r in report.records if r["stage"] == "handoff"]) == 190
    assert calls == []


def _brute_force_orbit(a, b):
    # Apply every unit k of lcm(qa, qb) to the pair and fold both angles
    # back into (0, 1/2).
    (pa, qa), (pb, qb) = a, b
    lcm = math.lcm(qa, qb)

    def fold(p, q):
        p %= q
        return (min(p, q - p), q)

    orbit = set()
    for k in range(1, lcm):
        if math.gcd(k, lcm) == 1:
            x, y = fold(k * pa, qa), fold(k * pb, qb)
            orbit.add(frozenset((x, y)))
    return frozenset(orbit)


def test_orbit_members_match_brute_force_orbits():
    angles = [(a.numerator, a.denominator) for a in angles_up_to(24)]
    brute = {
        _brute_force_orbit(a, b) for i, a in enumerate(angles) for b in angles[i + 1 :]
    }
    assert len(brute) == 293
    found = []
    for rep in _orbit_representatives(24):
        # The angle of the least denominator has numerator 1.
        assert min(rep, key=lambda angle: angle[1])[0] == 1
        members = _orbit_members(rep)
        assert rep in members
        assert all(a[0] * b[1] < b[0] * a[1] for a, b in members)
        orbit = _brute_force_orbit(*rep)
        assert frozenset(frozenset(pair) for pair in members) == orbit
        found.append(orbit)
    assert len(found) == 293 and set(found) == brute


def test_tan_table_entries_within_their_error_bound():
    # Ties the float table to the exact core: every entry t with q <= 12
    # has the exact tangent strictly between t*(1 - 2^-52) and t*(1 + 2^-52).
    eps = F(1, 2**52)
    checked = 0
    for q in range(3, 13):
        row = _tan_row(q)
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
    # A reference outside the ball kernel, which sign_of_real shares: every
    # entry up to q = 60 is within 4 ulp of the libm tangent.  tan is
    # ill-conditioned near pi/2, so angles above pi/4 use
    # tan x = 1/tan(pi/2 - x), whose argument the reference rounds well.
    for q in range(3, 61):
        row = _tan_row(q)
        for r in range(1, q):
            if math.gcd(r, q) != 1:
                continue
            p, sign = (r, 1) if 2 * r < q else (q - r, -1)
            if 4 * p <= q:
                ref = math.tan(math.pi * p / q)
            else:
                ref = 1 / math.tan(math.pi * (q - 2 * p) / (2 * q))
            assert abs(row[r] - sign * ref) <= 4 * math.ulp(ref), (r, q)


# --------------------------------------------------------------------------
# Galois normalization


def test_normalize_identity_when_already_normalized():
    r = ratio(ang(1, 10), ang(1, 5))
    assert normalize_by_galois(r) is r


def test_normalize_moves_numerator_to_one():
    r = ratio(ang(3, 10), ang(2, 5))
    n = normalize_by_galois(r)
    assert (n.alpha, n.beta) == (F(1, 10), F(1, 5))
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


@pytest.mark.parametrize("bound", [12, 20, 30, 60])
def test_nonunit_rows_are_the_galois_normal_forms_of_the_nonunits(bound):
    # The oracle: normalize every non-unit member by a Galois substitution
    # and deduplicate.  The rows are the members that are already normal.
    oracle = {}
    for t in enumerate_ratios(2, bound):
        if not t.is_unit:
            n = normalize_by_galois(t)
            oracle[n.alpha, n.beta] = (n.trace, n.norm)
    rows = normalized_nonunit_rows(bound)
    assert [(r.alpha, r.beta) for r in rows] == sorted(oracle)
    assert all(oracle[r.alpha, r.beta] == (r.trace, r.norm) for r in rows)


def test_nonunit_rows_build_no_mu_for_other_numerators(monkeypatch):
    members = enumerate_ratios(2, 30)
    monkeypatch.setattr(tanratio, "enumerate_ratios", lambda degree, bound: members)
    normalized_nonunit_rows(30)
    others = [t for t in members if t.alpha.numerator != 1]
    assert others and not any("mu" in vars(t) or "minpoly" in vars(t) for t in others)


def test_table1_rows_are_not_deduplicated_by_orbit():
    # (1/12, 1/6) and (1/6, 5/12) lie in one Galois orbit of unordered
    # pairs, but sigma_5 sends the first ratio mu to -1/mu' of the second,
    # so the two rows have different trace and norm and both belong in
    # the table.
    assert _brute_force_orbit((1, 12), (1, 6)) == _brute_force_orbit((1, 6), (5, 12))
    table = normalized_nonunit_rows(12)
    rows = {(str(r.alpha), str(r.beta)): (r.trace, r.norm) for r in table}
    assert rows[("1/12", "1/6")] == (2, F(-1, 3))
    assert rows[("1/6", "5/12")] == (6, -3)
    orbits = {
        _brute_force_orbit(
            (r.alpha.numerator, r.alpha.denominator), (r.beta.numerator, r.beta.denominator)
        )
        for r in table
    }
    assert len(rows) == 9 and len(orbits) == 6


def test_stability_up_to_20():
    # A light version of the acceptance stability sweep.
    at_12 = [(r.alpha, r.beta) for r in normalized_nonunit_rows(12)]
    at_20 = [(r.alpha, r.beta) for r in normalized_nonunit_rows(20)]
    assert at_12 == at_20


# --------------------------------------------------------------------------
# floating-point cross-check (sanity only, never the source of truth)


def test_float_agreement_denominators_up_to_16():
    angles = angles_up_to(16)
    for i, alpha in enumerate(angles):
        for beta in angles[i + 1 :]:
            r = ratio(alpha, beta)
            approx = complex_embedding(r.mu)
            expected = math.tan(math.pi * float(beta)) / math.tan(
                math.pi * float(alpha)
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
