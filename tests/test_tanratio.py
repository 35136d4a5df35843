"""Tests for tangent-ratio embedding, classification and enumeration."""

import hashlib
import math
import random
from fractions import Fraction as F
from typing import Optional

import pytest

from torsion_packet import cli, lshape, tanratio
from torsion_packet.errors import ArithmeticInconsistencyError
from torsion_packet.exactnum import (
    CyclotomicElem,
    MinPoly,
    QuadraticElem,
    cyclotomic,
    galois_apply,
    minimal_polynomial,
    real_value,
    sign_of_real,
)
from torsion_packet.exactnum.signs import cos_sin_ball, rotation_balls
from torsion_packet.stablefiber import solve_torsion_pairs
from torsion_packet.tanratio import (
    _REL_SEPARATION,
    _orbit_representatives,
    _tan_row,
    angles_up_to,
    enumerate_ratios,
    exact_mu,
    normalize_by_galois,
    normalized_nonunit_rows,
    orbit_rows,
    ratio,
    tan_conductor,
)

from exact_helpers import (
    check_addition_formula,
    classified_ratio,
    conductor,
    embed,
    full_unit_orbit,
    ratio_value,
    sin_of,
    stabilizer,
    tan_of,
)
from float_embedding import complex_embedding


def ang(p, q):
    return F(p, q)


def reduced(p, q):
    """The angle p/q as the reduced integer pair that the package takes."""
    return F(p, q).as_integer_ratio()


def numerators(q):
    """Numerators p of the reduced angles p/q in (0, 1/2), ascending."""
    return [p for p in range(1, (q + 1) // 2) if math.gcd(p, q) == 1]


def _reference_conductor(alpha: F, beta: F) -> int:
    """lcm(4, 2*q_alpha, 2*q_beta): the field of both tangents themselves,
    i included, which ``_tan_parts`` needs; twice ``tan_conductor``."""
    return math.lcm(conductor(alpha), conductor(beta))


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
    m = _reference_conductor(alpha, beta)
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
    # ratio() is the one check that both angles are reduced pairs (p, q)
    # with 0 < alpha < beta < 1/2, for either angle.  An unreduced pair such
    # as (2, 8) would index a 0.0 entry of the tangent table.
    for bad in ((0, 1), (0, 5), (1, 2), (-1, 4), (3, 5), (2, 8), (-1, -4)):
        with pytest.raises(ValueError, match="need reduced 0 < alpha < beta < 1/2"):
            ratio(bad, (1, 3))
        with pytest.raises(ValueError, match="need reduced 0 < alpha < beta < 1/2"):
            ratio((1, 12), bad)
    with pytest.raises(ValueError, match="got alpha = 1/5, beta = 1/5"):
        ratio((1, 5), (1, 5))
    assert conductor(ang(1, 4)) == 8
    assert conductor(ang(1, 10)) == 20


def test_tan_of_quarter_pi_is_one():
    assert tan_of(ang(1, 4)) == 1


def test_tan_of_pi_over_six_squares_to_one_third():
    t = tan_of(ang(1, 6))
    assert t * t == F(1, 3)
    assert minimal_polynomial(t) == MinPoly([F(-1, 3), 0, 1])


def test_tan_of_pi_over_five_minpoly():
    # tan(pi/5) has minimal polynomial x^4 - 10x^2 + 5.
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
        c = s * tan_of(ang(p, q)).inverse()
        assert s * s + c * c == 1


def _matches_reference(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Whether mu of the angles a < b lives in Q(zeta_tan_conductor) and,
    embedded into the reference field, equals the sum-of-roots fraction,
    cross-multiplied so that no inverse is taken on the reference side."""
    alpha, beta = F(*a), F(*b)
    m = _reference_conductor(alpha, beta)
    na, da = _tan_parts(alpha, m)
    nb, db = _tan_parts(beta, m)
    mu = exact_mu(a, b)
    return 2 * mu.m == m and embed(mu, m) * db * na == nb * da


def test_tan_and_mu_against_sums_of_roots():
    # tan_of and mu against the sum-of-roots fractions, cross-multiplied so
    # that no inverse is taken on the reference side.
    for a in angles_up_to(40):
        alpha = F(*a)
        num, den = _tan_parts(alpha, conductor(alpha))
        assert tan_of(alpha) * den == num, a
    angles = angles_up_to(16)
    for i, a in enumerate(angles):
        for b in angles[i + 1 :]:
            assert _matches_reference(a, b), (a, b)


def test_tan_against_generic_inverse():
    # the closed-form cotangent used inside ratio() agrees with a plain
    # field inversion of the tangent
    for p, q in ((1, 5), (3, 8), (5, 12)):
        t = tan_of(ang(p, q))
        assert t * t.inverse() == 1
        mu = exact_mu((1, 7), (p, q))
        m = math.lcm(mu.m, conductor(ang(1, 7)), conductor(ang(p, q)))
        assert embed(mu, m) * embed(tan_of(ang(1, 7)), m) == embed(t, m)


def test_every_mu_lives_at_the_tan_conductor():
    # One rule names the field of every exact tangent, lcm(2, q, ...); the
    # torsion solutions are checked against it in test_stablefiber.py.  mu
    # depends on its pair only through the two denominators, which a Galois
    # orbit shares, so one pair per orbit up to 30 covers every pair of
    # denominators.
    for a, b in _orbit_representatives(range(3, 31)):
        assert exact_mu(a, b).m == tan_conductor(a[1], b[1]) == math.lcm(2, a[1], b[1])
        if max(a[1], b[1]) <= 24:
            assert _matches_reference(a, b), (a, b)


# --------------------------------------------------------------------------
# ratios


def test_ratio_examples_from_reference_list():
    (degree, _), poly = classified_ratio((1, 10), (2, 5))
    assert degree == 2 and poly.trace == 10 and poly.norm == 5
    assert ratio_value((1, 10), (2, 5)) == QuadraticElem(5, 2, 5)

    (degree, _), poly = classified_ratio((1, 12), (1, 6))
    assert degree == 2 and poly.trace == 2 and poly.norm == F(-1, 3)
    assert ratio_value((1, 12), (1, 6)) == QuadraticElem(1, F(2, 3), 3)


def test_degree_is_orbit_size_on_stratum2_handoff_pairs():
    # Every handoff pair (A/N, B/N), 0 < A < B, of stratum2 at N = 12.
    n = 12
    positive = [a for a in solve_torsion_pairs(n) if a > 0]
    assert positive == [1, 2, 3, 4, 5]
    for a in positive:
        for b in positive:
            if a < b:
                alpha, beta = reduced(a, n), reduced(b, n)
                (degree, _), poly = classified_ratio(alpha, beta)
                assert degree == minimal_polynomial(exact_mu(alpha, beta)).degree == poly.degree


def test_ratio_degree_one():
    assert stabilizer((1, 6), (1, 3))[0] == 1 and exact_mu((1, 6), (1, 3)) == 3


def test_ratio_requires_alpha_below_beta():
    with pytest.raises(ValueError):
        ratio((1, 3), (1, 4))
    with pytest.raises(ValueError):
        ratio((1, 4), (1, 4))


def test_mu_exceeds_one():
    for _, _, _, mu in enumerate_ratios(2, 8):
        assert sign_of_real(mu - 1) == 1
    assert sign_of_real(exact_mu((1, 6), (1, 3)) - 1) == 1


def test_unit_flags():
    assert not classified_ratio((1, 10), (1, 5))[1].is_unit  # sqrt(5), norm -5
    assert ratio_value((1, 12), (1, 4)) == QuadraticElem(2, 1, 3)
    assert classified_ratio((1, 12), (1, 4))[1].is_unit  # 2 + sqrt(3), norm 1


# --------------------------------------------------------------------------
# enumeration


def test_enumerate_smallest_bound():
    # The only pair with both denominators <= 4 is (1/4, 1/3), whose ratio
    # tan(pi/3)/tan(pi/4) = sqrt(3) is quadratic (it is a shipped row of
    # the reference list).
    rows = enumerate_ratios(2, 4)
    assert [row[:2] for row in rows] == [((1, 4), (1, 3))]
    assert rows[0][2].trace == 0 and rows[0][2].norm == -3


def test_enumerate_degree_one():
    rows = enumerate_ratios(1, 6)
    assert any((a, b, mu) == ((1, 6), (1, 3), 3) for a, b, _, mu in rows)


def test_enumerate_is_sorted_and_respects_bound():
    rows = enumerate_ratios(2, 12)
    keys = [(F(*a), F(*b)) for a, b, _, _ in rows]
    assert keys == sorted(keys)
    assert all(a[1] <= 12 and b[1] <= 12 for a, b, _, _ in rows)
    assert all(poly.degree == 2 for _, _, poly, _ in rows)
    # The angles come in ascending order of value, by their integer key.
    values = [F(p, q) for q in range(3, 61) for p in range(1, q) if 2 * p < q and math.gcd(p, q) == 1]
    assert [F(*a) for a in angles_up_to(60)] == sorted(values)


def test_enumerate_parameter_validation():
    with pytest.raises(ValueError):
        enumerate_ratios(0, 12)
    with pytest.raises(ValueError):
        enumerate_ratios(2, 2)


def test_numeric_prefilter_agrees_with_exact_path():
    # Oracle: exact orbit counting on every pair up to bound 14.  The
    # certified stabilizer routine keeps exactly the pairs of each exact
    # degree.
    # The pairs are in ascending order of (alpha, beta), as the angles are.
    angles = angles_up_to(14)
    exact_degree = {
        (a, b): _pair_degree_exact(F(*a), F(*b), 4)
        for i, a in enumerate(angles)
        for b in angles[i + 1 :]
    }
    for d in range(1, 5):
        kept = [row[:2] for row in enumerate_ratios(d, 14)]
        assert kept, d
        assert kept == [k for k, deg in exact_degree.items() if deg == d]


def test_rel_separation_bound_holds_in_exact_arithmetic():
    # The chain of inequalities in the comment above _REL_SEPARATION, in
    # Fractions, with u = 2^-53 and the table's width limit.  Each step is
    # increasing in the error it is given, so it may take the bound of the
    # step before.
    u = F(1, 2**53)
    width = F(1, 2**tanratio._TABLE_MAX_REL_WIDTH_BITS)
    assert width == F(1, 2**60)
    entry = (1 + u) * (1 + width) - 1
    entry_bound = u + F(1, 2**59)
    assert entry < entry_bound
    conjugate = (1 + entry_bound) * (1 + u) / (1 - entry_bound) - 1
    conjugate_bound = F(31, 10) * u
    assert conjugate < conjugate_bound
    # Equal true values w, each computed within 3.1u|w|: the gap is at most
    # 2 * 3.1u|w| rounded once, and max(|v|, |r|) >= (1 - 3.1u)|w|.
    gap = 2 * conjugate_bound * (1 + u) / (1 - conjugate_bound)
    gap_bound = F(63, 10) * u
    assert gap < gap_bound
    assert F(_REL_SEPARATION) == 32 * u > 5 * gap_bound


def _pair_scan(degree, max_denominator):
    # The per-pair scan the orbit scan replaced: on every pair a float
    # filter over the units k < m/2 of the conductor (the certified
    # separation, counted greedily up to degree + 1), then exact orbit
    # counting on the survivors.
    angles = angles_up_to(max_denominator)
    kept = []
    for i, a in enumerate(angles):
        for b in angles[i + 1 :]:
            (pa, qa), (pb, qb) = a, b
            m = math.lcm(conductor(F(*a)), conductor(F(*b)))
            ta, tb = _tan_row(qa), _tan_row(qb)
            reps = []
            for k in range(1, m // 2, 2):
                if math.gcd(k, m) != 1:
                    continue
                v = tb[k * pb % qb] / ta[k * pa % qa]
                if all(abs(v - r) > _REL_SEPARATION * max(abs(v), abs(r)) for r in reps):
                    reps.append(v)
                    if len(reps) > degree:
                        break
            if len(reps) <= degree and _pair_degree_exact(F(*a), F(*b), degree) == degree:
                kept.append((a, b))
    return kept


def _pair_count(max_denominator):
    n = len(angles_up_to(max_denominator))
    return n * (n - 1) // 2


def test_orbit_scan_matches_pair_scan():
    for d in range(1, 5):
        got = [row[:2] for row in enumerate_ratios(d, 20)]
        assert got, d
        assert got == _pair_scan(d, 20), d
    for bound, pairs, orbits in ((20, 1953, 191), (60, 150_975, 2289)):
        reps = list(_orbit_representatives(range(3, bound + 1)))
        assert len(reps) == len(set(reps)) == orbits
        assert _pair_count(bound) == pairs
        members = {m[:2] for _, _, orbit in tanratio.classify(range(3, bound + 1)) for m in orbit}
        assert len(members) == pairs
    # The walk with a degree skips whole denominator pairs, and keeps
    # exactly what the walk over every orbit, uncapped, keeps.
    every = tanratio.classify(range(3, 37))
    for d in range(1, 9):
        pruned = tanratio.classify(range(3, 37), d)
        assert sorted(pruned) == sorted(orbit for orbit in every if orbit[0] == d), d


def test_pair_filter_prunes_only_pairs_without_the_degree():
    # Every orbit's exact degree, uncapped, against the pairs the filter
    # rules out: none of them holds an orbit of a pruned degree.
    degrees: dict[tuple[int, int], set[int]] = {}
    for rep in _orbit_representatives(range(3, 25)):
        (_, q1), (_, q2) = rep
        found = tanratio._stabilizer(*rep[0], *rep[1], None)
        degrees.setdefault((min(q1, q2), max(q1, q2)), set()).add(found[0])
    pruned = [
        (q1, q2, d)
        for q2 in range(3, 25)
        for q1 in range(3, q2 + 1)
        for d in range(1, 7)
        if not tanratio._pair_admits_degree(q1, q2, d)
    ]
    assert len(pruned) == 1215
    for q1, q2, d in pruned:
        assert d not in degrees[q1, q2], (q1, q2, d)


def test_kernel_exponent_is_the_lcm_of_unit_orders():
    # K(q, g), the units of Z/q that are 1 mod g, against the lcm of the
    # multiplicative orders of its elements.
    for q in range(3, 41):
        for g in (g for g in range(1, q + 1) if q % g == 0):
            exponent = 1
            for u in range(1, q, g):
                if math.gcd(u, q) == 1:
                    exponent = math.lcm(exponent, next(n for n in range(1, q) if pow(u, n, q) == 1))
            for d in range(1, 13):
                assert tanratio._kernel_exponent_divides(q, g, d) == (d % exponent == 0), (q, g, d)


def test_pair_filter_counts_at_bound_60():
    denominators = range(3, 61)
    pairs = [(q1, q2) for j, q2 in enumerate(denominators) for q1 in denominators[: j + 1]]
    assert len(pairs) == 1711
    assert sum(tanratio._pair_admits_degree(q1, q2, 2) for q1, q2 in pairs) == 141
    assert len(list(_orbit_representatives(denominators, 2))) == 584


def test_lagrange_power_is_the_first_unit_power_off_plus_or_minus_one():
    # Brute force over every unit of Z/L: s = k^d mod L for the least unit
    # k with k^d != +-1, and None exactly when there is no such k.
    for lcm in range(1, 301):
        units = [k for k in range(1, lcm) if math.gcd(k, lcm) == 1]
        for d in range(1, 9):
            s = tanratio._lagrange_power(lcm, d)
            moving = [k for k in units if pow(k, d, lcm) not in (1, lcm - 1)]
            if not moving:
                assert s is None, (lcm, d)
                continue
            k = moving[0]
            assert 2 * k < lcm and s == pow(k, d, lcm), (lcm, d)
            assert math.gcd(s, lcm) == 1 and s not in (1, lcm - 1), (lcm, d)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 6, 8])
def test_lagrange_drop_keeps_every_orbit_of_the_degree(degree, monkeypatch):
    # The one comparison of sigma_s(mu) with mu drops only orbits whose
    # degree is not the target: the walk without it keeps the same members,
    # stabilizers and orbits.
    for bound in (40, 50, 60):
        denominators = range(3, bound + 1)
        with_test = tanratio.classify(denominators, degree)
        with monkeypatch.context() as m:
            m.setattr(tanratio, "_lagrange_power", lambda lcm, d: None)
            assert tanratio.classify(denominators, degree) == with_test, bound
        assert with_test, bound


def test_lagrange_drop_counts_at_bound_60(monkeypatch):
    # The drop reads mu and sigma_s(mu), two table entries each, and no
    # other conjugate, so a None after exactly 4 reads is an orbit that the
    # one comparison dropped.
    reads = 0

    class CountingRow:
        def __init__(self, row):
            self.row = row

        def __getitem__(self, r):
            nonlocal reads
            reads += 1
            return self.row[r]

    tan_row = tanratio._tan_row
    monkeypatch.setattr(tanratio, "_tan_row", lambda q: CountingRow(tan_row(q)))
    reps = list(_orbit_representatives(range(3, 61), 2))
    dropped, without_s = 0, set()
    for (pa, qa), (pb, qb) in reps:
        reads = 0
        found = tanratio._stabilizer(pa, qa, pb, qb, 2)
        dropped += found is None and reads == 4
        lcm = math.lcm(qa, qb)
        if tanratio._lagrange_power(lcm, 2) is None:
            without_s.add(lcm)
    assert (len(reps), dropped) == (584, 555)
    # The orbits left to the scan whose every unit squares to +-1 mod L.
    assert without_s == {5, 6, 8, 10, 12, 24}
    assert sum(math.lcm(qa, qb) in without_s for (_, qa), (_, qb) in reps) == 26


def _scanned_representatives(denominators, degree=None):
    """``_orbit_representatives`` with each p2 found by a scan of every
    numerator of q2 for the first in the class +-c mod g: the oracle of the
    class lift."""
    for j, q2 in enumerate(denominators):
        for q1 in denominators[: j + 1]:
            if degree is not None and not tanratio._pair_admits_degree(q1, q2, degree):
                continue
            g = math.gcd(q1, q2)
            for c in range(1, max(1, g // 2) + 1):
                if math.gcd(c, g) != 1:
                    continue
                if q1 == q2 and (c == 1 or tanratio._fold_mod(pow(c, -1, g), g) < c):
                    continue
                p2 = next(p for p in numerators(q2) if (p - c) % g == 0 or (p + c) % g == 0)
                yield tanratio._ordered((1, q1), (p2, q2))


def test_orbit_representatives_are_read_off_their_class():
    reps = list(_orbit_representatives(range(3, 61)))
    assert len(reps) == 2289
    assert reps == list(_scanned_representatives(range(3, 61)))
    denominators = range(3, 401)
    assert list(_orbit_representatives(denominators, 2)) == list(_scanned_representatives(denominators, 2))


def _four_cosine_angles(alpha, beta, k: int) -> tuple[int, tuple[int, int, int, int]]:
    """L = lcm(q_alpha, q_beta) and L times the angles of sigma_k(mu) = mu
    written as four cosines, cos(pi a) + cos(pi b) = cos(pi c) + cos(pi d):
    a = (k+1)beta + (k-1)alpha, b = (k-1)beta - (k+1)alpha,
    c = (k+1)beta - (k-1)alpha and d = (k-1)beta + (k+1)alpha."""
    (pa, qa), (pb, qb) = alpha, beta
    lcm = math.lcm(qa, qb)
    ea, eb = pa * (lcm // qa), pb * (lcm // qb)
    return lcm, (
        (k + 1) * eb + (k - 1) * ea,
        (k - 1) * eb - (k + 1) * ea,
        (k + 1) * eb - (k - 1) * ea,
        (k - 1) * eb + (k + 1) * ea,
    )


def _four_cosine_sum(alpha, beta, k: int) -> CyclotomicElem:
    """2(cos(pi a) + cos(pi b) - cos(pi c) - cos(pi d)) in Q(zeta_2L), with
    2 cos(pi x) = zeta_2L^(xL) + zeta_2L^(-xL)."""
    lcm, angles = _four_cosine_angles(alpha, beta, k)
    zeta = CyclotomicElem.zeta
    return sum(s * (zeta(2 * lcm, x) + zeta(2 * lcm, -x)) for s, x in zip((1, 1, -1, -1), angles))


def _pairs_up_to_12():
    angles = angles_up_to(12)
    return [(a, b) for i, b in enumerate(angles) for a in angles[:i]]


def _mu_fixers_up_to_30():
    """(alpha, beta, k) with a unit 1 < k <= L/2 that fixes mu, from the walk."""
    return [
        (alpha, beta, k)
        for _, stab, members in tanratio.classify(range(3, 31))
        for alpha, beta, _, _ in members
        for k in stab
        if k != 1
    ]


def test_four_cosines_vanish_exactly_on_the_stabilizer():
    # tan x tan y = (cos(x-y) - cos(x+y))/(cos(x-y) + cos(x+y)) turns
    # sigma_k(mu) = mu into four cosines.  Checked on every pair up to 12 and
    # every unit 1 < k <= L/2, none of which fixes mu, then on the eight
    # (pair, k) up to 30 that do.
    pairs = _pairs_up_to_12()
    assert len(pairs) == 231
    cases = fixed = 0
    for alpha, beta in pairs:
        (pa, qa), (pb, qb) = alpha, beta
        lcm = math.lcm(qa, qb)
        stab = tanratio._stabilizer(pa, qa, pb, qb, None)[1]
        for k in range(2, lcm // 2 + 1):
            if math.gcd(k, lcm) == 1:
                cases += 1
                fixed += k in stab
                assert (not _four_cosine_sum(alpha, beta, k)) == (k in stab), (alpha, beta, k)
    assert (cases, fixed) == (2724, 0)
    fixers = _mu_fixers_up_to_30()
    assert len(fixers) == 8
    assert ((1, 24), (5, 24), 7) in fixers and ((1, 15), (7, 30), 11) in fixers
    for alpha, beta, k in fixers:
        assert not _four_cosine_sum(alpha, beta, k), (alpha, beta, k)


def test_trivial_pairings_of_the_four_cosines_need_k_plus_or_minus_one():
    # Every unit k mod L: a = +-c (mod 2) iff k = 1 mod q_alpha or
    # k = -1 mod q_beta; b = +-d iff k = -1 mod q_alpha or k = 1 mod q_beta;
    # a = +-d never.  So no fixer of mu up to 30 has a trivial pairing.
    def paired(lcm, x, y):
        return (x - y) % (2 * lcm) == 0 or (x + y) % (2 * lcm) == 0

    cases = 0
    for alpha, beta in _pairs_up_to_12():
        qa, qb = alpha[1], beta[1]
        lcm = math.lcm(qa, qb)
        for k in (k for k in range(1, lcm) if math.gcd(k, lcm) == 1):
            cases += 1
            _, (a, b, c, d) = _four_cosine_angles(alpha, beta, k)
            assert paired(lcm, a, c) == ((k - 1) % qa == 0 or (k + 1) % qb == 0), (alpha, beta, k)
            assert paired(lcm, b, d) == ((k + 1) % qa == 0 or (k - 1) % qb == 0), (alpha, beta, k)
            assert not paired(lcm, a, d), (alpha, beta, k)
    assert cases == 5910
    for alpha, beta, k in _mu_fixers_up_to_30():
        lcm, (a, b, c, d) = _four_cosine_angles(alpha, beta, k)
        assert not (paired(lcm, a, c) or paired(lcm, b, d) or paired(lcm, a, d)), (alpha, beta, k)


def test_degree_is_the_orbit_size_on_every_orbit_representative():
    # The stabilizer index against the exact orbit, on all 191 orbits up to
    # denominator 20.
    reps = list(_orbit_representatives(range(3, 21)))
    assert len(reps) == 191
    for a, b in reps:
        assert stabilizer(a, b)[0] == len(full_unit_orbit(exact_mu(a, b))), (a, b)


def _handoff_degrees(n):
    positive = [a for a in solve_torsion_pairs(n) if a > 0]
    return [
        stabilizer(reduced(a, n), reduced(b, n))[0]
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
            [(a, b, poly.trace, poly.norm) for a, b, poly, _ in enumerate_ratios(d, 14)]
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
    pairs = list(_orbit_representatives(range(3, 21)))
    for n in (24, 30, 60):
        positive = [a for a in solve_torsion_pairs(n) if a > 0]
        pairs += [(reduced(a, n), reduced(b, n)) for a in positive for b in positive if a < b]
    fixing = 0
    for alpha, beta in pairs:
        lcm = math.lcm(alpha[1], beta[1])
        mu = exact_mu(alpha, beta)
        expected = tuple(
            k
            for k in range(1, lcm // 2 + 1)
            if math.gcd(k, lcm) == 1 and galois_apply(mu, k if k % 2 else k + lcm) == mu
        )
        _, stab, _ = tanratio._stabilizer(*alpha, *beta, None)
        assert stab == expected, (alpha, beta)
        fixing += len(stab) > 1
    assert fixing


def _counting_builds(monkeypatch):
    """The exponents of every ``i_tan`` and the argument of every
    ``minimal_polynomial`` that ``tanratio`` builds, two tangents to a mu."""
    calls, built = [], []
    i_tan, build = tanratio.i_tan, tanratio.minimal_polynomial
    monkeypatch.setattr(tanratio, "i_tan", lambda m, e: calls.append(e) or i_tan(m, e))
    monkeypatch.setattr(tanratio, "minimal_polynomial", lambda e: built.append(e) or build(e))
    return calls, built


def test_mu_is_built_only_where_it_is_read(monkeypatch):
    # The degree needs no mu: stratum2 builds it only for the handoffs of
    # degree at most 2, and a row of the enumeration once; each orbit's
    # representative builds the one minimal polynomial of its orbit.
    calls, built = _counting_builds(monkeypatch)
    report = cli.cmd_stratum2(120)
    low = [r for r in report.records if r["stage"] == "handoff" and r["degree"] <= 2]
    divisors = [q for q in range(3, 121) if 120 % q == 0]
    low_orbits = [members for degree, _, members in tanratio.classify(divisors) if degree <= 2]
    assert len(calls) == 2 * len(low) == 54
    assert len(built) == len(low_orbits) == 16 < len(low)
    calls.clear()
    built.clear()
    rows = enumerate_ratios(6, 40)
    orbits = tanratio.classify(range(3, 41), 6)
    assert len(calls) == 2 * len(rows) == 606
    assert len(built) == len(orbits) == 57
    assert built == [exact_mu(*members[0][:2]) for _, _, members in orbits]


def test_each_row_builds_its_mu_once(monkeypatch):
    # tangent-ratios reads each row's mu and builds no other: two tangents a
    # row.  verify-table1 reads no mu, but every row of a non-unit orbit of
    # the degree-2 enumeration carries one; a unit orbit builds only its
    # representative's, whose polynomial decides the whole orbit.
    calls, built = _counting_builds(monkeypatch)
    report = cli.cmd_tangent_ratios(8, 40)
    assert len(calls) == 2 * len(report.records) == 880
    # 440 rows in 62 orbits: each representative's polynomial is built by
    # Newton's identities and checked against the certified degree, and
    # the other 378 members' are derived from it by a sign and an inversion.
    assert len(built) == 62
    calls.clear()
    built.clear()
    report = cli.cmd_verify_table1(60)
    assert report.verdict == "verified"
    assert (len(calls), len(built)) == (38, 15)
    assert len(enumerate_ratios(2, 60)) == 26
    # --non-units-only drops each unit orbit after its representative's row.
    calls.clear()
    built.clear()
    report = cli.cmd_tangent_ratios(4, 60, True)
    orbits = tanratio.classify(range(3, 61), 4)
    kept = {(r["alpha"], r["beta"]) for r in report.records}
    reps = [tuple(map(tanratio.angle_str, members[0][:2])) for _, _, members in orbits]
    unit_orbits = sum(rep not in kept for rep in reps)
    assert (len(report.records), len(calls), len(built)) == (88, 232, 54)
    assert len(calls) == 2 * (len(report.records) + unit_orbits) and len(built) == len(orbits)


def test_stratum2_decides_each_quadratic_orbit_once(monkeypatch):
    # stratum2 takes unit status and the exclusion once per degree-2 orbit,
    # on its representative's row, and still builds each member's mu once
    # to display its value.
    calls, built = _counting_builds(monkeypatch)
    excluded = []
    exclude = lshape.exclude_against_table1
    monkeypatch.setattr(lshape, "exclude_against_table1", lambda mu: excluded.append(mu) or exclude(mu))
    report = cli.cmd_stratum2(840)
    assert report.verdict == "verified"
    assert (len(calls), len(built), len(excluded)) == (54, 16, 6)
    handoffs = [r for r in report.records if r["stage"] == "handoff"]
    assert (len(handoffs), len(report.records)) == (87_571, 87_576)
    statuses = [r["status"] for r in handoffs if r["degree"] == 2]
    assert statuses.count("excluded by trace/norm matching") == 10
    divisors = [q for q in range(3, 841) if 840 % q == 0]
    orbits = tanratio.classify(divisors)
    assert len(orbits) == 1_776 and sum(len(members) for _, _, members in orbits) == 87_571
    reps = [next(orbit_rows(2, members)) for degree, _, members in orbits if degree == 2]
    assert excluded == [real_value(mu, poly) for _, _, poly, mu in reps if not poly.is_unit]


@pytest.mark.parametrize(
    "denominators, degree",
    [([q for q in range(3, 841) if 840 % q == 0], None), (range(3, 61), 2)],
    ids=["divisors-of-840", "up-to-60"],
)
def test_a_quadratic_orbit_shares_its_representatives_decision(denominators, degree):
    # The one decision per orbit rests on two invariants: sigma_k, a sign
    # and an inversion keep a unit a unit, and the candidates +-mu^(+-1) of
    # each member have the traces and norms of the representative's.
    orbits = [members for d, _, members in tanratio.classify(denominators, degree) if d == 2]
    nonunit = 0
    for members in orbits:
        (_, _, poly, mu), *others = orbit_rows(2, members)
        candidates, matches = lshape.exclude_against_table1(real_value(mu, poly))
        traces_norms = {(c["trace"], c["norm"]) for c in candidates}
        for alpha, beta, member_poly, member_mu in others:
            assert member_poly.is_unit == poly.is_unit, (alpha, beta)
            if not poly.is_unit:
                member_candidates, member_matches = lshape.exclude_against_table1(real_value(member_mu, member_poly))
                assert member_matches == matches, (alpha, beta)
                assert {(c["trace"], c["norm"]) for c in member_candidates} == traces_norms, (alpha, beta)
        nonunit += not poly.is_unit
    assert (len(orbits), sum(map(len, orbits)), nonunit) == (15, 26, 6)


def test_stratum2_handoff_needs_no_exact_orbit(monkeypatch):
    def no_minpoly(*args, **kwargs):
        raise AssertionError("minimal_polynomial called")

    calls = []

    def counting(e, k):
        calls.append(k)
        return galois_apply(e, k)

    monkeypatch.setattr(tanratio, "minimal_polynomial", no_minpoly)
    monkeypatch.setattr(cyclotomic, "galois_apply", counting)
    report = cli.cmd_stratum2(41)
    assert report.verdict == "verified"
    # Every handoff at N = 41 has no stabilizer candidate but 1, so the
    # degrees need no exact arithmetic at all.
    assert len([r for r in report.records if r["stage"] == "handoff"]) == 190
    assert calls == []


def test_stratum2_takes_every_handoff_from_the_orbit_walk(monkeypatch):
    # The walk over the divisors of N yields exactly the pairs A/N < B/N,
    # 0 < A < B < N/2, each with the stabilizer that the per-pair oracle
    # certifies, and the report lists them by (A, B) with that degree.
    walked = []

    def recording(denominators, degree=None):
        found = classify(denominators, degree)
        walked.append(found)
        return found

    classify = tanratio.classify
    monkeypatch.setattr(tanratio, "classify", recording)
    for n in range(2, 61):
        walked.clear()
        records = [r for r in cli.cmd_stratum2(n).records if r["stage"] == "handoff"]
        [found] = walked
        pairs = [(a, b) for a in range(1, (n + 1) // 2) for b in range(a + 1, (n + 1) // 2)]
        oracle = [stabilizer(reduced(a, n), reduced(b, n)) for a, b in pairs]
        walk = {(alpha, beta): (d, stab) for d, stab, members in found for alpha, beta, _, _ in members}
        assert len(walk) == sum(len(members) for _, _, members in found)
        assert walk == {(reduced(a, n), reduced(b, n)): stab for (a, b), stab in zip(pairs, oracle)}, n
        assert [(r["A"], r["B"], r["degree"]) for r in records] == [
            (a, b, degree) for (a, b), (degree, _) in zip(pairs, oracle)
        ]


# At N = 59 the 406 handoffs fall into 14 orbits at conductor 118.
@pytest.mark.parametrize("n, orbits, handoffs", [(41, 10, 190), (59, 14, 406), (210, 312, 5356)])
def test_stratum2_runs_the_stabilizer_once_per_orbit(n, orbits, handoffs, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return stabilizer(*args)

    stabilizer = tanratio._stabilizer
    monkeypatch.setattr(tanratio, "_stabilizer", counting)
    report = cli.cmd_stratum2(n)
    assert report.verdict == "verified"
    assert len([r for r in report.records if r["stage"] == "handoff"]) == handoffs
    assert len(calls) == orbits


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
    angles = angles_up_to(24)
    brute = {
        _brute_force_orbit(a, b) for i, a in enumerate(angles) for b in angles[i + 1 :]
    }
    assert len(brute) == 293
    orbits = tanratio.classify(range(3, 25))
    assert [members[0][:2] for _, _, members in orbits] == list(_orbit_representatives(range(3, 25)))
    found = []
    for _, _, members in orbits:
        # The angle of the least denominator has numerator 1, and the
        # representative is a member of its own orbit, with no sign or swap.
        rep = members[0][:2]
        assert min(rep, key=lambda angle: angle[1])[0] == 1
        assert members[0][2:] == (False, False)
        assert all(F(*alpha) < F(*beta) for alpha, beta, _, _ in members)
        pairs = {m[:2] for m in members}
        assert len(pairs) == len(members)
        orbit = _brute_force_orbit(*rep)
        assert frozenset(frozenset(pair) for pair in pairs) == orbit
        found.append(orbit)
    assert len(found) == 293 and set(found) == brute


def test_every_member_derives_the_minimal_polynomial_of_its_mu():
    # mu = +-sigma_k(mu_rep)^(+-1): each member's polynomial is derived from
    # its representative's, and equals the minimal polynomial of its own mu.
    # The enumeration's rows carry exactly these polynomials and mus.
    cases = set()
    for d in range(1, 7):
        derived = {}
        for _, _, members in tanratio.classify(range(3, 31), d):
            rows = list(orbit_rows(d, members))
            assert [row[:2] for row in rows] == [m[:2] for m in members]
            for (alpha, beta, poly, mu), (_, _, negated, inverted) in zip(rows, members):
                assert mu == exact_mu(alpha, beta), (alpha, beta)
                assert poly == minimal_polynomial(mu), (alpha, beta)
                assert poly.degree == d
                derived[alpha, beta] = (poly, mu)
                cases.add((negated, inverted))
        assert {row[:2]: row[2:] for row in enumerate_ratios(d, 30)} == derived, d
    assert cases == {(False, False), (True, False), (False, True), (True, True)}


def test_minimal_polynomial_is_built_once_per_orbit(monkeypatch):
    built = []

    def counting(e):
        built.append(e)
        return build(e)

    build = tanratio.minimal_polynomial
    monkeypatch.setattr(tanratio, "minimal_polynomial", counting)
    report = cli.cmd_tangent_ratios(6, 60)
    assert len(report.records) == 408
    assert len(built) == 75


def test_forged_stabilizer_fails_the_orbit_product_check(monkeypatch, capsys):
    # tan(pi/5)/tan(pi/12) has degree 8; a representative that claims a
    # divisor (2, 4), a non-divisor (12) or a multiple (16) of 8 builds a
    # minimal polynomial of degree 8 and raises when it is read.
    alpha, beta = ratio((1, 12), (1, 5))
    for forged in (2, 4, 12, 16):
        with pytest.raises(ArithmeticInconsistencyError, match=f"degree 8, not the certified {forged}$"):
            next(orbit_rows(forged, [(alpha, beta, False, False)]))
    # Every orbit certified as degree 2 reaches the check through the CLI.
    def forged_walk(pa, qa, pb, qb, cap):
        return 2, (1,), {((pa, qa), (pb, qb)): (False, False)}

    monkeypatch.setattr(tanratio, "_stabilizer", forged_walk)
    assert cli.main(["tangent-ratios", "--degree", "2", "--max-denominator", "12"]) == 3
    assert "certified 2" in capsys.readouterr().err


def test_tan_table_entries_within_their_error_bound():
    # Ties the float table to the exact core: every entry t with q <= 12
    # has the exact tangent strictly between t*(1 - 2^-52) and t*(1 + 2^-52).
    eps = F(1, 2**52)

    def check(r, q):
        exact = tan_of(ang(r, q)) if 2 * r < q else -tan_of(ang(q - r, q))
        t = F(_tan_row(q)[r])
        lo, hi = sorted((t * (1 - eps), t * (1 + eps)))
        assert sign_of_real(exact - lo) == 1 and sign_of_real(hi - exact) == 1, (r, q)

    checked = 0
    for q in range(3, 13):
        assert len(_tan_row(q)) == q
        for r in range(1, q):
            if math.gcd(r, q) == 1:
                check(r, q)
                checked += 1
    assert checked == sum(1 for q in range(3, 13) for r in range(1, q) if math.gcd(r, q) == 1)
    # verify-table1 --max-denominator 2000 reads rows up to q = 2000, built
    # by the longest rotations: a few seeded entries of two of those rows,
    # on both sides of q/2, checked the same way.
    rng = random.Random(2000)
    for q in (997, 1999):
        units = [r for r in range(1, q) if math.gcd(r, q) == 1]
        for r in rng.sample(units, 3) + [units[len(units) // 2 - 1]]:
            check(r, q)
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


def _per_entry_enclosure(r, q):
    """The enclosure of tan(pi*r/q) from its own ``cos_sin_ball`` at 96
    bits, its ends rounded to doubles (int division rounds correctly)."""
    c, s, rad = cos_sin_ball(r, q, 96)
    return c, s, rad, (s - rad) / (c + rad), (s + rad) / (c - rad)


def test_rotated_rows_lie_in_the_per_entry_enclosures():
    # Each row is one ball of exp(i*pi/q) raised to the powers r by
    # rotation; every entry must round into the enclosure that a ball of
    # its own angle gives.  Rounding is monotone, so a quotient anywhere in
    # that enclosure rounds between its rounded ends.
    for q in range(3, 301):
        row = _tan_row(q)
        for r in numerators(q):
            _, _, _, lo, hi = _per_entry_enclosure(r, q)
            assert lo <= row[r] <= hi and row[q - r] == -row[r], (r, q)


@pytest.mark.parametrize("q", [997, 2000, 4001])
def test_rotation_error_stays_within_radius_two_at_large_r(q):
    # The error of the rotation grows with r; the guard bits bound it so
    # the balls keep radius 2 up to r = (q - 1)/2, the walk of a table row.
    # Both that ball and the per-entry one hold the true value, so their
    # centres lie within the sum of the radii.
    row = _tan_row(q)
    units = set(numerators(q))
    for r, (c, s) in enumerate(rotation_balls(q, (q - 1) // 2, 96), 1):
        c0, s0, rad0, lo, hi = _per_entry_enclosure(r, q)
        assert abs(c - c0) <= rad0 + 2 and abs(s - s0) <= rad0 + 2, (r, q)
        if r in units:
            assert lo <= row[r] <= hi, (r, q)


# sha256 of ``_tan_row(q).tobytes()``: rows 3..400 hashed as one stream,
# and three long rows alone.  The degree scan reads these floats, so a
# change to the ball kernel must keep them bit for bit.
_PINNED_ROWS = {
    range(3, 401): "bc8ecedcbcc313095782074cca217d3a30ee1ad0bcacda1c18b32c1c3397ca19",
    range(997, 998): "1348ccd5f3b68c2fbc13d7b6866728506c09bb8a824f293dbb63d168d48d7d27",
    range(2000, 2001): "c86b3b3088fbf2856afd25dd640b3f49146646e17d884b6ee9bbeb089d282969",
    range(4001, 4002): "cc4f7b4b94d521df72f9cbc0411925aa8cedf2e2e9f564a7f3e17e76fc699d19",
}


@pytest.mark.parametrize("qs", list(_PINNED_ROWS), ids=lambda qs: f"{qs.start}-{qs.stop - 1}")
def test_tan_rows_match_their_pinned_digests(qs):
    h = hashlib.sha256()
    for q in qs:
        h.update(_tan_row(q).tobytes())
    assert h.hexdigest() == _PINNED_ROWS[qs]


# --------------------------------------------------------------------------
# Galois normalization


def test_normalize_identity_when_already_normalized():
    pair = ratio((1, 10), (1, 5))
    assert normalize_by_galois(pair) is pair
    assert normalize_by_galois(((2, 7), (3, 7))) == ((1, 7), (2, 7))


def test_normalize_moves_numerator_to_one():
    pair = ((3, 10), (2, 5))
    n = normalize_by_galois(pair)
    assert n == ((1, 10), (1, 5))
    _, poly = classified_ratio(*pair)
    _, normal = classified_ratio(*n)
    assert normal.trace == poly.trace and normal.norm == poly.norm


def test_normalize_preserves_degree():
    for alpha, beta, poly, _ in enumerate_ratios(2, 12):
        assert stabilizer(*normalize_by_galois((alpha, beta)))[0] == poly.degree


def test_normalized_nonunit_rows_at_12():
    rows = normalized_nonunit_rows(12)
    got = [(a, b, poly.trace, poly.norm) for a, b, poly, _ in rows]
    assert got == [
        ((1, 12), (1, 6), 2, F(-1, 3)),
        ((1, 12), (1, 3), 6, -3),
        ((1, 10), (1, 5), 0, -5),
        ((1, 10), (2, 5), 10, 5),
        ((1, 6), (1, 4), 0, -3),
        ((1, 6), (5, 12), 6, -3),
        ((1, 5), (3, 10), 2, F(1, 5)),
        ((1, 4), (1, 3), 0, -3),
        ((1, 3), (5, 12), 2, F(-1, 3)),
    ]
    assert all(not poly.is_unit for _, _, poly, _ in rows)


@pytest.mark.parametrize("bound", [12, 20, 30, 60])
def test_nonunit_rows_are_the_galois_normal_forms_of_the_nonunits(bound):
    # The oracle: normalize every non-unit member by a Galois substitution
    # and deduplicate.  The rows are the members that are already normal.
    oracle = {}
    for alpha, beta, poly, _ in enumerate_ratios(2, bound):
        if not poly.is_unit:
            n = normalize_by_galois((alpha, beta))
            oracle[n] = classified_ratio(*n)[1]
    rows = normalized_nonunit_rows(bound)
    assert [row[:2] for row in rows] == sorted(oracle, key=lambda k: (F(*k[0]), F(*k[1])))
    assert all(oracle[alpha, beta] == poly for alpha, beta, poly, _ in rows)


def test_nonunit_rows_build_no_minimal_polynomial_for_other_numerators(monkeypatch):
    # Each row builds its own mu, once; only each orbit's representative
    # builds a minimal polynomial, and every other member derives its
    # polynomial, whatever its numerator.  A unit orbit stops at its
    # representative: the 7 other members of the 9 unit orbits build no mu.
    _, polys = _counting_builds(monkeypatch)
    built = []
    monkeypatch.setattr(tanratio, "exact_mu", lambda alpha, beta: built.append((alpha, beta)) or exact_mu(alpha, beta))
    normalized_nonunit_rows(30)
    orbits = tanratio.classify(range(3, 31), 2)
    units = [minimal_polynomial(exact_mu(*members[0][:2])).is_unit for _, _, members in orbits]
    assert (len(orbits), sum(units)) == (15, 9)
    read = [members[:1] if unit else members for (_, _, members), unit in zip(orbits, units)]
    assert built == [m[:2] for members in read for m in members] and len(built) == 19
    assert polys == [exact_mu(*members[0][:2]) for _, _, members in orbits] and len(polys) == 15
    # Members of other numerators, which derive their polynomials, are there.
    assert any(m[0][0] != 1 for _, _, members in orbits for m in members[1:])


def test_table1_rows_are_not_deduplicated_by_orbit():
    # (1/12, 1/6) and (1/6, 5/12) lie in one Galois orbit of unordered
    # pairs, but sigma_5 sends the first ratio mu to -1/mu' of the second,
    # so the two rows have different trace and norm and both belong in
    # the table.
    assert _brute_force_orbit((1, 12), (1, 6)) == _brute_force_orbit((1, 6), (5, 12))
    table = normalized_nonunit_rows(12)
    rows = {(a, b): (poly.trace, poly.norm) for a, b, poly, _ in table}
    assert rows[(1, 12), (1, 6)] == (2, F(-1, 3))
    assert rows[(1, 6), (5, 12)] == (6, -3)
    orbits = {_brute_force_orbit(a, b) for a, b, _, _ in table}
    assert len(rows) == 9 and len(orbits) == 6


def test_stability_up_to_20():
    # A light version of the acceptance stability sweep.
    at_12 = [row[:2] for row in normalized_nonunit_rows(12)]
    at_20 = [row[:2] for row in normalized_nonunit_rows(20)]
    assert at_12 == at_20


# --------------------------------------------------------------------------
# floating-point cross-check (sanity only, never the source of truth)


def test_float_agreement_denominators_up_to_16():
    angles = angles_up_to(16)
    for i, alpha in enumerate(angles):
        for beta in angles[i + 1 :]:
            approx = complex_embedding(exact_mu(alpha, beta))
            expected = math.tan(math.pi * float(F(*beta))) / math.tan(
                math.pi * float(F(*alpha))
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
