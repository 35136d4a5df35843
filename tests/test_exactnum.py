"""Tests for the exact arithmetic foundation."""

import math
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsion_packet.exactnum import (
    CyclotomicElem,
    MinPoly,
    QuadraticElem,
    conductor_units,
    cyclotomic_int_coeffs,
    divisors,
    euler_phi,
    galois_apply,
    galois_orbit,
    inv_one_minus_zeta,
    minimal_polynomial,
    quadratic_from_minpoly,
    sign_of_real,
    squarefree_part,
)
from torsion_packet.errors import ArithmeticInconsistencyError
from torsion_packet.exactnum import cyclotomic, signs
from torsion_packet.exactnum.quadratic import squarefree_cores
from torsion_packet.exactnum.signs import _pi_ball, _precision_ceiling, _real_part_ball, cos_sin_ball

from exact_helpers import embed
from float_embedding import complex_embedding
from quadratic_reference import RefQuadratic


def zeta(m, k=1):
    return CyclotomicElem.zeta(m, k)


# --------------------------------------------------------------------------
# cyclotomic polynomials, as integer coefficient tuples (constant term first)


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _horner(coeffs, point):
    acc = point - point
    for c in reversed(coeffs):
        acc = acc * point + c
    return acc


def test_cyclotomic_polynomial_definition_cases():
    assert cyclotomic_int_coeffs(1) == (-1, 1)
    assert cyclotomic_int_coeffs(4) == (1, 0, 1)


def test_cyclotomic_polynomial_12():
    # Hand-derived: Phi_1*Phi_2*Phi_3*Phi_4*Phi_6
    # = (x-1)(x+1)(x^2+x+1)(x^2+1)(x^2-x+1) = x^8 + x^6 - x^2 - 1,
    # and x^12 - 1 is that times x^4 - x^2 + 1.
    lower = [1]
    for coeffs in ([-1, 1], [1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1]):
        lower = _int_poly_mul(lower, coeffs)
    assert lower == [-1, 0, -1, 0, 0, 0, 1, 0, 1]
    assert _int_poly_mul(lower, [1, 0, -1, 0, 1]) == [-1] + [0] * 11 + [1]
    assert cyclotomic_int_coeffs(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_degree_and_product_identity_up_to_60():
    for m in range(1, 61):
        assert len(cyclotomic_int_coeffs(m)) - 1 == euler_phi(m)
        product = [1]
        for d in divisors(m):
            product = _int_poly_mul(product, cyclotomic_int_coeffs(d))
        assert product == [-1] + [0] * (m - 1) + [1]


def test_cyclotomic_polynomial_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_int_coeffs(0)


# --------------------------------------------------------------------------
# element basics


def test_zeta_satisfies_its_cyclotomic_polynomial():
    for m in (1, 4, 5, 8, 12, 20):
        assert _horner(cyclotomic_int_coeffs(m), zeta(m)).is_zero()


def test_canonical_zero_and_rational_detection():
    e = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert e == -1 and e.is_rational()
    assert (e + 1).is_zero()


def test_rational_elements_hash_like_their_value():
    # Equal values must hash equally, so a rational element and the int or
    # Fraction it equals are one key of a set or dict.
    one = CyclotomicElem.one(12)
    assert one == 1 and hash(one) == hash(1) and len({one, 1}) == 1
    half = CyclotomicElem.from_rational(12, F(1, 2))
    assert half == F(1, 2) and hash(half) == hash(F(1, 2)) and len({half, F(1, 2)}) == 1
    assert {CyclotomicElem.zero(5): "zero"}[0] == "zero"
    e = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert hash(e) == hash(-1) and {e, -1} == {-1}


def test_rational_equality_is_transitive_across_conductors():
    one4, one12 = CyclotomicElem.one(4), CyclotomicElem.one(12)
    assert one4 == 1 == one12 and one4 == one12 and one12 == one4
    half5 = CyclotomicElem.from_rational(5, F(1, 2))
    assert half5 == CyclotomicElem.from_rational(8, F(1, 2)) != one12
    # A set's size does not depend on the insertion order.
    assert len({1, one4, one12}) == 1 and len({one4, one12, 1}) == 1
    assert len({one12, one4}) == 1 and len({F(1, 2), half5, one4}) == 2
    # Only rational elements compare equal across conductors.
    assert zeta(4) != zeta(12, 3)


def test_conductor_mismatch_raises():
    with pytest.raises(ValueError, match="conductor mismatch"):
        zeta(5) + zeta(7)


def test_galois_identity_and_generator():
    z = zeta(5)
    assert galois_apply(z, 1) == z
    assert galois_apply(z, 2) == z**2


def test_galois_on_cosine_sum():
    z = zeta(5)
    assert galois_apply(z + z**4, 2) == z**2 + z**3


def test_galois_rejects_non_coprime():
    with pytest.raises(ValueError, match="coprime"):
        galois_apply(zeta(10), 5)


def test_galois_composition_and_ring_homomorphism():
    m = 12
    a = zeta(m) + 2 * zeta(m, 3) - F(1, 2)
    b = zeta(m, 2) - 3
    for k in conductor_units(m):
        for l in conductor_units(m):
            assert galois_apply(galois_apply(a, l), k) == galois_apply(a, (k * l) % m)
        assert galois_apply(a * b, k) == galois_apply(a, k) * galois_apply(b, k)
        assert galois_apply(a + b, k) == galois_apply(a, k) + galois_apply(b, k)


def test_conjugation_is_sigma_minus_one():
    z = zeta(8)
    assert z.conjugate() == z**7
    assert (z + z.conjugate()).is_real()


# --------------------------------------------------------------------------
# minimal polynomials


def test_minpoly_of_rational_constant():
    e = CyclotomicElem.from_rational(12, 7)
    mp = minimal_polynomial(e)
    assert mp.degree == 1
    assert mp == MinPoly([-7, 1])


def test_minpoly_of_one_in_gaussian_field():
    # tan(pi/4) = 1 sits in Q(zeta_4) as a rational.
    mp = minimal_polynomial(CyclotomicElem.from_rational(4, 1))
    assert mp == MinPoly([-1, 1]) and mp.degree == 1


def test_minpoly_of_sqrt5():
    # sqrt(5) = 2*(zeta_5 + zeta_5^4) + 1.
    z = zeta(5)
    sqrt5 = 2 * (z + z**4) + 1
    mp = minimal_polynomial(sqrt5)
    assert mp == MinPoly([-5, 0, 1])
    assert mp.degree == 2 and mp.trace == 0 and mp.norm == -5


def test_minpoly_degree_equals_orbit_size():
    z = zeta(20)
    e = z + z**19  # 2*cos(pi/10), degree 4
    assert len(galois_orbit(e)) == minimal_polynomial(e).degree == 4


def _full_unit_orbit(e):
    # The orbit scan over every unit k, ascending: the reference for the
    # half scan that galois_orbit makes on real elements.
    seen, orbit = set(), []
    for k in conductor_units(e.m):
        img = galois_apply(e, k)
        if img.coeffs not in seen:
            seen.add(img.coeffs)
            orbit.append(img)
    return orbit


def _sparse_elems(m):
    # Mostly-zero coordinates, so that orbits of every size turn up.
    d = euler_phi(m)
    return st.lists(
        st.sampled_from([0, 0, 0, 1, -1, 2, F(1, 3)]), min_size=d, max_size=d
    ).map(lambda cs: CyclotomicElem(m, cs))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([1, 3, 4, 5, 7, 8, 12, 15, 20, 24]).flatmap(
        lambda m: st.tuples(_sparse_elems(m), st.booleans())
    )
)
def test_orbit_matches_full_unit_scan(case):
    x, make_real = case
    e = x + x.conjugate() if make_real else x
    assert galois_orbit(e) == _full_unit_orbit(e)


def test_real_orbit_scans_half_the_units(monkeypatch):
    calls = []

    def counting(e, k):
        calls.append(k)
        return galois_apply(e, k)

    monkeypatch.setattr(cyclotomic, "galois_apply", counting)
    z = zeta(60)
    real = z + z**59 + 3 * (z**7 + z**53)
    assert len(galois_orbit(real)) == 8
    # One conjugation for the reality test, then the units below 30.
    assert calls == [-1] + [k for k in conductor_units(60) if k < 30]
    calls.clear()
    assert len(galois_orbit(z)) == 16
    assert calls == [-1] + list(conductor_units(60))


def test_minpoly_invariant_under_galois():
    m = 20
    z = zeta(m)
    for e in (z + z**19, 2 * (z**4 + z**16) + 1, z**5 + 3):
        mp = minimal_polynomial(e)
        for k in conductor_units(m):
            assert minimal_polynomial(galois_apply(e, k)) == mp


def test_minpoly_is_unit_flag():
    z = zeta(8)
    sqrt2 = z + z**7
    one_plus_sqrt2 = sqrt2 + 1
    assert minimal_polynomial(one_plus_sqrt2).is_unit  # x^2 - 2x - 1
    assert not minimal_polynomial(sqrt2).is_unit  # x^2 - 2


# --------------------------------------------------------------------------
# conductor embeddings


def test_embedding_preserves_minimal_polynomial():
    z = zeta(5)
    e = 2 * (z + z**4) + 1
    assert minimal_polynomial(embed(e, 20)) == minimal_polynomial(e)
    assert minimal_polynomial(embed(e, 60)) == minimal_polynomial(e)


def test_embedding_requires_divisibility():
    with pytest.raises(ValueError):
        embed(zeta(5), 12)


# --------------------------------------------------------------------------
# inverse helpers


def test_inv_one_minus_zeta_closed_form():
    for m in (4, 5, 12, 20):
        for c in range(1, m):
            inv = inv_one_minus_zeta(m, c)
            assert (1 - zeta(m, c)) * inv == 1


def test_inv_one_minus_zeta_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        inv_one_minus_zeta(10, 10)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        CyclotomicElem.zero(5).inverse()


def test_inverse_rejects_a_wrong_conjugate(monkeypatch):
    # With every "conjugate" equal to e itself, the would-be norm e^4 is not
    # rational, and the inverse refuses to divide by it.
    monkeypatch.setattr(cyclotomic, "galois_apply", lambda e, k: e)
    with pytest.raises(ArithmeticInconsistencyError, match="not rational"):
        (zeta(5) + 2).inverse()


# --------------------------------------------------------------------------
# quadratic field elements


def test_squarefree_cores_match_trial_division():
    limit = 40_001
    cores = squarefree_cores(limit)
    assert len(cores) == limit + 1 and cores[0] == 0
    for n in range(1, limit + 1):
        d = cores[n]
        assert squarefree_part(n) == (math.isqrt(n // d), d)


def test_squarefree_part():
    assert squarefree_part(20) == (2, 5)
    assert squarefree_part(8) == (2, 2)
    assert squarefree_part(49) == (7, 1)
    assert squarefree_part(1) == (1, 1)


def test_quadratic_from_minpoly_examples():
    assert quadratic_from_minpoly(MinPoly([-5, 0, 1]), 1) == QuadraticElem(0, 1, 5)
    assert quadratic_from_minpoly(MinPoly([5, -10, 1]), 1) == QuadraticElem(5, 2, 5)
    assert quadratic_from_minpoly(MinPoly([-1, -2, 1]), 1) == QuadraticElem(1, 1, 2)


def test_quadratic_from_minpoly_rejects_complex_roots():
    with pytest.raises(ValueError, match="not positive"):
        quadratic_from_minpoly(MinPoly([1, 0, 1]), 1)


def test_quadratic_from_minpoly_rejects_square_disc():
    with pytest.raises(ValueError, match="perfect square"):
        quadratic_from_minpoly(MinPoly([-4, 0, 1]), 1)


def test_quadratic_trace_norm_against_conjugate():
    q = QuadraticElem(F(5, 3), F(-2, 7), 5)
    r = RefQuadratic.of(q)
    assert r * r.conjugate() == RefQuadratic(q.norm(), 0, 5)
    assert r + r.conjugate() == RefQuadratic(q.trace(), 0, 5)


def test_quadratic_sign_and_ordering():
    # The reference's exact sign, the oracle of the lshape root checks,
    # read from QuadraticElem's integers and checked against floats.
    def sign(a, b, d):
        s = RefQuadratic.of(QuadraticElem(a, b, d)).sign()
        assert s == (1 if float(a) + float(b) * math.sqrt(d) > 0 else -1)
        return s

    assert sign(0, 1, 2) == 1
    assert sign(-2, 1, 2) == -1  # sqrt(2) < 2
    assert sign(-1, 1, 2) == 1  # sqrt(2) > 1
    assert sign(1, -1, 5) < 0 < sign(1, 1, 5)


def test_quadratic_radicand_must_be_squarefree():
    with pytest.raises(ValueError):
        QuadraticElem(0, 1, 12)
    with pytest.raises(ValueError):
        QuadraticElem(0, 1, 1)


def test_quadratic_mixed_radicand_rules():
    sqrt2, sqrt3 = QuadraticElem(0, 1, 2), QuadraticElem(0, 1, 3)
    with pytest.raises(ValueError, match="radicand mismatch"):
        sqrt2 * sqrt3
    # rational elements move freely between fields
    four = QuadraticElem(4, 0, 3)
    for product in (four * sqrt2, sqrt2 * four):
        assert product == QuadraticElem(0, 4, 2)
        assert RefQuadratic.of(product) == RefQuadratic(4, 0, 3) * RefQuadratic.of(sqrt2)
    half3, half5 = QuadraticElem(F(1, 2), 0, 3), QuadraticElem(F(1, 2), 0, 5)
    assert half3 == half5 and hash(half3) == hash(half5) == hash(F(1, 2))


# --------------------------------------------------------------------------
# sign determination


def test_sign_examples():
    z = zeta(5)
    assert sign_of_real(CyclotomicElem.zero(5)) == 0
    assert sign_of_real(z + z**4) == 1  # 2*cos(2*pi/5)
    assert sign_of_real(z**2 + z**3) == -1  # 2*cos(4*pi/5)


def test_sign_rejects_non_real():
    with pytest.raises(ValueError, match="complex conjugation"):
        sign_of_real(zeta(5))


def test_sign_with_tiny_initial_precision():
    # The initial precision only affects the number of refinement rounds.
    # 2*cos(pi/30) - 2 is about -0.011; nudging it within 1e-9 of zero
    # forces several precision doublings starting from 8 bits.
    z = zeta(60)
    near_zero = z + z**59 - 2 + F(10946842, 10**9)
    assert sign_of_real(near_zero, initial_bits=8) == sign_of_real(near_zero, initial_bits=256)


def test_sign_is_thread_safe():
    # Two threads at different initial precisions, switching every
    # microsecond, both get correct signs: the ball kernel keeps no state
    # a thread could change under another.  2*cos(pi/30) - 2 = -0.01095620926...
    z = zeta(60)
    below = z + z**59 - 2 + F(109562, 10**7)  # about -9.3e-9
    above = z + z**59 - 2 + F(109563, 10**7)  # about +9.1e-8
    results: dict[int, list[tuple[int, int]]] = {}

    def work(bits: int) -> None:
        results[bits] = [
            (sign_of_real(below, initial_bits=bits), sign_of_real(above, initial_bits=bits))
            for _ in range(40)
        ]

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(bits,)) for bits in (8, 300)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {8: [(-1, 1)] * 40, 300: [(-1, 1)] * 40}


# pi to 60 decimal places, truncated: the ball kernel's reference.
_PI_60 = 3141592653589793238462643383279502884197169399375105820974944


@pytest.mark.parametrize("bits", [1, 8, 64, 150, 190])
def test_pi_ball_matches_decimal_pi(bits):
    # |pi - _PI_60 / 10^60| < 10^-60 and 2^190 < 10^60, so the decimal is
    # finer than every ball here: |mid / 2^bits - pi| <= rad / 2^bits must
    # hold up to one more unit of 10^-60.
    mid, rad = _pi_ball(bits)
    assert rad <= 2
    assert abs(mid * 10**60 - _PI_60 * 2**bits) <= rad * 10**60 + 2**bits


def test_cos_sin_ball_at_exact_angles():
    # cos(pi/3) = sin(pi/6) = 1/2, cos(pi/2) = sin(0) = 0, cos 0 = sin(pi/2) = 1
    # and cos(pi/4)^2 = sin(pi/4)^2 = 1/2, checked in integers at 300 bits.
    b = 300
    one, half = 1 << b, 1 << (b - 1)
    for (p, q), (cos, sin) in {
        (0, 1): (one, 0),
        (1, 2): (0, one),
        (1, 3): (half, None),
        (1, 6): (None, half),
        (2, 12): (None, half),
        (3, 6): (0, one),
    }.items():
        c, s, rad = cos_sin_ball(p, q, b)
        assert rad <= 2
        if cos is not None:
            assert abs(c - cos) <= rad, (p, q)
        if sin is not None:
            assert abs(s - sin) <= rad, (p, q)
    c, s, rad = cos_sin_ball(1, 4, b)
    root_half = math.isqrt(1 << (2 * b - 1))  # floor(2^b / sqrt 2)
    assert abs(c - root_half) <= rad + 1 and abs(s - root_half) <= rad + 1
    with pytest.raises(ValueError):
        cos_sin_ball(2, 3, b)


def test_cos_sin_ball_matches_math_within_its_radius():
    # math.cos and math.sin of the rounded angle are within 2^-50.
    b = 60
    for q in range(1, 40):
        for p in range(0, q // 2 + 1):
            c, s, rad = cos_sin_ball(p, q, b)
            assert rad <= 2
            x = math.pi * p / q
            assert abs(c / 2**b - math.cos(x)) <= rad / 2**b + 2**-50, (p, q)
            assert abs(s / 2**b - math.sin(x)) <= rad / 2**b + 2**-50, (p, q)


def _sqrt_convergents(d: int, count: int) -> list[tuple[int, int]]:
    """The first ``count`` continued-fraction convergents h/k of sqrt(d)."""
    a0 = math.isqrt(d)
    m, q, a = 0, 1, a0
    (h0, h), (k0, k) = (1, a0), (0, 1)
    out = [(h, k)]
    while len(out) < count:
        m = q * a - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        h0, h = h, a * h + h0
        k0, k = k, a * k + k0
        out.append((h, k))
    return out


# sqrt(d) as a real sum of roots of unity, built without the sign kernel.
_SQRT_AS_ZETA_SUM = {
    5: 1 + 2 * (zeta(5) + zeta(5, 4)),
    2: zeta(8) + zeta(8, 7),
    3: zeta(12) + zeta(12, 11),
}
_CONVERGENTS = {d: _sqrt_convergents(d, 26) for d in _SQRT_AS_ZETA_SUM}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(_SQRT_AS_ZETA_SUM)),
    st.integers(0, 25),
    st.integers(-8, 8),
    st.sampled_from([1, -1]),
)
def test_sign_matches_exact_quadratic_sign(d, index, nudge, flip):
    # a + b sqrt(d) with a/b next to a convergent h/k of sqrt(d): the value
    # k sqrt(d) - h is below 1/k in size, and the nudge of j/(8k) moves it
    # across zero or not, so from 8 bits the ball must refine several
    # rounds.  The reference's sign decides in rationals alone.
    h, k = _CONVERGENTS[d][index]
    a, b = flip * (F(nudge, 8 * k) - h), flip * k
    e = _SQRT_AS_ZETA_SUM[d] * b + a
    assert e.is_real()
    assert sign_of_real(e, initial_bits=8) == RefQuadratic(a, b, d).sign()


def _real_elems():
    # x + conj(x) for random x, minus a dyadic approximation of its value,
    # so the result is often within 2^-40 of zero (and sometimes zero).
    def build(m, coeffs, k):
        x = CyclotomicElem(m, coeffs)
        e = x + x.conjugate()
        return e - F(round(complex_embedding(e).real * 2**k), 2**k)

    return st.sampled_from([5, 8, 12, 20, 60]).flatmap(
        lambda m: st.builds(
            build,
            st.just(m),
            st.lists(st.deferred(lambda: rationals), min_size=euler_phi(m), max_size=euler_phi(m)),
            st.integers(0, 40),
        )
    )


@settings(max_examples=120, deadline=None)
@given(_real_elems())
def test_sign_precision_ceiling_is_never_exceeded(e):
    # The a-priori ceiling is a real guarantee: at that many bits the ball
    # of the scaled element excludes zero, and refinement from 8 bits asks
    # for no more bits than the ceiling.
    if e.is_zero():
        assert sign_of_real(e) == 0
        return
    nums = e.nums
    ceiling = _precision_ceiling(nums)
    mid, rad = _real_part_ball(nums, e.m, ceiling)
    assert abs(mid) > rad
    asked = []

    def recording(nums, m, bits):
        asked.append(bits)
        return _real_part_ball(nums, m, bits)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signs, "_real_part_ball", recording)
        assert sign_of_real(e, initial_bits=8) == (1 if mid > 0 else -1)
    assert max(asked) <= max(8, ceiling)


def test_straddling_kernel_raises_at_the_ceiling(monkeypatch):
    # A kernel whose ball always contains zero must end in an error at the
    # ceiling, not in a hang.
    asked = []

    def straddling(nums, m, bits):
        asked.append(bits)
        return 0, 1

    monkeypatch.setattr(signs, "_real_part_ball", straddling)
    z = zeta(20)
    e = z + z**19 - 1
    ceiling = _precision_ceiling(e.nums)
    with pytest.raises(ArithmeticInconsistencyError, match="precision ceiling"):
        sign_of_real(e, initial_bits=8)
    assert asked[-1] == ceiling and max(asked) == ceiling
    assert asked == sorted(asked) and len(asked) <= ceiling.bit_length()
    asked.clear()
    with pytest.raises(ArithmeticInconsistencyError):
        sign_of_real(e, initial_bits=4 * ceiling)
    assert asked == [4 * ceiling]


# --------------------------------------------------------------------------
# field axioms on randomized inputs

rationals = st.fractions(
    min_value=F(-20), max_value=F(20), max_denominator=12
)


def cyclo_elems(m):
    d = euler_phi(m)
    return st.lists(rationals, min_size=d, max_size=d).map(
        lambda cs: CyclotomicElem(m, cs)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 4, 5, 12]).flatmap(
        lambda m: st.tuples(cyclo_elems(m), cyclo_elems(m), cyclo_elems(m))
    )
)
def test_cyclotomic_field_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == 1
        assert a / a == 1


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5]).flatmap(
        lambda d: st.tuples(
            st.builds(QuadraticElem, rationals, rationals, st.just(d)),
            st.builds(QuadraticElem, rationals, rationals, st.just(d)),
            st.builds(QuadraticElem, rationals, rationals, st.just(d)),
        )
    )
)
def test_quadratic_field_axioms(triple):
    # QuadraticElem has no addition; what it has must agree with the
    # reference, and the reference carries the ring axioms.
    a, b, c = triple
    ra, rb, rc = (RefQuadratic.of(x) for x in triple)
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert RefQuadratic.of(a * b) == ra * rb
    assert ra * (rb + rc) == ra * rb + ra * rc
    assert -(-a) == a and (-a) * b == -(a * b)
    if a != 0:
        assert a * a.inverse() == 1
        assert RefQuadratic.of(a.inverse()) == ra.inverse()
    assert ra * ra.conjugate() == RefQuadratic(a.norm(), 0, a.d)
    assert (a * b).norm() == a.norm() * b.norm()


def assert_matches_reference(q, ref):
    assert q.den > 0 and math.gcd(q.an, q.bn, q.den) == 1
    got = RefQuadratic.of(q)
    assert (got.a, got.b, got.d) == (ref.a, ref.b, ref.d)
    assert q.trace() == ref.trace() and q.norm() == ref.norm()
    assert str(q) == str(ref)
    if q.is_rational():
        assert q == ref.a and hash(q) == hash(ref.a)
        if ref.a.denominator == 1:
            assert q == int(ref.a) and hash(q) == hash(int(ref.a))
        else:
            assert q != ref.a.numerator
        assert q == QuadraticElem(ref.a, 0, 7 if q.d != 7 else 2)
    else:
        assert q != ref.a and q != ref.a.numerator


wide_rationals = st.one_of(
    st.integers(-3, 3).map(F),
    st.fractions(min_value=F(-10**6), max_value=F(10**6), max_denominator=10**4),
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 6, 7, 10]),
    wide_rationals,
    wide_rationals,
    wide_rationals,
    wide_rationals,
    st.integers(-4, 4),
)
def test_quadratic_matches_fraction_reference(d, a1, b1, a2, b2, n):
    x, rx = QuadraticElem(a1, b1, d), RefQuadratic(a1, b1, d)
    y, ry = QuadraticElem(a2, b2, d), RefQuadratic(a2, b2, d)
    for q, ref in (
        (x, rx),
        (y, ry),
        (x * y, rx * ry),
        (-x, RefQuadratic(-a1, -b1, d)),
        (QuadraticElem(a2, 0, d) * x, rx * RefQuadratic(a2, 0, d)),
    ):
        assert_matches_reference(q, ref)
    if ry.norm() != 0:
        assert_matches_reference(x * y.inverse(), rx / ry)
        assert_matches_reference(y.inverse(), ry.inverse())
        assert_matches_reference(-y.inverse(), -ry.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
    if n >= 0 or rx.norm() != 0:
        power = QuadraticElem(1, 0, d)
        for _ in range(abs(n)):
            power = power * (x if n > 0 else x.inverse())
        assert_matches_reference(power, rx**n)


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if a != 0:
        assert a * (1 / a) == 1
    # canonical form: lowest terms, positive denominator
    import math

    assert math.gcd(a.numerator, a.denominator) == 1 and a.denominator >= 1


@settings(max_examples=40, deadline=None)
@given(cyclo_elems(12), st.sampled_from(conductor_units(12)))
def test_minpoly_galois_invariance_random(e, k):
    assert minimal_polynomial(galois_apply(e, k)) == minimal_polynomial(e)


# --------------------------------------------------------------------------
# CyclotomicElem against a Fraction-coordinate reference


def _ref_reduce(m, vec):
    """Fraction coordinates of sum_j vec[j] zeta_m^j: long division by Phi_m."""
    phi = cyclotomic_int_coeffs(m)
    d = len(phi) - 1
    vec = [F(c) for c in vec] + [F(0)] * d
    for j in range(len(vec) - 1, d - 1, -1):
        c = vec[j]
        if c:
            for i, p in enumerate(phi):
                vec[j - d + i] -= c * p
    return tuple(vec[:d])


class RefCyclotomic:
    """Reference element of Q(zeta_m) as one Fraction per power-basis
    coordinate, for checking the integer-numerator CyclotomicElem against
    plain rational arithmetic."""

    def __init__(self, m, coeffs):
        self.m, self.coeffs = m, _ref_reduce(m, coeffs)

    def __add__(self, o):
        return RefCyclotomic(self.m, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    def __sub__(self, o):
        return RefCyclotomic(self.m, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __neg__(self):
        return RefCyclotomic(self.m, [-a for a in self.coeffs])

    def __mul__(self, o):
        prod = [F(0)] * (2 * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                prod[i + j] += a * b
        return RefCyclotomic(self.m, prod)

    def scaled(self, q):
        return RefCyclotomic(self.m, [a * q for a in self.coeffs])

    def galois(self, k):
        vec = [F(0)] * self.m
        for j, a in enumerate(self.coeffs):
            vec[(j * k) % self.m] += a
        return RefCyclotomic(self.m, vec)

    def embed(self, m2):
        vec = [F(0)] * m2
        for j, a in enumerate(self.coeffs):
            vec[j * (m2 // self.m)] += a
        return RefCyclotomic(m2, vec)

    @classmethod
    def rational(cls, m, q):
        return cls(m, [q])

    @classmethod
    def inv_one_minus_zeta(cls, m, c):
        vec = [F(0)] * m
        for j in range(m):
            vec[(j * c) % m] += F(m - 1 - 2 * j, 2 * m)
        return cls(m, vec)


def assert_cyclo_matches_reference(e, ref):
    assert e.m == ref.m
    # canonical form
    assert e.den > 0 and math.gcd(e.den, *e.nums) == 1
    assert len(e.nums) == euler_phi(e.m) and all(type(n) is int for n in e.nums)
    if not any(ref.coeffs):
        assert e.is_zero() and e.nums == (0,) * euler_phi(e.m) and e.den == 1
    assert e.coeffs == ref.coeffs
    # a rebuilt element is equal, hashes equally and stores the same integers
    again = CyclotomicElem(ref.m, ref.coeffs)
    assert e == again and hash(e) == hash(again) and (e.nums, e.den) == (again.nums, again.den)
    if not any(ref.coeffs[1:]):
        q = ref.coeffs[0]
        assert e.is_rational() and e == q and hash(e) == hash(q)
        if q.denominator == 1:
            assert e == q.numerator and hash(e) == hash(q.numerator)
        else:
            assert e != q.numerator
    else:
        assert not e.is_rational() and e != ref.coeffs[0]


def _cyclo_pair_case(m):
    d = euler_phi(m)
    # Sparse coordinates make zero, rational and equal operands likely.
    coords = st.one_of(
        st.lists(wide_rationals, min_size=d, max_size=d),
        st.lists(st.integers(-1, 1).map(F), min_size=d, max_size=d),
    )
    return st.tuples(
        st.just(m),
        coords,
        coords,
        wide_rationals,
        st.sampled_from(conductor_units(m)),
        st.sampled_from([2, 3]),
        st.integers(1, max(1, m - 1)),
    )


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 3, 4, 5, 12, 20, 24, 60]).flatmap(_cyclo_pair_case))
def test_cyclotomic_matches_fraction_reference(case):
    m, ca, cb, q, k, lift, c = case
    x, rx = CyclotomicElem(m, ca), RefCyclotomic(m, ca)
    y, ry = CyclotomicElem(m, cb), RefCyclotomic(m, cb)
    rq = RefCyclotomic.rational(m, q)
    for e, ref in (
        (x, rx),
        (y, ry),
        (x + y, rx + ry),
        (x - y, rx - ry),
        (y - x, ry - rx),
        (x * y, rx * ry),
        (y * y, ry * ry),
        (-x, -rx),
        (x * q, rx.scaled(q)),
        (q * y, ry.scaled(q)),
        (x * q.numerator, rx.scaled(q.numerator)),
        (x + q, rx + rq),
        (q - y, rq - ry),
        (x + q.numerator, rx + RefCyclotomic.rational(m, q.numerator)),
        (galois_apply(x, k), rx.galois(k)),
        (galois_apply(y, -k), ry.galois(-k)),
        (embed(x, lift * m), rx.embed(lift * m)),
        (embed(y, m), ry),
    ):
        assert_cyclo_matches_reference(e, ref)
    if q != 0:
        assert_cyclo_matches_reference(x / q, rx.scaled(1 / q))
        assert_cyclo_matches_reference(y / q.numerator, ry.scaled(F(1, q.numerator)))
        assert_cyclo_matches_reference(x / CyclotomicElem.from_rational(m, q), rx.scaled(1 / q))
    if m > 1:
        assert_cyclo_matches_reference(
            inv_one_minus_zeta(m, c), RefCyclotomic.inv_one_minus_zeta(m, c)
        )
    # == and hash agree with the reference's coordinate comparison
    assert (x == y) == (rx.coeffs == ry.coeffs)
    if x == y:
        assert hash(x) == hash(y)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([5, 8, 12, 20, 24, 60]).flatmap(
        lambda m: st.lists(wide_rationals, min_size=euler_phi(m), max_size=euler_phi(m)).map(
            lambda cs: CyclotomicElem(m, cs)
        )
    )
)
def test_galois_norm_inverse(a):
    # The inverse is the product of the other Galois conjugates over the norm.
    if a.is_zero():
        return
    inv = a.inverse()
    assert a * inv == 1 and inv * a == 1
    assert inv.inverse() == a
