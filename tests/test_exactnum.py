"""Tests for the exact arithmetic foundation."""

import math
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsion_packet
from torsion_packet.exactnum import (
    CyclotomicElem,
    MinPoly,
    QuadraticElem,
    conductor_units,
    cyclotomic_int_coeffs,
    galois_apply,
    inv_one_minus_zeta,
    minimal_polynomial,
    real_value,
    sign_of_real,
    squarefree_part,
)
from torsion_packet.errors import ArithmeticInconsistencyError
from torsion_packet.exactnum import cyclotomic, signs
from torsion_packet.exactnum.quadratic import squarefree_cores
from torsion_packet.exactnum.signs import _pi_ball, _precision_ceiling, _real_part_ball, cos_sin_ball

from exact_helpers import embed, full_unit_orbit, orbit_product
from float_embedding import complex_embedding
from quadratic_reference import RefQuadratic


def zeta(m, k=1):
    return CyclotomicElem.zeta(m, k)


def _phi(m):
    """Euler's totient by its definition: the units of Z/m."""
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


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
        assert len(cyclotomic_int_coeffs(m)) - 1 == _phi(m)
        product = [1]
        for d in range(1, m + 1):
            if m % d == 0:
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
    assert {CyclotomicElem.from_rational(5, 0): "zero"}[0] == "zero"
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
    assert len(full_unit_orbit(e)) == minimal_polynomial(e).degree == 4


def _sparse_elems(m):
    # Mostly-zero coordinates, so that orbits of every size turn up.
    d = _phi(m)
    return st.lists(
        st.sampled_from([0, 0, 0, 1, -1, 2, F(1, 3)]), min_size=d, max_size=d
    ).map(lambda cs: CyclotomicElem(m, cs))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([1, 3, 4, 5, 7, 8, 12, 15, 20, 24]).flatmap(
        lambda m: st.tuples(_sparse_elems(m), st.booleans())
    )
)
def test_minimal_polynomial_matches_the_orbit_product(case):
    x, make_real = case
    e = x + x.conjugate() if make_real else x
    assert minimal_polynomial(e) == orbit_product(e)


def test_minimal_polynomial_uses_no_galois_action(monkeypatch):
    z = zeta(20)
    real = z + z**19  # 2*cos(pi/10)
    nonreal = zeta(12) + 2

    def no_action(e, k):
        raise AssertionError("galois_apply called")

    monkeypatch.setattr(cyclotomic, "galois_apply", no_action)
    assert minimal_polynomial(real) == MinPoly([5, 0, -5, 0, 1])
    # Phi_12(x - 2) for Phi_12 = x^4 - x^2 + 1.
    assert minimal_polynomial(nonreal) == MinPoly([13, -28, 23, -8, 1])


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
        CyclotomicElem.from_rational(5, 0).inverse()


def test_negative_powers_and_division_are_refused():
    # n >>= 1 leaves n = -1 at -1, so without its guard the square-and-multiply
    # loop would never end; a quotient is written as a product with inverse().
    z = zeta(5)
    with pytest.raises(ValueError, match="negative exponent"):
        z**-1
    assert z**0 == 1 and z.inverse() ** 2 == z**3
    for quotient in (lambda: z / 2, lambda: 2 / z, lambda: z / z):
        with pytest.raises(TypeError):
            quotient()


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


def _sqrt5():
    # sqrt(5) = 2*(zeta_5 + zeta_5^4) + 1.
    z = zeta(5)
    return 2 * (z + z**4) + 1


def test_real_value_examples():
    z8 = zeta(8)
    sqrt2 = z8 + z8**7  # 2*cos(pi/4)
    for e, poly, value in (
        (_sqrt5(), [-5, 0, 1], QuadraticElem(0, 1, 5)),
        (5 + 2 * _sqrt5(), [5, -10, 1], QuadraticElem(5, 2, 5)),
        (1 + sqrt2, [-1, -2, 1], QuadraticElem(1, 1, 2)),
        (1 - sqrt2, [-1, -2, 1], QuadraticElem(1, -1, 2)),
    ):
        p = minimal_polynomial(e)
        assert p == MinPoly(poly)
        assert real_value(e, p) == value


def test_real_value_rejects_complex_roots():
    with pytest.raises(ValueError, match="not positive"):
        real_value(_sqrt5(), MinPoly([1, 0, 1]))


def test_real_value_rejects_square_disc():
    with pytest.raises(ValueError, match="perfect square"):
        real_value(_sqrt5(), MinPoly([-4, 0, 1]))


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
    assert sign_of_real(CyclotomicElem.from_rational(5, 0)) == 0
    assert sign_of_real(z + z**4) == 1  # 2*cos(2*pi/5)
    assert sign_of_real(z**2 + z**3) == -1  # 2*cos(4*pi/5)


def test_sign_rejects_non_real():
    with pytest.raises(ValueError, match="complex conjugation"):
        sign_of_real(zeta(5))


# Prints the ValueError that sign_of_real raises at the precision argv[1].
_SIGN_AT_PRECISION = """
import sys
from torsion_packet.exactnum import CyclotomicElem, sign_of_real
z = CyclotomicElem.zeta(5)
try:
    sign_of_real(z + z**4, initial_bits=int(sys.argv[1]))
except ValueError as err:
    print(err)
"""


def test_sign_rejects_an_initial_precision_below_two_bits():
    # Doubling from 0 bits never rises, and rotation_balls bounds its balls
    # only from 2 bits on.  The 0 case runs in a child process, so that a
    # precision loop that never ends fails at the timeout instead of hanging.
    e = zeta(5) + zeta(5, 4)  # 2*cos(2*pi/5) > 0
    for bits in (-1, 1):
        with pytest.raises(ValueError, match="at least 2 bits"):
            sign_of_real(e, initial_bits=bits)
    package_root = os.path.dirname(os.path.dirname(torsion_packet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", _SIGN_AT_PRECISION, "0"], capture_output=True, text=True, env=env, timeout=30
    )
    assert child.returncode == 0 and "at least 2 bits" in child.stdout, child.stderr
    assert sign_of_real(e, initial_bits=2) == 1


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


def _cos_ball_reference(j, m, bits):
    """(mid, rad) of cos(2 pi j/m) 2^bits from its own ``cos_sin_ball``,
    folded into [0, pi/2] by symmetry: a reference that shares the series
    with the rotation but not its error argument."""
    t = 2 * j % (2 * m)  # the angle is pi t/m, t in [0, 2m)
    if t > m:
        t = 2 * m - t
    if 2 * t > m:
        c, _, rad = cos_sin_ball(m - t, m, bits)
        return -c, rad
    c, _, rad = cos_sin_ball(t, m, bits)
    return c, rad


@pytest.mark.parametrize("m", [3, 4, 5, 12, 20, 97, 120, 840])
@pytest.mark.parametrize("bits", [8, 128, 1024])
def test_real_part_ball_agrees_with_per_coordinate_balls(m, bits):
    # Both balls hold sum_j nums[j] cos(2 pi j/m) 2^bits, so their centres
    # lie within the sum of the radii; the vectors are not restricted to
    # real elements, and some end in zeros or are rational.
    rng = random.Random(m * 10_000 + bits)
    phi = _phi(m)
    vectors = [[rng.randint(-50, 50) for _ in range(phi)] for _ in range(3)]
    vectors.append([rng.randint(-50, 50) for _ in range(phi // 2)] + [0] * (phi - phi // 2))
    vectors.append([7] + [0] * (phi - 1))
    for nums in vectors:
        mid, rad = _real_part_ball(nums, m, bits)
        mid_ref = rad_ref = 0
        for j, n in enumerate(nums):
            c, r = _cos_ball_reference(j, m, bits)
            mid_ref += n * c
            rad_ref += abs(n) * r
        assert rad <= 2 * sum(abs(n) for n in nums[1:])
        assert abs(mid - mid_ref) <= rad + rad_ref, (nums, m, bits)


def test_a_sign_round_calls_the_ball_kernel_at_most_once(monkeypatch):
    # One rotation serves every coordinate of a round, and a rational needs
    # no cosine at all.  This element has over 100 nonzero coordinates, so
    # one series per coordinate would show here as over 100 calls.
    from torsion_packet.tanratio import exact_mu

    calls = []
    kernel = signs.cos_sin_ball

    def counting(p, q, bits):
        calls.append((p, q))
        return kernel(p, q, bits)

    monkeypatch.setattr(signs, "cos_sin_ball", counting)
    e = exact_mu((1, 840), (13, 840)) - 1
    assert e.m == 840 and sum(1 for n in e.nums if n) > 100
    assert sign_of_real(e) == 1
    assert calls == [(1, 420)]
    calls.clear()
    assert sign_of_real(CyclotomicElem.from_rational(840, F(-3, 7))) == -1
    assert calls == []


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
            st.lists(st.deferred(lambda: rationals), min_size=_phi(m), max_size=_phi(m)),
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
    d = _phi(m)
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
        assert b * a.inverse() * a == b


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
    assert len(e.nums) == _phi(e.m) and all(type(n) is int for n in e.nums)
    if not any(ref.coeffs):
        assert e.is_zero() and e.nums == (0,) * _phi(e.m) and e.den == 1
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
    d = _phi(m)
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
        assert_cyclo_matches_reference(x * (1 / q), rx.scaled(1 / q))
        assert_cyclo_matches_reference(y * F(1, q.numerator), ry.scaled(F(1, q.numerator)))
        assert_cyclo_matches_reference(x * CyclotomicElem.from_rational(m, q).inverse(), rx.scaled(1 / q))
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
        lambda m: st.lists(wide_rationals, min_size=_phi(m), max_size=_phi(m)).map(
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
