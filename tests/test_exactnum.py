"""Tests for the exact arithmetic foundation."""

import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv

from torsion_packet.exactnum import (
    CyclotomicElem,
    MinPoly,
    QuadraticElem,
    RationalPoly,
    conductor_units,
    cyclotomic_polynomial,
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
from torsion_packet.exactnum.signs import interval_context


def zeta(m, k=1):
    return CyclotomicElem.zeta(m, k)


# --------------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_polynomial_definition_cases():
    assert cyclotomic_polynomial(1) == RationalPoly([-1, 1])
    assert cyclotomic_polynomial(4) == RationalPoly([1, 0, 1])


def test_cyclotomic_polynomial_12():
    # Hand-derived: divide x^12 - 1 by Phi_1*Phi_2*Phi_3*Phi_4*Phi_6
    # = (x-1)(x+1)(x^2+x+1)(x^2+1)(x^2-x+1) = x^8 + x^6 - x^2 - 1.
    lower = RationalPoly([1])
    for coeffs in ([-1, 1], [1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1]):
        lower = lower * RationalPoly(coeffs)
    x12 = RationalPoly([-1] + [0] * 11 + [1])
    assert x12 / lower == RationalPoly([1, 0, -1, 0, 1])
    assert cyclotomic_polynomial(12) == RationalPoly([1, 0, -1, 0, 1])


def test_cyclotomic_degree_and_product_identity_up_to_60():
    for m in range(1, 61):
        assert cyclotomic_polynomial(m).degree == euler_phi(m)
        product = RationalPoly([1])
        for d in divisors(m):
            product = product * cyclotomic_polynomial(d)
        assert product == RationalPoly([-1] + [0] * (m - 1) + [1])


def test_cyclotomic_polynomial_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


# --------------------------------------------------------------------------
# element basics


def test_zeta_satisfies_its_cyclotomic_polynomial():
    for m in (1, 4, 5, 8, 12, 20):
        assert cyclotomic_polynomial(m)(zeta(m)).is_zero()


def test_canonical_zero_and_rational_detection():
    e = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert e == -1 and e.is_rational()
    assert (e + 1).is_zero()


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
    assert minimal_polynomial(e.to_conductor(20)) == minimal_polynomial(e)
    assert minimal_polynomial(e.to_conductor(60)) == minimal_polynomial(e)


def test_embedding_then_restriction_is_identity():
    z = zeta(12)
    e = 3 * z**2 - F(5, 7) * z + 1
    assert e.to_conductor(48).restrict(12) == e
    assert e.to_conductor(36).restrict(12) == e


def test_restriction_rejects_elements_outside_subfield():
    with pytest.raises(ValueError):
        zeta(20).restrict(4)


def test_embedding_requires_divisibility():
    with pytest.raises(ValueError):
        zeta(5).to_conductor(12)


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


# --------------------------------------------------------------------------
# quadratic field elements


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
    assert q * q.conjugate() == q.norm()
    assert q + q.conjugate() == q.trace()


def test_quadratic_sign_and_ordering():
    assert QuadraticElem(0, 1, 2).sign() == 1
    assert QuadraticElem(-2, 1, 2).sign() == -1  # sqrt(2) < 2
    assert QuadraticElem(-1, 1, 2).sign() == 1  # sqrt(2) > 1
    assert QuadraticElem(1, -1, 5) < 0 < QuadraticElem(1, 1, 5)


def test_quadratic_radicand_must_be_squarefree():
    with pytest.raises(ValueError):
        QuadraticElem(0, 1, 12)
    with pytest.raises(ValueError):
        QuadraticElem(0, 1, 1)


def test_quadratic_mixed_radicand_rules():
    sqrt2, sqrt3 = QuadraticElem.sqrt(2), QuadraticElem.sqrt(3)
    with pytest.raises(ValueError, match="radicand mismatch"):
        sqrt2 + sqrt3
    # rational elements move freely between fields
    assert QuadraticElem.rational(4, 3) + sqrt2 == QuadraticElem(4, 1, 2)
    assert QuadraticElem.rational(F(1, 2), 3) == QuadraticElem.rational(F(1, 2), 5)


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


def test_sign_with_tiny_initial_precision(monkeypatch):
    # The initial precision only affects the number of refinement rounds.
    # 2*cos(pi/30) - 2 is about -0.011; nudging it within 1e-9 of zero
    # forces several precision doublings starting from 8 bits.
    monkeypatch.setenv("TORSION_PACKET_PRECISION_BITS", "8")
    z = zeta(60)
    near_zero = z + z**59 - 2 + F(10946842, 10**9)
    assert sign_of_real(near_zero) == sign_of_real(near_zero, initial_bits=256)


def test_sign_is_thread_safe():
    # Two threads at different initial precisions: each evaluates in its own
    # interval context, so both get correct signs and the global mpmath.iv
    # precision is never touched.  2*cos(pi/30) - 2 = -0.01095620926...
    z = zeta(60)
    below = z + z**59 - 2 + F(109562, 10**7)  # about -9.3e-9
    above = z + z**59 - 2 + F(109563, 10**7)  # about +9.1e-8
    prec_before = iv.prec
    results: dict[int, list[tuple[int, int]]] = {}
    contexts: dict[int, list[object]] = {}

    def work(bits: int) -> None:
        with interval_context(bits) as outer:
            with interval_context(2 * bits) as inner:
                assert inner.prec == 2 * bits
            assert outer.prec == bits
        contexts[bits] = [outer, inner]
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
    assert contexts[8][0] is contexts[8][1] and contexts[300][0] is contexts[300][1]
    assert contexts[8][0] is not contexts[300][0]
    assert iv.prec == prec_before


def test_sign_env_validation(monkeypatch):
    monkeypatch.setenv("TORSION_PACKET_PRECISION_BITS", "four")
    with pytest.raises(ValueError):
        sign_of_real(CyclotomicElem.from_rational(4, 1))


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
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a != 0:
        assert a * a.inverse() == 1
    assert a.norm() == (a * a.conjugate()).to_rational()


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
