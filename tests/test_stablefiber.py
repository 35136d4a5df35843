"""Tests for nodal configurations, limit differentials and the decagon analysis."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torsion_packet.errors import ArithmeticInconsistencyError
from torsion_packet import tanratio
from torsion_packet.exactnum import CyclotomicElem, inv_one_minus_zeta, sign_of_real
from torsion_packet.stablefiber import (
    INFINITY,
    STRATUM2_CLOSED_FORM,
    LimitDifferential,
    NodalConfig,
    certify_stratum2,
    decagon_admissible_assignments,
    decagon_config,
    decagon_limit_differential,
    decagon_node_condition,
    decagon_points,
    decagon_r_sets,
    differential_space,
    differentials_proportional,
    height_ratio,
    solve_torsion_pairs,
    stratum2_config,
    stratum2_limit_differential,
    symbolic_xy,
    verify_residue_constraints,
    verify_zero_orders,
)
from torsion_packet.tanratio import ratio

from float_embedding import complex_embedding


# --------------------------------------------------------------------------
# configurations


def test_config_rejects_coincident_points():
    with pytest.raises(ValueError, match="pairwise distinct"):
        stratum2_config(x=F(2), y=F(2))


def test_config_rejects_zero_order_at_pole():
    # A marked point colliding with a node point is caught at construction,
    # before differential_space could even see it.
    x, y = F(2), F(3)
    with pytest.raises(ValueError, match="pairwise distinct"):
        NodalConfig(
            nodes=((x, -x), (y, -y)),
            marked=(("bad", x),),
            zero_orders={"bad": 1},
            involution=None,
        )


def test_config_involution_closure_enforced():
    x, y = F(2), F(3)
    with pytest.raises(ValueError, match="involution"):
        NodalConfig(
            nodes=((x, -x), (y, -y)),
            marked=(("p", F(1)),),  # image -1 is not in the configuration
            involution="negation",
        )


def test_config_rejects_unknown_zero_labels():
    x, y = F(2), F(3)
    with pytest.raises(ValueError, match="unmarked"):
        NodalConfig(nodes=((x, -x), (y, -y)), zero_orders={"ghost": 1})


# --------------------------------------------------------------------------
# differential space


def _grid_points():
    xs, ys = symbolic_xy()
    return [(x, y) for x in xs for y in ys]


def test_certification_grid_is_large_enough_and_defined():
    xs, ys = symbolic_xy()
    assert min(len(xs), len(ys)) >= 5  # degree bound 4 in each variable
    assert len(set(xs)) == len(xs) and len(set(ys)) == len(ys)
    for x, y in _grid_points():
        assert isinstance(x, F) and isinstance(y, F)
        assert len({x, -x, y, -y, F(0)}) == 5


def test_symbolic_stratum2_space_is_a_line():
    # Dimension 1 at one specialization bounds the dimension over Q(x, y)
    # by 1; the closed form lying in the kernel identically gives 1.
    cert = certify_stratum2()
    assert cert.dimension == 1 and set(cert.dimensions) == {1}
    assert len(cert.dimensions) == len(_grid_points())
    assert cert.closed_form_in_kernel


def test_symbolic_generator_matches_closed_form_coefficientwise():
    cert = certify_stratum2()
    assert cert.basis_is_closed_form
    assert cert.closed_form == (("y/x", "x"), ("-y/x", "-x"), ("-1", "y"), ("1", "-y"))
    for x, y in _grid_points():
        _, basis = differential_space(stratum2_config(x, y))
        assert basis[0].terms == ((y / x, x), (-y / x, -x), (F(-1), y), (F(1), -y))


def test_certificate_rejects_forged_closed_form():
    forged = (("y/x", "x"), ("-y/x", "-x"), ("1", "y"), ("-1", "-y"))
    cert = certify_stratum2(forged)
    assert cert.dimension == 1
    assert not cert.basis_is_closed_form
    assert not cert.closed_form_in_kernel
    assert not cert.height_ratio_holds
    # A wrong height ratio fails on its own.
    cert = certify_stratum2(STRATUM2_CLOSED_FORM, "x/y")
    assert cert.basis_is_closed_form and cert.closed_form_in_kernel
    assert not cert.height_ratio_holds


def test_certificate_refuses_a_grid_below_the_degree_bound(monkeypatch):
    import torsion_packet.stablefiber as stablefiber_mod

    small = tuple(F(a) for a in range(1, 5)), tuple(F(b) for b in range(5, 9))
    monkeypatch.setattr(stablefiber_mod, "symbolic_xy", lambda: small)
    with pytest.raises(ArithmeticInconsistencyError, match="cannot certify"):
        certify_stratum2()


def test_certificate_rejects_malformed_closed_forms():
    with pytest.raises(ValueError, match="not"):
        certify_stratum2((("y*x", "x"), ("-y/x", "-x"), ("-1", "y"), ("1", "-y")))
    with pytest.raises(ValueError, match="poles"):
        certify_stratum2((("y/x", "-x"), ("-y/x", "x"), ("-1", "y"), ("1", "-y")))


_nonzero_rationals = st.fractions(max_denominator=50).filter(lambda q: q != 0)


@settings(max_examples=100, deadline=None)
@given(_nonzero_rationals, _nonzero_rationals)
def test_random_specialization_has_the_closed_form_as_basis(a, b):
    # Independent of the certification grid: any rational point where the
    # configuration is defined gives a line spanned by the closed form.
    assume(a not in (b, -b))
    dim, basis = differential_space(stratum2_config(a, b))
    assert dim == 1
    assert basis[0].terms == ((b / a, a), (-b / a, -a), (F(-1), b), (F(1), -b))


def test_config_rejects_points_outside_the_exact_fields():
    with pytest.raises(TypeError, match="not a CyclotomicElem, Fraction or INFINITY"):
        stratum2_config(2, 3)


def test_residue_constraints_hold_and_detect_perturbation():
    x, y = F(2), F(3)
    cfg = stratum2_config(x, y)
    omega = stratum2_limit_differential(x, y)
    assert verify_residue_constraints(omega, cfg)
    (c0, p0), *rest = omega.terms
    perturbed = LimitDifferential([(c0 + 1, p0)] + rest)
    assert not verify_residue_constraints(perturbed, cfg)


def test_zero_orders_are_checked_apart_from_the_residue_rows():
    # Residues (1, -1, 0, 0) at (2, -2, 3, -3) match at both nodes and sum
    # to zero, but sum(c_i * p_i) = 4: no double zero at infinity.
    x, y = F(2), F(3)
    cfg = stratum2_config(x, y)
    omega = LimitDifferential(((F(1), x), (F(-1), -x), (F(0), y), (F(0), -y)))
    assert verify_residue_constraints(omega, cfg)
    assert not verify_zero_orders(omega, cfg)


def test_residue_precondition_on_poles():
    x, y = F(2), F(3)
    cfg = stratum2_config(x, y)
    for verify in (verify_residue_constraints, verify_zero_orders):
        with pytest.raises(ValueError, match="poles"):
            verify(LimitDifferential(((y, x), (-y, -x))), cfg)


def test_over_constrained_space_is_trivial():
    # Dimension 0 at one specialization bounds the dimension over Q(x, y)
    # by 0.
    x, y = _grid_points()[0]
    cfg = NodalConfig(
        nodes=((x, -x), (y, -y)),
        marked=(("z", INFINITY),),
        zero_orders={"z": 3},
        involution="negation",
    )
    dim, _ = differential_space(cfg)
    assert dim == 0


def test_rational_point_configuration():
    # The solver is generic over any exact field, rationals included.
    cfg = stratum2_config(x=F(2), y=F(3))
    dim, basis = differential_space(cfg)
    assert dim == 1
    assert differentials_proportional(basis[0], stratum2_limit_differential(F(2), F(3)))
    assert verify_residue_constraints(basis[0], cfg)
    assert verify_zero_orders(basis[0], cfg)


def test_solver_output_satisfies_constraints_independently():
    for cfg in (stratum2_config(F(1), F(6)), decagon_config(), stratum2_config(x=F(5), y=F(7))):
        _, basis = differential_space(cfg)
        for omega in basis:
            assert verify_residue_constraints(omega, cfg)
            assert verify_zero_orders(omega, cfg)


def test_decagon_differential_space():
    cfg = decagon_config()
    dim, basis = differential_space(cfg)
    assert dim == 1
    x, y = decagon_points()
    reference = decagon_limit_differential(x, y)
    assert differentials_proportional(basis[0], reference)
    assert verify_residue_constraints(reference, cfg)
    assert verify_zero_orders(reference, cfg)


def test_decagon_vanishing_moments_explicitly():
    # first-order vanishing at 0 and infinity: sum(c/p) = 0 and sum(c*p) = 0
    x, y = decagon_points()
    omega = decagon_limit_differential(x, y)
    zero = x - x
    assert sum((c / p for c, p in omega.terms), zero).is_zero()
    assert sum((c * p for c, p in omega.terms), zero).is_zero()


# --------------------------------------------------------------------------
# height ratio


def test_symbolic_height_ratio_is_y_over_x():
    cert = certify_stratum2()
    assert cert.height_ratio == "y/x" and cert.height_ratio_holds
    for x, y in _grid_points():
        cfg = stratum2_config(x, y)
        _, basis = differential_space(cfg)
        assert height_ratio(basis[0], cfg) == y / x


def test_height_ratio_with_tangent_coordinates():
    # Node coordinates i*tan(pi/10) and i*tan(2*pi/10): the height ratio
    # collapses to tan(pi/5)/tan(pi/10) = sqrt(5), reference list row 1.
    torsion = solve_torsion_pairs(10)
    by_index = dict(zip(torsion.tangent_indices, torsion.solutions))
    cfg = stratum2_config(x=by_index[1], y=by_index[2])
    dim, basis = differential_space(cfg)
    assert dim == 1
    hr = height_ratio(basis[0], cfg)
    mu = ratio(F(1, 10), F(1, 5)).mu
    assert hr == mu
    z5 = CyclotomicElem.zeta(20, 4)
    assert hr == 2 * (z5 + z5**4) + 1  # sqrt(5)


def test_height_ratio_rejects_zero_denominator():
    cfg = stratum2_config(x=F(2), y=F(3))
    zero = F(0)
    omega = LimitDifferential(((F(1), F(2)), (F(-1), F(-2)), (zero, F(3)), (zero, F(-3))))
    with pytest.raises(ZeroDivisionError):
        height_ratio(omega, cfg)


# --------------------------------------------------------------------------
# torsion solutions


def test_torsion_order_two():
    ts = solve_torsion_pairs(2)
    assert len(ts.solutions) == 1
    assert ts.solutions[0].is_zero()
    assert ts.tangent_indices == (0,)


def test_torsion_order_four():
    ts = solve_torsion_pairs(4)
    i = CyclotomicElem.zeta(4)
    assert set(ts.tangent_indices) == {-1, 0, 1}
    assert {s.coeffs for s in ts.solutions} == {(-i).coeffs, CyclotomicElem.zero(4).coeffs, i.coeffs}


def test_torsion_order_five_matches_tangent_parametrization():
    ts = solve_torsion_pairs(5)
    assert ts.tangent_indices == (-2, -1, 0, 1, 2)
    assert len(ts.solutions) == 5


def test_torsion_counts_and_imaginarity():
    for n in range(2, 13):
        ts = solve_torsion_pairs(n)
        expected = n if n % 2 else n - 1
        assert len(ts.solutions) == expected
        for x in ts.solutions:
            assert x.conjugate() == -x


def test_torsion_rejects_tiny_order():
    with pytest.raises(ValueError):
        solve_torsion_pairs(1)


def test_torsion_solver_inverts_no_general_element(monkeypatch):
    # The one denominator, w + 1 in the Cayley form of i*tan, is a binomial
    # 1 - zeta^c with a closed-form inverse, so the general inverse is
    # never needed.
    calls = []
    general_inverse = CyclotomicElem.inverse

    def counted(self):
        calls.append(self.m)
        return general_inverse(self)

    monkeypatch.setattr(CyclotomicElem, "inverse", counted)
    for n in range(2, 61):
        ts = solve_torsion_pairs(n)
        assert len(ts.solutions) == (n if n % 2 else n - 1)
    assert calls == []


def test_torsion_certificate_rejects_a_wrong_binomial_inverse(monkeypatch):
    # A wrong inverse forges the tangent i_tan that every solution is.
    def off_by_one(m, c):
        return inv_one_minus_zeta(m, c) + 1

    monkeypatch.setattr(tanratio, "inv_one_minus_zeta", off_by_one)
    with pytest.raises(ArithmeticInconsistencyError, match="defining equation"):
        solve_torsion_pairs(7)


# --------------------------------------------------------------------------
# decagon


def test_decagon_node_conditions_per_root():
    # fifth roots of unity pass, primitive tenth roots fail
    assert decagon_node_condition(2) and decagon_node_condition(4)
    assert decagon_node_condition(6) and decagon_node_condition(8)
    assert not decagon_node_condition(1)
    assert not decagon_node_condition(3)
    with pytest.raises(ValueError):
        decagon_node_condition(5)


def test_decagon_verify_pins_the_solution_class():
    accepted, expected = decagon_admissible_assignments()
    assert accepted == expected
    assert (2, 4) in accepted  # x = zeta_5, y = zeta_5^2
    assert (8, 6) in accepted  # inverted pair, same class
    assert (4, 2) in accepted  # swapped, same class


def test_decagon_g2_condition_fails_for_primitive_tenth_root():
    z = CyclotomicElem.zeta(10)
    assert (z + 1) ** 5 != (z**9 + 1) ** 5


def test_decagon_r_sets_exact_values():
    r_x, r_y, inter = decagon_r_sets()
    minus_one = CyclotomicElem.from_rational(20, -1)
    zero = CyclotomicElem.from_rational(20, 0)
    assert any(r == minus_one for r in r_x)
    assert any(r == zero for r in r_x)
    assert len(r_x) == 4 and len(r_y) == 4
    # every member of R_x is -1 or nonnegative
    for r in r_x:
        assert r == minus_one or sign_of_real(r) >= 0
    # every member of R_y is nonpositive
    for r in r_y:
        assert sign_of_real(r) <= 0
    assert {tuple(r.coeffs) for r in inter} == {tuple(minus_one.coeffs), tuple(zero.coeffs)}


def test_decagon_exclude_r():
    # The intersection R_x cap R_y holds only -1 (a Weierstrass limit) and
    # 0 (a zero of the limit differential).
    _, _, inter = decagon_r_sets()
    assert sorted(round(complex_embedding(v).real) for v in inter) == [-1, 0]


def test_minus_one_lies_on_a_tenth_root_ray():
    # x - (-1) = zeta_5 + 1 has argument pi/5: it is a positive multiple
    # of zeta_10.
    x, _ = decagon_points(20)
    z10 = CyclotomicElem.zeta(20, 2)
    w = (x + 1) / z10
    assert w.is_real() and sign_of_real(w) == 1
