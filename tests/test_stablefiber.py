"""Tests for nodal configurations, limit differentials and the decagon analysis."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torsion_packet.errors import ArithmeticInconsistencyError
from torsion_packet import stablefiber, tanratio
from torsion_packet.exactnum import (
    CyclotomicElem,
    conductor_units,
    cyclotomic,
    galois_apply,
    inv_one_minus_zeta,
    minimal_polynomial,
    real_value,
    sign_of_real,
)
from torsion_packet.stablefiber import (
    INFINITY,
    STRATUM2_CLOSED_FORM,
    STRATUM2_HEIGHT_RATIO,
    NodalConfig,
    certify_stratum2,
    decagon_admissible_assignments,
    decagon_config,
    decagon_limit_differential,
    decagon_node_condition,
    decagon_r_sets,
    differential_space,
    solve_torsion_pairs,
    stratum2_config,
    symbolic_xy,
    verify_residue_constraints,
    verify_zero_orders,
)
from exact_helpers import (
    embed,
    field_inverse,
    kernel_basis,
    ratio_value,
    rref_basis,
    stratum2_limit_differential,
)
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
            marked=(("bad", x, 1),),
            involution=None,
        )


def test_config_involution_closure_enforced():
    x, y = F(2), F(3)
    with pytest.raises(ValueError, match="involution"):
        NodalConfig(
            nodes=((x, -x), (y, -y)),
            marked=(("p", F(1), 0),),  # image -1 is not in the configuration
            involution="negation",
        )


def test_config_rejects_a_node_at_infinity_when_built():
    # The unknowns are the residues at finite node points, so the
    # configuration itself is refused, before any rank or check runs.
    with pytest.raises(ValueError, match="nodes at infinity"):
        NodalConfig(nodes=((F(0), INFINITY), (F(2), F(3))), marked=(), involution=None)


def test_config_rejects_a_negative_order():
    with pytest.raises(ValueError, match="nonnegative"):
        NodalConfig(nodes=((F(2), F(-2)),), marked=(("z", INFINITY, -1),), involution=None)


def test_config_rejects_repeated_labels():
    with pytest.raises(ValueError, match="labels must be distinct"):
        NodalConfig(nodes=((F(2), F(-2)),), marked=(("z", F(0), 1), ("z", INFINITY, 0)), involution=None)


# --------------------------------------------------------------------------
# differential space


def _grid_points():
    xs, ys = symbolic_xy()
    return [(x, y) for x in xs for y in ys]


def _stages():
    """certify_stratum2's records, by stage."""
    return {rec["stage"]: rec for rec in certify_stratum2()}


def _oks():
    return {stage: rec["ok"] for stage, rec in _stages().items()}


def _forge(monkeypatch, closed_form, ratio=STRATUM2_HEIGHT_RATIO):
    """Make ``closed_form`` and ``ratio`` the ones certify_stratum2 checks."""
    monkeypatch.setattr(stablefiber, "STRATUM2_CLOSED_FORM", closed_form)
    monkeypatch.setattr(stablefiber, "STRATUM2_HEIGHT_RATIO", ratio)


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
    stages = _stages()
    assert stages["differential_space"]["dimension"] == 1
    assert stages["residue_constraints"]["ok"]


def test_certificate_solves_one_kernel(monkeypatch):
    # The upper bound needs the kernel at one grid point, the one whose
    # configuration the report shows; the lower bound only evaluates.
    solved = []
    original = stablefiber.differential_space
    monkeypatch.setattr(stablefiber, "differential_space", lambda config: solved.append(config) or original(config))
    stages = _stages()
    xs, ys = symbolic_xy()
    assert [config.poles for config in solved] == [(xs[0], -xs[0], ys[0], -ys[0])]
    assert stages["differential_space"]["dimension"] == 1 and stages["matches_closed_form_generator"]["ok"]


def test_a_second_kernel_dimension_fails_the_space_and_the_generator(monkeypatch):
    # Dimension 2 at the solved point bounds the dimension over Q(x, y) by
    # 2 only, so neither the line nor its generator is certified, and no
    # generator is shown; the grid checks do not depend on the kernel.
    monkeypatch.setattr(stablefiber, "differential_space", lambda config: 2)
    stages = _stages()
    assert stages["differential_space"]["dimension"] == 2
    assert stages["differential_space"]["generator"] is None
    assert _oks() == {
        "differential_space": False,
        "residue_constraints": True,
        "matches_closed_form_generator": False,
        "height_ratio": True,
    }


_FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__eq__",
)


def test_certificate_evaluates_the_grid_in_integers(monkeypatch):
    # One configuration is built, at the solved point, and the grid costs no
    # Fraction arithmetic: a 7 x 7 grid through the same first point takes
    # exactly the Fraction operations of the 5 x 5 one.
    built, ops = [], []
    init = NodalConfig.__init__
    monkeypatch.setattr(NodalConfig, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    for name in _FRACTION_ARITHMETIC:
        def counted(*args, _op=getattr(F, name), _name=name):
            ops.append(_name)
            return _op(*args)

        monkeypatch.setattr(F, name, counted)

    def fraction_ops(grid):
        monkeypatch.setattr(stablefiber, "symbolic_xy", lambda: grid)
        built.clear()
        ops.clear()
        records = certify_stratum2()
        assert len(built) == 1
        assert records[0]["dimension"] == 1 and all(rec["ok"] for rec in records)
        return len(ops)

    small = fraction_ops(symbolic_xy())
    large = fraction_ops((tuple(F(a) for a in range(1, 8)), tuple(F(b) for b in range(6, 13))))
    assert small == large > 0


def test_symbolic_generator_matches_closed_form_coefficientwise():
    stages = _stages()
    assert stages["matches_closed_form_generator"]["ok"]
    assert stages["differential_space"]["generator"] == {
        "terms": [
            {"residue": "y/x", "pole": "x"},
            {"residue": "-y/x", "pole": "-x"},
            {"residue": "-1", "pole": "y"},
            {"residue": "1", "pole": "-y"},
        ]
    }
    for x, y in _grid_points():
        assert rref_basis(stratum2_config(x, y)) == [(y / x, -y / x, F(-1), F(1))]


def test_certificate_rejects_forged_closed_form(monkeypatch):
    _forge(monkeypatch, (("y/x", "x"), ("-y/x", "-x"), ("1", "y"), ("-1", "-y")))
    stages = _stages()
    assert stages["differential_space"]["dimension"] == 1 and stages["differential_space"]["generator"] is None
    assert _oks() == {
        "differential_space": True,
        "residue_constraints": False,
        "matches_closed_form_generator": False,
        "height_ratio": False,
    }
    # Scaled by x, the form still spans the kernel and has height ratio y/x,
    # and at the solved point (1, 6) it equals the RREF basis.
    _forge(monkeypatch, (("y", "x"), ("-y", "-x"), ("-x", "y"), ("x", "-y")))
    oks = _oks()
    assert oks["residue_constraints"] and oks["height_ratio"]
    assert not oks["matches_closed_form_generator"]
    # Agreeing with the generator at (1, 6) only is not enough either.
    _forge(monkeypatch, (("y/x", "x"), ("-y", "-x"), ("-1", "y"), ("1", "-y")))
    oks = _oks()
    assert not oks["matches_closed_form_generator"] and not oks["residue_constraints"]
    # A wrong height ratio fails on its own.
    _forge(monkeypatch, STRATUM2_CLOSED_FORM, "x/y")
    stages = _stages()
    assert stages["matches_closed_form_generator"]["ok"] and stages["residue_constraints"]["ok"]
    assert stages["height_ratio"] == {"stage": "height_ratio", "value": "x/y", "ok": False}


def test_certificate_refuses_a_grid_below_the_degree_bound(monkeypatch):
    import torsion_packet.stablefiber as stablefiber_mod

    small = tuple(F(a) for a in range(1, 5)), tuple(F(b) for b in range(5, 9))
    monkeypatch.setattr(stablefiber_mod, "symbolic_xy", lambda: small)
    with pytest.raises(ArithmeticInconsistencyError, match="cannot certify"):
        certify_stratum2()


@pytest.mark.parametrize(
    "xs",
    [
        pytest.param((1, 2, 3, 4, 4), id="four-distinct-values"),
        pytest.param((F(1, 2), 1, F(3, 2), 2, F(5, 2)), id="fractions"),
    ],
)
def test_certificate_needs_five_distinct_integers_on_each_axis(xs, monkeypatch):
    # Five entries with a repeat are four points on that axis, and the grid
    # is evaluated in integers.
    grid = tuple(F(a) for a in xs), tuple(F(b) for b in range(6, 11))
    monkeypatch.setattr(stablefiber, "symbolic_xy", lambda: grid)
    with pytest.raises(ArithmeticInconsistencyError, match="cannot certify.*distinct integers"):
        certify_stratum2()


def test_certificate_rejects_malformed_closed_forms(monkeypatch):
    _forge(monkeypatch, (("y*x", "x"), ("-y/x", "-x"), ("-1", "y"), ("1", "-y")))
    with pytest.raises(ValueError, match="not"):
        certify_stratum2()
    _forge(monkeypatch, (("y/x", "-x"), ("-y/x", "x"), ("-1", "y"), ("1", "-y")))
    with pytest.raises(ValueError, match="poles"):
        certify_stratum2()


_nonzero_rationals = st.fractions(max_denominator=50).filter(lambda q: q != 0)


@settings(max_examples=100, deadline=None)
@given(_nonzero_rationals, _nonzero_rationals)
def test_random_specialization_has_the_closed_form_as_basis(a, b):
    # Independent of the certification grid: any rational point where the
    # configuration is defined gives a line spanned by the closed form.
    assume(a not in (b, -b))
    cfg = stratum2_config(a, b)
    assert differential_space(cfg) == 1
    assert rref_basis(cfg) == [(b / a, -b / a, F(-1), F(1))]


def test_config_rejects_points_outside_the_exact_fields():
    with pytest.raises(TypeError, match="not a CyclotomicElem, Fraction or INFINITY"):
        stratum2_config(2, 3)


def test_residue_constraints_hold_and_detect_perturbation():
    x, y = F(2), F(3)
    cfg = stratum2_config(x, y)
    omega = stratum2_limit_differential(x, y)
    assert verify_residue_constraints(omega, cfg)
    c0, *rest = omega
    perturbed = (c0 + 1, *rest)
    assert not verify_residue_constraints(perturbed, cfg)


def test_zero_orders_are_checked_apart_from_the_residue_rows():
    # Residues (1, -1, 0, 0) at (2, -2, 3, -3) match at both nodes and sum
    # to zero, but sum(c_i * p_i) = 4: no double zero at infinity.
    x, y = F(2), F(3)
    cfg = stratum2_config(x, y)
    omega = (F(1), F(-1), F(0), F(0))
    assert verify_residue_constraints(omega, cfg)
    assert not verify_zero_orders(omega, cfg)


def test_residue_precondition_on_poles():
    x, y = F(2), F(3)
    cfg = stratum2_config(x, y)
    for verify in (verify_residue_constraints, verify_zero_orders):
        with pytest.raises(ValueError, match="2 residues for 4 node points"):
            verify((y, -y), cfg)


def test_over_constrained_space_is_trivial():
    # Dimension 0 at one specialization bounds the dimension over Q(x, y)
    # by 0.
    x, y = _grid_points()[0]
    cfg = NodalConfig(
        nodes=((x, -x), (y, -y)),
        marked=(("z", INFINITY, 3),),
        involution="negation",
    )
    assert differential_space(cfg) == 0


_ENTRIES = st.one_of(
    st.sampled_from([0, 1]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.lists(st.integers(-2, 2), min_size=4, max_size=4).map(lambda cs: CyclotomicElem(10, cs)),
)


@st.composite
def _rows_and_width(draw):
    """Up to 6 x 6 rows of 0, 1, Fractions and Q(zeta_10) entries, with a
    repeated row, a combination of two rows and a zero row among them."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=ncols, max_size=ncols), max_size=4))
    if rows:
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        c = draw(_ENTRIES)
        rows += [rows[i], [u + c * v for u, v in zip(rows[i], rows[j])]][: draw(st.integers(0, 2))]
    rows += [[0] * ncols] * draw(st.integers(0, 1))
    return draw(st.permutations(rows)), ncols


@settings(max_examples=150, deadline=None)
@given(_rows_and_width())
def test_rank_leaves_the_kernel_dimension_of_the_rref_oracle(case):
    rows, ncols = case
    zero = CyclotomicElem.from_rational(10, 0)
    assert ncols - stablefiber._rank(rows, ncols) == len(kernel_basis(rows, ncols, zero, zero + 1))


def test_finite_point_rows_are_the_moment_rows_times_a_power_of_d():
    # Row j at a finite point pt is sum(c_i/(pt - p_i)^j) = 0 times D^j,
    # D = prod(pt - p_i): the same condition, with no entry divided.
    pt = F(1, 2)
    cfg = NodalConfig(
        nodes=((F(2), F(-2)), (F(3), F(-3))), marked=(("z", pt, 2),), involution=None
    )
    d = math.prod(pt - p for p in cfg.poles)
    rows = stablefiber._zero_order_rows(cfg, cfg.poles)
    assert len(rows) == 2
    for j, row in enumerate(rows, 1):
        assert [c * (pt - p) ** j for c, p in zip(row, cfg.poles)] == [d**j] * 4


def test_rational_point_configuration():
    # The rank and the oracle work over any exact field, rationals included.
    cfg = stratum2_config(x=F(2), y=F(3))
    assert differential_space(cfg) == 1
    basis = rref_basis(cfg)
    assert basis == [stratum2_limit_differential(F(2), F(3))]
    assert verify_residue_constraints(basis[0], cfg)
    assert verify_zero_orders(basis[0], cfg)


def test_solver_output_satisfies_constraints_independently():
    for cfg in (stratum2_config(F(1), F(6)), decagon_config(), stratum2_config(x=F(5), y=F(7))):
        for omega in rref_basis(cfg):
            assert verify_residue_constraints(omega, cfg)
            assert verify_zero_orders(omega, cfg)


def test_decagon_differential_space():
    cfg = decagon_config()
    assert differential_space(cfg) == 1
    reference = decagon_limit_differential()
    assert rref_basis(cfg) == [reference]
    assert verify_residue_constraints(reference, cfg)
    assert verify_zero_orders(reference, cfg)


def test_decagon_vanishing_moments_explicitly():
    # first-order vanishing at 0 and infinity: sum(c/p) = 0 and sum(c*p) = 0
    omega = decagon_limit_differential()
    poles = decagon_config().poles
    zero = CyclotomicElem.from_rational(10, 0)
    assert sum((c * p.inverse() for c, p in zip(omega, poles)), zero).is_zero()
    assert sum((c * p for c, p in zip(omega, poles)), zero).is_zero()


# --------------------------------------------------------------------------
# height ratio


def height_ratio(residues):
    """Res(first point of first node) / Res(second point of second node) of
    a limit differential, given by its residues in pole order: y/x for
    ``stratum2_config(x, y)``.  The certificate checks the same ratio
    cleared of denominators, in integers."""
    if not residues[3]:
        raise ZeroDivisionError("designated denominator residue is zero")
    return residues[0] * field_inverse(residues[3])


def test_symbolic_height_ratio_is_y_over_x():
    assert _stages()["height_ratio"] == {"stage": "height_ratio", "value": "y/x", "ok": True}
    for x, y in _grid_points():
        assert height_ratio(rref_basis(stratum2_config(x, y))[0]) == y / x


def test_height_ratio_with_tangent_coordinates():
    # Node coordinates i*tan(pi/10) and i*tan(2*pi/10): the height ratio
    # collapses to tan(pi/5)/tan(pi/10) = sqrt(5), reference list row 1.
    assert {1, 2} <= set(solve_torsion_pairs(10))
    cfg = stratum2_config(x=tanratio.i_tan(10, 1), y=tanratio.i_tan(10, 2))
    assert differential_space(cfg) == 1
    hr = height_ratio(rref_basis(cfg)[0])
    # The solutions live in Q(zeta_10), mu in Q(zeta_20): compare values.
    assert real_value(hr, minimal_polynomial(hr)) == ratio_value((1, 10), (1, 5))
    z5 = CyclotomicElem.zeta(10, 2)
    assert hr == 2 * (z5 + z5**4) + 1  # sqrt(5)


def test_height_ratio_rejects_zero_denominator():
    omega = (F(1), F(-1), F(0), F(0))
    with pytest.raises(ZeroDivisionError):
        height_ratio(omega)


# --------------------------------------------------------------------------
# torsion solutions


def _torsion_solutions(n):
    """x_A = i*tan(A*pi/N) for every index the solver returns, built here."""
    m = tanratio.tan_conductor(n)
    return [tanratio.i_tan(m, (m // n) * a) for a in solve_torsion_pairs(n)]


def _counting_i_tan(monkeypatch):
    """The (m, e) of every ``i_tan`` the solver builds."""
    calls = []
    i_tan = stablefiber.i_tan

    def counting(m, e):
        calls.append((m, e))
        return i_tan(m, e)

    monkeypatch.setattr(stablefiber, "i_tan", counting)
    return calls


def test_torsion_order_two():
    assert solve_torsion_pairs(2) == (0,)
    assert [x.is_zero() for x in _torsion_solutions(2)] == [True]


def test_torsion_order_four():
    i = CyclotomicElem.zeta(4)
    assert solve_torsion_pairs(4) == (-1, 0, 1)
    assert _torsion_solutions(4) == [-i, CyclotomicElem.from_rational(4, 0), i]


def test_torsion_order_five_matches_tangent_parametrization():
    assert solve_torsion_pairs(5) == (-2, -1, 0, 1, 2)


def test_torsion_counts_and_imaginarity():
    for n in range(2, 13):
        expected = n if n % 2 else n - 1
        assert len(solve_torsion_pairs(n)) == expected
        for x in _torsion_solutions(n):
            assert x.conjugate() == -x


def test_torsion_solutions_live_in_conductor_lcm_2_n(monkeypatch):
    # i*tan(A*pi/N) = (w - 1)/(w + 1) with w = zeta_N^A needs only N | m
    # and an even m, so N = 15 and 41 need Q(zeta_2N), not Q(zeta_4N); the
    # tangent ratios share the rule, tanratio.tan_conductor.
    calls = _counting_i_tan(monkeypatch)
    for n in range(2, 61):
        m = tanratio.tan_conductor(n)
        assert m == math.lcm(2, n)
        calls.clear()
        solve_torsion_pairs(n)
        assert {cm for cm, _ in calls} == {m}


def test_torsion_solver_builds_one_solution_per_orbit(monkeypatch):
    # Galois transports the check on x_g to every A with gcd(A, N) = g, so
    # only A = 0 and the divisors g < N/2 of N are built, at the conductor
    # lcm(2, N): 1 + 1 at N = 41 (conductor 82), 1 + 14 at N = 210 and
    # 1 + 30 at N = 840.
    calls = _counting_i_tan(monkeypatch)
    for n, builds in ((41, 2), (210, 15), (840, 31)):
        calls.clear()
        m = tanratio.tan_conductor(n)
        assert len(solve_torsion_pairs(n)) == (n if n % 2 else n - 1)
        reps = [0] + [g for g in range(1, n // 2) if n % g == 0]
        assert len(reps) == builds
        assert calls == [(m, (m // n) * g) for g in reps]


def test_galois_transports_the_orbit_representative_to_every_solution():
    # The oracle for the solver's docstring: sigma_k(x_g) = x_A for a unit
    # k mod m with k*g = A (mod N), every x_A passes the defining identity
    # x - 1 = zeta_m^(m/2 - e)*(x + 1), and the x_A are pairwise distinct.
    for n in [*range(2, 61), 210]:
        m = tanratio.tan_conductor(n)
        units = conductor_units(m)
        built = {}
        for a in solve_torsion_pairs(n):
            e = (m // n) * a
            x = tanratio.i_tan(m, e)
            assert x - 1 == CyclotomicElem.zeta(m, m // 2 - e) * (x + 1), (n, a)
            g = math.gcd(a, n)
            if g < n:
                k = next(k for k in units if (k * g - a) % n == 0)
                assert galois_apply(tanratio.i_tan(m, (m // n) * g), k) == x, (n, a, k)
            built[x] = a
        assert len(built) == (n if n % 2 else n - 1)


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
        assert len(solve_torsion_pairs(n)) == (n if n % 2 else n - 1)
    assert calls == []


def test_torsion_certificate_rejects_a_wrong_binomial_inverse(monkeypatch):
    # A wrong inverse forges the tangent i_tan that every solution is.
    def off_by_one(m, c):
        return inv_one_minus_zeta(m, c) + 1

    monkeypatch.setattr(cyclotomic, "inv_one_minus_zeta", off_by_one)
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
    passing, accepted, expected = decagon_admissible_assignments()
    assert passing == {2, 4, 6, 8}
    assert accepted == expected
    assert (2, 4) in accepted  # x = zeta_5, y = zeta_5^2
    assert (8, 6) in accepted  # inverted pair, same class
    assert (4, 2) in accepted  # swapped, same class


def test_decagon_g2_condition_fails_for_primitive_tenth_root():
    z = CyclotomicElem.zeta(10)
    assert (z + 1) ** 5 != (z**9 + 1) ** 5


def test_decagon_r_sets_exact_values():
    r_x, r_y, inter = decagon_r_sets()
    minus_one = CyclotomicElem.from_rational(10, -1)
    zero = CyclotomicElem.from_rational(10, 0)
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


def _real_part(w):
    return (w + w.conjugate()) * F(1, 2)


def _imag_part(w, i_elem):
    return (w - w.conjugate()) * (-i_elem) * F(1, 2)


def _ray_hits(p, m):
    """All real r with p - r a positive real multiple of a tenth root of
    unity, by plane geometry in Q(zeta_m), 20 | m: for each direction
    d = zeta_10^k with Im(d) != 0, t = Im(p)/Im(d) and r = Re(p) - t*Re(d),
    kept when t > 0 and not found before."""
    i_elem = CyclotomicElem.zeta(m, m // 4)
    assert p.conjugate() != p
    im_p = _imag_part(p, i_elem)
    re_p = _real_part(p)
    hits = []
    for k in range(10):
        d = CyclotomicElem.zeta(m, (m // 10) * k)
        im_d = _imag_part(d, i_elem)
        if im_d.is_zero():
            continue
        t = im_p * im_d.inverse()
        if sign_of_real(t) > 0:
            r = re_p - t * _real_part(d)
            assert r.is_real()
            if r not in hits:
                hits.append(r)
    return hits


def test_decagon_r_sets_match_the_ray_geometry():
    # The sine ratios in Q(zeta_10) against the plane geometry in
    # Q(zeta_20), element by element and in order.
    r_x, r_y, inter = decagon_r_sets()
    oracle_x = _ray_hits(CyclotomicElem.zeta(20, 4), 20)
    oracle_y = _ray_hits(CyclotomicElem.zeta(20, 8), 20)
    assert all(r.m == 10 for r in r_x + r_y)
    assert [embed(r, 20) for r in r_x] == oracle_x
    assert [embed(r, 20) for r in r_y] == oracle_y
    assert [embed(r, 20) for r in inter] == [r for r in oracle_x if r in oracle_y]


def test_decagon_r_sets_ascend_strictly():
    # decagon exclude-r prints the sets in the order they come: r increases
    # with the direction k, as the docstring proves, so each set, and the
    # intersection read off R_x, is strictly ascending by exact signs.
    for values in decagon_r_sets():
        assert len(values) >= 2
        assert [sign_of_real(b - a) for a, b in zip(values, values[1:])] == [1] * (len(values) - 1)


def test_decagon_exclude_r():
    # The intersection R_x cap R_y holds only -1 (a Weierstrass limit) and
    # 0 (a zero of the limit differential).
    _, _, inter = decagon_r_sets()
    assert sorted(round(complex_embedding(v).real) for v in inter) == [-1, 0]


def test_minus_one_lies_on_a_tenth_root_ray():
    # x - (-1) = zeta_5 + 1 has argument pi/5: it is a positive multiple
    # of zeta_10.
    x = CyclotomicElem.zeta(20, 4)
    z10 = CyclotomicElem.zeta(20, 2)
    w = (x + 1) * z10.inverse()
    assert w.is_real() and sign_of_real(w) == 1
