"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All equality checks are exact (arbitrary-precision arithmetic, zero
tolerance); the only numeric bounds are the wall-clock budgets.  Run with
``pytest tests/test_acceptance.py -s`` to see one line per criterion.
"""

import math
import time
from fractions import Fraction as F

from torsion_packet.cli import cmd_decagon, cmd_lshape, cmd_stratum2, cmd_verify_table1
from torsion_packet.exactnum import CyclotomicElem
from torsion_packet.lshape import matching_triples_for
from torsion_packet.stablefiber import (
    certify_stratum2,
    decagon_config,
    decagon_limit_differential,
    differential_space,
    solve_torsion_pairs,
    stratum2_config,
    symbolic_xy,
)
from torsion_packet.tanratio import angles_up_to, i_tan, tan_conductor

from exact_helpers import check_addition_formula, embed, rref_basis, stratum2_limit_differential, tan_of


def _report(number: int, description: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {description} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s (took {elapsed:.1f}s)"


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    report = cmd_verify_table1(12)
    elapsed = time.perf_counter() - start
    rows = {(r["alpha"], r["beta"]): (r["trace"], r["norm"], r["status"]) for r in report.records}
    ok = (
        report.verdict == "verified"
        and len(report.records) == 9
        and rows[("1/10", "1/5")] == ("0", "-5", "match")
        and rows[("1/10", "2/5")] == ("10", "5", "match")
        and rows[("1/12", "1/3")] == ("6", "-3", "match")
    )
    _report(1, "all 9 reference rows reproduced exactly at denominator bound 12", ok, elapsed, 60)

    start = time.perf_counter()
    sweep = cmd_verify_table1(60)
    elapsed = time.perf_counter() - start
    ok = sweep.verdict == "verified" and len(sweep.records) == 9
    _report(1, "stability sweep to denominator 60 adds no rows", ok, elapsed, 600)

    start = time.perf_counter()
    sweep = cmd_verify_table1(120)
    elapsed = time.perf_counter() - start
    ok = sweep.verdict == "verified" and len(sweep.records) == 9
    ok = ok and all(r["status"] == "match" for r in sweep.records)
    _report(1, "stability sweep to denominator 120 adds no rows", ok, elapsed, 600)


def test_criterion_2_unit_case_exclusivity():
    start = time.perf_counter()
    report = cmd_lshape("unit-case", 10_000)
    elapsed = time.perf_counter() - start
    got = [(r["b"], r["e"]) for r in report.records]
    ok = report.verdict == "verified" and got == [(1, -1), (2, 0)]
    _report(2, "unit case is exactly the pentagon and octagon up to b = 10000", ok, elapsed, 5)


def test_criterion_3_nonunit_exclusion():
    start = time.perf_counter()
    report = cmd_lshape("exclude", 10_000)
    elapsed = time.perf_counter() - start
    ok = report.verdict == "verified" and len(report.records) == 9
    ok = ok and all(r["excluded"] for r in report.records)
    for rec in report.records:
        for cand in rec["candidates"]:
            trace = F(cand["trace"])
            if trace.denominator == 1 and trace in (1, 2, 3):
                # the only candidates passing the trace test have trace 2
                # and fail on a non-integral norm of 1/5 or -1/3
                ok = ok and trace == 2
                ok = ok and F(cand["norm"]) in (F(1, 5), F(-1, 3))
                ok = ok and cand["reason"] == "norm not an integer"
            else:
                ok = ok and cand["reason"] == "trace not in {1,2,3}"
    _report(3, "all 9 rows excluded: trace-2 candidates fail on norm, others on trace", ok, elapsed, 5)


def test_criterion_4_differential_uniqueness():
    start = time.perf_counter()
    # Over Q(x, y), certified on the grid of rational specializations:
    # dimension 1 at a point bounds the dimension by 1, and the closed form
    # satisfies every condition identically by the degree bound.
    # Its four stage records: dimension 1, the residue constraints, the
    # generator and the height ratio.
    ok = all(rec["ok"] for rec in certify_stratum2())
    xs, ys = symbolic_xy()
    ok = ok and min(len(xs), len(ys)) > 4
    for x in xs:
        for y in ys:
            cfg = stratum2_config(x, y)
            reference = stratum2_limit_differential(x, y)
            ok = ok and differential_space(cfg) == 1 and rref_basis(cfg) == [reference]

    dcfg = decagon_config()
    ok = ok and differential_space(dcfg) == 1
    ok = ok and rref_basis(dcfg) == [decagon_limit_differential()]
    elapsed = time.perf_counter() - start
    _report(4, "differential space has dimension 1 and matches the closed form", ok, elapsed, 30)


def test_criterion_5_torsion_solver_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for n in range(2, 13):
        indices = solve_torsion_pairs(n)
        m_n = tan_conductor(n)
        solutions = [i_tan(m_n, (m_n // n) * a) for a in indices]
        # Independent expansion oracle: coefficients of (x-1)^n - (-x-1)^n.
        coeffs = [math.comb(n, k) * ((-1) ** (n - k) - (-1) ** n) for k in range(n + 1)]
        degree = max(i for i, c in enumerate(coeffs) if c)
        ok = ok and degree == len(indices)
        for sol in solutions:
            value = None
            for c in reversed(coeffs):
                value = (value * sol + c) if value is not None else (sol - sol + c)
            ok = ok and value.is_zero()
        # Independent tangent construction through the angle embedding.
        m = math.lcm(4, 2 * n)
        i_elem = CyclotomicElem.zeta(m, m // 4)
        expected = {CyclotomicElem.from_rational(m, 0).coeffs}
        for a in range(1, (n - 1) // 2 + 1):
            t = embed(tan_of(F(a, n)), m)
            expected.add((i_elem * t).coeffs)
            expected.add((-i_elem * t).coeffs)
        got = {embed(s, m).coeffs for s in solutions}
        ok = ok and got == expected
    elapsed = time.perf_counter() - start
    _report(5, "torsion solutions equal the i*tan set and the oracle root set for N <= 12", ok, elapsed, 30)


def test_criterion_6_decagon_verification():
    start = time.perf_counter()
    verify = cmd_decagon("verify")
    exclude = cmd_decagon("exclude-r")
    inter = next(r for r in exclude.records if r["check"] == "intersection")
    ok = (
        verify.verdict == "verified"
        and exclude.verdict == "verified"
        and inter["values"] == ["-1", "0"]
    )
    elapsed = time.perf_counter() - start
    _report(6, "decagon nodes pinned to {zeta_5, zeta_5^2}; R_x cap R_y within {-1, 0}", ok, elapsed, 60)


def test_criterion_7_addition_formula_suite():
    start = time.perf_counter()
    angles = angles_up_to(12)
    checked = 0
    ok = True
    for i, smaller in enumerate(angles):
        for larger in angles[i + 1 :]:
            ok = ok and check_addition_formula(F(*larger), F(*smaller))
            checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and checked == 231
    _report(7, f"addition formula holds exactly on all {checked} pairs with denominators <= 12", ok, elapsed, 300)


def test_criterion_8_scope_boundary_checks():
    # The non-desk-reproducible theory (Mordell-Weil finiteness, the
    # Manin-Mumford appeal, unconditional completeness of the reference
    # list) is out of scope; what stands in are the property-based
    # checks: the stability sweep of criterion 1 and the mutation
    # sensitivity of the exclusion engine.
    start = time.perf_counter()
    sensitive = [t[:2] for t in matching_triples_for(F(2), F(-1))[0]] == [(2, 0)]
    pipeline = cmd_stratum2(5).verdict == "verified"
    ok = sensitive and pipeline
    elapsed = time.perf_counter() - start
    _report(8, "scope boundary: sweep + sensitivity stand in for the excluded theory", ok, elapsed, 60)
