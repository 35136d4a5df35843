"""Tests for the command-line front end and report formats."""

import csv
import functools
import hashlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsion_packet import lshape, stablefiber, tanratio
from torsion_packet.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_USAGE,
    TABLE1_MAX_DENOMINATOR,
    _cell,
    _leaf,
    cmd_decagon,
    cmd_lshape,
    cmd_stratum2,
    cmd_tangent_ratios,
    cmd_verify_table1,
    load_reference_rows,
    main,
    render,
)
from torsion_packet.exactnum import CyclotomicElem, QuadraticElem

from exact_helpers import embed, stabilizer


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out


# --------------------------------------------------------------------------
# verify-table1


def test_verify_table1_default_verified():
    # Raising the bound finds no new row.  At 400 the pair filter keeps 995
    # of the 79,401 denominator pairs for degree 2.  At 1000 the walk visits
    # 160,250 orbits, 83,888 of them off the diagonal, and one Lagrange
    # comparison drops 160,210 before their conjugates are scanned.  At
    # 2000, the bound the README quotes, the tangent table holds rows up to
    # q = 2000, each rotated from one ball of exp(i*pi/q) up to r = 999.
    for bound in (None, 400, 1000, 2000):
        report = cmd_verify_table1() if bound is None else cmd_verify_table1(bound)
        assert report.verdict == "verified", bound
        assert len(report.records) == 9, bound
        assert all(rec["status"] == "match" for rec in report.records), bound


def test_table1_bound_is_the_largest_denominator_of_the_shipped_table():
    # verify-table1 starts from this bound and lshape exclude reads the
    # rows up to it, so both cover the shipped table, and no more.
    path = Path(stablefiber.__file__).parent / "data" / "table1.json"
    rows = json.loads(path.read_text())["records"]
    assert len(rows) == 9
    denominators = [Fraction(row[k]).denominator for row in rows for k in ("alpha", "beta")]
    assert max(denominators) == TABLE1_MAX_DENOMINATOR == 12


def test_verify_table1_against_mutated_ground_truth(tmp_path):
    rows = load_reference_rows()
    rows[3]["norm"] = "-1"  # flip one norm
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps({"schema_version": 1, "records": rows}))
    report = cmd_verify_table1(ground_truth_path=str(path))
    assert report.verdict == "refuted"
    statuses = {rec["status"] for rec in report.records}
    assert "missing" in statuses and "unexpected" in statuses


def test_verify_table1_exit_codes(capsys, tmp_path):
    code, _ = run_cli(["verify-table1"], capsys)
    assert code == EXIT_OK
    rows = load_reference_rows()
    rows[0]["trace"] = "7"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 1, "records": rows}))
    code, _ = run_cli(["verify-table1", "--ground-truth", str(path)], capsys)
    assert code == EXIT_REFUTED


def _ground_truth_without(key):
    def write(path):
        rows = load_reference_rows()
        del rows[2][key]
        path.write_text(json.dumps({"schema_version": 1, "records": rows}))

    return write


def _ground_truth_with(**fields):
    """The shipped rows with ``fields`` changed in the first, (1/12, 1/6)."""

    def write(path):
        rows = load_reference_rows()
        rows[0].update(fields)
        path.write_text(json.dumps({"schema_version": 1, "records": rows}))

    return write


def _ground_truth_with_version(*version):
    def write(path):
        payload = {"records": load_reference_rows()}
        if version:
            payload["schema_version"] = version[0]
        path.write_text(json.dumps(payload))

    return write


@pytest.mark.parametrize(
    "write",
    [
        pytest.param(None, id="missing-file"),
        pytest.param(lambda p: p.mkdir(), id="directory"),
        pytest.param(lambda p: p.write_text("{not json"), id="not-json"),
        # Nested deeper than the decoder recurses: RecursionError, not a bug.
        pytest.param(lambda p: p.write_text("[" * 200_000), id="nested-arrays"),
        pytest.param(
            lambda p: p.write_text('{"schema_version": 1, "records": ' + "[" * 200_000), id="nested-records"
        ),
        pytest.param(lambda p: p.write_bytes(b'\xff\xfe{"schema_version": 1}'), id="not-utf8"),
        # Valid JSON, the shipped rows, but longer than the 1 MiB the loader reads.
        pytest.param(
            lambda p: p.write_text(
                json.dumps({"schema_version": 1, "records": load_reference_rows()}) + " " * (1 << 20)
            ),
            id="padded-past-1-MiB",
        ),
        # More digits than int() reads: json.loads raises a plain ValueError.
        pytest.param(
            lambda p: p.write_text(
                '{"schema_version": 1, "records": [{"alpha": ' + "1" * 5000
                + ', "beta": "1/3", "trace": "2", "norm": "-3"}]}'
            ),
            id="alpha-5000-digits",
        ),
        # A string Fraction would read but int() cannot: too long, not misspelled.
        pytest.param(_ground_truth_with(trace="1" * 5000), id="trace-5000-digits"),
        pytest.param(_ground_truth_with(norm="1/" + "7" * 5000), id="norm-5000-digit-denominator"),
        # Every bad value is echoed by its first 40 characters only.
        pytest.param(_ground_truth_with(trace="x" * 100_000), id="trace-100000-characters"),
        pytest.param(_ground_truth_with(alpha="1" * 4000), id="alpha-4000-digits"),
        pytest.param(_ground_truth_with_version("1" * 100_000), id="schema-version-100000-characters"),
        pytest.param(lambda p: p.write_text("[1, 2]"), id="no-records"),
        pytest.param(lambda p: p.write_text('{"schema_version": 1, "records": {}}'), id="records-not-list"),
        pytest.param(lambda p: p.write_text('{"schema_version": 1, "records": [7]}'), id="row-not-object"),
        pytest.param(
            lambda p: p.write_text(
                '{"schema_version": 1, "records": [{"alpha": "1/4", "beta": "1/3", "trace": [0], "norm": "-3"}]}'
            ),
            id="trace-not-scalar",
        ),
        pytest.param(
            lambda p: p.write_text(
                '{"schema_version": 1, "records": [{"alpha": "1/4", "beta": "1/3", "trace": "abc", "norm": "-3"}]}'
            ),
            id="trace-not-rational",
        ),
        pytest.param(
            lambda p: p.write_text(
                '{"schema_version": 1, "records": [{"alpha": "1/4", "beta": "1/3", "trace": "2", "norm": "1/0"}]}'
            ),
            id="norm-zero-denominator",
        ),
        *(pytest.param(_ground_truth_without(k), id=f"no-{k}") for k in ("alpha", "beta", "trace", "norm")),
        pytest.param(_ground_truth_with(alpha="abc"), id="alpha-not-rational"),
        # Fraction reads each of these, but the grammar is "-1/3" or an integer.
        # It is checked before any Fraction is built: Fraction("1e999999999")
        # alone would compute 10^999999999.
        *(
            pytest.param(_ground_truth_with(trace=t), id=f"trace-{t!r}")
            for t in ("1e3", "2e0", "-0.5e0", "1_000", " 7", "2 ", "+2", "\u0662", "2/1\uff10", "2.0",
                      "1e999999999")
        ),
        pytest.param(_ground_truth_with(norm="-1/+3"), id="norm-signed-denominator"),
        pytest.param(_ground_truth_with(alpha=1), id="alpha-one"),
        pytest.param(_ground_truth_with(alpha="3/4"), id="alpha-above-one-half"),
        pytest.param(_ground_truth_with(alpha="1/6", beta="1/12"), id="alpha-beta-swapped"),
        pytest.param(_ground_truth_with_version(), id="no-schema-version"),
        *(
            pytest.param(_ground_truth_with_version(v), id=f"schema-version-{v!r}")
            for v in (2, 0, "1", 1.0, True, None)
        ),
    ],
)
def test_verify_table1_bad_ground_truth_exits_2(write, tmp_path, capsys):
    path = tmp_path / "truth.json"
    if write is not None:
        write(path)
    code = main(["verify-table1", "--ground-truth", str(path)])
    out = capsys.readouterr()
    assert code == EXIT_USAGE
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert f"ground truth {path}" in out.err
    assert "Traceback" not in out.err
    assert len(out.err.encode()) < 200 + len(str(path).encode())


@pytest.mark.parametrize(
    ("field", "value"), [("trace", "1" * 5000), ("norm", "1/" + "7" * 5000), ("alpha", "1" * 5000)]
)
def test_a_ground_truth_number_too_long_to_read_says_so(field, value, tmp_path, capsys):
    path = tmp_path / "truth.json"
    _ground_truth_with(**{field: value})(path)
    assert main(["verify-table1", "--ground-truth", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: ground truth {path}: record 0 field {field} holds a number too long to read\n"
    )


def test_verify_table1_reads_ground_truth_angles_as_rationals(tmp_path, capsys):
    # A non-reduced spelling is the same rational, and the report shows
    # its reduced form.
    path = tmp_path / "truth.json"
    _ground_truth_with(alpha="2/24", beta="2/12", trace="4/2", norm="-2/6")(path)
    code, out = run_cli(["verify-table1", "--ground-truth", str(path), "--format", "json"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["verdict"] == "verified"
    assert report["records"][0] == {
        "alpha": "1/12", "beta": "1/6", "trace": "2", "norm": "-1/3", "status": "match"
    }


# --------------------------------------------------------------------------
# tangent-ratios


def test_tangent_ratios_degree_one(capsys):
    code, out = run_cli(
        ["tangent-ratios", "--degree", "1", "--max-denominator", "6", "--format", "json"],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    rows = {(r["alpha"], r["beta"]): r for r in payload["records"]}
    assert rows[("1/6", "1/3")]["mu"] == "3"
    # At degree 1 the pair filter keeps only the diagonal pairs and (q, 2q),
    # q odd; one of them holds the one rational ratio up to 60,
    # tan(pi/3)/tan(pi/6) = 3.
    code, out = run_cli(
        ["tangent-ratios", "--degree", "1", "--max-denominator", "60", "--format", "json"],
        capsys,
    )
    assert code == EXIT_OK
    assert [(r["alpha"], r["beta"]) for r in json.loads(out)["records"]] == [("1/6", "1/3")]


def test_tangent_ratios_nonunits(capsys):
    code, out = run_cli(
        ["tangent-ratios", "--degree", "2", "--max-denominator", "12", "--non-units-only", "--format", "json"],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["records"]) == 10  # nine normalized rows plus one Galois twin
    assert all(r["is_unit"] is False for r in payload["records"])
    # cyclotomic serialization shape
    mu = payload["records"][0]["mu_cyclotomic"]
    assert set(mu) == {"m", "coeffs"} and len(mu["coeffs"]) >= 1
    code, out = run_cli(
        ["tangent-ratios", "--degree", "4", "--max-denominator", "20", "--non-units-only", "--format", "csv"],
        capsys,
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "alpha,beta,degree,trace,norm,is_unit,mu,mu_cyclotomic"
    assert len(lines) == 1 + 56 and all(",False," in line for line in lines[1:])


def test_tangent_ratios_usage_error(capsys):
    code, _ = run_cli(["tangent-ratios", "--degree", "2", "--max-denominator", "2"], capsys)
    assert code == EXIT_USAGE


def test_unknown_flag_exits_2(capsys):
    assert main(["tangent-ratios", "--bogus"]) == EXIT_USAGE


# --------------------------------------------------------------------------
# lshape


def test_lshape_enumerate_small(capsys):
    code, out = run_cli(["lshape", "enumerate", "--b-max", "3", "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    got = [(r["b"], r["e"]) for r in payload["records"]]
    assert got == [(1, -1), (2, -1), (2, 0), (3, -1), (3, 0)]
    # The renderer builds the C encoder once, and on every supported Python
    # it writes the 24,998 records at b <= 10,000 one per line: 25,007 lines.
    code, out = run_cli(["lshape", "enumerate", "--b-max", "10000", "--format", "json"], capsys)
    assert code == EXIT_OK
    assert len(json.loads(out)["records"]) == 24_998
    assert len(out.splitlines()) == 25_007


def test_lshape_unit_case(capsys):
    code, out = run_cli(["lshape", "unit-case", "--b-max", "10000", "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "verified"
    assert [(r["b"], r["e"]) for r in payload["records"]] == [(1, -1), (2, 0)]


def test_lshape_exclude_all_rows(capsys):
    code, out = run_cli(["lshape", "exclude", "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "verified"
    assert payload["parameters"]["scope"].startswith("every admissible (b, e)")
    assert len(payload["records"]) == 9
    assert all(r["excluded"] for r in payload["records"])


def test_lshape_bad_bound(capsys):
    code, _ = run_cli(["lshape", "enumerate", "--b-max", "2"], capsys)
    assert code == EXIT_USAGE


def test_lshape_bound_is_read_only_by_enumerate(capsys):
    # unit-case is a closed form and exclude covers every admissible (b, e),
    # so neither reads --b-max, validates it or reports it.
    for mode, bound in (("unit-case", "2"), ("exclude", "0")):
        code, out = run_cli(["lshape", mode, "--b-max", bound, "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        _, default = run_cli(["lshape", mode, "--format", "json"], capsys)
        assert payload["records"] == json.loads(default)["records"]
        assert "b_max" not in payload["parameters"]


# --------------------------------------------------------------------------
# stratum2


def test_stratum2_default(capsys):
    report = cmd_stratum2(5)
    assert report.verdict == "verified"
    stages = {r["stage"] for r in report.records}
    assert {"differential_space", "residue_constraints", "height_ratio", "torsion_solutions", "handoff"} <= stages
    handoff = [r for r in report.records if r["stage"] == "handoff"]
    assert len(handoff) == 1 and handoff[0]["status"].startswith("unit")


def test_stratum2_degenerate_order_two(capsys):
    # The one solution, x = 0, leaves nothing to hand off: inconclusive,
    # which exits 0.
    report = cmd_stratum2(2)
    assert report.verdict == "inconclusive"
    torsion = next(r for r in report.records if r["stage"] == "torsion_solutions")
    assert torsion["zero_solution_degenerate"] is True
    assert torsion["nonzero_count"] == 0
    assert run_cli(["stratum2", "--torsion-order", "2"], capsys)[0] == EXIT_OK


def test_stratum2_order_ten_reaches_exclusion():
    report = cmd_stratum2(10)
    handoff = [r for r in report.records if r["stage"] == "handoff"]
    statuses = {(r["A"], r["B"]): r["status"] for r in handoff}
    assert statuses[(1, 2)] == "excluded by trace/norm matching"
    assert statuses[(1, 3)].startswith("unit")
    assert report.verdict == "verified"


# --------------------------------------------------------------------------
# forged checks: each reported check, forged once, turns its verdict


def _false(_):
    return False


def _matching_the_octagon(result):
    """The exclusion's candidates, with the (b=2, e=0) triple as their match."""
    return result[0], (lshape.make_triple(2, 0),)


def _dropping_a_solution(indices):
    return indices[:-1]


def _with_forged_lambda(rows):
    """The (b=3, e=0) row with lambda swapped to sqrt(2), as (an, bn, den, d)."""
    for row in rows:
        yield (3, 0, 0, 1, 1, 2) if row[:2] == (3, 0) else row


def _every_triple_to_three(report):
    records = report["records"]
    pairs = [(rec["b"], rec["e"]) for rec in records]
    return pairs == [(1, -1), (2, -1), (2, 0), (3, -1), (3, 0)] and records[-1]["lambda"] == "sqrt(2)"


def _failing_stage(stage):
    """certify_stratum2's records with the ``stage`` record's ok false."""
    return lambda records: [dict(rec, ok=False) if rec["stage"] == stage else rec for rec in records]


def _with_value(position, value):
    """Adds a rational of Q(zeta_10) to one of the decagon's R sets."""
    return lambda sets: tuple(
        s + [CyclotomicElem.from_rational(10, value)] if i == position else s
        for i, s in enumerate(sets)
    )


def _failed(name, key="ok"):
    """The report's record for the stage or check ``name`` has ``key`` false."""
    return lambda report: any(
        rec.get(key) is False for rec in report["records"] if name in (rec.get("stage"), rec.get("check"))
    )


def _has_status(status):
    return lambda report: any(rec["status"] == status for rec in report["records"])


(_EXTRA_RATIO,) = tanratio.orbit_rows(stabilizer((1, 7), (2, 7))[0], [((1, 7), (2, 7), False, False)])
_STRATUM2 = ["stratum2", "--torsion-order", "10"]

# (id, argv, module, function, change of its result, what the report shows)
_FORGED_CHECKS = [
    ("verify-table1-missing-row", ["verify-table1"], tanratio, "normalized_nonunit_rows",
     lambda rows: rows[:-1], _has_status("missing")),
    ("verify-table1-unexpected-row", ["verify-table1"], tanratio, "normalized_nonunit_rows",
     lambda rows: rows + [_EXTRA_RATIO], _has_status("unexpected")),
    ("verify-table1-row-count", ["verify-table1"], tanratio, "normalized_nonunit_rows",
     lambda rows: rows + rows[:1], lambda report: report["parameters"]["rows_computed"] == 10),
    ("lshape-enumerate-forged-lambda", ["lshape", "enumerate", "--b-max", "3"], lshape,
     "enumerate_triples", _with_forged_lambda, _every_triple_to_three),
    ("lshape-unit-case-extra-triple", ["lshape", "unit-case"], lshape, "unit_case_triples",
     lambda ts: ts + [lshape.make_triple(3, 0)], lambda report: len(report["records"]) == 3),
    ("lshape-exclude-matched-row", ["lshape", "exclude"], lshape, "exclude_against_table1",
     _matching_the_octagon, lambda report: report["records"][0]["excluded"] is False),
    ("lshape-exclude-row-count", ["lshape", "exclude"], tanratio, "normalized_nonunit_rows",
     lambda rows: rows[:-1], lambda report: len(report["records"]) == 8),
    ("stratum2-differential-space", _STRATUM2, stablefiber, "certify_stratum2",
     _failing_stage("differential_space"), _failed("differential_space")),
    ("stratum2-residue-constraints", _STRATUM2, stablefiber, "certify_stratum2",
     _failing_stage("residue_constraints"), _failed("residue_constraints")),
    ("stratum2-closed-form-generator", _STRATUM2, stablefiber, "certify_stratum2",
     _failing_stage("matches_closed_form_generator"), _failed("matches_closed_form_generator")),
    ("stratum2-height-ratio", _STRATUM2, stablefiber, "certify_stratum2",
     _failing_stage("height_ratio"), _failed("height_ratio")),
    ("stratum2_refutes_a_torsion_solver_that_drops_a_solution", _STRATUM2, stablefiber,
     "solve_torsion_pairs", _dropping_a_solution,
     lambda report: _failed("torsion_solutions")(report)
     and [rec["count"] for rec in report["records"] if rec["stage"] == "torsion_solutions"] == [8]),
    ("stratum2_refutes_a_handoff_that_matches_a_triple", _STRATUM2, lshape, "exclude_against_table1",
     _matching_the_octagon,
     lambda report: any(rec.get("status", "").startswith("matched") for rec in report["records"])),
    ("decagon-verify-solution-class", ["decagon", "verify"], stablefiber,
     "decagon_admissible_assignments", lambda found: (found[0] | {(0, 0)}, found[1]),
     _failed("solution_class")),
    ("decagon-R_x", ["decagon", "exclude-r"], stablefiber, "decagon_r_sets", _with_value(0, -2),
     _failed("R_x", "only_minus_one_or_nonnegative")),
    ("decagon-R_y", ["decagon", "exclude-r"], stablefiber, "decagon_r_sets", _with_value(1, 1),
     _failed("R_y", "all_nonpositive")),
    ("decagon-intersection", ["decagon", "exclude-r"], stablefiber, "decagon_r_sets",
     _with_value(2, 1), _failed("intersection", "contained_in_{-1,0}")),
    ("decagon-dimension", ["decagon", "differential"], stablefiber, "differential_space",
     lambda found: 2,
     lambda report: _failed("dimension")(report) and report["records"][0]["generator"] is None),
    ("decagon-matches_closed_form_generator", ["decagon", "differential"], stablefiber,
     "decagon_limit_differential", lambda form: (form[1], form[0], *form[2:]),
     _failed("matches_closed_form_generator")),
    ("decagon-residue_constraints", ["decagon", "differential"], stablefiber,
     "verify_residue_constraints", _false, _failed("residue_constraints")),
    ("decagon-simple_zeros_at_0_and_infinity", ["decagon", "differential"], stablefiber,
     "verify_zero_orders", _false, _failed("simple_zeros_at_0_and_infinity")),
]


@pytest.mark.parametrize(
    "argv, module, name, change, shows",
    [pytest.param(*case[1:], id=case[0]) for case in _FORGED_CHECKS],
)
def test_a_forged_check_refutes_the_verdict(argv, module, name, change, shows, monkeypatch, capsys):
    # Exit 1 means refuted: a verdict rests on every check its report
    # names, so forging any one of them gives "refuted", not "verified",
    # and the report shows the check that failed.
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: change(original(*args)))
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert report["verdict"] == "refuted" and code == EXIT_REFUTED and out.err == ""
    assert shows(report)


def test_twice_the_decagon_closed_form_is_not_its_generator(monkeypatch, capsys):
    # Twice the closed form satisfies every condition, but the generator's
    # last residue is 1, as for stratum2: proportionality is not enough.
    original = stablefiber.decagon_limit_differential
    monkeypatch.setattr(stablefiber, "decagon_limit_differential", lambda: tuple(2 * c for c in original()))
    code, out = run_cli(["decagon", "differential", "--format", "json"], capsys)
    report = json.loads(out)
    assert report["verdict"] == "refuted" and code == EXIT_REFUTED
    assert {rec["check"]: rec["ok"] for rec in report["records"]} == {
        "dimension": True,
        "matches_closed_form_generator": False,
        "residue_constraints": True,
        "simple_zeros_at_0_and_infinity": True,
    }


def test_caches_fill_the_same_under_concurrent_first_use():
    # Every lru_cache holds a pure function's value, so threads that fill
    # them at once get the serial results.
    import threading

    from torsion_packet import tanratio
    from torsion_packet.exactnum import cyclotomic, signs

    caches = (
        cyclotomic._conductor,
        cyclotomic._trace_row,
        signs._pi_ball,
        tanratio._tan_row,
        tanratio._lagrange_power,
    )

    def run():
        return (
            tanratio.classify(range(3, 25), 4),
            tanratio.enumerate_ratios(4, 24),
            render(cmd_stratum2(30), "json"),
            render(cmd_lshape("enumerate", 50), "json"),
        )

    serial = run()
    for cache in caches:
        cache.cache_clear()
    start = threading.Barrier(4)
    results = []

    def worker():
        start.wait()
        results.append(run())

    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4 and all(r == serial for r in results)


# Four threads in a fresh interpreter start at once, each in a command that
# imports tanratio inside the function that calls it, so all four race
# through its first import.
_CONCURRENT_FIRST_IMPORT = """
import sys, threading
import torsion_packet.cli as cli
assert "torsion_packet.tanratio" not in sys.modules
runs = [line.split() for line in sys.stdin.read().splitlines()]
start = threading.Barrier(len(runs))
codes = [None] * len(runs)
def worker(i):
    start.wait()
    codes[i] = cli.main(runs[i])
threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(runs))]
sys.setswitchinterval(1e-5)
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads) and codes == [0] * len(runs), codes
"""


def test_concurrent_first_import_of_tanratio_gives_the_serial_reports(tmp_path, capsys):
    # The CLI imports tanratio only in the commands that read a tangent
    # ratio; a first import from several threads at once must leave every
    # report as a serial run writes it.
    commands = [
        ["verify-table1"],
        ["stratum2", "--torsion-order", "30"],
        ["lshape", "exclude"],
        ["tangent-ratios", "--degree", "4", "--max-denominator", "12"],
    ]
    runs = [[*argv, "--format", "json", "--output", str(tmp_path / f"thread{i}.json")] for i, argv in enumerate(commands)]
    proc = subprocess.run(
        [sys.executable, "-c", _CONCURRENT_FIRST_IMPORT],
        input="\n".join(" ".join(argv) for argv in runs),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=_env_with_src(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for i, argv in enumerate(commands):
        serial = tmp_path / f"serial{i}.json"
        assert main([*argv, "--format", "json", "--output", str(serial)]) == 0
        threaded = (tmp_path / f"thread{i}.json").read_text()
        assert _mask_elapsed(threaded) == _mask_elapsed(serial.read_text()), argv
    capsys.readouterr()


def test_stratum2_builds_minimal_polynomials_only_for_quadratic_ratios(monkeypatch):
    import torsion_packet.tanratio as tanratio_mod

    # One build per orbit whose polynomial is read: the orbits of the
    # handoffs of degree at most 2.  The other members derive theirs.
    original = tanratio_mod.minimal_polynomial
    classify = tanratio_mod.classify
    built, walked = [], []

    def counted(e):
        p = original(e)
        built.append(p.degree)
        return p

    def recording(denominators, degree=None):
        found = classify(denominators, degree)
        walked.extend(found)
        return found

    monkeypatch.setattr(tanratio_mod, "minimal_polynomial", counted)
    monkeypatch.setattr(tanratio_mod, "classify", recording)
    for n, builds in ((13, 0), (10, 4)):
        built.clear()
        walked.clear()
        degrees = [r["degree"] for r in cmd_stratum2(n).records if r["stage"] == "handoff"]
        low = [degree for degree, _, _ in walked if degree <= 2]
        assert len(built) == len(low) == builds
        assert sorted(built) == sorted(low)
        assert set(built) == {d for d in degrees if d <= 2}
        if n == 13:
            assert min(degrees) > 2


def test_stratum2_derives_each_quadratic_value_once(monkeypatch):
    # The display and the exclusion engine read one value, so each handoff
    # of degree at most 2 derives its value once.
    import torsion_packet.cli as cli_mod

    original = cli_mod.real_value
    calls = []

    def counted(e, p):
        calls.append(p.degree)
        return original(e, p)

    monkeypatch.setattr(cli_mod, "real_value", counted)
    report = cmd_stratum2(12)
    handoffs = [r for r in report.records if r["stage"] == "handoff"]
    assert len(calls) == sum(1 for r in handoffs if r["degree"] <= 2) == 10
    # An angle is the integer pair (p, q) from the orbit walk to the report,
    # written as "p/q" (tanratio.angle_str) when its record is built.
    first = handoffs[0]
    assert (first["A"], first["B"], first["alpha"], first["beta"]) == (1, 2, "1/12", "1/6")


def test_stratum2_usage(capsys):
    code, _ = run_cli(["stratum2", "--torsion-order", "1"], capsys)
    assert code == EXIT_USAGE


# --------------------------------------------------------------------------
# decagon


def test_decagon_all_modes(capsys):
    for mode in ("verify", "exclude-r", "differential"):
        code, out = run_cli(["decagon", mode, "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "verified"
        assert payload["parameters"]["geometry_constants"]["crossing_parameter"] == "1/5*sqrt(5)"


def test_decagon_exclude_r_values():
    report = cmd_decagon("exclude-r")
    inter = next(r for r in report.records if r["check"] == "intersection")
    assert inter["values"] == ["-1", "0"]


_EVERY_MODE = [
    ["tangent-ratios", "--degree", "2", "--max-denominator", "12"],
    ["verify-table1", "--max-denominator", "12"],
    ["lshape", "enumerate", "--b-max", "20"],
    ["lshape", "unit-case"],
    ["lshape", "exclude"],
    ["stratum2", "--torsion-order", "12"],
    ["decagon", "verify"],
    ["decagon", "exclude-r"],
    ["decagon", "differential"],
]


@pytest.mark.parametrize(
    "argv", [pytest.param(argv, id="-".join(a for a in argv[:2] if a[0] != "-")) for argv in _EVERY_MODE]
)
def test_no_command_takes_a_general_inverse(argv, monkeypatch, capsys):
    # Every denominator a command meets is a rational, a binomial
    # 1 - zeta^c with a closed-form inverse (the decagon's R sets and its
    # closed form are sine ratios), or cleared: the decagon's finite-point
    # rows are scaled by a power of D, and the rank divides nothing.  So
    # with the Galois-norm inverse refused, each report is the usual one.
    def report(args):
        assert main(args + ["--format", "json"]) in (EXIT_OK, EXIT_REFUTED)
        return {**json.loads(capsys.readouterr().out), "elapsed_ms": 0}

    usual = report(argv)

    def refuse(self):
        raise AssertionError(f"general inverse of {self!r}")

    monkeypatch.setattr(CyclotomicElem, "inverse", refuse)
    for module in [m for name, m in sys.modules.items() if name.startswith("torsion_packet")]:
        for value in vars(module).values():
            if isinstance(value, functools._lru_cache_wrapper):
                value.cache_clear()
    assert report(argv) == usual


def test_decagon_values_are_ordered_by_exact_signs():
    # The package has no floating-point embedding of a cyclotomic element
    # (the tests' cross-check lives in tests/float_embedding.py), so exact
    # signs are all that can order these values.
    from torsion_packet.exactnum import CyclotomicElem

    assert not hasattr(CyclotomicElem, "complex_embedding")
    for path in (Path(__file__).resolve().parents[1] / "src").rglob("*.py"):
        source = path.read_text()
        for marker in ("complex_embedding", "complex(", "cmath", "math.cos", "math.sin"):
            assert marker not in source, (path.name, marker)
    values = {r["check"]: r["values"] for r in cmd_decagon("exclude-r").records}
    assert values["R_x"] == ["-1", "0", "-1/2 + 1/2*sqrt(5)", "1/2 + 1/2*sqrt(5)"]
    assert values["R_y"] == ["-1/2 - 1/2*sqrt(5)", "-1", "1/2 - 1/2*sqrt(5)", "0"]


# --------------------------------------------------------------------------
# report formats and determinism


def report_dict(report):
    """The report as JSON data: what parsing its JSON rendering gives."""
    return json.loads(render(report, "json"))


def plain_encoding(report):
    """The report's fields through one plain ``json.dumps`` with the report
    encoder's leaf hook: the layout-free reference for the JSON rendering."""
    return json.loads(json.dumps(report.fields(), default=_leaf))


# One small parameter set per subcommand.
_EVERY_SUBCOMMAND = (
    lambda: cmd_tangent_ratios(2, 6),
    lambda: cmd_tangent_ratios(1, 6),
    lambda: cmd_verify_table1(),
    lambda: cmd_lshape("enumerate", 5),
    lambda: cmd_lshape("unit-case", 100),
    lambda: cmd_lshape("exclude"),
    lambda: cmd_stratum2(2),
    lambda: cmd_stratum2(10),
    lambda: cmd_decagon("verify"),
    lambda: cmd_decagon("exclude-r"),
    lambda: cmd_decagon("differential"),
)


def test_reports_are_deterministic():
    # No command reads a clock: a direct call's report has elapsed_ms 0 and
    # is a function of the arguments alone.  lshape enumerate at 2,000 runs
    # for several ms, which a command's own clock would show.
    for make in (*_EVERY_SUBCOMMAND, lambda: cmd_stratum2(5), lambda: cmd_lshape("enumerate", 2000)):
        a, b = make(), make()
        assert a.elapsed_ms == 0, a.command
        assert a == b, a.command


def test_main_stamps_the_interval_around_the_command(monkeypatch, capsys):
    # _run reads the clock once before the command and once after it, and
    # the JSON report carries that interval in ms.
    import torsion_packet.cli as cli_mod

    readings = iter((100.0, 100.0421))
    calls = []

    def clock():
        calls.append("clock")
        return next(readings)

    def command(mode):
        calls.append("command")
        return cmd_decagon(mode)

    monkeypatch.setattr(cli_mod.time, "perf_counter", clock)
    monkeypatch.setattr(cli_mod, "cmd_decagon", command)
    assert main(["decagon", "verify", "--format", "json"]) == EXIT_OK
    assert calls == ["clock", "command", "clock"]
    report = json.loads(capsys.readouterr().out)
    assert report["elapsed_ms"] == 42
    assert {**report, "elapsed_ms": 0} == report_dict(cmd_decagon("verify"))


def test_json_roundtrip():
    for make in _EVERY_SUBCOMMAND:
        report = make()
        payload = json.loads(render(report, "json"))
        assert payload == plain_encoding(report), report.command
        assert list(payload) == [
            "schema_version",
            "command",
            "parameters",
            "verdict",
            "records",
            "elapsed_ms",
        ]
    # One record per line, each line the record's own JSON.
    report = cmd_lshape("enumerate", 5)
    lines = render(report, "json").splitlines()
    assert lines[0] == "{" and lines[-1] == "}"
    record_lines = [line for line in lines if line.startswith("    {")]
    assert len(record_lines) == len(report.records) == 10
    assert [json.loads(line.rstrip(",")) for line in record_lines] == plain_encoding(report)["records"]
    assert len(lines) == len(report.records) + 9


def _json_dumps_layout(report):
    """The JSON rendering built from plain ``json.dumps`` calls with the
    report encoder's leaf hook: one field per line, one record per line."""
    fields = []
    for key, value in report.fields().items():
        if key == "records" and value:
            body = ",\n".join("    " + json.dumps(rec, default=_leaf) for rec in value)
            fields.append(f'  "records": [\n{body}\n  ]')
        else:
            fields.append(f"  {json.dumps(key)}: {json.dumps(value, default=_leaf)}")
    return "{\n" + ",\n".join(fields) + "\n}"


@pytest.mark.parametrize(
    "name, args, argv",
    [
        # tangent-ratios records hold a CyclotomicElem, mu_cyclotomic.
        pytest.param("cmd_tangent_ratios", (2, 12), ["tangent-ratios"], id="tangent-ratios"),
        pytest.param("cmd_stratum2", (12,), ["stratum2", "--torsion-order", "12"], id="stratum2-12"),
        pytest.param("cmd_decagon", ("differential",), ["decagon", "differential"], id="decagon-differential"),
        pytest.param("cmd_lshape", ("exclude",), ["lshape", "exclude"], id="lshape-exclude"),
        pytest.param("cmd_lshape", ("enumerate", 50), ["lshape", "enumerate", "--b-max", "50"],
                     id="lshape-enumerate-50"),
    ],
)
def test_the_shared_encoder_renders_as_json_dumps(name, args, argv, monkeypatch, capsys):
    # The C encoder shared by every render writes each line as json.dumps
    # does; a record it cannot encode is a bug (exit 3, one stderr line),
    # and leaves nothing behind that changes the next render.
    import torsion_packet.cli as cli_mod

    report = getattr(cli_mod, name)(*args)
    assert report.records
    rendered = render(report, "json")
    assert rendered == _json_dumps_layout(report)

    # The value _leaf rejects sits inside the last record, after others.
    broken = report._replace(records=[*report.records, {"ok": True, "v": [1, {"w": object()}]}])
    monkeypatch.setattr(cli_mod, name, lambda *a: broken)
    assert main(argv + ["--format", "json"]) == EXIT_INTERNAL
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("internal error: TypeError: cannot encode <object") and out.err.count("\n") == 1
    assert render(report, "json") == rendered


def _mask_elapsed(text):
    """A text or JSON report written by ``main``, the digits of its
    elapsed_ms masked: only ``_run`` reads the clock."""
    return re.sub(r'^(elapsed_ms: |  "elapsed_ms": )\d+$', r"\1*", text, flags=re.M)


# Text and CSV renderings of the previous, recursive encoder, pinned.
_PINNED = {
    ("lshape enumerate", "text"): (
        "command: lshape enumerate\n  b_max: 5\nverdict: verified\nelapsed_ms: 0\n"
        "  b=1  e=-1  lambda=-1/2 + 1/2*sqrt(5)  trace_lambda_plus_one=1  norm_lambda_plus_one=-1\n"
        "  b=2  e=-1  lambda=1  trace_lambda_plus_one=1  norm_lambda_plus_one=-2\n"
        "  b=2  e=0  lambda=sqrt(2)  trace_lambda_plus_one=2  norm_lambda_plus_one=-1\n"
        "  b=3  e=-1  lambda=-1/2 + 1/2*sqrt(13)  trace_lambda_plus_one=1  norm_lambda_plus_one=-3\n"
        "  b=3  e=0  lambda=sqrt(3)  trace_lambda_plus_one=2  norm_lambda_plus_one=-2\n"
        "  b=4  e=-1  lambda=-1/2 + 1/2*sqrt(17)  trace_lambda_plus_one=1  norm_lambda_plus_one=-4\n"
        "  b=4  e=0  lambda=2  trace_lambda_plus_one=2  norm_lambda_plus_one=-3\n"
        "  b=4  e=1  lambda=1/2 + 1/2*sqrt(17)  trace_lambda_plus_one=3  norm_lambda_plus_one=-2\n"
        "  b=5  e=-1  lambda=-1/2 + 1/2*sqrt(21)  trace_lambda_plus_one=1  norm_lambda_plus_one=-5\n"
        "  b=5  e=0  lambda=sqrt(5)  trace_lambda_plus_one=2  norm_lambda_plus_one=-4"
    ),
    ("lshape enumerate", "csv"): (
        "b,e,lambda,trace_lambda_plus_one,norm_lambda_plus_one\n"
        "1,-1,-1/2 + 1/2*sqrt(5),1,-1\n2,-1,1,1,-2\n2,0,sqrt(2),2,-1\n"
        "3,-1,-1/2 + 1/2*sqrt(13),1,-3\n3,0,sqrt(3),2,-2\n4,-1,-1/2 + 1/2*sqrt(17),1,-4\n"
        "4,0,2,2,-3\n4,1,1/2 + 1/2*sqrt(17),3,-2\n5,-1,-1/2 + 1/2*sqrt(21),1,-5\n5,0,sqrt(5),2,-4"
    ),
    ("decagon exclude-r", "text"): (
        "command: decagon exclude-r\n"
        '  geometry_constants: {"square_side_lengths": ["1", "-1/2 + 1/2*sqrt(5)"], '
        '"crossing_parameter": "1/5*sqrt(5)"}\n'
        "verdict: verified\nelapsed_ms: 0\n"
        '  check=R_x  values=["-1", "0", "-1/2 + 1/2*sqrt(5)", "1/2 + 1/2*sqrt(5)"]'
        "  only_minus_one_or_nonnegative=True\n"
        '  check=R_y  values=["-1/2 - 1/2*sqrt(5)", "-1", "1/2 - 1/2*sqrt(5)", "0"]  all_nonpositive=True\n'
        '  check=intersection  values=["-1", "0"]  contained_in_{-1,0}=True'
        "  interpretation=0 is a zero of the limit form, -1 a Weierstrass limit; no new periodic point"
    ),
    ("decagon exclude-r", "csv"): (
        'check,values,only_minus_one_or_nonnegative,all_nonpositive,"contained_in_{-1,0}",interpretation\n'
        'R_x,"[""-1"", ""0"", ""-1/2 + 1/2*sqrt(5)"", ""1/2 + 1/2*sqrt(5)""]",True,,,\n'
        'R_y,"[""-1/2 - 1/2*sqrt(5)"", ""-1"", ""1/2 - 1/2*sqrt(5)"", ""0""]",,True,,\n'
        'intersection,"[""-1"", ""0""]",,,True,'
        '"0 is a zero of the limit form, -1 a Weierstrass limit; no new periodic point"'
    ),
    ("verify-table1", "text"): (
        "command: verify-table1\n  max_denominator: 12\n  ground_truth: builtin\n"
        "  rows_expected: 9\n  rows_computed: 9\nverdict: verified\nelapsed_ms: 0\n"
        "  alpha=1/12  beta=1/6  trace=2  norm=-1/3  status=match\n"
        "  alpha=1/12  beta=1/3  trace=6  norm=-3  status=match\n"
        "  alpha=1/10  beta=1/5  trace=0  norm=-5  status=match\n"
        "  alpha=1/10  beta=2/5  trace=10  norm=5  status=match\n"
        "  alpha=1/6  beta=1/4  trace=0  norm=-3  status=match\n"
        "  alpha=1/6  beta=5/12  trace=6  norm=-3  status=match\n"
        "  alpha=1/5  beta=3/10  trace=2  norm=1/5  status=match\n"
        "  alpha=1/4  beta=1/3  trace=0  norm=-3  status=match\n"
        "  alpha=1/3  beta=5/12  trace=2  norm=-1/3  status=match"
    ),
}

# The run behind each pinned command.
_PINNED_RUNS = {
    "lshape enumerate": lambda: cmd_lshape("enumerate", 5),
    "lshape unit-case": lambda: cmd_lshape("unit-case"),
    "decagon exclude-r": lambda: cmd_decagon("exclude-r"),
    "verify-table1": cmd_verify_table1,
    "decagon differential": lambda: cmd_decagon("differential"),
    "stratum2 --torsion-order 5": lambda: cmd_stratum2(5),
    "tangent-ratios --degree 2 --max-denominator 12": lambda: cmd_tangent_ratios(2, 12),
}


@pytest.mark.parametrize("command, fmt", sorted(_PINNED))
def test_text_and_csv_renderings_are_pinned(command, fmt):
    report = _PINNED_RUNS[command]()
    assert render(report, fmt) == _PINNED[command, fmt]


# The sha256 of the JSON rendering, whose elapsed_ms is 0, of larger
# reports: stratum2 at N = 60 lists 406 handoffs of degree 1, 2, 4 and 8
# in (A, B) order, and tangent-ratios shows degree-6 ratios by their field.
# A key that ends in "--format text" or "--format csv" pins that rendering.
_PINNED_DIGESTS = {
    "stratum2 --torsion-order 60": (
        lambda: cmd_stratum2(60),
        "664e01a912900ec080bfd387f296153b7f08fc0c60871ce715a2bef2874f2bb7",
    ),
    # The four stage records lead, with the configuration and generator
    # as compact JSON cells.
    "stratum2 --torsion-order 60 --format text": (
        lambda: cmd_stratum2(60),
        "3de9e4d6389006be266ac928d9b9aa055578aa76e318730eb3e77cb25db60daf",
    ),
    "stratum2 --torsion-order 60 --format csv": (
        lambda: cmd_stratum2(60),
        "d4172fcbd56b031f8382aa5e067c03f4f58fd7327f62baad0c86195f1db5a75b",
    ),
    "tangent-ratios --degree 6 --max-denominator 30": (
        lambda: cmd_tangent_ratios(6, 30),
        "c016c3752fd1b7d4fd7360d383c6e26cc53e5f5b1da4bd8b0873a58280b77d12",
    ),
    "lshape exclude": (
        lambda: cmd_lshape("exclude"),
        "08825b259f6e046506aaea85d3ac14e00de76ef11e081bbc4a37b30d0fc6d0c4",
    ),
    # Each of the 9 rows writes its four candidates as one JSON list.
    "lshape exclude --format text": (
        lambda: cmd_lshape("exclude"),
        "d4130c1e7d1a2467e42f282925532f1006cb254b48192c796d4b349115cadb68",
    ),
    "lshape exclude --format csv": (
        lambda: cmd_lshape("exclude"),
        "1c2f71835c33a0f6034da59877b33ccb1c5e8857fe0230100be3409004d01eca",
    ),
    # 21,741 records, with handoffs of many degrees.
    "stratum2 --torsion-order 420": (
        lambda: cmd_stratum2(420),
        "9a0f0384cbc1638d669aa9de2b5a2d717bb9052cb57077580b0cdee34d69f72d",
    ),
    # 440 members in 62 orbits, every (negated, inverted) case among them.
    "tangent-ratios --degree 8 --max-denominator 40": (
        lambda: cmd_tangent_ratios(8, 40),
        "47e595f30fad094de6208e075ad4bfc3cb909a19b01d4b5550c882ac930b4c0e",
    ),
    # 26 rows, each quadratic value real_value of the row's own mu.
    "tangent-ratios --degree 2 --max-denominator 60": (
        lambda: cmd_tangent_ratios(2, 60),
        "eb5c7f9ff0751a715c4cdec1f238a5e7c5bc1e6e50ae681dbf72d6372633650e",
    ),
    # 190 rows, each mu_cyclotomic and field display from its own angles;
    # the Lagrange comparison with s = k^4 drops 522 of the 709 orbits walked.
    "tangent-ratios --degree 4 --max-denominator 60": (
        lambda: cmd_tangent_ratios(4, 60),
        "b082c5dfb424daeb1ccf0160b84d7fc9191eab47cc014afab4974ebedffdf18b",
    ),
}


@pytest.mark.parametrize("command", sorted(_PINNED_DIGESTS))
def test_larger_json_reports_are_pinned_by_digest(command):
    run, digest = _PINNED_DIGESTS[command]
    text = render(run(), command.partition(" --format ")[2] or "json")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _z10(*coeffs):
    return {"m": 10, "coeffs": list(coeffs)}


def _quadratic_ratio(alpha, beta, trace, norm, is_unit, mu, m, coeffs):
    """A tangent-ratios record of degree 2; ``coeffs`` space-separated."""
    return {
        "alpha": alpha,
        "beta": beta,
        "degree": 2,
        "trace": trace,
        "norm": norm,
        "is_unit": is_unit,
        "mu": mu,
        "mu_cyclotomic": {"m": m, "coeffs": coeffs.split()},
    }


_UNIT_CASE_SOURCE = "known torsion on y^2 = x^5 - 1 resp. y^2 = x(x^4 - 1)"

# The JSON records that carry configurations, generators, the grid, the
# point at infinity, angles and admissible triples, pinned.
_PINNED_RECORDS = {
    "lshape unit-case": [
        {"b": 1, "e": -1, "lambda": "-1/2 + 1/2*sqrt(5)", "surface": "pentagon", "handled_by": _UNIT_CASE_SOURCE},
        {"b": 2, "e": 0, "lambda": "sqrt(2)", "surface": "octagon", "handled_by": _UNIT_CASE_SOURCE},
    ],
    "decagon differential": [
        {
            "check": "dimension",
            "value": 1,
            "ok": True,
            "configuration": {
                "nodes": [
                    [_z10("0", "0", "1", "0"), _z10("0", "0", "0", "-1")],
                    [_z10("-1", "1", "-1", "1"), _z10("0", "-1", "0", "0")],
                ],
                "marked": [
                    {"label": "omega_zero_0", "point": _z10("0", "0", "0", "0")},
                    {"label": "omega_zero_inf", "point": "infinity"},
                    {"label": "weierstrass_-1", "point": _z10("-1", "0", "0", "0")},
                    {"label": "weierstrass_+1", "point": _z10("1", "0", "0", "0")},
                ],
                "zero_orders": {"omega_zero_0": 1, "omega_zero_inf": 1},
                "involution": "inversion",
            },
            "generator": {
                "terms": [
                    {"residue": _z10("0", "0", "1", "-1"), "pole": _z10("0", "0", "1", "0")},
                    {"residue": _z10("0", "0", "-1", "1"), "pole": _z10("0", "0", "0", "-1")},
                    {"residue": _z10("-1", "0", "0", "0"), "pole": _z10("-1", "1", "-1", "1")},
                    {"residue": _z10("1", "0", "0", "0"), "pole": _z10("0", "-1", "0", "0")},
                ]
            },
        },
        {"check": "matches_closed_form_generator", "ok": True},
        {"check": "residue_constraints", "ok": True},
        {"check": "simple_zeros_at_0_and_infinity", "ok": True},
    ],
    "stratum2 --torsion-order 5": [
        {
            "stage": "differential_space",
            "configuration": {
                "nodes": [["x", "-x"], ["y", "-y"]],
                "marked": [{"label": "omega_zero", "point": "infinity"}],
                "zero_orders": {"omega_zero": 2},
                "involution": "negation",
            },
            "dimension": 1,
            "ok": True,
            "generator": {
                "terms": [
                    {"residue": "y/x", "pole": "x"},
                    {"residue": "-y/x", "pole": "-x"},
                    {"residue": "-1", "pole": "y"},
                    {"residue": "1", "pole": "-y"},
                ]
            },
            "certified_on_grid": {"x": ["1", "2", "3", "4", "5"], "y": ["6", "7", "8", "9", "10"]},
        },
        {"stage": "residue_constraints", "ok": True},
        {"stage": "matches_closed_form_generator", "ok": True},
        {"stage": "height_ratio", "value": "y/x", "ok": True},
        {
            "stage": "torsion_solutions",
            "count": 5,
            "tangent_indices": [-2, -1, 0, 1, 2],
            "nonzero_count": 4,
            "zero_solution_degenerate": True,
            "ok": True,
        },
        {
            "stage": "handoff",
            "A": 1,
            "B": 2,
            "alpha": "1/5",
            "beta": "2/5",
            "mu": "2 + sqrt(5)",
            "degree": 2,
            "status": "unit: pentagon/octagon regime, handled by known torsion",
        },
    ],
    "tangent-ratios --degree 2 --max-denominator 12": [
        _quadratic_ratio(*row)
        for row in (
            ("1/12", "1/6", "2", "-1/3", False, "1 + 2/3*sqrt(3)", 12, "1 4/3 0 -2/3"),
            ("1/12", "1/4", "4", "1", True, "2 + sqrt(3)", 12, "2 2 0 -1"),
            ("1/12", "1/3", "6", "-3", False, "3 + 2*sqrt(3)", 12, "3 4 0 -2"),
            ("1/12", "5/12", "14", "1", True, "7 + 4*sqrt(3)", 12, "7 8 0 -4"),
            ("1/10", "1/5", "0", "-5", False, "sqrt(5)", 10, "1 0 2 -2"),
            ("1/10", "3/10", "4", "-1", True, "2 + sqrt(5)", 10, "3 0 2 -2"),
            ("1/10", "2/5", "10", "5", False, "5 + 2*sqrt(5)", 10, "7 0 4 -4"),
            ("1/8", "1/4", "2", "-1", True, "1 + sqrt(2)", 8, "1 1 0 -1"),
            ("1/8", "3/8", "6", "1", True, "3 + 2*sqrt(2)", 8, "3 2 0 -2"),
            ("1/6", "1/4", "0", "-3", False, "sqrt(3)", 12, "0 2 0 -1"),
            ("1/6", "5/12", "6", "-3", False, "3 + 2*sqrt(3)", 12, "3 4 0 -2"),
            ("1/5", "3/10", "2", "1/5", False, "1 + 2/5*sqrt(5)", 10, "7/5 0 4/5 -4/5"),
            ("1/5", "2/5", "4", "-1", True, "2 + sqrt(5)", 10, "3 0 2 -2"),
            ("1/4", "1/3", "0", "-3", False, "sqrt(3)", 12, "0 2 0 -1"),
            ("1/4", "3/8", "2", "-1", True, "1 + sqrt(2)", 8, "1 1 0 -1"),
            ("1/4", "5/12", "4", "1", True, "2 + sqrt(3)", 12, "2 2 0 -1"),
            ("3/10", "2/5", "0", "-5", False, "sqrt(5)", 10, "1 0 2 -2"),
            ("1/3", "5/12", "2", "-1/3", False, "1 + 2/3*sqrt(3)", 12, "1 4/3 0 -2/3"),
        )
    ],
}


# The same mu_cyclotomic pinned at the conductor lcm(4, 2q_alpha, 2q_beta),
# twice the one each tangent ratio now lives at.
_PINNED_MU_IN_THE_WIDER_FIELD = {
    ("1/12", "1/6"): (24, "1 0 4/3 0 0 0 -2/3 0"),
    ("1/12", "1/4"): (24, "2 0 2 0 0 0 -1 0"),
    ("1/12", "1/3"): (24, "3 0 4 0 0 0 -2 0"),
    ("1/12", "5/12"): (24, "7 0 8 0 0 0 -4 0"),
    ("1/10", "1/5"): (20, "1 0 0 0 2 0 -2 0"),
    ("1/10", "3/10"): (20, "3 0 0 0 2 0 -2 0"),
    ("1/10", "2/5"): (20, "7 0 0 0 4 0 -4 0"),
    ("1/8", "1/4"): (16, "1 0 1 0 0 0 -1 0"),
    ("1/8", "3/8"): (16, "3 0 2 0 0 0 -2 0"),
    ("1/6", "1/4"): (24, "0 0 2 0 0 0 -1 0"),
    ("1/6", "5/12"): (24, "3 0 4 0 0 0 -2 0"),
    ("1/5", "3/10"): (20, "7/5 0 0 0 4/5 0 -4/5 0"),
    ("1/5", "2/5"): (20, "3 0 0 0 2 0 -2 0"),
    ("1/4", "1/3"): (24, "0 0 2 0 0 0 -1 0"),
    ("1/4", "3/8"): (16, "1 0 1 0 0 0 -1 0"),
    ("1/4", "5/12"): (24, "2 0 2 0 0 0 -1 0"),
    ("3/10", "2/5"): (20, "1 0 0 0 2 0 -2 0"),
    ("1/3", "5/12"): (24, "1 0 4/3 0 0 0 -2/3 0"),
}


def test_pinned_mu_embeds_into_the_wider_field():
    # Each re-pinned mu_cyclotomic is the same number as before: embedded
    # into the conductor of the earlier pin, it is that element.
    records = _PINNED_RECORDS["tangent-ratios --degree 2 --max-denominator 12"]
    assert len(records) == len(_PINNED_MU_IN_THE_WIDER_FIELD)
    for r in records:
        m, coeffs = _PINNED_MU_IN_THE_WIDER_FIELD[r["alpha"], r["beta"]]
        mu = r["mu_cyclotomic"]
        assert 2 * mu["m"] == m
        here = CyclotomicElem(mu["m"], [Fraction(c) for c in mu["coeffs"]])
        assert embed(here, m) == CyclotomicElem(m, [Fraction(c) for c in coeffs.split()])


@pytest.mark.parametrize("command", sorted(_PINNED_RECORDS))
def test_json_records_are_pinned(command):
    records = json.loads(render(_PINNED_RUNS[command](), "json"))["records"]
    assert records == _PINNED_RECORDS[command]
    # Key order is part of the rendering too.
    assert [list(r) for r in records] == [list(r) for r in _PINNED_RECORDS[command]]


def test_a_matched_triple_is_pinned_in_both_reports(monkeypatch):
    # mu = 1 + sqrt(2) and -1/mu = 1 - sqrt(2) both have trace 2 and norm
    # -1, so both match (b=2, e=0), which the matches list once.
    matched = lshape.exclude_against_table1(QuadraticElem(1, 1, 2))
    monkeypatch.setattr(lshape, "exclude_against_table1", lambda mu: matched)
    triple = {"b": 2, "e": 0, "lambda": "sqrt(2)"}
    report = cmd_lshape("exclude")
    records = json.loads(render(report, "json"))["records"]
    assert [r["matching_triples"] for r in records] == [[triple]] * 9
    assert list(records[0]["matching_triples"][0]) == ["b", "e", "lambda"]
    assert render(report, "text").count('  matching_triples=[{"b": 2, "e": 0, "lambda": "sqrt(2)"}]  ') == 9
    handoffs = {(r["A"], r["B"]): r["status"] for r in cmd_stratum2(10).records if r["stage"] == "handoff"}
    assert handoffs[1, 2] == "matched admissible triples ['(b=2, e=0, lambda=sqrt(2))']"


def test_every_exact_type_has_one_encoding():
    from torsion_packet.cli import Report
    from torsion_packet.exactnum import CyclotomicElem
    from torsion_packet.stablefiber import INFINITY

    report = Report(
        "synthetic",
        {"bound": Fraction(3, 4), "angles": (Fraction(1, 12),)},
        "verified",
        [
            {
                "q": Fraction(-2, 3),
                "mu": QuadraticElem(1, Fraction(1, 2), 3),
                "angle": Fraction(5, 12),
                "z": CyclotomicElem.zeta(5, 1),
                "none": None,
                "flag": False,
                "x": 0.5,
                "nested": {"pair": (Fraction(1, 2), QuadraticElem(0, 1, 2)), "k": [None, True]},
                "point": INFINITY,
            },
            {"q": 7, "extra": "a,b"},
        ],
    )
    z = '{"m": 5, "coeffs": ["0", "1", "0", "0"]}'
    nested = '{"pair": ["1/2", "sqrt(2)"], "k": [null, true]}'
    # The renderings of the previous, recursive encoder.
    assert render(report, "text") == (
        'command: synthetic\n  bound: 3/4\n  angles: ["1/12"]\nverdict: verified\nelapsed_ms: 0\n'
        f"  q=-2/3  mu=1 + 1/2*sqrt(3)  angle=5/12  z={z}"
        f"  none=None  flag=False  x=0.5  nested={nested}  point=infinity\n"
        "  q=7  extra=a,b"
    )
    quoted = {k: '"' + v.replace('"', '""') + '"' for k, v in (("z", z), ("n", nested))}
    assert render(report, "csv") == (
        "q,mu,angle,z,none,flag,x,nested,point,extra\n"
        f"-2/3,1 + 1/2*sqrt(3),5/12,{quoted['z']},,False,0.5,{quoted['n']},infinity,\n"
        '7,,,,,,,,,"a,b"'
    )
    payload = json.loads(render(report, "json"))
    assert payload == plain_encoding(report)
    assert payload["parameters"] == {"bound": "3/4", "angles": ["1/12"]}
    assert payload["records"][0] == {
        "q": "-2/3",
        "mu": "1 + 1/2*sqrt(3)",
        "angle": "5/12",
        "z": json.loads(z),
        "none": None,
        "flag": False,
        "x": 0.5,
        "nested": json.loads(nested),
        "point": "infinity",
    }
    with pytest.raises(TypeError, match="cannot encode"):
        render(Report("bad", {}, "verified", [{"v": object()}]), "json")


def test_csv_matches_a_dictwriter_reference():
    # stratum2's records have five different key sets; the header is every
    # key in order of first sight, and a missing key is an empty field, as
    # csv.DictWriter writes them.
    report = cmd_stratum2(12)
    assert len({tuple(rec) for rec in report.records}) == 5
    keys: list[str] = []
    for rec in report.records:
        keys += [k for k in rec if k not in keys]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
    writer.writeheader()
    for rec in report.records:
        writer.writerow({k: _cell(v) for k, v in rec.items()})
    assert render(report, "csv") == buf.getvalue().rstrip("\n")


def test_csv_renders_records_only():
    report = cmd_lshape("enumerate", 5)
    lines = render(report, "csv").splitlines()
    assert lines[0].startswith("b,e,lambda")
    assert len(lines) == 1 + len(report.records)


def test_text_contains_verdict():
    report = cmd_decagon("verify")
    text = render(report, "text")
    assert "verdict: verified" in text


def test_output_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(
        ["lshape", "unit-case", "--b-max", "50", "--format", "json", "--output", str(out_path)],
        capsys,
    )
    assert code == EXIT_OK
    copy = json.loads(out_path.read_text())
    assert copy["verdict"] == "verified"
    # Only cli._run, which entry reaches through main, stamps elapsed_ms,
    # and the copy carries it as its last key.
    key = list(copy)[-1]
    assert key == "elapsed_ms" and type(copy[key]) is int and copy[key] >= 0


def _under_a_file(tmp):
    (tmp / "file").write_text("")
    return tmp / "file" / "report.txt"


@pytest.mark.parametrize(
    "target",
    [
        pytest.param(lambda tmp: tmp / "missing" / "report.txt", id="missing-directory"),
        pytest.param(lambda tmp: tmp, id="is-a-directory"),
        pytest.param(_under_a_file, id="parent-is-a-file"),
        pytest.param(lambda tmp: "", id="empty"),
    ],
)
def test_output_path_checked_before_computing(target, tmp_path, capsys, monkeypatch):
    import torsion_packet.lshape as lshape_mod

    def never_called():
        raise AssertionError("computed before the --output check")

    monkeypatch.setattr(lshape_mod, "unit_case_triples", never_called)
    code = main(["lshape", "unit-case", "--output", str(target(tmp_path))])
    out = capsys.readouterr()
    assert code == EXIT_USAGE
    assert out.out == ""
    assert out.err.startswith("error: --output ") and out.err.count("\n") == 1


def test_output_write_error_exits_2(tmp_path, capsys, monkeypatch):
    import torsion_packet.cli as cli_mod

    def refuse(file, *args, **kwargs):
        raise PermissionError(13, "Permission denied", file)

    monkeypatch.setattr(cli_mod, "open", refuse, raising=False)
    code = main(["lshape", "unit-case", "--b-max", "50", "--output", str(tmp_path / "report.txt")])
    out = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "verdict: verified" in out.out
    assert out.err == f"error: cannot write --output {tmp_path / 'report.txt'}: Permission denied\n"


def test_version_flag(capsys):
    code = main(["--version"])
    assert code == 0


def test_main_from_eight_threads_prints_every_report(capsys):
    # main keeps the help and version text in its own buffer and leaves
    # sys.stdout alone, so concurrent calls print every report to the one
    # stdout and no call swaps it from under another.
    import threading

    stdout = sys.stdout
    start = threading.Barrier(8)
    codes = []

    def worker():
        start.wait()
        codes.append(main(["decagon", "verify", "--format", "json"]))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sys.stdout is stdout
    assert codes == [0] * 8
    assert capsys.readouterr().out.count('"command": "decagon verify"') == 8


def test_internal_inconsistency_maps_to_exit_3(monkeypatch, capsys):
    import torsion_packet.cli as cli_mod
    from torsion_packet.errors import ArithmeticInconsistencyError

    def broken(mode):
        raise ArithmeticInconsistencyError("synthetic failure")

    monkeypatch.setattr(cli_mod, "cmd_decagon", broken)
    assert main(["decagon", "verify"]) == 3


@pytest.mark.parametrize(
    "exc",
    [
        pytest.param(TypeError("synthetic"), id="TypeError"),
        pytest.param(KeyError("k"), id="KeyError"),
        pytest.param(RuntimeError("two\nlines"), id="multi-line-message"),
    ],
)
def test_any_other_exception_exits_3_with_one_line(exc, monkeypatch, capsys):
    import torsion_packet.cli as cli_mod

    def broken(torsion_order):
        raise exc

    monkeypatch.setattr(cli_mod, "cmd_stratum2", broken)
    assert main(["stratum2"]) == EXIT_INTERNAL
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"internal error: {type(exc).__name__}: ") and out.err.count("\n") == 1


def test_internal_value_error_exits_3_not_2(monkeypatch, capsys):
    # A library ValueError is a bug, not a usage error: a lambda that
    # make_triple derives with the wrong radicand fails its own check.
    import torsion_packet.lshape as lshape_mod

    lambda_parts = lshape_mod._lambda_parts
    monkeypatch.setattr(lshape_mod, "_lambda_parts", lambda b, e, d: (*lambda_parts(b, e, d)[:3], 2))
    assert main(["lshape", "unit-case"]) == EXIT_INTERNAL
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "internal error: ValueError: lambda = -1/2 + 1/2*sqrt(2) does not satisfy x^2 = -1x + 1\n"


# Odd spellings of a value: int() reads " 7" as 7 and "\u0663" as 3.
_ODD = st.sampled_from(["1e3", " 7", "\u0663", "", "7.0", "x", "--"])


def _mostly(values):
    """``values``, or one in eight times an odd spelling."""
    return st.integers(0, 7).flatmap(lambda k: values if k else _ODD)


_SMALL = _mostly(st.integers(-5, 40).map(str))
# tangent-ratios at degree 60 and bound 60 takes seconds, so degree stops at 8.
_DEGREE = _mostly(st.integers(-5, 8).map(str))
_FORMAT = _mostly(st.sampled_from(["text", "json", "csv"]))


def _argv(files):
    """Small argv over the CLI's grammar: each subcommand and mode, values
    that may be odd, missing or repeated.  --output and --ground-truth name
    only the fixed ``files``, so no other path is read or written."""
    common = [("--format", _FORMAT), ("--output", st.sampled_from(files["output"]))]
    grammar = {
        "tangent-ratios": ([], [("--degree", _DEGREE), ("--max-denominator", _SMALL), ("--non-units-only", None)]),
        "verify-table1": ([], [("--max-denominator", _SMALL), ("--ground-truth", st.sampled_from(files["truth"]))]),
        "lshape": (["enumerate", "unit-case", "exclude"], [("--b-max", _SMALL)]),
        "stratum2": ([], [("--torsion-order", _SMALL)]),
        "decagon": (["verify", "exclude-r", "differential"], []),
    }

    @st.composite
    def draw(draw_one):
        command = draw_one(st.sampled_from([*grammar] * 3 + ["--version", "--help", "no-such-command"]))
        modes, options = grammar.get(command, ([], []))
        argv = [command]
        if modes:
            count = draw_one(st.sampled_from([1] * 6 + [0, 2]))
            argv += [draw_one(_mostly(st.sampled_from(modes))) for _ in range(count)]
        for flag, value in draw_one(st.lists(st.sampled_from(options + common), max_size=4)):
            argv.append(flag)
            if value is not None and draw_one(st.integers(0, 9)):
                argv.append(draw_one(value))
        return argv

    return draw()


def test_any_small_argv_exits_0_1_or_2_without_a_traceback(tmp_path, capsys):
    truth = {name: tmp_path / f"{name}.json" for name in ("shipped", "forged", "exponent", "not-json", "nested")}
    _ground_truth_with()(truth["shipped"])
    _ground_truth_with(trace="7")(truth["forged"])
    _ground_truth_with(trace="1e999999999")(truth["exponent"])
    truth["not-json"].write_text("{not json")
    truth["nested"].write_text("[" * 200_000)
    files = {
        "truth": [*map(str, truth.values()), str(tmp_path / "absent.json"), str(tmp_path)],
        "output": [str(tmp_path / "report.out"), str(tmp_path / "missing" / "report.out"), str(tmp_path), ""],
    }

    @settings(max_examples=200, deadline=None, database=None)
    @given(argv=_argv(files))
    def check(argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_REFUTED, EXIT_USAGE), (argv, err)
        assert "Traceback" not in err, (argv, err)

    check()


def test_out_of_memory_while_computing_exits_2_with_one_line(monkeypatch, capsys):
    # Running out of memory is the environment, not a bug: exit 2, not 3.
    import torsion_packet.cli as cli_mod

    def exhausted(torsion_order):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "cmd_stratum2", exhausted)
    assert main(["stratum2"]) == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: stratum2 ran out of memory\n"


def test_out_of_memory_while_writing_stdout_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    # Exit 2, never 1 ("refuted"); stdout then points at devnull, so the
    # flush at shutdown cannot fail again.
    with open(tmp_path / "out", "w") as out:
        monkeypatch.setattr(sys, "stdout", _UnwritableStream(out.fileno(), MemoryError))
        assert main(["lshape", "unit-case"]) == EXIT_USAGE
        os.write(out.fileno(), b"to devnull")
    assert (tmp_path / "out").read_text() == ""
    assert capsys.readouterr().err == "error: lshape ran out of memory\n"


def test_out_of_memory_while_writing_output_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    import torsion_packet.cli as cli_mod

    def exhausted(file, *args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "open", exhausted, raising=False)
    assert main(["decagon", "verify", "--output", str(tmp_path / "report.txt")]) == EXIT_USAGE
    out = capsys.readouterr()
    assert "verdict: verified" in out.out
    assert out.err == "error: decagon ran out of memory\n"


def test_out_of_memory_while_parsing_exits_2_with_one_line(monkeypatch, capsys):
    import torsion_packet.cli as cli_mod

    def exhausted(shown):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "_build_parser", exhausted)
    assert main(["decagon", "verify"]) == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: torsion-packet ran out of memory\n"


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["stratum2", "--help"]], ids=["help", "version", "stratum2-help"])
def test_out_of_memory_while_writing_help_or_version_exits_2_with_one_line(argv, tmp_path, monkeypatch, capsys):
    # Not 1 ("refuted") with a traceback: main handles it as _run does.
    with open(tmp_path / "out", "w") as out:
        monkeypatch.setattr(sys, "stdout", _UnwritableStream(out.fileno(), MemoryError))
        assert main(argv) == EXIT_USAGE
        os.write(out.fileno(), b"to devnull")
    assert (tmp_path / "out").read_text() == ""
    assert capsys.readouterr().err == "error: torsion-packet ran out of memory\n"


_SRC = Path(__file__).resolve().parents[1] / "src"


def _env_with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(lambda tmp: ["lshape", "unit-case", "--output", str(tmp / "missing" / "x.txt")], id="output-directory-missing"),
        pytest.param(lambda tmp: ["lshape", "enumerate", "--b-max", "0"], id="b-max-zero"),
        pytest.param(lambda tmp: ["verify-table1", "--ground-truth", str(tmp / "absent.json")], id="ground-truth-missing"),
        pytest.param(lambda tmp: ["stratum2", "--torsion-order", "1"], id="torsion-order-one"),
        pytest.param(lambda tmp: ["tangent-ratios", "--degree", "0"], id="degree-zero"),
        pytest.param(lambda tmp: ["tangent-ratios", "--max-denominator", "2"], id="max-denominator-two"),
    ],
)
def test_cli_process_error_contract(args, tmp_path):
    # The real process: exit code, stderr and the absence of a traceback as a
    # user sees them, which in-process main() calls cannot show.
    proc = subprocess.run(
        [sys.executable, "-m", "torsion_packet.cli", *args(tmp_path)],
        capture_output=True,
        text=True,
        env=_env_with_src(),
        timeout=120,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_closed_stdout_pipe_exits_2_without_traceback(tmp_path):
    # A reader that stops early (``| head -1``): the report is far larger
    # than a pipe buffer, so the process is still writing when it closes.
    copy = tmp_path / "report.json"
    args = ["lshape", "enumerate", "--b-max", "2000", "--format", "json", "--output", str(copy)]
    with subprocess.Popen(
        [sys.executable, "-m", "torsion_packet.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_env_with_src(),
    ) as proc:  # closes both pipes on the way out
        try:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.wait()
    assert code == EXIT_USAGE
    assert "Traceback" not in err
    assert json.loads(copy.read_text())["verdict"] == "verified"  # the --output copy is still written


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "args, redirect",
    [
        pytest.param("verify-table1", "> /dev/full", id="stdout-full"),
        pytest.param("stratum2 --torsion-order 1", "2>&-", id="stderr-closed"),
        pytest.param("stratum2 --torsion-order 1", "2> /dev/full", id="stderr-full"),
    ],
)
def test_unwritable_standard_stream_exits_2(args, redirect):
    # A report that cannot be written is an I/O error, told in one line; an
    # error line that cannot be written leaves the exit code as it is.
    command = f"{shlex.quote(sys.executable)} -m torsion_packet.cli {args} {redirect}"
    proc = subprocess.run(
        command, shell=True, capture_output=True, text=True, env=_env_with_src(), timeout=120
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    if redirect == "> /dev/full":
        assert proc.stderr.startswith("error: cannot write the report to stdout: ")
        assert proc.stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_to_full_stdout_exit_2(flag, unbuffered):
    # argparse drops the error of its own write, so the text is written by
    # the CLI, whether the write or the flush at exit is the one that fails.
    env = _env_with_src()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "torsion_packet.cli", flag],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error: cannot write ") and proc.stderr.count("\n") == 1


def _against_a_forged_trace(tmp):
    path = tmp / "forged.json"
    _ground_truth_with(trace="7")(path)
    return ["verify-table1", "--ground-truth", str(path)]


@pytest.mark.parametrize(
    "args, code",
    [
        pytest.param(lambda tmp: ["verify-table1"], EXIT_OK, id="verified"),
        pytest.param(_against_a_forged_trace, EXIT_REFUTED, id="refuted"),
        pytest.param(lambda tmp: ["verify-table1", "--no-such-flag"], EXIT_USAGE, id="usage"),
    ],
)
def test_module_run_exits_with_the_verdicts_code(args, code, tmp_path):
    # ``python -m`` runs cli.entry, which exits with main's code.
    proc = subprocess.run(
        [sys.executable, "-m", "torsion_packet.cli", *args(tmp_path)],
        capture_output=True,
        text=True,
        env=_env_with_src(),
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code != EXIT_USAGE:
        assert proc.stdout.startswith("command: verify-table1\n")


def _run_script(script):
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_env_with_src(), timeout=120
    )


def test_entry_maps_a_library_failure_to_exit_3():
    proc = _run_script(
        "from torsion_packet import cli, stablefiber\n"
        "def broken():\n"
        "    raise RuntimeError('synthetic')\n"
        "stablefiber.decagon_admissible_assignments = broken\n"
        "cli.entry(['decagon', 'verify'])\n"
    )
    assert proc.returncode == EXIT_INTERNAL
    assert proc.stdout == ""
    assert proc.stderr == "internal error: RuntimeError: synthetic\n"


def _run_under_an_address_space_limit(argv):
    """``cli.main(argv)`` in a child whose address space is limited to its
    size after importing the CLI plus 150 MB."""
    pytest.importorskip("resource")
    return _run_script(
        "import resource, sys\n"
        "from torsion_packet import cli\n"
        "with open('/proc/self/status') as status:\n"
        "    size_kb = next(int(line.split()[1]) for line in status if line.startswith('VmSize:'))\n"
        "limit = (size_kb + 150_000) * 1024\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_an_address_space_limit_exits_2_with_one_line():
    # stratum2 at N = 1680 peaks near 370 MB, so a child limited to its
    # own size plus 150 MB runs out of memory while it computes, renders
    # or writes its report, and each of these exits 2 with the same line.
    proc = _run_under_an_address_space_limit(["stratum2", "--torsion-order", "1680", "--format", "json"])
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stdout == "" and proc.stderr == "error: stratum2 ran out of memory\n"


@pytest.mark.skipif(
    not (os.path.exists("/proc/self/status") and os.path.exists("/dev/zero")),
    reason="no /proc/self/status or /dev/zero",
)
def test_an_endless_ground_truth_is_read_up_to_1_mib():
    # An unbounded read of /dev/zero would run out of memory under the limit.
    proc = _run_under_an_address_space_limit(["verify-table1", "--ground-truth", "/dev/zero"])
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stdout == "" and proc.stderr == "error: ground truth /dev/zero is larger than 1 MiB\n"


def test_entry_freezes_before_atexit_handlers_run():
    # The freeze skips only the freeing of garbage at exit: a handler
    # registered before entry still runs, after the freeze, and the report
    # is flushed at shutdown.
    proc = _run_script(
        "import atexit, gc\n"
        "from torsion_packet import cli\n"
        "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0))\n"
        "cli.entry(['decagon', 'verify', '--format', 'json'])\n"
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    report, _, tail = proc.stdout.rpartition("}\n")
    assert json.loads(report + "}")["verdict"] == "verified"
    assert tail == "frozen at exit: True\n"


def test_main_does_not_freeze_the_gc(capsys):
    import gc

    before = gc.get_freeze_count()
    assert main(["decagon", "verify"]) == EXIT_OK
    assert gc.get_freeze_count() == before


class _UnwritableStream:
    """A text stream whose every write fails, on a descriptor of its own."""

    def __init__(self, fd, error=lambda: OSError(28, "No space left on device")):
        self.fd = fd
        self.error = error

    def write(self, text):
        raise self.error()

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_failed_writes_leave_no_descriptor_open(tmp_path, monkeypatch):
    # Each failed write points the stream's descriptor at devnull; the
    # descriptor opened on devnull for that is closed again.
    with open(tmp_path / "out", "w") as out, open(tmp_path / "err", "w") as err:
        monkeypatch.setattr(sys, "stdout", _UnwritableStream(out.fileno()))
        monkeypatch.setattr(sys, "stderr", _UnwritableStream(err.fileno()))
        counts = []
        for _ in range(5):
            assert main(["lshape", "unit-case"]) == EXIT_USAGE
            counts.append(len(os.listdir("/proc/self/fd")))
    assert len(set(counts)) == 1, counts


def test_commands_run_without_sympy():
    # The Q(x, y) claims are certified by rational specialization, and signs
    # and the tan table by the integer ball kernel; neither a computer
    # algebra system nor mpmath is loaded by any command that touches them.
    script = (
        "import contextlib, io, sys\n"
        "from torsion_packet.cli import main\n"
        "for args in (['stratum2', '--torsion-order', '5'], ['decagon', 'differential'],\n"
        "             ['decagon', 'exclude-r'], ['lshape', 'exclude'], ['verify-table1']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(args) == 0, args\n"
        "print('sympy' in sys.modules, 'mpmath' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_env_with_src(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"


@pytest.mark.skipif(shutil.which("torsion-packet") is None, reason="entry point not installed")
def test_installed_entry_point(tmp_path):
    # The installed script runs cli.entry, the one exit path it shares with
    # python -m, so it exits with the verdict's code; it runs outside the
    # checkout, where the shipped table is read as package data.
    from importlib.metadata import entry_points

    (script,) = entry_points(group="console_scripts", name="torsion-packet")
    assert script.value == "torsion_packet.cli:entry"
    for argv, code in (
        (["verify-table1"], EXIT_OK),
        (_against_a_forged_trace(tmp_path), EXIT_REFUTED),
        (["decagon", "verify"], EXIT_OK),
    ):
        proc = subprocess.run(["torsion-packet", *argv], capture_output=True, text=True, cwd=tmp_path, timeout=120)
        assert proc.returncode == code, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr


def test_every_package_file_is_installed():
    # The local half of the check CI makes on an installed copy: an install
    # ships the packages, directories that hold an __init__.py, and of the
    # other files only those that a package-data glob in pyproject.toml names.
    tomllib = pytest.importorskip("tomllib")
    with open(_SRC.parent / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["torsion_packet"]
    package = _SRC / "torsion_packet"
    shipped = {path for pattern in globs for path in package.glob(pattern)}
    files = [path for path in package.rglob("*") if path.is_file() and "__pycache__" not in path.parts]
    assert [path for path in files if path.suffix != ".py" and path not in shipped] == []
    packages = {path.parent for path in files if path.suffix == ".py"}
    assert [d for d in packages if not (d / "__init__.py").is_file()] == []
