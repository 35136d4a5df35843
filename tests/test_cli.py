"""Tests for the command-line front end and report formats."""

import json
import shutil
import subprocess

import pytest

from torsion_packet.cli import (
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_USAGE,
    cmd_decagon,
    cmd_lshape,
    cmd_stratum2,
    cmd_verify_table1,
    load_reference_rows,
    main,
    render,
)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out


# --------------------------------------------------------------------------
# verify-table1


def test_verify_table1_default_verified():
    report = cmd_verify_table1()
    assert report.verdict == "verified"
    assert len(report.records) == 9
    assert all(rec["status"] == "match" for rec in report.records)


def test_verify_table1_against_mutated_ground_truth(tmp_path):
    rows = load_reference_rows()
    rows[3]["norm"] = "-1"  # flip one norm
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps({"records": rows}))
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
    path.write_text(json.dumps({"records": rows}))
    code, _ = run_cli(["verify-table1", "--ground-truth", str(path)], capsys)
    assert code == EXIT_REFUTED


def _ground_truth_without(key):
    def write(path):
        rows = load_reference_rows()
        del rows[2][key]
        path.write_text(json.dumps({"records": rows}))

    return write


@pytest.mark.parametrize(
    "write",
    [
        pytest.param(None, id="missing-file"),
        pytest.param(lambda p: p.mkdir(), id="directory"),
        pytest.param(lambda p: p.write_text("{not json"), id="not-json"),
        pytest.param(lambda p: p.write_text("[1, 2]"), id="no-records"),
        pytest.param(lambda p: p.write_text('{"records": [7]}'), id="row-not-object"),
        pytest.param(
            lambda p: p.write_text('{"records": [{"alpha": "1/4", "beta": "1/3", "trace": [0], "norm": "-3"}]}'),
            id="trace-not-scalar",
        ),
        *(pytest.param(_ground_truth_without(k), id=f"no-{k}") for k in ("alpha", "beta", "trace", "norm")),
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
    assert "Traceback" not in out.err


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
    assert len(payload["records"]) == 9
    assert all(r["excluded"] for r in payload["records"])


def test_lshape_bad_bound(capsys):
    code, _ = run_cli(["lshape", "enumerate", "--b-max", "2"], capsys)
    assert code == EXIT_USAGE


# --------------------------------------------------------------------------
# stratum2


def test_stratum2_default(capsys):
    report = cmd_stratum2(5)
    assert report.verdict == "verified"
    stages = {r["stage"] for r in report.records}
    assert {"differential_space", "residue_constraints", "height_ratio", "torsion_solutions", "handoff"} <= stages
    handoff = [r for r in report.records if r["stage"] == "handoff"]
    assert len(handoff) == 1 and handoff[0]["status"].startswith("unit")


def test_stratum2_degenerate_order_two():
    report = cmd_stratum2(2)
    assert report.verdict == "inconclusive"
    torsion = next(r for r in report.records if r["stage"] == "torsion_solutions")
    assert torsion["zero_solution_degenerate"] is True
    assert torsion["nonzero_count"] == 0


def test_stratum2_order_ten_reaches_exclusion():
    report = cmd_stratum2(10)
    handoff = [r for r in report.records if r["stage"] == "handoff"]
    statuses = {(r["A"], r["B"]): r["status"] for r in handoff}
    assert statuses[(1, 2)] == "excluded by trace/norm matching"
    assert statuses[(1, 3)].startswith("unit")
    assert report.verdict == "verified"


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


# --------------------------------------------------------------------------
# report formats and determinism


def _strip_elapsed(d):
    d = dict(d)
    d.pop("elapsed_ms")
    return d


def test_reports_are_deterministic_modulo_elapsed():
    for make in (
        lambda: cmd_verify_table1(),
        lambda: cmd_lshape("unit-case", 100),
        lambda: cmd_decagon("exclude-r"),
        lambda: cmd_stratum2(5),
    ):
        a, b = make(), make()
        assert _strip_elapsed(a.to_dict()) == _strip_elapsed(b.to_dict())


def test_json_roundtrip():
    report = cmd_lshape("unit-case", 100)
    payload = json.loads(render(report, "json"))
    assert payload == report.to_dict()
    assert list(payload) == [
        "schema_version",
        "command",
        "parameters",
        "verdict",
        "records",
        "elapsed_ms",
    ]


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
    assert json.loads(out_path.read_text())["verdict"] == "verified"


def test_version_flag(capsys):
    code = main(["--version"])
    assert code == 0


def test_internal_inconsistency_maps_to_exit_3(monkeypatch, capsys):
    import torsion_packet.cli as cli_mod
    from torsion_packet.errors import ArithmeticInconsistencyError

    def broken(mode):
        raise ArithmeticInconsistencyError("synthetic failure")

    monkeypatch.setattr(cli_mod, "cmd_decagon", broken)
    assert main(["decagon", "verify"]) == 3


@pytest.mark.skipif(shutil.which("torsion-packet") is None, reason="entry point not installed")
def test_installed_entry_point():
    proc = subprocess.run(
        ["torsion-packet", "decagon", "verify", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "verified"
