"""The benchmark's workloads: the CLI commands each one runs, and the oracle
that decides whether each command's verdict is right.

A workload is a list of ``Command``s.  The seed only chooses inputs; the CLI
sees nothing but the generated argument lists.

The oracle compares exit codes, verdicts and the fields that carry a verdict,
never byte digests, so that a change to the report schema or to a record's
display form that keeps every verdict still passes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

# A check returns None when the command's output is right, else a reason.
Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    check: Check


# stratum2 orders, one drawn from each band.  Orders up to 16 keep every
# stratum2 process short (0.5-0.8 s, most of it interpreter start and the
# sympy import), as the pipeline workload intends.  Orders from 17 to 30
# include ones whose handoff degree computation takes 1.3-7 s (N = 29:
# conductor 116, degree 56), so a draw from 5..30 would make one seed's pass
# cost three times another's; that cost is the tanratio/cyclotomic degree
# scan, which the sweep workload measures.  One order per band keeps every
# seed's pass at about the same cost.
TORSION_ORDER_BANDS = ((5, 6, 7, 8), (9, 10, 11, 12), (13, 14, 15, 16))

# The verdict-bearing stages every stratum2 report must have, each ok.
STRATUM2_STAGES = (
    "differential_space",
    "residue_constraints",
    "matches_closed_form_generator",
    "height_ratio",
    "torsion_solutions",
)


def sweep(seed: int, max_denominator: int = 60, ground_truth: Optional[str] = None) -> list[Command]:
    """The stability sweep of Table 1; the seed does not change it."""
    args = ["verify-table1", "--max-denominator", str(max_denominator), "--format", "json"]
    if ground_truth is not None:
        args += ["--ground-truth", ground_truth]
    return [Command(tuple(args), check_table1)]


def lshape(b_max: int = 10_000) -> Command:
    """Enumeration of every admissible (b, e) as one JSON report."""
    args = ("lshape", "enumerate", "--b-max", str(b_max), "--format", "json")
    return Command(args, lambda code, out: check_lshape_enumerate(code, out, b_max))


def pipeline(seed: int, b_max: int = 10_000) -> list[Command]:
    """The parameter enumeration and the degeneration half of the paper:
    one large JSON report, then seven short text-format runs."""
    rng = random.Random(seed)
    orders = [rng.choice(band) for band in TORSION_ORDER_BANDS]
    commands = [lshape(b_max), Command(("lshape", "exclude"), check_lshape_exclude)]
    for n in orders:
        commands.append(
            Command(("stratum2", "--torsion-order", str(n)), check_stratum2)
        )
    commands += [
        Command(("decagon", "verify"), check_decagon_verify),
        Command(("decagon", "exclude-r"), check_decagon_exclude_r),
        Command(("decagon", "differential"), check_decagon_differential),
    ]
    return commands


WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "sweep": sweep,
    "pipeline": pipeline,
}


# --------------------------------------------------------------------------
# Oracle


def admissible_pairs(b_max: int) -> list[tuple[int, int]]:
    """(b, e) with e in {-1, 0, 1}, e + 1 < b, and b even when e = 1."""
    return [
        (b, e)
        for b in range(1, b_max + 1)
        for e in (-1, 0, 1)
        if e + 1 < b and not (e == 1 and b % 2)
    ]


def _json_report(code: int, out: str) -> tuple[Optional[dict], Optional[str]]:
    if code != 0:
        return None, f"exit code {code}, expected 0"
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return None, f"report is not JSON: {exc}"
    if report.get("verdict") != "verified":
        return None, f"verdict {report.get('verdict')!r}, expected 'verified'"
    return report, None


def parse_text_report(out: str) -> tuple[Optional[str], list[dict[str, str]]]:
    """(verdict, records) of a text-format report.

    Record lines follow the ``elapsed_ms`` line; each is two-space indented
    ``key=value`` fields separated by two spaces.
    """
    verdict = None
    records: list[dict[str, str]] = []
    in_records = False
    for line in out.splitlines():
        if line.startswith("verdict: "):
            verdict = line[len("verdict: "):].strip()
        elif line.startswith("elapsed_ms:"):
            in_records = True
        elif in_records and line.startswith("  "):
            fields = {}
            for part in line[2:].split("  "):
                key, sep, value = part.partition("=")
                if sep:
                    fields[key] = value
            records.append(fields)
    return verdict, records


def _text_report(code: int, out: str) -> tuple[list[dict[str, str]], Optional[str]]:
    if code != 0:
        return [], f"exit code {code}, expected 0"
    verdict, records = parse_text_report(out)
    if verdict != "verified":
        return [], f"verdict {verdict!r}, expected 'verified'"
    return records, None


def check_table1(code: int, out: str) -> Optional[str]:
    report, err = _json_report(code, out)
    if err:
        return err
    records = report["records"]
    if len(records) != 9:
        return f"{len(records)} rows, expected 9"
    bad = [r for r in records if r.get("status") != "match"]
    if bad:
        return f"{len(bad)} rows not 'match', first {bad[0]}"
    return None


def check_lshape_enumerate(code: int, out: str, b_max: int) -> Optional[str]:
    report, err = _json_report(code, out)
    if err:
        return err
    records = report["records"]
    pairs = [(r["b"], r["e"]) for r in records]
    expected = admissible_pairs(b_max)
    if pairs != expected:
        return f"{len(pairs)} (b, e) records, expected the {len(expected)} admissible pairs in order"
    for r in records:
        b, e = r["b"], r["e"]
        if r["trace_lambda_plus_one"] != e + 2 or r["norm_lambda_plus_one"] != e + 1 - b:
            return f"record (b={b}, e={e}) has trace/norm {r['trace_lambda_plus_one']}/{r['norm_lambda_plus_one']}"
    return None


def check_lshape_exclude(code: int, out: str) -> Optional[str]:
    records, err = _text_report(code, out)
    if err:
        return err
    if len(records) != 9 or any(r.get("excluded") != "True" for r in records):
        return f"expected 9 rows all excluded, got {[r.get('excluded') for r in records]}"
    return None


def check_stratum2(code: int, out: str) -> Optional[str]:
    records, err = _text_report(code, out)
    if err:
        return err
    stages = {r.get("stage"): r for r in records}
    for stage in STRATUM2_STAGES:
        if stages.get(stage, {}).get("ok") != "True":
            return f"stage {stage} missing or not ok"
    not_ok = [r.get("stage") for r in records if "ok" in r and r["ok"] != "True"]
    if not_ok:
        return f"stages not ok: {not_ok}"
    return None


def check_decagon_verify(code: int, out: str) -> Optional[str]:
    records, err = _text_report(code, out)
    if err:
        return err
    if not any(r.get("check") == "solution_class" and r.get("ok") == "True" for r in records):
        return "solution_class check missing or not ok"
    return None


def check_decagon_exclude_r(code: int, out: str) -> Optional[str]:
    records, err = _text_report(code, out)
    if err:
        return err
    inter = [r for r in records if r.get("check") == "intersection"]
    if not inter:
        return "no intersection record"
    try:
        values = json.loads(inter[0].get("values", "null"))
    except json.JSONDecodeError:
        values = inter[0].get("values")
    if not isinstance(values, list) or sorted(values) != ["-1", "0"]:
        return f"intersection {values}, expected {{-1, 0}}"
    return None


def check_decagon_differential(code: int, out: str) -> Optional[str]:
    records, err = _text_report(code, out)
    if err:
        return err
    if len(records) != 4 or any(r.get("ok") != "True" for r in records):
        return f"expected 4 checks all ok, got {[r.get('ok') for r in records]}"
    return None
