"""Command-line front end: every verification as a reproducible subcommand.

Each subcommand produces a Report (schema version 1) with a verdict in
{verified, refuted, inconclusive} and structured records, rendered as
text, JSON or CSV.  Reports are deterministic for fixed parameters up to
the elapsed_ms field.

Exit codes: 0 verified (or inconclusive: nothing checked failed),
1 refuted, 2 usage error, 3 internal arithmetic inconsistency.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Any, Optional

from . import __version__
from .errors import ArithmeticInconsistencyError
from .exactnum import (
    CyclotomicElem,
    QuadraticElem,
    minimal_polynomial,
    quadratic_from_minpoly,
    sign_of_real,
)
from . import lshape, stablefiber, tanratio

SCHEMA_VERSION = 1

VERIFIED = "verified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# Geometry of the decagon representative (unit square plus golden-ratio
# square, crossing parameter sqrt(5)/5).  Shipped for provenance only;
# the verification itself uses just the torsion order and tenth roots of
# unity.
_DECAGON_GEOMETRY = {
    "square_side_lengths": ["1", str(QuadraticElem(Fraction(-1, 2), Fraction(1, 2), 5))],
    "crossing_parameter": str(QuadraticElem(0, Fraction(1, 5), 5)),
}

_RESIDUE_CONVENTION = "opposite residues at the two branches of each node (sum zero)"


@dataclass
class Report:
    """Machine-readable result of one subcommand run."""

    command: str
    parameters: dict[str, Any]
    verdict: str
    records: list[dict[str, Any]]
    elapsed_ms: int = 0
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "parameters": _encode(self.parameters),
            "verdict": self.verdict,
            "records": _encode(self.records),
            "elapsed_ms": self.elapsed_ms,
        }


def _encode(value: Any) -> Any:
    """Recursively encode report values as JSON-safe data.

    Rationals become "p/q" strings, cyclotomic elements {m, coeffs[]},
    quadratic elements their radical display string.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, CyclotomicElem):
        return {"m": value.m, "coeffs": [str(c) for c in value.coeffs]}
    if isinstance(value, QuadraticElem):
        return str(value)
    if isinstance(value, tanratio.RationalAngle):
        return str(value)
    if isinstance(value, lshape.AdmissibleTriple):
        return {"b": value.b, "e": value.e, "lambda": str(value.lam)}
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, float):
        return value
    raise TypeError(f"cannot encode {value!r} into a report")


def render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2)
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "text":
        return _render_text(report)
    raise ValueError(f"unknown format {fmt!r}")


def _render_csv(report: Report) -> str:
    records = _encode(report.records)
    buf = io.StringIO()
    if records:
        keys: list[str] = []
        for rec in records:
            for k in rec:
                if k not in keys:
                    keys.append(k)
        writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow(
                {
                    k: json.dumps(v) if isinstance(v, (dict, list)) else v
                    for k, v in rec.items()
                }
            )
    return buf.getvalue().rstrip("\n")


def _render_text(report: Report) -> str:
    lines = [f"command: {report.command}"]
    for k, v in _encode(report.parameters).items():
        lines.append(f"  {k}: {json.dumps(v) if isinstance(v, (dict, list)) else v}")
    lines.append(f"verdict: {report.verdict}")
    lines.append(f"elapsed_ms: {report.elapsed_ms}")
    for rec in _encode(report.records):
        parts = []
        for k, v in rec.items():
            parts.append(f"{k}={json.dumps(v) if isinstance(v, (dict, list)) else v}")
        lines.append("  " + "  ".join(parts))
    return "\n".join(lines)


def _real_quadratic_display(e: CyclotomicElem) -> str:
    """Radical display of a conjugation-fixed element of degree at most 2."""
    mp = minimal_polynomial(e)
    if mp.degree == 1:
        return str(mp.trace)
    if mp.degree == 2:
        which = sign_of_real(e - mp.trace / 2)
        return str(quadratic_from_minpoly(mp, which))
    return f"degree-{mp.degree} element"


_GROUND_TRUTH_KEYS = ("alpha", "beta", "trace", "norm")


def load_reference_rows(path: Optional[str] = None) -> list[dict[str, Any]]:
    """The shipped (or an explicit) ground-truth list of non-unit quadratic ratios.

    Raises ValueError, with a one-line message, when the file cannot be
    read, is not JSON, or is not an object whose ``records`` list holds
    rows with ``alpha``, ``beta``, ``trace`` and ``norm``.
    """
    if path is None:
        source = "builtin ground truth"
        data = resources.files("torsion_packet").joinpath("data/table1.json").read_text()
    else:
        source = f"ground truth {path}"
        try:
            data = Path(path).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read {source}: {exc.strerror or exc}") from exc
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source} is not valid JSON: {exc}") from exc
    records = payload.get("records") if isinstance(payload, dict) else None
    if not isinstance(records, list):
        raise ValueError(f"{source} must be a JSON object with a 'records' list")
    for i, row in enumerate(records):
        if not isinstance(row, dict):
            raise ValueError(f"{source}: record {i} is not a JSON object")
        missing = [k for k in _GROUND_TRUTH_KEYS if k not in row]
        if missing:
            raise ValueError(f"{source}: record {i} has no {', '.join(missing)}")
        for k in _GROUND_TRUTH_KEYS:
            if isinstance(row[k], bool) or not isinstance(row[k], (str, int)):
                raise ValueError(f"{source}: record {i} field {k} must be a string or an integer")
    return records


# --------------------------------------------------------------------------
# Subcommands


def cmd_tangent_ratios(
    degree: int,
    max_denominator: int,
    non_units_only: bool = False,
) -> Report:
    """Enumerate tangent ratios of the requested degree up to the bound."""
    if degree < 1:
        raise ValueError(f"--degree must be at least 1, got {degree}")
    if max_denominator < 3:
        raise ValueError(f"--max-denominator must be at least 3, got {max_denominator}")
    start = time.perf_counter()
    rows = tanratio.enumerate_ratios(degree, max_denominator)
    if non_units_only:
        rows = [r for r in rows if not r.is_unit]
    records = [
        {
            "alpha": r.alpha,
            "beta": r.beta,
            "degree": r.degree,
            "trace": r.trace,
            "norm": r.norm,
            "is_unit": r.is_unit,
            "mu": r.mu_display(),
            "mu_cyclotomic": r.mu,
        }
        for r in rows
    ]
    return Report(
        command="tangent-ratios",
        parameters={
            "degree": degree,
            "max_denominator": max_denominator,
            "non_units_only": non_units_only,
        },
        verdict=VERIFIED,
        records=records,
        elapsed_ms=_ms_since(start),
    )


def cmd_verify_table1(
    max_denominator: int = 12,
    ground_truth_path: Optional[str] = None,
) -> Report:
    """Recompute the non-unit quadratic ratio list and diff it against the
    shipped ground truth."""
    if max_denominator < 12:
        raise ValueError(
            f"--max-denominator must be at least 12 to cover the reference list, got {max_denominator}"
        )
    start = time.perf_counter()
    expected = [
        (row["alpha"], row["beta"], str(Fraction(row["trace"])), str(Fraction(row["norm"])))
        for row in load_reference_rows(ground_truth_path)
    ]
    computed_rows = tanratio.normalized_nonunit_rows(max_denominator)
    computed = [
        (str(r.alpha), str(r.beta), str(r.trace), str(r.norm)) for r in computed_rows
    ]
    records = []
    for row in expected:
        status = "match" if row in computed else "missing"
        records.append(
            {"alpha": row[0], "beta": row[1], "trace": row[2], "norm": row[3], "status": status}
        )
    for row in computed:
        if row not in expected:
            records.append(
                {"alpha": row[0], "beta": row[1], "trace": row[2], "norm": row[3], "status": "unexpected"}
            )
    ok = all(rec["status"] == "match" for rec in records) and len(computed) == len(expected)
    return Report(
        command="verify-table1",
        parameters={
            "max_denominator": max_denominator,
            "ground_truth": ground_truth_path or "builtin",
            "rows_expected": len(expected),
            "rows_computed": len(computed),
        },
        verdict=VERIFIED if ok else REFUTED,
        records=records,
        elapsed_ms=_ms_since(start),
    )


def cmd_lshape(subcommand: str, b_max: int = 10_000) -> Report:
    """enumerate | unit-case | exclude over admissible (b, e) parameters."""
    if b_max < 3:
        raise ValueError(f"--b-max must be at least 3, got {b_max}")
    start = time.perf_counter()
    if subcommand == "enumerate":
        records = []
        for t in lshape.enumerate_triples(b_max):
            trace, norm = lshape.trace_norm_lambda_plus_one(t)
            records.append(
                {
                    "b": t.b,
                    "e": t.e,
                    "lambda": t.lam,
                    "trace_lambda_plus_one": trace,
                    "norm_lambda_plus_one": norm,
                }
            )
        verdict = VERIFIED
    elif subcommand == "unit-case":
        triples = lshape.unit_case_triples(b_max)
        expected = [(1, -1), (2, 0)]
        records = [
            {
                "b": t.b,
                "e": t.e,
                "lambda": t.lam,
                "surface": "pentagon" if t.b == 1 else "octagon",
                "handled_by": "known torsion on y^2 = x^5 - 1 resp. y^2 = x(x^4 - 1)",
            }
            for t in triples
        ]
        verdict = VERIFIED if [(t.b, t.e) for t in triples] == expected else REFUTED
    elif subcommand == "exclude":
        rows = tanratio.normalized_nonunit_rows(12)
        records = []
        all_excluded = True
        for r in rows:
            verdict_row = lshape.exclude_against_table1(r, b_max)
            all_excluded = all_excluded and verdict_row.excluded
            records.append(
                {
                    "alpha": r.alpha,
                    "beta": r.beta,
                    "mu": str(verdict_row.mu_value),
                    "candidates": [
                        {
                            "label": c.label,
                            "value": str(c.value),
                            "trace": c.trace,
                            "norm": c.norm,
                            "reason": c.reason,
                        }
                        for c in verdict_row.candidates_checked
                    ],
                    "matching_triples": list(verdict_row.matching_triples),
                    "excluded": verdict_row.excluded,
                }
            )
        verdict = VERIFIED if all_excluded and len(rows) == 9 else REFUTED
    else:
        raise ValueError(f"unknown lshape subcommand {subcommand!r}")
    return Report(
        command=f"lshape {subcommand}",
        parameters={"b_max": b_max},
        verdict=verdict,
        records=records,
        elapsed_ms=_ms_since(start),
    )


def cmd_stratum2(torsion_order: int) -> Report:
    """The full minimal-stratum pipeline: symbolic differential, residue
    constraints, height ratio, torsion solutions, and the handoff of the
    resulting tangent ratios to the admissible-parameter matching."""
    if torsion_order < 2:
        raise ValueError(f"--torsion-order must be at least 2, got {torsion_order}")
    start = time.perf_counter()
    records: list[dict[str, Any]] = []
    oks: list[bool] = []

    config = stablefiber.stratum2_config()
    _, x, y = stablefiber.symbolic_xy()
    dim, basis = stablefiber.differential_space(config)
    ok_dim = dim == 1
    records.append(
        {
            "stage": "differential_space",
            "configuration": stablefiber.config_to_json_dict(config),
            "dimension": dim,
            "ok": ok_dim,
            "generator": stablefiber.differential_to_json_dict(basis[0]) if basis else None,
        }
    )
    oks.append(ok_dim)

    reference = stablefiber.stratum2_limit_differential(x, y)
    ok_res = bool(basis) and stablefiber.verify_residue_constraints(basis[0], config)
    records.append({"stage": "residue_constraints", "ok": ok_res})
    oks.append(ok_res)

    ok_closed = bool(basis) and stablefiber.differentials_proportional(basis[0], reference)
    records.append({"stage": "matches_closed_form_generator", "ok": ok_closed})
    oks.append(ok_closed)

    ok_ratio = bool(basis) and stablefiber.height_ratio(basis[0], config) == y / x
    records.append({"stage": "height_ratio", "value": "y/x", "ok": ok_ratio})
    oks.append(ok_ratio)

    torsion = stablefiber.solve_torsion_pairs(torsion_order)
    nonzero = [a for a in torsion.tangent_indices if a > 0]
    records.append(
        {
            "stage": "torsion_solutions",
            "count": len(torsion.solutions),
            "tangent_indices": list(torsion.tangent_indices),
            "nonzero_count": sum(1 for a in torsion.tangent_indices if a != 0),
            "zero_solution_degenerate": 0 in torsion.tangent_indices,
            "ok": True,
        }
    )
    oks.append(True)

    handoff_pairs = [(a, b) for a in nonzero for b in nonzero if a < b]
    for a, b in handoff_pairs:
        alpha = tanratio.RationalAngle(Fraction(a, torsion_order))
        beta = tanratio.RationalAngle(Fraction(b, torsion_order))
        r = tanratio.ratio(alpha, beta)
        rec: dict[str, Any] = {
            "stage": "handoff",
            "A": a,
            "B": b,
            "alpha": alpha,
            "beta": beta,
            "mu": r.mu_display(),
            "degree": r.degree,
        }
        if r.degree != 2:
            rec["status"] = "not quadratic: outside the degree-2 height-ratio regime"
        elif r.is_unit:
            rec["status"] = "unit: pentagon/octagon regime, handled by known torsion"
        else:
            verdict_row = lshape.exclude_against_table1(r)
            rec["status"] = (
                "excluded by trace/norm matching"
                if verdict_row.excluded
                else f"matched admissible triples {[str(t) for t in verdict_row.matching_triples]}"
            )
        records.append(rec)

    verdict = VERIFIED if all(oks) else REFUTED
    if not handoff_pairs:
        verdict = INCONCLUSIVE if all(oks) else REFUTED
    return Report(
        command="stratum2",
        parameters={
            "torsion_order": torsion_order,
            "residue_convention": _RESIDUE_CONVENTION,
        },
        verdict=verdict,
        records=records,
        elapsed_ms=_ms_since(start),
    )


def cmd_decagon(subcommand: str) -> Report:
    """verify | exclude-r | differential for the decagon degeneration."""
    start = time.perf_counter()
    params: dict[str, Any] = {"geometry_constants": dict(_DECAGON_GEOMETRY)}
    if subcommand == "verify":
        accepted, expected = stablefiber.decagon_admissible_assignments()
        ok = accepted == expected
        records = [
            {
                "check": "fifth_power_node_conditions",
                "passing_tenth_root_exponents": sorted(
                    {j for pair in accepted for j in pair}
                ),
            },
            {
                "check": "solution_class",
                "accepted_assignments": sorted(accepted),
                "expected_assignments": sorted(expected),
                "ok": ok,
            },
        ]
        verdict = VERIFIED if ok else REFUTED
    elif subcommand == "exclude-r":
        r_x, r_y, inter = stablefiber.decagon_r_sets()
        allowed = (
            CyclotomicElem.from_rational(20, -1),
            CyclotomicElem.from_rational(20, 0),
        )
        ok_rx = all(r == allowed[0] or sign_of_real(r) >= 0 for r in r_x)
        ok_ry = all(sign_of_real(r) <= 0 for r in r_y)
        ok_inter = all(any(r == a for a in allowed) for r in inter)
        records = [
            {
                "check": "R_x",
                "values": [_real_quadratic_display(r) for r in _sorted_reals(r_x)],
                "only_minus_one_or_nonnegative": ok_rx,
            },
            {
                "check": "R_y",
                "values": [_real_quadratic_display(r) for r in _sorted_reals(r_y)],
                "all_nonpositive": ok_ry,
            },
            {
                "check": "intersection",
                "values": [_real_quadratic_display(r) for r in _sorted_reals(inter)],
                "contained_in_{-1,0}": ok_inter,
                "interpretation": "0 is a zero of the limit form, -1 a Weierstrass limit; no new periodic point",
            },
        ]
        verdict = VERIFIED if ok_rx and ok_ry and ok_inter else REFUTED
    elif subcommand == "differential":
        params["residue_convention"] = _RESIDUE_CONVENTION
        config = stablefiber.decagon_config()
        x, y = stablefiber.decagon_points()
        dim, basis = stablefiber.differential_space(config)
        reference = stablefiber.decagon_limit_differential(x, y)
        ok_dim = dim == 1
        ok_prop = bool(basis) and stablefiber.differentials_proportional(basis[0], reference)
        ok_res = stablefiber.verify_residue_constraints(reference, config)
        ok_zero = stablefiber.verify_zero_orders(reference, config)
        records = [
            {
                "check": "dimension",
                "value": dim,
                "ok": ok_dim,
                "configuration": stablefiber.config_to_json_dict(config),
                "generator": stablefiber.differential_to_json_dict(basis[0]) if basis else None,
            },
            {"check": "matches_closed_form_generator", "ok": ok_prop},
            {"check": "residue_constraints", "ok": ok_res},
            {"check": "simple_zeros_at_0_and_infinity", "ok": ok_zero},
        ]
        verdict = VERIFIED if ok_dim and ok_prop and ok_res and ok_zero else REFUTED
    else:
        raise ValueError(f"unknown decagon subcommand {subcommand!r}")
    return Report(
        command=f"decagon {subcommand}",
        parameters=params,
        verdict=verdict,
        records=records,
        elapsed_ms=_ms_since(start),
    )


def _sorted_reals(elems: list[CyclotomicElem]) -> list[CyclotomicElem]:
    return sorted(elems, key=lambda r: r.complex_embedding().real)


def _ms_since(start: float) -> int:
    return max(0, round((time.perf_counter() - start) * 1000))


# --------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsion-packet",
        description="Exact verification of periodic-point exclusion arguments in genus two.",
    )
    parser.add_argument("--version", action="version", version=f"torsion-packet {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--output", type=str, default=None, help="also write the report to this path")

    p = sub.add_parser("tangent-ratios", help="enumerate tangent ratios by degree")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--max-denominator", type=int, default=12)
    p.add_argument("--non-units-only", action="store_true")
    common(p)
    p.set_defaults(run=lambda a: cmd_tangent_ratios(a.degree, a.max_denominator, a.non_units_only))

    p = sub.add_parser("verify-table1", help="diff the computed non-unit list against the shipped reference")
    p.add_argument("--max-denominator", type=int, default=12)
    p.add_argument("--ground-truth", type=str, default=None)
    common(p)
    p.set_defaults(run=lambda a: cmd_verify_table1(a.max_denominator, a.ground_truth))

    p = sub.add_parser("lshape", help="admissible L-shaped parameters and exclusion")
    p.add_argument("mode", choices=("enumerate", "unit-case", "exclude"))
    p.add_argument("--b-max", type=int, default=10_000)
    common(p)
    p.set_defaults(run=lambda a: cmd_lshape(a.mode, a.b_max))

    p = sub.add_parser("stratum2", help="minimal-stratum degeneration pipeline")
    p.add_argument("--torsion-order", type=int, default=5)
    common(p)
    p.set_defaults(run=lambda a: cmd_stratum2(a.torsion_order))

    p = sub.add_parser("decagon", help="decagon degeneration checks")
    p.add_argument("mode", choices=("verify", "exclude-r", "differential"))
    common(p)
    p.set_defaults(run=lambda a: cmd_decagon(a.mode))

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        report = args.run(args)
    except ArithmeticInconsistencyError as exc:
        print(f"internal arithmetic inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rendered = render(report, args.format)
    print(rendered)
    if args.output:
        Path(args.output).write_text(rendered + "\n")
    return EXIT_OK if report.verdict in (VERIFIED, INCONCLUSIVE) else EXIT_REFUTED


if __name__ == "__main__":
    sys.exit(main())
