"""Command-line front end: every verification as a reproducible subcommand.

Each subcommand produces a Report (schema version 1) with a verdict in
{verified, refuted, inconclusive} and structured records, rendered as
text, JSON or CSV.  Reports are deterministic for fixed parameters up to
the elapsed_ms field.

Records hold plain JSON values, angles as "p/q" (``tanratio.angle_str``),
the lambda of an admissible triple's integer row as ``parts_str`` writes
it, and a few exact types, handed over raw.  One function, ``_leaf``, is
the only encoder of those types: rationals and quadratic elements as
strings, cyclotomic elements as {m, coeffs}, the point at infinity as
"infinity".  It is the ``default=`` hook of the one JSON encoder,
CPython's C encoder built once at import, which keeps no state between
calls and encodes each record in one call; the text and CSV renderers use
it too.  The JSON layout puts one record per line.

Exit codes: 0 verified (or inconclusive: nothing checked failed),
1 refuted, 2 usage or I/O error (a closed output pipe included),
3 internal arithmetic inconsistency or any other internal error.  Only
UsageError, raised here after checking arguments and input files,
exits 2; a ValueError from the library is a bug and exits 3.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
import time
from fractions import Fraction
from typing import Any, NamedTuple, Optional

from . import __version__
from .errors import ArithmeticInconsistencyError, UsageError
from .exactnum import CyclotomicElem, QuadraticElem, real_display, sign_of_real
from .exactnum.quadratic import parts_str
# tanratio is imported by the code that calls it, so that a command that
# reads no tangent ratio does not load it.  lshape and stablefiber stay here:
# perfbench/tracechild.py looks both up in sys.modules after importing cli.
from . import lshape, stablefiber

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


class Report(NamedTuple):
    """Machine-readable result of one subcommand run."""

    command: str
    parameters: dict[str, Any]
    verdict: str
    records: list[dict[str, Any]]
    elapsed_ms: int = 0

    def fields(self) -> dict[str, Any]:
        """The top-level report fields in their output order, unencoded."""
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "parameters": self.parameters,
            "verdict": self.verdict,
            "records": self.records,
            "elapsed_ms": self.elapsed_ms,
        }


def _leaf(value: Any) -> Any:
    """The one report encoding of each exact type JSON does not know.

    Rationals and quadratic elements become their display strings,
    cyclotomic elements {m, coeffs[]} and the point at infinity "infinity".
    """
    if isinstance(value, (Fraction, QuadraticElem)):
        return str(value)
    if isinstance(value, CyclotomicElem):
        return {"m": value.m, "coeffs": [str(c) for c in value.coeffs]}
    if value is stablefiber.INFINITY:
        return "infinity"
    raise TypeError(f"cannot encode {value!r} into a report")


# The C encoder that ``json.JSONEncoder(default=_leaf).encode`` builds
# afresh on every call, built once.  Without ``markers`` (the circular
# check) it keeps no state between calls, so every call and thread shares
# it.  It takes no ``indent``, so the JSON layout below places its line
# breaks itself.
_c_encoder = json.encoder.c_make_encoder(
    None, _leaf, json.encoder.encode_basestring_ascii, None, ": ", ", ", False, False, True
)


def _encode(value: Any) -> str:
    """``value`` as compact JSON, exact types by ``_leaf``."""
    return "".join(_c_encoder(value, 0))


def render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return _render_json(report)
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "text":
        return _render_text(report)
    raise ValueError(f"unknown format {fmt!r}")


def _render_json(report: Report) -> str:
    """One top-level field per line, and one compact line per record.

    The pieces are joined once, so the report text is built once.
    """
    encode = _encode
    chunks = ["{\n"]
    for key, value in report.fields().items():
        chunks += ("  ", encode(key), ": ")
        if key == "records" and value:
            chunks.append("[")
            for rec in value:
                chunks += ("\n    ", encode(rec), ",")
            chunks[-1] = "\n  ]"
        else:
            chunks.append(encode(value))
        chunks.append(",\n")
    chunks[-1] = "\n}"
    return "".join(chunks)


def _cell(value: Any) -> Any:
    """A value as one text or CSV field: JSON scalars as they are, exact
    types by ``_leaf``, containers as compact JSON."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if not isinstance(value, (dict, list, tuple)):
        value = _leaf(value)
    return value if isinstance(value, str) else _encode(value)


def _render_csv(report: Report) -> str:
    """The records alone: a header of every key in order of first sight,
    then one row per record, "" where a record has no such key.

    ``csv`` is imported here, so that a command that renders no CSV does
    not import it.
    """
    import csv

    records = report.records
    buf = io.StringIO()
    if records:
        keys = list(dict.fromkeys(k for rec in records for k in rec))
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows([_cell(rec.get(k, "")) for k in keys] for rec in records)
    return buf.getvalue().rstrip("\n")


def _render_text(report: Report) -> str:
    lines = [f"command: {report.command}"]
    for k, v in report.parameters.items():
        lines.append(f"  {k}: {_cell(v)}")
    lines.append(f"verdict: {report.verdict}")
    lines.append(f"elapsed_ms: {report.elapsed_ms}")
    for rec in report.records:
        lines.append("  " + "  ".join(f"{k}={_cell(v)}" for k, v in rec.items()))
    return "\n".join(lines)


_GROUND_TRUTH_KEYS = ("alpha", "beta", "trace", "norm")


def load_reference_rows(path: Optional[str] = None) -> list[dict[str, Any]]:
    """The shipped (or an explicit) ground-truth list of non-unit quadratic ratios.

    Raises ValueError, with a one-line message, when the file cannot be
    read, is not JSON, or is not an object with ``schema_version`` 1 whose
    ``records`` list holds rows with the rationals ``alpha``, ``beta``,
    ``trace`` and ``norm``, the angles with 0 < alpha < beta < 1/2 (the
    check of ``tanratio.ratio``; no other angle arrives as text).  Each comes
    back as the display string of its ``Fraction``, so "2/24" reads "1/12".
    """
    from . import tanratio

    if path is None:
        source = "builtin ground truth"
        path = os.path.join(os.path.dirname(__file__), "data", "table1.json")
    else:
        source = f"ground truth {path}"
    try:
        with open(path, encoding="utf-8") as fh:
            data = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {source}: {getattr(exc, 'strerror', None) or exc}") from exc
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{source} must be a JSON object with a 'records' list")
    version = payload.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"{source} has schema_version {version!r}, expected {SCHEMA_VERSION}")
    records = payload.get("records")
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
            try:
                row[k] = str(Fraction(row[k]))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"{source}: record {i} field {k} is not a rational: {row[k]!r}") from None
        try:
            tanratio.ratio(*(Fraction(row[k]).as_integer_ratio() for k in ("alpha", "beta")))
        except ValueError as exc:
            raise ValueError(f"{source}: record {i}: {exc}") from None
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
        raise UsageError(f"--degree must be at least 1, got {degree}")
    if max_denominator < 3:
        raise UsageError(f"--max-denominator must be at least 3, got {max_denominator}")
    from . import tanratio

    start = time.perf_counter()
    rows = tanratio.enumerate_ratios(degree, max_denominator)
    if non_units_only:
        rows = [r for r in rows if not r.is_unit]
    records = [
        {
            "alpha": tanratio.angle_str(r.alpha),
            "beta": tanratio.angle_str(r.beta),
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
        raise UsageError(
            f"--max-denominator must be at least 12 to cover the reference list, got {max_denominator}"
        )
    from . import tanratio

    start = time.perf_counter()
    try:
        reference = load_reference_rows(ground_truth_path)
    except ValueError as exc:
        if ground_truth_path is None:  # the shipped file: a packaging bug
            raise
        raise UsageError(str(exc)) from exc
    # Both sides are display rows: the reference file's text and the report's.
    keys = _GROUND_TRUTH_KEYS
    expected = [tuple(row[k] for k in keys) for row in reference]
    computed = [
        (tanratio.angle_str(r.alpha), tanratio.angle_str(r.beta), str(r.trace), str(r.norm))
        for r in tanratio.normalized_nonunit_rows(max_denominator)
    ]
    records = [dict(zip(keys, row), status="match" if row in computed else "missing") for row in expected]
    records += [dict(zip(keys, row), status="unexpected") for row in computed if row not in expected]
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
    """enumerate | unit-case | exclude over admissible (b, e) parameters.

    Only ``enumerate`` reads the bound ``b_max``: the unit case is a
    closed form, and the exclusion covers every admissible (b, e).
    """
    start = time.perf_counter()
    parameters: dict[str, Any] = {}
    if subcommand == "enumerate":
        if b_max < 3:
            raise UsageError(f"--b-max must be at least 3, got {b_max}")
        parameters["b_max"] = b_max
        # Each row is plain integers (b, e, an, bn, den, d), and lambda is
        # kept as its display string.  Every record is checked and kept, so a
        # failed check refutes the verdict without hiding the records after it.
        records = []
        ok = True
        for row in lshape.enumerate_triples(b_max):
            b, e, an, bn, den, d = row
            ok = lshape.is_positive_root(*row) and ok
            trace, norm = lshape.trace_norm_lambda_plus_one(b, e)
            records.append(
                {
                    "b": b,
                    "e": e,
                    "lambda": parts_str(an, bn, den, d),
                    "trace_lambda_plus_one": trace,
                    "norm_lambda_plus_one": norm,
                }
            )
        verdict = VERIFIED if ok else REFUTED
    elif subcommand == "unit-case":
        triples = lshape.unit_case_triples()
        records = [
            {
                "b": b,
                "e": e,
                "lambda": parts_str(*lam),
                "surface": "pentagon" if b == 1 else "octagon",
                "handled_by": "known torsion on y^2 = x^5 - 1 resp. y^2 = x(x^4 - 1)",
            }
            for b, e, *lam in triples
        ]
        verdict = VERIFIED if [t[:2] for t in triples] == [(1, -1), (2, 0)] else REFUTED
    elif subcommand == "exclude":
        from . import tanratio

        rows = tanratio.normalized_nonunit_rows(12)
        records = []
        for r in rows:
            verdict_row = lshape.exclude_against_table1(r.value)
            records.append(
                {
                    "alpha": tanratio.angle_str(r.alpha),
                    "beta": tanratio.angle_str(r.beta),
                    "mu": r.value,
                    "candidates": [c._asdict() for c in verdict_row.candidates_checked],
                    "matching_triples": [
                        {"b": b, "e": e, "lambda": parts_str(*lam)} for b, e, *lam in verdict_row.matching_triples
                    ],
                    "excluded": verdict_row.excluded,
                }
            )
        verdict = VERIFIED if all(rec["excluded"] for rec in records) and len(rows) == 9 else REFUTED
        parameters["scope"] = "every admissible (b, e), since the norm of lambda + 1 fixes b"
    else:
        raise UsageError(f"unknown lshape subcommand {subcommand!r}")
    return Report(
        command=f"lshape {subcommand}",
        parameters=parameters,
        verdict=verdict,
        records=records,
        elapsed_ms=_ms_since(start),
    )


def cmd_stratum2(torsion_order: int) -> Report:
    """The full minimal-stratum pipeline: the differential over Q(x, y)
    with its residue constraints and height ratio (certified on a grid of
    rational specializations), torsion solutions, and the handoff of the
    ratios tan(pi*B/N)/tan(pi*A/N), classified once per Galois orbit, to
    the admissible-parameter matching."""
    if torsion_order < 2:
        raise UsageError(f"--torsion-order must be at least 2, got {torsion_order}")
    from . import tanratio

    start = time.perf_counter()
    records: list[dict[str, Any]] = []
    oks: list[bool] = []

    cert = stablefiber.certify_stratum2()
    ok_dim = cert.dimension == 1
    records.append(
        {
            "stage": "differential_space",
            "configuration": cert.configuration,
            "dimension": cert.dimension,
            "ok": ok_dim,
            "generator": _terms(cert.closed_form) if cert.basis_is_closed_form else None,
            "certified_on_grid": {"x": cert.grid[0], "y": cert.grid[1]},
        }
    )
    oks.append(ok_dim)

    records.append({"stage": "residue_constraints", "ok": cert.closed_form_in_kernel})
    oks.append(cert.closed_form_in_kernel)

    records.append({"stage": "matches_closed_form_generator", "ok": cert.basis_is_closed_form})
    oks.append(cert.basis_is_closed_form)

    records.append({"stage": "height_ratio", "value": cert.height_ratio, "ok": cert.height_ratio_holds})
    oks.append(cert.height_ratio_holds)

    torsion = stablefiber.solve_torsion_pairs(torsion_order)
    # The equation has degree N for odd N and N - 1 for even N, and the
    # solver's docstring proves its solutions distinct: the count says none is missing.
    ok_count = len(torsion) == (torsion_order if torsion_order % 2 else torsion_order - 1)
    records.append(
        {
            "stage": "torsion_solutions",
            "count": len(torsion),
            "tangent_indices": list(torsion),
            "nonzero_count": sum(1 for a in torsion if a != 0),
            "zero_solution_degenerate": 0 in torsion,
            "ok": ok_count,
        }
    )
    oks.append(ok_count)

    divisors = [q for q in range(3, torsion_order + 1) if torsion_order % q == 0]
    handoffs = sorted(
        (r.alpha[0] * (torsion_order // r.alpha[1]), r.beta[0] * (torsion_order // r.beta[1]), r)
        for r in tanratio.classify(divisors)
    )
    for a, b, r in handoffs:
        rec: dict[str, Any] = {
            "stage": "handoff",
            "A": a,
            "B": b,
            "alpha": tanratio.angle_str(r.alpha),
            "beta": tanratio.angle_str(r.beta),
            "mu": r.mu_display(),
            "degree": r.degree,
        }
        if r.degree != 2:
            rec["status"] = "not quadratic: outside the degree-2 height-ratio regime"
        elif r.is_unit:
            rec["status"] = "unit: pentagon/octagon regime, handled by known torsion"
        else:
            verdict_row = lshape.exclude_against_table1(r.value)
            oks.append(verdict_row.excluded)
            rec["status"] = (
                "excluded by trace/norm matching"
                if verdict_row.excluded
                else "matched admissible triples "
                + str([f"(b={t[0]}, e={t[1]}, lambda={parts_str(*t[2:])})" for t in verdict_row.matching_triples])
            )
        records.append(rec)

    verdict = REFUTED if not all(oks) else VERIFIED if handoffs else INCONCLUSIVE
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
        ok_rx = all(r == -1 or sign_of_real(r) >= 0 for r in r_x)
        ok_ry = all(sign_of_real(r) <= 0 for r in r_y)
        ok_inter = all(r in (-1, 0) for r in inter)
        records = [
            {
                "check": "R_x",
                "values": [real_display(r) for r in _sorted_reals(r_x)],
                "only_minus_one_or_nonnegative": ok_rx,
            },
            {
                "check": "R_y",
                "values": [real_display(r) for r in _sorted_reals(r_y)],
                "all_nonpositive": ok_ry,
            },
            {
                "check": "intersection",
                "values": [real_display(r) for r in _sorted_reals(inter)],
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
        ok_match = basis == [reference]
        ok_res = stablefiber.verify_residue_constraints(reference, config)
        ok_zero = stablefiber.verify_zero_orders(reference, config)
        records = [
            {
                "check": "dimension",
                "value": dim,
                "ok": ok_dim,
                "configuration": stablefiber.config_to_json_dict(config),
                "generator": _terms(zip(basis[0], config.poles)) if basis else None,
            },
            {"check": "matches_closed_form_generator", "ok": ok_match},
            {"check": "residue_constraints", "ok": ok_res},
            {"check": "simple_zeros_at_0_and_infinity", "ok": ok_zero},
        ]
        verdict = VERIFIED if ok_dim and ok_match and ok_res and ok_zero else REFUTED
    else:
        raise UsageError(f"unknown decagon subcommand {subcommand!r}")
    return Report(
        command=f"decagon {subcommand}",
        parameters=params,
        verdict=verdict,
        records=records,
        elapsed_ms=_ms_since(start),
    )


def _terms(pairs) -> dict[str, Any]:
    """A limit differential's (residue, pole) pairs as a report record."""
    return {"terms": [{"residue": c, "pole": p} for c, p in pairs]}


def _sorted_reals(elems: list[CyclotomicElem]) -> list[CyclotomicElem]:
    """Real elements in ascending order, compared by exact signs."""
    return sorted(elems, key=functools.cmp_to_key(lambda a, b: sign_of_real(a - b)))


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
    try:
        # argparse exits 0 after --help or --version, dropping any error
        # writing their text, so it is written here; a usage error exits 2.
        with contextlib.redirect_stdout(io.StringIO()) as shown:
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        status, error = _write_stdout(shown.getvalue(), "the help or version text", end="")
        code = status or int(exc.code or 0)
    else:
        code, error = _run(args)
    if error is not None and sys.stderr is not None:
        try:
            print(error, file=sys.stderr, flush=True)
        except OSError:
            # stderr is closed or full, so the exit code alone reports the
            # error.  Point stderr at devnull so that the flush at
            # interpreter shutdown does not fail and change that code.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return code


def _run(args: argparse.Namespace) -> tuple[int, Optional[str]]:
    """Run a parsed command and write its report: the exit code, and the
    one line for stderr, if there is one."""
    try:
        if args.output is not None:
            _check_output_path(args.output)
        report = args.run(args)
        rendered = render(report, args.format)
    except ArithmeticInconsistencyError as exc:
        return EXIT_INTERNAL, f"internal arithmetic inconsistency: {exc}"
    except UsageError as exc:
        return EXIT_USAGE, f"error: {exc}"
    except Exception as exc:
        message = " ".join(str(exc).split())
        return EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {message}"
    status, error = _write_stdout(rendered, "the report")
    code = status or (EXIT_OK if report.verdict in (VERIFIED, INCONCLUSIVE) else EXIT_REFUTED)
    if args.output is not None:
        try:
            with open(args.output, "w") as fh:
                print(rendered, file=fh)
        except OSError as exc:
            return EXIT_USAGE, f"error: cannot write --output {args.output}: {exc.strerror or exc}"
    return code, error


def _write_stdout(text: str, what: str, end: str = "\n") -> tuple[int, Optional[str]]:
    """Print ``text`` to stdout and flush it: EXIT_OK and no error line, or
    EXIT_USAGE and the line for stderr, if there is one."""
    try:
        print(text, end=end, flush=True)
    except OSError as exc:
        # Point stdout at devnull so that the flush at interpreter shutdown
        # does not raise a second time.  A reader that went away (a closed
        # pipe) needs no message.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return EXIT_USAGE, None
        return EXIT_USAGE, f"error: cannot write {what} to stdout: {exc.strerror or exc}"
    return EXIT_OK, None


def _check_output_path(path: str) -> None:
    """Reject an --output path that cannot be written, before any computing."""
    if not path:
        raise UsageError("--output needs a file path, got an empty one")
    if os.path.isdir(path):
        raise UsageError(f"--output {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise UsageError(f"--output directory {parent} does not exist")


if __name__ == "__main__":
    sys.exit(main())
