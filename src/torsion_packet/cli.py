"""Command-line front end: every verification as a reproducible subcommand.

Each subcommand produces a Report (schema version 1) with a verdict in
{verified, refuted, inconclusive} and structured records, rendered as
text, JSON or CSV.  A ``cmd_*`` function returns its report with
elapsed_ms 0, a function of its arguments alone; ``_run`` stamps the
command's time in ms: its argument checks, lazy imports and computation,
not rendering or writing.

Records hold plain JSON values, angles as "p/q" (``tanratio.angle_str``),
the lambda of an admissible triple's integer row as ``parts_str`` writes
it, and a few exact types, handed over raw.  One function, ``_leaf``, is
the only encoder of those types: rationals and quadratic elements as
strings, cyclotomic elements as {m, coeffs}, the point at infinity as
"infinity".  It is the ``default=`` hook of the one JSON encoder, the C
encoder of CPython's ``_json``, built once at import, which keeps no state
between calls and encodes each record in one call; the text and CSV
renderers use it too.  The JSON layout puts one record per line.

Exit codes: 0 verified (or inconclusive: nothing checked failed),
1 refuted, 2 usage or I/O error (a closed output pipe included) or out
of memory, 3 internal arithmetic inconsistency or any other internal
error.  Only UsageError, raised here after checking arguments and input
files, and MemoryError, from parsing, computing, rendering or writing,
exit 2; a ValueError from the library is a bug and exits 3.

``main`` runs one command and returns its exit code; it is the entry of
the library, the tests and perfbench/tracechild.py, and never freezes
the garbage collector.  ``entry`` is the process entry point, of ``python -m
torsion_packet.cli`` and of the installed ``torsion-packet`` script: it
calls ``main``, then ``gc.freeze()``, then ``sys.exit``, so that the
collections the interpreter runs at exit skip every object that exists
by then.  Atexit handlers, the flush of stdout and stderr at shutdown and
the exit code are as without it.
"""

from __future__ import annotations

import _json
import argparse
import functools
import gc
import io
import os
import re
import sys
import time
from fractions import Fraction
from typing import Any, NamedTuple, NoReturn, Optional

from . import __version__
from .errors import ArithmeticInconsistencyError, UsageError
from .exactnum import CyclotomicElem, QuadraticElem, real_display, real_value, sign_of_real
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

# Every angle of the shipped Table 1 has denominator at most 12, so the
# table is recomputed from this bound up.
TABLE1_MAX_DENOMINATOR = 12


class Report(NamedTuple):
    """Machine-readable result of one subcommand run: ``elapsed_ms`` is 0
    as a ``cmd_*`` function returns it, until ``_run`` stamps its time."""

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
# afresh on every call, built once from the ``_json`` objects that
# ``json.encoder`` re-exports, so that the CLI does not import ``json``.
# Without ``markers`` (the circular check) it keeps no state between calls,
# so every call and thread shares it.  It takes no ``indent``, so the JSON
# layout below places its line breaks itself.
_c_encoder = _json.make_encoder(
    None, _leaf, _json.encode_basestring_ascii, None, ": ", ", ", False, False, True
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
# The shipped table is under 1 KiB.
_GROUND_TRUTH_MAX_CHARS = 1 << 20


def _clip(text: str) -> str:
    """``text``, cut to its first 40 characters and "..." when longer: how
    the loader echoes a bad value."""
    return text if len(text) <= 40 else text[:40] + "..."


def load_reference_rows(path: Optional[str] = None) -> list[dict[str, Any]]:
    """The shipped (or an explicit) ground-truth list of non-unit quadratic ratios.

    Raises ValueError, with a one-line message, when the file cannot be
    read, holds more than 1 MiB (2^20 characters; only that much plus one
    is read), is not JSON, or is not an object with ``schema_version`` 1 whose
    ``records`` list holds rows with the rationals ``alpha``, ``beta``,
    ``trace`` and ``norm``, the angles with 0 < alpha < beta < 1/2 (the
    check of ``tanratio.ratio``; no other angle arrives as text).  Each comes
    back as the display string of its ``Fraction``, so "2/24" reads "1/12".
    """
    import json

    from . import tanratio

    if path is None:
        source = "builtin ground truth"
        path = os.path.join(os.path.dirname(__file__), "data", "table1.json")
    else:
        source = f"ground truth {path}"
    try:
        with open(path, encoding="utf-8") as fh:
            data = fh.read(_GROUND_TRUTH_MAX_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {source}: {getattr(exc, 'strerror', None) or exc}") from exc
    if len(data) > _GROUND_TRUTH_MAX_CHARS:  # /dev/zero would otherwise fill the address space
        raise ValueError(f"{source} is larger than 1 MiB")
    try:
        payload = json.loads(data)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply to decode
        raise ValueError(f"{source} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer with more digits than int() reads (sys.get_int_max_str_digits)
        raise ValueError(f"{source} holds an integer too long to read") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{source} must be a JSON object with a 'records' list")
    version = payload.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"{source} has schema_version {_clip(repr(version))}, expected {SCHEMA_VERSION}")
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
            # Only "-1/3" or an integer: Fraction alone also reads 1e3, 0.5, 1_000 and " 7".
            bad = f"{source}: record {i} field {k} is not a rational: {_clip(repr(row[k]))}"
            if isinstance(row[k], str) and not re.fullmatch("-?[0-9]+(?:/[0-9]+)?", row[k]):
                raise ValueError(bad)
            try:
                row[k] = str(Fraction(row[k]))
            except ZeroDivisionError:
                raise ValueError(bad) from None
            except ValueError:  # more digits than int() reads (sys.get_int_max_str_digits)
                raise ValueError(f"{source}: record {i} field {k} holds a number too long to read") from None
        try:
            tanratio.ratio(*(Fraction(row[k]).as_integer_ratio() for k in ("alpha", "beta")))
        except ValueError:
            got = f"alpha = {_clip(row['alpha'])}, beta = {_clip(row['beta'])}"
            raise ValueError(f"{source}: record {i}: need 0 < alpha < beta < 1/2, got {got}") from None
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

    records = [
        {
            "alpha": tanratio.angle_str(alpha),
            "beta": tanratio.angle_str(beta),
            "degree": degree,
            "trace": poly.trace,
            "norm": poly.norm,
            "is_unit": poly.is_unit,
            "mu": str(real_value(mu, poly)) if degree <= 2 else tanratio.field_display(degree, alpha, beta),
            "mu_cyclotomic": mu,
        }
        for alpha, beta, poly, mu in tanratio.enumerate_ratios(degree, max_denominator, non_units_only)
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
    )


def cmd_verify_table1(
    max_denominator: int = TABLE1_MAX_DENOMINATOR,
    ground_truth_path: Optional[str] = None,
) -> Report:
    """Recompute the non-unit quadratic ratio list and diff it against the
    shipped ground truth."""
    if max_denominator < TABLE1_MAX_DENOMINATOR:
        raise UsageError(
            f"--max-denominator must be at least {TABLE1_MAX_DENOMINATOR} to cover the reference list,"
            f" got {max_denominator}"
        )
    from . import tanratio

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
        (tanratio.angle_str(alpha), tanratio.angle_str(beta), str(poly.trace), str(poly.norm))
        for alpha, beta, poly, _ in tanratio.normalized_nonunit_rows(max_denominator)
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
    )


def cmd_lshape(subcommand: str, b_max: int = 10_000) -> Report:
    """enumerate | unit-case | exclude over admissible (b, e) parameters.

    Only ``enumerate`` reads the bound ``b_max``: the unit case is a
    closed form, and the exclusion covers every admissible (b, e).
    """
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

        records = []
        for alpha, beta, poly, mu in tanratio.normalized_nonunit_rows(TABLE1_MAX_DENOMINATOR):
            value = real_value(mu, poly)
            candidates, matches = lshape.exclude_against_table1(value)
            records.append(
                {
                    "alpha": tanratio.angle_str(alpha),
                    "beta": tanratio.angle_str(beta),
                    "mu": value,
                    "candidates": candidates,
                    "matching_triples": [{"b": b, "e": e, "lambda": parts_str(*lam)} for b, e, *lam in matches],
                    "excluded": not matches,
                }
            )
        verdict = VERIFIED if all(rec["excluded"] for rec in records) and len(records) == 9 else REFUTED
        parameters["scope"] = "every admissible (b, e), since the norm of lambda + 1 fixes b"
    else:
        raise UsageError(f"unknown lshape subcommand {subcommand!r}")
    return Report(
        command=f"lshape {subcommand}",
        parameters=parameters,
        verdict=verdict,
        records=records,
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

    records = stablefiber.certify_stratum2()
    oks = [rec["ok"] for rec in records]

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

    # Each orbit builds one display string above degree 2, which its
    # members share; at most degree 2, ``tanratio.orbit_rows`` gives each
    # member its minimal polynomial and mu, and so its value.  The status
    # is the orbit's, decided once on the representative's row, which comes
    # first (i == 0): every member shares its unit status, the candidates
    # +-mu^(+-1) of every member have the same traces and norms, and a
    # non-unit matches at most one triple.
    divisors = [q for q in range(3, torsion_order + 1) if torsion_order % q == 0]
    outside = "not quadratic: outside the degree-2 height-ratio regime"
    handoffs = []

    def handoff(alpha, beta, shown, degree, status):
        handoffs.append(
            {
                "stage": "handoff",
                "A": alpha[0] * (torsion_order // alpha[1]),
                "B": beta[0] * (torsion_order // beta[1]),
                "alpha": tanratio.angle_str(alpha),
                "beta": tanratio.angle_str(beta),
                "mu": shown,
                "degree": degree,
                "status": status,
            }
        )

    for degree, _, members in tanratio.classify(divisors):
        if degree > 2:
            shown = tanratio.field_display(degree, *members[0][:2])
            for alpha, beta, _, _ in members:
                handoff(alpha, beta, shown, degree, outside)
            continue
        status = outside
        for i, (alpha, beta, poly, mu) in enumerate(tanratio.orbit_rows(degree, members)):
            value = real_value(mu, poly)
            if i == 0 and degree == 2 and poly.is_unit:
                status = "unit: pentagon/octagon regime, handled by known torsion"
            elif i == 0 and degree == 2:
                _, matches = lshape.exclude_against_table1(value)
                oks.append(not matches)
                matched = [f"(b={t[0]}, e={t[1]}, lambda={parts_str(*t[2:])})" for t in matches]
                status = f"matched admissible triples {matched}" if matches else "excluded by trace/norm matching"
            handoff(alpha, beta, str(value), degree, status)
    handoffs.sort(key=lambda rec: (rec["A"], rec["B"]))
    records += handoffs

    verdict = REFUTED if not all(oks) else VERIFIED if handoffs else INCONCLUSIVE
    return Report(
        command="stratum2",
        parameters={
            "torsion_order": torsion_order,
            "residue_convention": stablefiber.RESIDUE_CONVENTION,
        },
        verdict=verdict,
        records=records,
    )


def cmd_decagon(subcommand: str) -> Report:
    """verify | exclude-r | differential for the decagon degeneration."""
    params: dict[str, Any] = {"geometry_constants": dict(stablefiber.DECAGON_GEOMETRY)}
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
        params["residue_convention"] = stablefiber.RESIDUE_CONVENTION
        records = stablefiber.certify_decagon()
        verdict = VERIFIED if all(rec["ok"] for rec in records) else REFUTED
    else:
        raise UsageError(f"unknown decagon subcommand {subcommand!r}")
    return Report(
        command=f"decagon {subcommand}",
        parameters=params,
        verdict=verdict,
        records=records,
    )


def _sorted_reals(elems: list[CyclotomicElem]) -> list[CyclotomicElem]:
    """Real elements in ascending order, compared by exact signs."""
    return sorted(elems, key=functools.cmp_to_key(lambda a, b: sign_of_real(a - b)))


# --------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that keeps its help and version text in ``shown``,
    shared with its subparsers, for ``main`` to write: argparse would drop
    a failed write, and swapping sys.stdout would mix concurrent calls."""

    def __init__(self, *args, shown: list[str], **kwargs):
        super().__init__(*args, **kwargs)
        self.shown = shown

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            self.shown.append(message)
        else:
            super()._print_message(message, file)


def _build_parser(shown: list[str]) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torsion-packet",
        description="Exact verification of periodic-point exclusion arguments in genus two.",
        shown=shown,
    )
    parser.add_argument("--version", action="version", version=f"torsion-packet {__version__}")
    sub = parser.add_subparsers(
        dest="subcommand", required=True, parser_class=functools.partial(_Parser, shown=shown)
    )

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
    p.add_argument("--max-denominator", type=int, default=TABLE1_MAX_DENOMINATOR)
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
    shown: list[str] = []
    try:
        try:
            # A usage error exits 2; --help and --version exit 0 once their
            # text, which the parser leaves in ``shown``, is written.
            args = _build_parser(shown).parse_args(argv)
        except SystemExit as exc:
            status, error = _write_stdout("".join(shown), "the help or version text", end="")
            code = status or int(exc.code or 0)
        else:
            code, error = _run(args)
    except MemoryError:
        # From parsing or from writing the help or version text; ``_run``
        # reports its own.  Handled in place, as there.
        code, error = EXIT_USAGE, "error: torsion-packet ran out of memory"
    if error is not None and sys.stderr is not None:
        try:
            print(error, file=sys.stderr, flush=True)
        except OSError:
            # stderr is closed or full, so the exit code alone reports the
            # error.  Point stderr at devnull so that the flush at
            # interpreter shutdown does not fail and change that code.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stderr.fileno())
            os.close(devnull)
    return code


def entry(argv: Optional[list[str]] = None) -> NoReturn:
    """Run ``main`` and exit the process with its code.

    ``gc.freeze()`` moves every object then alive into the permanent
    generation, which the full collections at interpreter exit skip;
    freeing cyclic garbage at exit is all that is left out.  That takes
    the time from ``main``'s return to the process's end from 8.2 ms to
    2.3 ms (README).  Not ``os._exit``: it would skip atexit handlers and
    the final flush of stdout, whose failure must still exit 2.
    """
    code = main(argv)
    gc.freeze()
    sys.exit(code)


def _run(args: argparse.Namespace) -> tuple[int, Optional[str]]:
    """Run a parsed command and write its report: the exit code, and the
    one line for stderr, if there is one."""
    try:
        if args.output is not None:
            _check_output_path(args.output)
        start = time.perf_counter()
        report = args.run(args)._replace(elapsed_ms=_ms_since(start))
        rendered = render(report, args.format)
        status, error = _write_stdout(rendered, "the report")
        if args.output is not None:
            try:
                with open(args.output, "w") as fh:
                    print(rendered, file=fh)
            except OSError as exc:
                return EXIT_USAGE, f"error: cannot write --output {args.output}: {exc.strerror or exc}"
    except ArithmeticInconsistencyError as exc:
        return EXIT_INTERNAL, f"internal arithmetic inconsistency: {exc}"
    except UsageError as exc:
        return EXIT_USAGE, f"error: {exc}"
    except MemoryError:
        # The environment, not a bug.  Handled here, not raised on: under
        # an address-space limit, CPython 3.11 lost a MemoryError raised
        # again from this frame and failed with a SystemError instead.
        return EXIT_USAGE, f"error: {args.subcommand} ran out of memory"
    except Exception as exc:
        message = " ".join(str(exc).split())
        return EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {message}"
    return status or (EXIT_OK if report.verdict in (VERIFIED, INCONCLUSIVE) else EXIT_REFUTED), error


def _ms_since(start: float) -> int:
    return max(0, round((time.perf_counter() - start) * 1000))


def _write_stdout(text: str, what: str, end: str = "\n") -> tuple[int, Optional[str]]:
    """Print ``text`` to stdout and flush it: EXIT_OK and no error line, or
    EXIT_USAGE and the line for stderr, if there is one.  A MemoryError
    is raised again, for the caller to report."""
    try:
        print(text, end=end, flush=True)
    except (OSError, MemoryError) as exc:
        # Point stdout at devnull so that the flush at interpreter shutdown
        # does not raise a second time.  A reader that went away (a closed
        # pipe) needs no message.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, MemoryError):
            raise
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
    entry()
