"""Run one torsion-packet CLI command with call tracing, in its own process.

Usage: python tracechild.py SPANS_OUT PASS_ID CLI_ARG...

Wraps the public functions of each module named in ``TARGETS`` (no file of
the package changes), runs ``torsion_packet.cli.main(CLI_ARGS)`` so that the
report goes to stdout as usual, and writes what it recorded as JSON to
SPANS_OUT when the command ends:

* ``agg``: one row per (name, parent name): calls, inclusive busy seconds
  and self seconds (busy minus the busy time of wrapped calls inside it);
* ``spans``: [name, start, end, parent index] for every call of a name not
  in ``HOT``, the parent being the nearest recorded enclosing span;
* ``counters``: ``tanratio.pairs_scanned`` and ``cli.render.bytes`` (the
  rendered report's bytes without the digits of ``elapsed_ms``).

Names bound by ``from .x import f`` are patched in every module of the
package that holds the same object, so calls through any alias are seen.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, metric name).  "Class.method" patches the class.
TARGETS = (
    ("torsion_packet.exactnum.cyclotomic", "CyclotomicElem.__mul__", "exactnum.cyclotomic.mul"),
    ("torsion_packet.exactnum.cyclotomic", "CyclotomicElem.inverse", "exactnum.cyclotomic.inverse"),
    ("torsion_packet.exactnum.cyclotomic", "galois_apply", "exactnum.cyclotomic.galois_apply"),
    ("torsion_packet.exactnum.cyclotomic", "minimal_polynomial", "exactnum.cyclotomic.minimal_polynomial"),
    ("torsion_packet.exactnum.quadratic", "squarefree_part", "exactnum.quadratic.squarefree_part"),
    ("torsion_packet.exactnum.quadratic", "QuadraticElem.__init__", "exactnum.quadratic.elem_init"),
    ("torsion_packet.exactnum.signs", "sign_of_real", "exactnum.signs.sign_of_real"),
    ("torsion_packet.tanratio", "enumerate_ratios", "tanratio.enumerate_ratios"),
    ("torsion_packet.tanratio", "ratio", "tanratio.ratio"),
    ("torsion_packet.tanratio", "normalize_by_galois", "tanratio.normalize_by_galois"),
    ("torsion_packet.lshape", "enumerate_triples", "lshape.enumerate_triples"),
    ("torsion_packet.lshape", "make_triple", "lshape.make_triple"),
    ("torsion_packet.lshape", "trace_norm_lambda_plus_one", "lshape.trace_norm_lambda_plus_one"),
    ("torsion_packet.lshape", "exclude_against_table1", "lshape.exclude_against_table1"),
    ("torsion_packet.stablefiber", "symbolic_xy", "stablefiber.symbolic_xy"),
    ("torsion_packet.stablefiber", "differential_space", "stablefiber.differential_space"),
    ("torsion_packet.stablefiber", "solve_torsion_pairs", "stablefiber.solve_torsion_pairs"),
    ("torsion_packet.stablefiber", "decagon_r_sets", "stablefiber.decagon_r_sets"),
    ("torsion_packet.cli", "render", "cli.render"),
    ("torsion_packet.cli", "cmd_tangent_ratios", "cli.cmd"),
    ("torsion_packet.cli", "cmd_verify_table1", "cli.cmd"),
    ("torsion_packet.cli", "cmd_lshape", "cli.cmd"),
    ("torsion_packet.cli", "cmd_stratum2", "cli.cmd"),
    ("torsion_packet.cli", "cmd_decagon", "cli.cmd"),
)

# Names called up to hundreds of thousands of times in one command: they are
# counted and timed in ``agg`` but get no span record of their own.
HOT = frozenset(
    {
        "exactnum.cyclotomic.mul",
        "exactnum.cyclotomic.galois_apply",
        "exactnum.quadratic.squarefree_part",
        "tanratio.ratio",
        "lshape.make_triple",
        "lshape.trace_norm_lambda_plus_one",
    }
)

# Names only counted, in one ``agg`` row with no parent and no time: 400k
# calls in one command, whose timing would add about as much overhead as all
# the other wrappers together.
COUNT_ONLY = frozenset({"exactnum.quadratic.elem_init"})


class Tracer:
    """Call spans kept in memory for one process."""

    def __init__(self):
        self.stack: list[list] = []  # open calls: [name, child busy, span ref]
        self.agg: dict[tuple[str, str | None], list] = {}
        self.spans: list = []
        self.counters = {"tanratio.pairs_scanned": 0, "cli.render.bytes": 0}

    def wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self._count(name, fn)
        record = name not in HOT
        stack, agg, spans = self.stack, self.agg, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_ref = parent[2] if parent else None
            if record:
                ref = len(spans)
                spans.append(None)
            else:
                ref = parent_ref
            frame = [name, 0.0, ref]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                busy = end - start
                if parent is not None:
                    parent[1] += busy
                key = (name, parent[0] if parent else None)
                row = agg.get(key)
                if row is None:
                    row = agg[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += busy
                row[2] += busy - frame[1]
                if record:
                    spans[ref] = (name, start, end, parent_ref)

        return traced

    def _count(self, name: str, fn):
        row = self.agg[(name, None)] = [0, 0.0, 0.0]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            row[0] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str, pass_id: str, argv: list[str]) -> None:
        payload = {
            "pass": pass_id,
            "argv": argv,
            "agg": [[n, p, *row] for (n, p), row in self.agg.items()],
            "spans": self.spans,
            "counters": self.counters,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _counting_extras(tracer: Tracer, tanratio, cli) -> dict:
    """Replacements that also feed the two counters, keyed by the original."""
    angles_up_to = tanratio.angles_up_to
    enumerate_ratios = tanratio.enumerate_ratios
    render = cli.render

    def enumerate_ratios_counted(degree_target, max_denominator, *args, **kwargs):
        n = len(angles_up_to(max_denominator)) if max_denominator >= 3 else 0
        tracer.counters["tanratio.pairs_scanned"] += n * (n - 1) // 2
        return enumerate_ratios(degree_target, max_denominator, *args, **kwargs)

    def render_counted(report, fmt):
        text = render(report, fmt)
        # The digits of elapsed_ms (in text and JSON reports) vary from run
        # to run; leaving them out makes the count repeat exactly.
        timing_digits = len(str(report.elapsed_ms)) if fmt != "csv" else 0
        tracer.counters["cli.render.bytes"] += len(text.encode()) - timing_digits
        return text

    return {enumerate_ratios: enumerate_ratios_counted, render: render_counted}


def install(tracer: Tracer) -> None:
    """Patch every target, under every name that binds it in the package."""
    import torsion_packet.cli as cli
    import torsion_packet.tanratio as tanratio

    extras = _counting_extras(tracer, tanratio, cli)
    package = [m for n, m in sys.modules.items() if n.split(".")[0] == "torsion_packet"]
    for module_name, attr, name in TARGETS:
        owner = sys.modules[module_name]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[leaf]
        wrapper = tracer.wrap(name, extras.get(original, original))
        holders = [owner] if path else package
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)


def main() -> int:
    spans_out, pass_id, *argv = sys.argv[1:]
    tracer = Tracer()
    install(tracer)
    import torsion_packet.cli as cli

    code = cli.main(argv)
    sys.stdout.flush()
    tracer.dump(spans_out, pass_id, argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
