"""Benchmark of the torsion-packet command line, run as a user runs it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,pipeline} --seed N \\
        --seconds S --trace {0,1}

Every CLI command runs in a fresh interpreter, one child process at a time,
from this single parent process; the package is imported from ``src/``.
Set-up imports the CLI once, untimed, which also writes the bytecode cache.
Then:

* ``--trace 0`` repeats passes of the workload for about S seconds and reports
  the end-to-end metrics: ``wall_s`` (median pass, process start to exit of
  every command), ``setup_s`` (median of the set-up probes run before each
  pass, each a fresh interpreter that imports ``torsion_packet.cli`` and
  exits) and ``peak_rss_mb`` (median over passes of the largest child peak
  RSS, from ``os.wait4``).
* ``--trace 1`` alternates untraced passes with passes whose children run
  ``tracechild.py`` under ``-X importtime``, then runs the seeded exactnum
  micro-benchmarks, and reports the per-layer metrics.  The spans are written
  to ``.perfbench_out/trace-<workload>-seed<N>.json``.

Every command's exit code and verdict are checked by the oracle in
``workloads.py``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit, quartiles and sample count, the failure rate,
and the provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Optional

from workloads import WORKLOADS, Command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBE = [sys.executable, "-c", "import torsion_packet.cli"]
# Probes before each pass: spread over the run, their median follows the
# machine's speed over the whole run rather than over its first second.
SETUP_PROBES_PER_PASS = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Traced names whose call count, resp. inclusive busy time, is a metric.
CALLS = (
    "exactnum.cyclotomic.mul",
    "exactnum.cyclotomic.galois_apply",
    "exactnum.cyclotomic.inverse",
    "exactnum.cyclotomic.minimal_polynomial",
    "exactnum.quadratic.squarefree_part",
    "exactnum.quadratic.elem_init",
    "exactnum.signs.sign_of_real",
    "lshape.make_triple",
)
BUSY = (
    "exactnum.cyclotomic.mul",
    "exactnum.cyclotomic.galois_apply",
    "exactnum.cyclotomic.inverse",
    "exactnum.cyclotomic.minimal_polynomial",
    "exactnum.quadratic.squarefree_part",
    "exactnum.signs.sign_of_real",
    "tanratio.enumerate_ratios",
    "tanratio.normalize_by_galois",
    "lshape.enumerate_triples",
    "lshape.trace_norm_lambda_plus_one",
    "lshape.exclude_against_table1",
    "stablefiber.symbolic_xy",
    "stablefiber.differential_space",
    "stablefiber.solve_torsion_pairs",
    "stablefiber.decagon_r_sets",
    "cli.cmd",
    "cli.render",
)
MICRO = (
    "exactnum.cyclotomic.mul_us.m24",
    "exactnum.cyclotomic.mul_us.m120",
    "exactnum.cyclotomic.mul_us.m240",
    "exactnum.cyclotomic.inverse_us.m24",
    "exactnum.cyclotomic.inverse_us.m120",
    "exactnum.cyclotomic.inverse_us.m240",
    "exactnum.cyclotomic.galois_us.m120",
    "exactnum.quadratic.mul_us",
    "exactnum.signs.sign_us.m20",
)
PER_LAYER_UNITS = {
    **{f"{n}.calls": "count" for n in CALLS},
    **{f"{n}.busy_s": "s" for n in BUSY},
    "tanratio.pairs_scanned": "count",
    "tanratio.ratio.calls": "count",
    "tanratio.kept_per_scanned": "ratio",
    "cli.render.bytes": "bytes",
    "process.import.mpmath_s": "s",
    "process.import.sympy_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
    **{n: "us" for n in MICRO},
}

IMPORTS = {"mpmath": "process.import.mpmath_s", "sympy": "process.import.sympy_s"}


class SetupError(Exception):
    """The checkout cannot run the CLI; no result is printed."""


@dataclass
class Child:
    code: int
    out: str
    err: str
    wall_s: float
    rss_mb: float
    cpu_s: float


def spawn(argv: list[str], env: dict[str, str], tmp: Path) -> Child:
    """Run one child to completion; its rusage comes from os.wait4."""
    with tempfile.TemporaryFile(dir=tmp) as out, tempfile.TemporaryFile(dir=tmp) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            code=proc.returncode,
            out=out.read().decode(errors="replace"),
            err=err.read().decode(errors="replace"),
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024,
            cpu_s=usage.ru_utime + usage.ru_stime,
        )


@dataclass
class Pass:
    wall_s: float
    rss_mb: float
    cpu_s: float
    layers: Optional[dict[str, float]] = None  # traced passes only


class Bench:
    """One benchmark run: the workload's commands and the oracle's tally."""

    def __init__(self, workload: str, seed: int, commands: list[Command], tmp: Path):
        self.workload = workload
        self.seed = seed
        self.commands = commands
        self.tmp = tmp
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        # Fixed hashing makes every traced call count repeat exactly.
        self.env["PYTHONHASHSEED"] = "0"
        self.attempted = 0
        self.failures: list[str] = []
        self.traces: list[dict] = []
        self.self_s: dict[str, float] = {}  # summed over traced passes

    def fail_rate(self) -> float:
        return len(self.failures) / self.attempted

    def warm_up(self) -> None:
        """Import the CLI once, untimed; this also writes the bytecode cache."""
        child = spawn(SETUP_PROBE, self.env, self.tmp)
        if child.code != 0:
            raise SetupError(f"cannot import torsion_packet.cli from {SRC}:\n{child.err}")

    def setup_probe(self) -> float:
        """Wall time of a fresh interpreter that imports the CLI and exits."""
        return spawn(SETUP_PROBE, self.env, self.tmp).wall_s

    def run_pass(self, traced: bool) -> Pass:
        pass_id = f"{self.workload}-seed{self.seed}-p{self.attempted // len(self.commands)}"
        children, spans_files = [], []
        for i, cmd in enumerate(self.commands):
            if traced:
                spans = self.tmp / f"{pass_id}-{i}.json"
                spans_files.append(spans)
                argv = [sys.executable, "-X", "importtime", str(HERE / "tracechild.py"), str(spans), pass_id, *cmd.args]
            else:
                argv = [sys.executable, "-m", "torsion_packet.cli", *cmd.args]
            children.append(spawn(argv, self.env, self.tmp))
        for cmd, child in zip(self.commands, children):
            self.attempted += 1
            reason = check(cmd, child)
            if reason:
                self.failures.append(f"{' '.join(cmd.args)}: {reason}")
        result = Pass(
            wall_s=sum(c.wall_s for c in children),
            rss_mb=max(c.rss_mb for c in children),
            cpu_s=sum(c.cpu_s for c in children),
        )
        if traced:
            result.layers = self.collect_trace(pass_id, children, spans_files)
        return result

    def collect_trace(self, pass_id: str, children: list[Child], spans_files: list[Path]) -> dict[str, float]:
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        kept = 0
        counters = {"tanratio.pairs_scanned": 0, "cli.render.bytes": 0}
        imports = dict.fromkeys(IMPORTS.values(), 0.0)
        records = []
        for cmd, child, path in zip(self.commands, children, spans_files):
            record = {"args": list(cmd.args), "wall_s": child.wall_s, "rss_mb": child.rss_mb, "cpu_s": child.cpu_s}
            for module, seconds in import_times(child.err).items():
                imports[IMPORTS[module]] += seconds
                record[IMPORTS[module]] = seconds
            if path.exists():
                trace = json.loads(path.read_text())
                for name, parent, n, inclusive, own in trace["agg"]:
                    calls[name] = calls.get(name, 0) + n
                    self.self_s[name] = self.self_s.get(name, 0.0) + own
                    if parent != name:
                        busy[name] = busy.get(name, 0.0) + inclusive
                    if name == "tanratio.ratio" and parent == "tanratio.enumerate_ratios":
                        kept += n
                for key, value in trace["counters"].items():
                    counters[key] += value
                record.update(trace)
            records.append(record)
        self.traces.append({"pass": pass_id, "commands": records})
        layers = {f"{n}.calls": calls.get(n, 0) for n in CALLS}
        layers.update({f"{n}.busy_s": busy.get(n, 0.0) for n in BUSY})
        layers.update(counters)
        layers.update(imports)
        scanned = counters["tanratio.pairs_scanned"]
        layers["tanratio.ratio.calls"] = kept
        layers["tanratio.kept_per_scanned"] = kept / scanned if scanned else 0.0
        return layers

    def micro(self) -> dict[str, float]:
        child = spawn([sys.executable, str(HERE / "micro.py"), str(self.seed)], self.env, self.tmp)
        if child.code != 0:
            raise SetupError(f"micro-benchmarks failed:\n{child.err}")
        return json.loads(child.out.splitlines()[-1])


def check(cmd: Command, child: Child) -> Optional[str]:
    try:
        reason = cmd.check(child.code, child.out)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        reason = f"unreadable report ({type(exc).__name__}: {exc})"
    if reason and child.err.strip():
        reason += f"; stderr: {child.err.strip().splitlines()[-1]}"
    return reason


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the top-level imports named in IMPORTS, from
    ``-X importtime`` lines: ``import time: self [us] | cumulative | name``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        # A module is imported once per process, so its one line is the cost.
        if len(parts) == 3 and parts[2].strip() in IMPORTS:
            try:
                out[parts[2].strip()] = int(parts[1]) / 1e6
            except ValueError:
                continue
    return out


def git_commit() -> Optional[str]:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    def version(dist: str) -> Optional[str]:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": git_commit(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": version("mpmath"),
        "sympy": version("sympy"),
        "measured": "only this benchmark's own child processes (wall clock, os.wait4 rusage, "
        "-X importtime, in-process call wrappers); no system-wide tracing",
    }


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"min {min(values):.4g}, q1 {q1:.4g}, q3 {q3:.4g}, n={len(values)}"


def measure(bench: Bench, seconds: float, trace: bool) -> dict[str, float]:
    bench.warm_up()
    start = time.perf_counter()
    setup: list[float] = []
    plain: list[Pass] = []
    traced: list[Pass] = []
    rounds: list[float] = []
    while True:
        round_start = time.perf_counter()
        if not trace:
            setup += [bench.setup_probe() for _ in range(SETUP_PROBES_PER_PASS)]
        plain.append(bench.run_pass(traced=False))
        if trace:
            traced.append(bench.run_pass(traced=True))
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break

    walls = [p.wall_s for p in plain]
    if not trace:
        rss = [p.rss_mb for p in plain]
        print(f"wall_s       {statistics.median(walls):.4f} s   median pass ({spread(walls)})")
        print(f"setup_s      {statistics.median(setup):.4f} s   median import probe ({spread(setup)})")
        print(f"peak_rss_mb  {statistics.median(rss):.2f} MB  median over passes of the largest child ({spread(rss)})")
        return {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss),
        }

    layers = {k: statistics.median(p.layers[k] for p in traced) for k in traced[0].layers}
    traced_wall = statistics.median(p.wall_s for p in traced)
    layers["process.cpu_s"] = statistics.median(p.cpu_s for p in plain)
    layers["trace.overhead_s"] = traced_wall - statistics.median(walls)
    layers.update(bench.micro())
    print(
        f"tracing overhead {layers['trace.overhead_s']:.4f} s: traced wall_s {traced_wall:.4f} s "
        f"({len(traced)} passes) minus untraced {statistics.median(walls):.4f} s ({len(walls)} passes)"
    )
    for name, unit in PER_LAYER_UNITS.items():
        print(f"{name:48s} {layers[name]:.6g} {unit}")
    print("self time per traced pass (span minus wrapped calls inside it):")
    for name, own in sorted(bench.self_s.items(), key=lambda kv: -kv[1])[:8]:
        print(f"  {name:46s} {own / len(traced):.4f} s")
    write_trace(bench)
    return layers


def write_trace(bench: Bench) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{bench.workload}-seed{bench.seed}.json"
    payload = {"provenance": provenance(bench.seed), "workload": bench.workload, "passes": bench.traces}
    path.write_text(json.dumps(payload))
    print(f"spans written to {path.relative_to(ROOT)}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # On SIGTERM, unwind: the running child is killed and the scratch
    # directory removed (see spawn and the finally clause below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "torsion_packet" / "cli.py").is_file():
        print(f"error: {SRC / 'torsion_packet'} not found; run from a torsion-packet checkout", file=sys.stderr)
        return 2
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        bench = Bench(args.workload, args.seed, WORKLOADS[args.workload](args.seed), tmp)
        print(f"workload {args.workload}: " + " | ".join(" ".join(c.args) for c in bench.commands))
        print("provenance " + json.dumps(provenance(args.seed)))
        values = measure(bench, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = len(bench.failures)
    for reason in bench.failures:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"fail_rate    {bench.fail_rate():.4g} ratio  {failed} of {bench.attempted} commands failed")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
