"""Quick self-check of the benchmark, at tiny sizes.

Usage, from the root of a checkout (about a minute):

    python3 perfbench/selfcheck.py

Shows two things and exits 1 if either fails:

* every metric that ``BENCHMARK.json`` names is emitted with its unit, by a
  run with tracing off and one with tracing on, on each workload at a tiny
  size, and the honest tiny runs fail nothing;
* a forged ground truth with one altered trace, passed to ``verify-table1
  --ground-truth``, makes the oracle count a failure, so ``fail_rate`` rises.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

TINY = {
    "sweep": lambda seed: workloads.sweep(seed, max_denominator=12),
    "pipeline": lambda seed: workloads.pipeline(seed, b_max=200),
}


def check_metrics_emitted(spec: dict, tmp: Path) -> list[str]:
    problems = []
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in expected.items():
            bench = run.Bench(workload, 1, TINY[workload](1), tmp)
            values = run.measure(bench, seconds=0, trace=trace)
            units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
            if set(units) != set(names):
                problems.append(f"trace={int(trace)}: run.py emits {sorted(set(units) ^ set(names))} differently from BENCHMARK.json")
            for name, unit in names.items():
                if name not in values or units.get(name) != unit:
                    problems.append(f"{workload} trace={int(trace)}: {name} [{unit}] not emitted")
            problems += [f"{workload}: honest run failed: {r}" for r in bench.failures]
    return problems


def check_forged_ground_truth(tmp: Path) -> list[str]:
    table = json.loads((run.SRC / "torsion_packet" / "data" / "table1.json").read_text())
    row = table["records"][0]
    row["trace"] = str(int(row["trace"]) + 1)
    forged = tmp / "forged-table1.json"
    forged.write_text(json.dumps(table))
    bench = run.Bench("sweep", 1, workloads.sweep(1, max_denominator=12, ground_truth=str(forged)), tmp)
    bench.run_pass(traced=False)
    print(f"forged ground truth: fail_rate {bench.fail_rate():.4g} ({bench.failures})")
    if bench.fail_rate() == 0:
        return ["a ground truth with an altered trace did not raise fail_rate"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=run.ROOT))
    try:
        problems = check_metrics_emitted(spec, tmp) + check_forged_ground_truth(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
