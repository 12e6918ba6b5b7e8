"""Run the benchmark on several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

For every workload (all of BENCHMARK.json's by default) it runs
``run.py --trace 0`` once per seed and prints, per metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.
Raw results are appended as JSON lines to .perfbench_work/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = ROOT / ".perfbench_work" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    worst_ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(ROOT / spec["command"][1]), *spec["command"][2:],
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            with log.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
                worst_ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            bound = bounds[name]
            flag = "ok" if spread < bound / 3 else "WIDE"
            worst_ok &= flag == "ok" or name == "setup_s"
            print(f"  {name:18s} median {statistics.median(vals):12.6g}  Q1 {q1:12.6g}  Q3 {q3:12.6g}  "
                  f"spread {spread:6.2%}  bound {bound:.0%}  {flag}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
