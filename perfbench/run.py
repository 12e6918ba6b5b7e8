"""lingobf pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see NOTES.md for why each exists):

* ``generate-wide``  ``generate --per-problem 6`` then ``prompt``;
* ``score-deep``     ``score`` x2, ``bootstrap``, ``report --compare``;
* ``run-mock``       ``run --parallelism nproc`` resuming against the
                     benchmark's own endpoint process.

Each workload runs in a process of its own with a fixed PYTHONHASHSEED.
With ``--trace 0`` the set-up is repeated in two extra processes first and
``setup_s`` is the median of the three; the last process then makes the
timed passes.  With ``--trace 1`` one process makes untraced passes for
half the time and traced passes for the rest, and the per-layer metrics
come from the traced ones.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Everything is written
under ``.perfbench_work/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("generate-wide", "score-deep", "run-mock")
SETUP_RUNS = 3
RUN_BUDGET_S = 170  # the whole run, all workload processes included

# End-to-end metrics and their units; the worker reports each under the same name.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_tail_s": "s",
    "cpu_s": "s",
    "work_units_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def run_worker(workload: str, args, work: Path, setup_only: bool, deadline: float) -> tuple[list[str], dict]:
    """Run one workload process to its end; returns its info lines and its result.

    The process leads a process group of its own, so that on a timeout the
    endpoint it may have started is killed with it.
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=str(ROOT / "src"),
        NO_PROXY="127.0.0.1,localhost",
        NETRC=str(work / "no-netrc"),
    )
    argv = [
        sys.executable, str(HERE / "worker.py"), workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work),
    ]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--t0", repr(time.perf_counter())]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True,
                            encoding="utf-8", start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{workload} worker did not finish within {RUN_BUDGET_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        raise SystemExit(f"{workload} worker exited with code {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lingobf" / "cli.py").is_file():
        print(f"lingobf sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            _, result = run_worker(args.workload, args, work, True, deadline)
            setups.append(result["setup_s"])
    lines, result = run_worker(args.workload, args, work, False, deadline)
    setups.append(result["setup_s"])
    for line in lines:
        print(line)

    if args.trace:
        metrics = result["layers"]
    else:
        result["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(f"workload {args.workload}: {result['passes']} untraced passes, unit of work: {result['unit']}")
    if not args.trace:
        print(f"setup_s of {len(setups)} set-ups: {', '.join(f'{s:.4f}' for s in setups)}")
        print(f"wall_tail_s is p{result['wall_tail_pct']} of {result['passes']} passes")
    failed_frac = result["failed"] / result["attempted"]
    print(f"failed_frac = {failed_frac} [1] ({result['failed']} of {result['attempted']} operations)")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} [{metric['unit']}]")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
