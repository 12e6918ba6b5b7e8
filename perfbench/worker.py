"""One workload process: set-up, warm-up, timed passes and output checks.

    python3 worker.py WORKLOAD --seed N --seconds S --trace 0|1 --work DIR --t0 T [--setup-only]

``--t0`` is the ``time.perf_counter()`` reading the parent took just before
starting this process (the clock is system-wide on Linux), so ``setup_s``
counts interpreter start-up too.  Every pass drives the program only
through ``lingobf.cli.main(argv)``, reads its inputs from files and writes
into a fresh directory.  Between passes, outside timing, the worker runs
``gc.collect()``, digests and checks the pass outputs, and deletes them.
The last line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import corpusgen  # noqa: E402
import endpoint as bench_endpoint  # noqa: E402
import tracing  # noqa: E402
from lingobf import cli, obfuscate, rulesets  # noqa: E402
from lingobf.rng import stream  # noqa: E402

NPROC = len(os.sched_getaffinity(0))


class PassFailed(Exception):
    """A CLI call in a pass did not succeed."""


def run_cli(*argv: str) -> tuple[str, str]:
    """One in-process CLI call; returns its (stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise PassFailed(f"lingobf {argv[0]} exited {code}: {err.getvalue()[-500:]}")
    return out.getvalue(), err.getvalue()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def same_float(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


class Workload:
    """Defaults shared by the workloads; each overrides what it needs."""

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def prepare(self, out: Path) -> None:
        """Untimed, before each pass: make the pass's fresh output directory."""
        out.mkdir(parents=True)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# generate-wide


class GenerateWide(Workload):
    """``generate --per-problem 6`` then ``prompt`` over a corpus of distinct rulesets.

    The corpus has more problems than the program's 64-entry per-ruleset
    matcher cache, so no ruleset stays cached from one pass to the next,
    as in a fresh CLI call.
    """

    unit = "dataset records"
    PROBLEMS = 72
    PER_PROBLEM = 6
    SCALE = 3

    def setup(self) -> None:
        self.corpus = self.work / "corpus"
        self.specs = corpusgen.write_corpus(
            self.corpus, self.seed, self.PROBLEMS, min_cycles=self.PER_PROBLEM, scale=self.SCALE
        )
        variants = self.PER_PROBLEM + 1
        self.expected_counts = {
            "problems": len(self.specs),
            "variants": len(self.specs) * variants,
            "records": variants * sum(len(s.questions) for s in self.specs),
            "pairs": variants * sum(len(q) for s in self.specs for q in s.questions),
        }

    def run_pass(self, out: Path) -> int:
        run_cli("generate", str(self.corpus), "--out", str(out / "dataset"),
                "--per-problem", str(self.PER_PROBLEM), "--seed", str(self.seed))
        run_cli("prompt", str(out / "dataset"), "--out", str(out / "prompts.jsonl"))
        return self.expected_counts["records"]

    def digests(self, out: Path) -> dict[str, str]:
        return {
            "records.jsonl": sha256(out / "dataset" / "records.jsonl"),
            "manifest.json": sha256(out / "dataset" / "manifest.json"),
            "prompts.jsonl": sha256(out / "prompts.jsonl"),
        }

    def check(self, out: Path) -> list[str]:
        errors = []
        manifest = json.loads((out / "dataset" / "manifest.json").read_text(encoding="utf-8"))
        for key, value in self.expected_counts.items():
            if manifest.get(key) != value:
                errors.append(f"manifest {key} = {manifest.get(key)}, generator predicts {value}")
        if len(manifest.get("maps", {})) != len(self.specs) * self.PER_PROBLEM:
            errors.append(f"manifest lists {len(manifest.get('maps', {}))} sampled maps")
        prompt_lines = (out / "prompts.jsonl").read_text(encoding="utf-8").splitlines()
        if len(prompt_lines) != self.expected_counts["records"]:
            errors.append(f"{len(prompt_lines)} prompts for {self.expected_counts['records']} records")

        golds: dict[tuple[str, int, int], dict] = {}
        for line in (out / "dataset" / "records.jsonl").read_text(encoding="utf-8").splitlines():
            r = json.loads(line)
            golds[(r["problem_id"], r["p"], r["question_index"])] = {
                key: (answer, tuple(r.get("alternates", {}).get(key, ())))
                for key, answer in r["answers"].items()
            }
        for spec in self.specs:
            for j, plain in enumerate(spec.plain_answers):
                original = golds.get((spec.problem_id, 0, j), {})
                for key, texts in plain.items():
                    got = original.get(key)
                    if got is None or (got[0], *got[1]) != texts:
                        errors.append(f"{spec.problem_id}:p0:q{j}.{key}: rendered {got!r}, source says {texts!r}")
            ruleset = rulesets.load_ruleset(self.corpus / spec.problem_id / "ruleset.json")
            for p in range(1, self.PER_PROBLEM + 1):
                entry = manifest["maps"].get(f"{spec.problem_id}:p{p}")
                if entry is None:
                    errors.append(f"{spec.problem_id}:p{p} has no map in the manifest")
                    continue
                inverse = rulesets.invert(
                    rulesets.PermutationMap(pairs=entry["pairs"], ruleset_id=ruleset.ident)
                )
                for j, subs in enumerate(spec.questions):
                    original = golds.get((spec.problem_id, 0, j))
                    variant = golds.get((spec.problem_id, p, j))
                    if original is None or variant is None:
                        errors.append(f"{spec.problem_id}:p{p}:q{j} missing from records")
                        continue
                    for key, problemese in subs:
                        for got, want in zip((variant[key][0], *variant[key][1]),
                                             (original[key][0], *original[key][1])):
                            back = obfuscate.apply(inverse, got, ruleset) if problemese else got
                            if back != want:
                                errors.append(
                                    f"{spec.problem_id}:p{p}:q{j}.{key}: {got!r} maps back to {back!r}, not {want!r}"
                                )
        return errors

    def layer_extras(self, out: Path, info: dict) -> dict[str, float]:
        dataset = out / "dataset"
        return {
            "corpus.bytes_written": (dataset / "records.jsonl").stat().st_size
            + (dataset / "manifest.json").stat().st_size,
            "prompts.bytes_written": (out / "prompts.jsonl").stat().st_size,
        }


# ---------------------------------------------------------------------------
# score-deep


class ScoreDeep(Workload):
    """``score`` for two planted runs, ``bootstrap`` and ``report --compare``.

    Rendering happens only in set-up.  Each response is planted: empty,
    unparseable, or JSON whose keys are each right, wrong or missing.
    """

    unit = "score cells"
    PROBLEMS = 20
    PER_PROBLEM = 40
    SCALE = 1
    SETS = 2000
    MODELS = ("model-a", "model-b")
    # (share of right, share of missing) among parsed keys, at p = 0 and p >= 1.
    SKILL = {"model-a": ((0.85, 0.05), (0.35, 0.1)), "model-b": ((0.6, 0.1), (0.5, 0.1))}

    def setup(self) -> None:
        corpus = self.work / "corpus"
        corpusgen.write_corpus(
            corpus, self.seed, self.PROBLEMS, min_cycles=self.PER_PROBLEM, scale=self.SCALE
        )
        self.dataset = self.work / "dataset"
        run_cli("generate", str(corpus), "--out", str(self.dataset),
                "--per-problem", str(self.PER_PROBLEM), "--seed", str(self.seed))
        records = [
            json.loads(line)
            for line in (self.dataset / "records.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        self.cells = 0
        self.expected: dict[str, dict[str, list]] = {}
        self.planted_errors: dict[str, dict[str, int]] = {}
        for model in self.MODELS:
            run_dir = self.work / model
            run_dir.mkdir()
            scores: dict[str, list] = {}
            errors = {"total": 0, "empty": 0, "bad_parsing": 0}
            lines = []
            for r in records:
                prompt_id = f"{r['problem_id']}:p{r['p']}:q{r['question_index']}"
                rng = random.Random(f"{self.seed}:{model}:{prompt_id}")
                right_share, missing_share = self.SKILL[model][r["p"] > 0]
                roll = rng.random()
                row = []
                if roll < 0.06:
                    status, raw, parsed = "empty", "", None
                elif roll < 0.12:
                    status, raw, parsed = "bad_parsing", "no idea", None
                else:
                    status, parsed = "ok", {}
                    for sub in r["subquestions"]:
                        gold = r["answers"][sub["key"]]
                        pick = rng.random()
                        if pick < right_share:
                            parsed[sub["key"]] = f"  {gold} " if rng.random() < 0.2 else gold
                        elif pick < right_share + missing_share:
                            continue
                        else:
                            parsed[sub["key"]] = f"not {gold}"
                    raw = json.dumps(parsed, ensure_ascii=False)
                for sub in r["subquestions"]:
                    right = parsed is not None and parsed.get(sub["key"], "").strip() == r["answers"][sub["key"]]
                    row.append(int(right))
                scores.setdefault(r["problem_id"], []).append((r["p"], r["question_index"], row))
                errors["total"] += 1
                if status != "ok":
                    errors[status] += 1
                lines.append(json.dumps({
                    "prompt_id": prompt_id, "status": status, "raw_text": raw, "parsed": parsed,
                    "attempts": 1, "latency_ms": 1.0, "timestamp": "2026-01-01T00:00:00+00:00",
                }, ensure_ascii=False, sort_keys=True))
                self.cells += len(row)
            (run_dir / "records.jsonl").write_text("".join(l + "\n" for l in lines), encoding="utf-8")
            (run_dir / "manifest.json").write_text(
                json.dumps({"schema_version": 1, "endpoint": model, "prompts": len(lines)}) + "\n",
                encoding="utf-8",
            )
            tensor = {}
            for problem_id, cells in scores.items():
                P = max(p for p, _, _ in cells)
                grid = [[None] * (1 + max(j for _, j, _ in cells)) for _ in range(P + 1)]
                for p, j, row in cells:
                    grid[p][j] = row
                tensor[problem_id] = grid
            self.expected[model] = dict(sorted(tensor.items()))
            self.planted_errors[model] = errors

    def run_pass(self, out: Path) -> int:
        scores = {m: out / f"scores-{m}.json" for m in self.MODELS}
        for model in self.MODELS:
            run_cli("score", "--run", str(self.work / model), "--dataset", str(self.dataset),
                    "--out", str(scores[model]))
        _, err = run_cli("bootstrap", "--scores", str(scores["model-a"]), "--sets", str(self.SETS),
                         "--seed", str(self.seed), "--out", str(out / "bootstrap.csv"))
        (out / "bootstrap.stderr").write_text(err, encoding="utf-8")
        run_cli("report", "--scores", str(scores["model-a"]), "--out", str(out / "report"),
                "--run", str(self.work / "model-a"),
                *(arg for m in self.MODELS for arg in ("--compare", f"{m}={scores[m]}")))
        return self.cells

    def digests(self, out: Path) -> dict[str, str]:
        files = [f"scores-{m}.json" for m in self.MODELS] + ["bootstrap.csv"]
        files += [f"report/{p.name}" for p in sorted((out / "report").iterdir())]
        return {name: sha256(out / name) for name in files}

    # Plain reference recomputation of the metrics from the planted outcomes.
    @staticmethod
    def _reference(grid: list) -> dict:
        P = len(grid) - 1
        questions = range(len(grid[0]))
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        og = mean([mean(grid[0][j]) for j in questions])
        by_p = [mean([mean(grid[p][j]) for j in questions]) for p in range(P + 1)]
        obf = mean([mean([v for p in range(1, P + 1) for v in grid[p][j]]) for j in questions])
        rob = mean([min(sum(grid[p][j]) for p in range(P + 1)) / len(grid[0][j]) for j in questions])
        return {"m_og": og, "m_obf": obf, "m_rob": rob, "delta": mean([b - og for b in by_p[1:]]), "by_p": by_p}

    def check(self, out: Path) -> list[str]:
        errors = []
        refs = {}
        for model in self.MODELS:
            tensor = json.loads((out / f"scores-{model}.json").read_text(encoding="utf-8"))
            got = {p["problem_id"]: p["scores"] for p in tensor["problems"]}
            if got != self.expected[model]:
                errors.append(f"{model}: score tensor differs from the planted outcomes")
            refs[model] = {pid: self._reference(grid) for pid, grid in self.expected[model].items()}

        summary = json.loads((out / "report" / "summary.json").read_text(encoding="utf-8"))
        ref_a = list(refs["model-a"].values())
        for key in ("m_og", "m_obf", "m_rob"):
            want = statistics.fmean(r[key] for r in ref_a)
            if not same_float(summary[key], want):
                errors.append(f"summary {key} = {summary[key]!r}, reference {want!r}")

        heat = (out / "report" / "heatmap.csv").read_text(encoding="utf-8").splitlines()
        header = heat[0].split(",")
        for line in heat[1:]:
            pid, *cells = line.split(",")
            for model, cell in zip(header[1:], cells):
                if not same_float(float(cell), refs[model][pid]["delta"]):
                    errors.append(f"heatmap {pid} {model} = {cell}, reference {refs[model][pid]['delta']!r}")

        error_row = f"| model-a | {self.planted_errors['model-a']['total']} | " \
                    f"{self.planted_errors['model-a']['empty']} | {self.planted_errors['model-a']['bad_parsing']} |"
        if error_row not in (out / "report" / "summary.md").read_text(encoding="utf-8"):
            errors.append(f"summary.md lacks the planted error row {error_row}")

        # Same operations in the same order as a set score, so bin edges cannot flip.
        set_scores = []
        for s in range(self.SETS):
            rng = stream(self.seed, "bootstrap-set", s)
            per_problem = [refs["model-a"][pid]["by_p"][rng.below(len(grid))]
                           for pid, grid in self.expected["model-a"].items()]
            set_scores.append(sum(per_problem) / len(per_problem))
        bins = 20
        counts = [0] * bins
        for score in set_scores:
            counts[min(int(score * bins), bins - 1)] += 1
        got_counts = [int(row.split(",")[2]) for row in
                      (out / "bootstrap.csv").read_text(encoding="utf-8").splitlines()[1:]]
        if got_counts != counts:
            errors.append(f"bootstrap histogram {got_counts} differs from reference {counts}")
        diag = json.loads((out / "bootstrap.stderr").read_text(encoding="utf-8").splitlines()[-1])
        if diag.get("sets") != self.SETS or not same_float(diag.get("mean", math.nan), statistics.fmean(set_scores)):
            errors.append(f"bootstrap diagnostics {diag} differ from reference mean {statistics.fmean(set_scores)!r}")
        return errors

    def layer_extras(self, out: Path, info: dict) -> dict[str, float]:
        return {"metrics.cells": self.cells}


# ---------------------------------------------------------------------------
# run-mock


class EndpointProcess:
    """The benchmark endpoint in a child process, driven over its stdin/stdout pipes."""

    def __init__(self, prompts: Path, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "endpoint.py"), str(prompts), str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, encoding="utf-8",
        )
        ready = self.proc.stdout.readline().split()
        if ready[:1] != ["ready"]:
            self.close()
            raise RuntimeError(f"endpoint did not start: {ready}")
        self.port = int(ready[1])

    def command(self, text: str) -> str:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline()

    def stats(self) -> dict:
        return json.loads(self.command("stats"))

    def close(self) -> dict | None:
        try:
            out, _ = self.proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return None
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


class RunMock(Workload):
    """``run --parallelism nproc`` resuming a half-finished run against the benchmark endpoint."""

    unit = "requests"
    PROBLEMS = 12
    PER_PROBLEM = 6
    SCALE = 4

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.endpoint: EndpointProcess | None = None

    def setup(self) -> None:
        corpus = self.work / "corpus"
        corpusgen.write_corpus(
            corpus, self.seed, self.PROBLEMS, min_cycles=self.PER_PROBLEM, scale=self.SCALE
        )
        run_cli("generate", str(corpus), "--out", str(self.work / "dataset"),
                "--per-problem", str(self.PER_PROBLEM), "--seed", str(self.seed))
        self.prompts = self.work / "prompts.jsonl"
        run_cli("prompt", str(self.work / "dataset"), "--out", str(self.prompts))
        self.planted = {}
        order = []
        for position, line in enumerate(self.prompts.read_text(encoding="utf-8").splitlines()):
            prompt = json.loads(line)
            order.append(prompt["prompt_id"])
            self.planted[prompt["prompt_id"]] = bench_endpoint.plant(
                self.seed, prompt["prompt_id"], prompt["expected_keys"], position
            )
        self.endpoint = EndpointProcess(self.prompts, self.seed)
        self.config = self.work / "endpoint.json"
        self.config.write_text(json.dumps({
            "name": "bench-endpoint",
            "url": f"http://127.0.0.1:{self.endpoint.port}/v1/chat/completions",
            "model": "bench-model",
            "timeout_s": 30.0,
            "max_retries": 3,
            "retry_base_s": 0.001,
        }, indent=2) + "\n", encoding="utf-8")
        resumed = set(order[: len(order) // 2])
        self.sent = len(order) - len(resumed)
        self.full = full = self.work / "full-run"
        full.mkdir()
        self.endpoint.command("reset")
        self.run_pass(full)
        by_id = {}
        for line in (full / "records.jsonl").read_text(encoding="utf-8").splitlines():
            by_id.setdefault(json.loads(line)["prompt_id"], line)
        self.seed_records = "".join(by_id[pid] + "\n" for pid in order if pid in resumed)
        self.seed_manifest = (full / "manifest.json").read_bytes()
        self.stats_before = None

    def prepare(self, out: Path) -> None:
        out.mkdir(parents=True)
        (out / "manifest.json").write_bytes(self.seed_manifest)
        (out / "records.jsonl").write_text(self.seed_records, encoding="utf-8")
        self.endpoint.command("reset")
        self.stats_before = self.endpoint.stats()

    def run_pass(self, out: Path) -> int:
        stdout, _ = run_cli("run", "--prompts", str(self.prompts), "--endpoint", str(self.config),
                            "--out", str(out), "--parallelism", str(NPROC))
        (out / "run.stdout").write_text(stdout, encoding="utf-8")
        return self.sent

    def _records(self, out: Path) -> list[dict]:
        return [json.loads(line) for line in
                (out / "records.jsonl").read_text(encoding="utf-8").splitlines() if line.strip()]

    def digests(self, out: Path) -> dict[str, str]:
        stable = sorted(
            json.dumps([r["prompt_id"], r["status"], r["raw_text"], r["parsed"], r["attempts"]],
                       ensure_ascii=False, sort_keys=True)
            for r in self._records(out)
        )
        return {
            "records.jsonl (without latency and timestamp)":
                hashlib.sha256("\n".join(stable).encode("utf-8")).hexdigest(),
            "manifest.json": sha256(out / "manifest.json"),
        }

    def check(self, out: Path) -> list[str]:
        errors = []
        seen: dict[str, int] = {}
        for r in self._records(out):
            seen[r["prompt_id"]] = seen.get(r["prompt_id"], 0) + 1
            planted = self.planted.get(r["prompt_id"])
            if planted is None:
                errors.append(f"{r['prompt_id']}: not a prompt of this run")
                continue
            status, parsed, attempts = bench_endpoint.expected_record(planted)
            if (r["status"], r["parsed"], r["attempts"]) != (status, parsed, attempts):
                errors.append(
                    f"{r['prompt_id']}: recorded {r['status']}/{r['parsed']}/{r['attempts']} attempts, "
                    f"planted {status}/{parsed}/{attempts}"
                )
        for prompt_id in self.planted:
            if seen.get(prompt_id, 0) != 1:
                errors.append(f"{prompt_id}: {seen.get(prompt_id, 0)} final records")
        return errors

    def layer_extras(self, out: Path, info: dict) -> dict[str, float]:
        after = self.endpoint.stats()
        before = self.stats_before
        requests = after["requests"] - before["requests"]
        summary = json.loads((out / "run.stdout").read_text(encoding="utf-8"))
        sent = self._records(out)[-self.sent:]
        latencies = sorted(r["latency_ms"] for r in sent)
        per = lambda x, n: x / n if n else 0.0  # noqa: E731
        quantiles = statistics.quantiles(latencies, n=100, method="inclusive")
        return {
            "runner.client_cpu_ms_per_request": per(1000 * info["cpu_s"], self.sent),
            "runner.attempts_per_request": per(sum(r["attempts"] for r in sent), self.sent),
            "runner.latency_p50_ms": statistics.median(latencies),
            "runner.latency_p99_ms": quantiles[98],
            "runner.connections_per_request": per(after["connections"] - before["connections"], requests),
            "runner.ok": summary.get("ok", 0),
            "runner.empty": summary.get("empty", 0),
            "runner.bad_parsing": summary.get("bad_parsing", 0),
            "runner.transport_error": summary.get("transport_error", 0),
            "endpoint.cpu_ms_per_request": per(1000 * (after["cpu_s"] - before["cpu_s"]), requests),
            "endpoint.busy_frac": per(after["cpu_s"] - before["cpu_s"], info["wall_s"]),
        }

    def close(self) -> None:
        if self.endpoint is not None:
            final = self.endpoint.close()
            self.endpoint = None
            if final is not None:
                print(f"endpoint: {final['requests']} requests over {final['connections']} connections, "
                      f"{final['cpu_s']:.3f} s CPU, {final['threads']} handler threads, replies {final['kinds']}")


WORKLOADS = {"generate-wide": GenerateWide, "score-deep": ScoreDeep, "run-mock": RunMock}

# Extra per-layer metrics the workloads measure themselves, with units; 0 where a workload has none.
EXTRA_UNITS = {
    "corpus.bytes_written": "B",
    "prompts.bytes_written": "B",
    "metrics.cells": "count",
    "runner.client_cpu_ms_per_request": "ms",
    "runner.attempts_per_request": "1",
    "runner.latency_p50_ms": "ms",
    "runner.latency_p99_ms": "ms",
    "runner.connections_per_request": "1",
    "runner.ok": "count",
    "runner.empty": "count",
    "runner.bad_parsing": "count",
    "runner.transport_error": "count",
    "endpoint.cpu_ms_per_request": "ms",
    "endpoint.busy_frac": "1",
}


# ---------------------------------------------------------------------------
# Pass loop


def timed_pass(wl, out: Path) -> dict:
    gc.collect()
    wl.prepare(out)
    c0, t0 = cpu_s(), time.perf_counter()
    units = wl.run_pass(out)
    t1, c1 = time.perf_counter(), cpu_s()
    return {"wall_s": t1 - t0, "cpu_s": c1 - c0, "units": units}


def tail(values: list[float]) -> tuple[float, int]:
    """Highest percentile with at least ten values above it, as (value, percentile)."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        return ordered[-1], 100
    return ordered[k], math.floor(100 * (k + 1) / len(ordered))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    work = Path(args.work)
    wl = WORKLOADS[args.workload](work, args.seed)
    try:
        wl.setup()
        warm = work / "warm-up"
        wl.prepare(warm)
        wl.run_pass(warm)
        reference = wl.digests(warm)
        setup_s = time.perf_counter() - args.t0
        # Set-up objects stay alive but out of the collector's way, so a
        # pass pays for its own garbage only, as in a fresh CLI process.
        gc.freeze()
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result = measure(args, wl, work, warm, reference, setup_s)
    finally:
        wl.close()
    print(json.dumps(result, sort_keys=True))
    return 0


def measure(args, wl, work: Path, warm: Path, reference: dict, setup_s: float) -> dict:
    passes: list[dict] = []
    traced: list[dict] = []
    failed_passes = 0
    failed_prompts = 0
    tracer = None
    out = work / "pass"
    started = time.perf_counter()
    untraced_until = args.seconds / 2 if args.trace else args.seconds
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= args.seconds and (not args.trace or len(traced) >= 2):
            break
        if args.trace and tracer is None and elapsed >= untraced_until and passes:
            tracer = tracing.Tracer()
            tracer.install()
        if tracer is not None:
            tracer.pass_id = len(traced)
        info = timed_pass(wl, out)
        if tracer is not None:
            info["extras"] = wl.layer_extras(out, info)
            traced.append(info)
        else:
            passes.append(info)
        if isinstance(wl, RunMock):
            failed_prompts += min(len(wl.check(out)), wl.sent)
        if wl.digests(out) != reference:
            failed_passes += 1
        shutil.rmtree(out)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = wl.check(warm)
    if isinstance(wl, RunMock):
        errors = wl.check(wl.full) + errors
    for line in errors[:20]:
        print(f"check failed: {line}")
    for name, digest in reference.items():
        print(f"sha256 {digest}  {name}")
    print(f"digests: {len(passes) + len(traced) - failed_passes} of {len(passes) + len(traced)} passes "
          f"match the warm-up pass")

    walls = [p["wall_s"] for p in passes]
    units = sum(p["units"] for p in passes)
    tail_s, tail_pct = tail(walls)
    if isinstance(wl, RunMock):
        attempted = sum(p["units"] for p in passes + traced)
        failed = failed_prompts
    else:
        attempted = len(passes) + len(traced)
        failed = failed_passes
    if errors:
        failed = attempted
    result = {
        "workload": args.workload,
        "unit": wl.unit,
        "passes": len(passes),
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "wall_tail_s": tail_s,
        "wall_tail_pct": tail_pct,
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "work_units_per_s": units / sum(walls),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "correct": not errors and failed == 0,
    }
    if tracer is not None:
        result["layers"] = layer_report(args, tracer, traced, result["wall_s"])
    return result


def layer_report(args, tracer, traced: list[dict], untraced_wall: float) -> dict:
    metrics, missing, repeat = tracer.layer_metrics(list(range(len(traced))))
    for name, unit in EXTRA_UNITS.items():
        values = [t["extras"].get(name, 0) for t in traced]
        metrics[name] = (statistics.median(values), unit)
    metrics["trace.overhead_frac"] = (statistics.median(t["wall_s"] for t in traced) / untraced_wall - 1, "1")
    metrics["trace.missing"] = (len(missing), "count")
    spans = tracer.write(ROOT / ".perfbench_work" / "trace" / f"{args.workload}.tsv", 0)
    print(f"trace: {len(traced)} traced passes, {spans} spans in the first, written to "
          f".perfbench_work/trace/{args.workload}.tsv; counts repeat across traced passes: {repeat}")
    if missing:
        print(f"trace: missing (the program no longer has the wrapped name): {', '.join(missing)}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())}


if __name__ == "__main__":
    sys.exit(main())
