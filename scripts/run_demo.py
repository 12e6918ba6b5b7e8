#!/usr/bin/env python3
"""End-to-end demo on the bundled fixture corpus, no network required.

Drives every stage through the ``lingobf`` command line, with ``run``
pointed at a local mock endpoint serving a scripted "knowledge model" that
answers by looking up the original-orthography words it has memorized,
and prints the original / obfuscated / robust scores of the report.  Such
a model aces the unobfuscated problems and collapses on the obfuscated
ones, which is exactly the shortcut the benchmark is designed to expose.

Usage:
    python scripts/run_demo.py [--seed 7] [--per-problem 6] [--out demo-output]

Artifacts follow the CLI layout under --out: dataset/, prompts.jsonl,
run/, scores.json, report/ and hist.csv.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from lingobf.cli import main as cli_main  # noqa: E402
from lingobf.corpus import load_corpus, load_dataset  # noqa: E402
from lingobf.mockserver import MockModelServer, knowledge_reply  # noqa: E402


def _cli(*argv) -> None:
    code = cli_main([str(arg) for arg in argv])
    if code:
        raise SystemExit(code)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--per-problem", type=int, default=6)
    parser.add_argument("--out", default="demo-output")
    args = parser.parse_args()

    out = Path(args.out)
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    corpus_dir, dataset, run_dir = REPO / "fixtures" / "corpus", out / "dataset", out / "run"
    prompts, scores, endpoint = out / "prompts.jsonl", out / "scores.json", out / "endpoint.json"

    _cli("generate", corpus_dir, "--out", dataset, "--per-problem", args.per_problem,
         "--seed", args.seed)
    _cli("prompt", dataset, "--out", prompts)
    reply = knowledge_reply(load_corpus(corpus_dir)[0], load_dataset(dataset))
    with MockModelServer(reply) as server:
        config = {"name": "knowledge-lookup", "url": server.url, "retry_base_s": 0.0}
        endpoint.write_text(json.dumps(config), encoding="utf-8")
        _cli("run", "--prompts", prompts, "--endpoint", endpoint, "--out", run_dir)
    _cli("score", "--run", run_dir, "--dataset", dataset, "--out", scores)
    _cli("bootstrap", "--scores", scores, "--seed", args.seed, "--out", out / "hist.csv")
    _cli("report", "--scores", scores, "--out", out / "report", "--run", run_dir)

    summary = json.loads((out / "report" / "summary.json").read_text(encoding="utf-8"))
    print()
    print(f"original score   : {summary['m_og']:.3f}")
    print(f"obfuscated score : {summary['m_obf']:.3f}")
    print(f"robust score     : {summary['m_rob']:.3f}")
    print()
    print(
        f"knowledge-only model loses {summary['m_og'] - summary['m_obf']:.3f} under "
        "obfuscation: original-orthography lookups stop working."
    )
    print(f"artifacts in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
