"""Command-line pipeline: validate -> sample -> generate -> prompt -> run -> score -> bootstrap -> report.

Every randomized subcommand requires an explicit ``--seed``; there is no
hidden entropy anywhere, so artifacts are reproducible byte-for-byte.
Reports and data go to stdout or ``--out``; diagnostics are
machine-readable JSON on stderr.  Exit codes: 0 success, 1 data or file
error (a diagnostic naming the file), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections import Counter
from pathlib import Path

from . import __version__, annotations, corpus, jsonio, metrics, prompts, runner, stats


def _diag(**payload) -> None:
    print(jsonio.dumps(payload), file=sys.stderr)


def _emit(text: str, out: str | Path | None) -> None:
    if out:
        with jsonio.atomic_writer(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_corpus(path: str, *, fold_case: bool = True) -> tuple[corpus.Corpus, corpus.LoadReport]:
    loaded, report = corpus.load_corpus(path, fold_case=fold_case)
    for warning in report.warnings:
        _diag(warning=warning)
    for failure in report.failures:
        _diag(problem=failure.problem_id, errors=failure.errors)
    return loaded, report


def _load_corpus_or_fail(path: str, *, fold_case: bool = True) -> corpus.Corpus:
    loaded, report = _load_corpus(path, fold_case=fold_case)
    if not report.ok:
        raise SystemExit(1)
    return loaded


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_validate(args) -> int:
    loaded, report = _load_corpus(args.corpus)
    subs = [
        (problem, sub) for problem in loaded for q in problem.questions for sub in q.subquestions
    ]
    # A sub-question's answer type is that of its p = 0 gold, which the
    # identity map renders exactly as the grammar does.
    summary = {
        "problems_ok": len(loaded.problems),
        "problems_failed": len(report.failures),
        "questions": sum(len(problem.questions) for problem in loaded),
        "subquestions": len(subs),
        "subquestions_by_difficulty": Counter(problem.difficulty for problem, _ in subs),
        "subquestions_by_answer_type": Counter(
            metrics.answer_type(annotations.render(sub.answer)) for _, sub in subs
        ),
    }
    print(jsonio.dumps(summary))
    return 0 if report.ok else 1


def _cmd_sample(args) -> int:
    loaded = _load_corpus_or_fail(args.corpus)
    for problem in loaded.problems:
        if args.problem and problem.id != args.problem:
            continue
        maps = corpus.variant_maps(problem, args.per_problem, args.seed)
        for p, pmap in enumerate(maps):
            if p == 0:
                continue
            payload = {"problem": problem.id, "p": p, "seed": pmap.seed, "pairs": pmap.pairs}
            print(jsonio.dumps(payload))
    return 0


def _cmd_generate(args) -> int:
    loaded = _load_corpus_or_fail(args.corpus, fold_case=args.case_aware)
    dataset = corpus.build_dataset(loaded, per_problem=args.per_problem, seed=args.seed)
    manifest = corpus.write_dataset(dataset, args.out)
    print(jsonio.dumps({k: manifest[k] for k in ("problems", "variants", "records", "pairs")}))
    return 0


def _cmd_prompt(args) -> int:
    records = corpus.load_dataset(args.dataset)
    guidance = Path(args.guidance).read_text(encoding="utf-8").strip() if args.guidance else None
    built = prompts.build_prompts(
        records,
        question_index=args.question,
        no_context=args.no_context,
        guidance=guidance,
    )
    count = prompts.write_prompts(built, args.out)
    print(jsonio.dumps({"prompts": count, "out": args.out}))
    return 0


def _cmd_run(args) -> int:
    prompt_list = prompts.load_prompts(args.prompts)
    endpoint = runner.EndpointConfig.from_file(args.endpoint)
    summary = runner.run(
        prompt_list, endpoint, args.out, parallelism=args.parallelism
    )
    print(jsonio.dumps(summary))
    return 0


def _cmd_score(args) -> int:
    records = corpus.load_dataset(args.dataset)
    responses = runner.read_records(args.run)
    try:
        tensor, missing = metrics.score_run(responses, records, case_sensitive=args.case_aware)
    except ValueError as exc:
        if records:
            raise
        raise ValueError(f"{args.dataset}: {exc}") from None  # the dataset has no records
    jsonio.write_json(args.out, tensor.to_dict())
    for prompt_id in missing:
        _diag(missing_prompt=prompt_id)
    print(jsonio.dumps({"problems": len(tensor.problems), "missing": len(missing)}))
    return 0


def _cmd_bootstrap(args) -> int:
    tensor = jsonio.read_json(args.scores, metrics.ScoreTensor.from_dict)
    result = stats.bootstrap(tensor, sets=args.sets, seed=args.seed)
    _emit(stats.histogram_csv(result, bins=args.bins), args.out)
    _diag(sets=result.sets, mean=result.mean if result.set_scores else None)
    return 0


def _cmd_report(args) -> int:
    # Read every input, then build every text, and only then write, so a bad
    # input leaves no partial report behind.  A path given twice (as --scores
    # and as a --compare, say) is read and aggregated once.
    @functools.cache
    def aggregate(path: str) -> metrics.MetricsReport:
        return metrics.aggregate(
            jsonio.read_json(path, metrics.ScoreTensor.from_dict),
            include_original_in_min=args.include_original_in_robust_min,
        )

    report = aggregate(args.scores)
    run_errors = runner.summarize_errors(args.run) if args.run else None
    compared = {name: aggregate(path) for name, path in args.compare or ()}

    points = [
        (pm.difficulty, math.log10(pm.speakers), pm.delta)
        for pm in report.per_problem
        if pm.delta is not None
    ]
    points += [("All", x, y) for _, x, y in points]
    fits, skipped = stats.fit_groups(points)
    for label, reason in skipped.items():
        _diag(regression_group=label, skipped=reason)

    lines = [
        "# Evaluation report",
        "",
        f"- Original score: {report.m_og:.4f}",
        f"- Obfuscated score: {'n/a' if report.m_obf is None else f'{report.m_obf:.4f}'}",
        f"- Robust score: {report.m_rob:.4f}",
        f"- Problems: {len(report.per_problem)}",
        "",
        "## By difficulty",
        "",
        "| Level | Original | Obfuscated | Robust | Problems |",
        "| --- | --- | --- | --- | --- |",
    ]
    for level, row in report.by_difficulty.items():
        obf = "n/a" if row["m_obf"] is None else f"{row['m_obf']:.4f}"
        lines.append(
            f"| {level} | {row['m_og']:.4f} | {obf} | {row['m_rob']:.4f} | {row['problems']} |"
        )
    lines += [
        "",
        "## By answer type",
        "",
        "| Type | Original | Obfuscated |",
        "| --- | --- | --- |",
    ]
    for a_type, row in report.by_answer_type.items():
        og = "n/a" if row["og"] is None else f"{row['og']:.4f}"
        obf = "n/a" if row["obf"] is None else f"{row['obf']:.4f}"
        lines.append(f"| {a_type} | {og} | {obf} |")
    if run_errors is not None:
        lines += ["", "## Response errors", "", runner.error_summary_table([run_errors])]

    texts = {
        "per_problem.csv": metrics.per_problem_csv(report),
        "regression.csv": stats.regression_csv(fits),
        "summary.md": "\n".join(lines) + "\n",
    }
    if compared:
        texts["heatmap.csv"] = metrics.heatmap_csv(compared)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    jsonio.write_json(out_dir / "summary.json", metrics.report_summary(report))
    for name, text in texts.items():
        _emit(text, out_dir / name)
    print(jsonio.dumps({"out": str(out_dir)}))
    return 0


def _name_and_path(value: str) -> tuple[str, str]:
    name, _, path = value.partition("=")
    if not (name and path):
        raise argparse.ArgumentTypeError(f"expected NAME=SCORES.json, got {value!r}")
    return name, path


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lingobf",
        description="Obfuscated linguistics-puzzle benchmark pipeline",
    )
    parser.add_argument("--version", action="version", version=f"lingobf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check rulesets, annotations and coverage")
    p.add_argument("corpus")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("sample", help="print sampled permutation maps")
    p.add_argument("corpus")
    p.add_argument("--per-problem", type=int, default=6)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--problem", help="restrict to one problem id")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("generate", help="build and persist the variant dataset")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--per-problem", type=int, default=6)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--case-aware",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="case-folded matching with recased replacements",
    )
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("prompt", help="build prompts from a dataset")
    p.add_argument("dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--question", type=int, default=None, help="restrict to question index j")
    p.add_argument("--no-context", action="store_true")
    p.add_argument("--guidance", help="file with expert guidance steps to include")
    p.set_defaults(fn=_cmd_prompt)

    p = sub.add_parser("run", help="query an endpoint with built prompts")
    p.add_argument("--prompts", required=True)
    p.add_argument("--endpoint", required=True, help="endpoint config JSON")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument(
        "--parallelism", type=int, default=4, help="requests in flight at once (at least 1)"
    )
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("score", help="exact-match score a run against its dataset")
    p.add_argument("--run", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="score tensor JSON")
    p.add_argument(
        "--case-aware",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="case-sensitive exact match",
    )
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("bootstrap", help="bootstrap distribution over variant choices")
    p.add_argument("--scores", required=True)
    p.add_argument("--sets", type=int, default=500)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--out", help="histogram CSV path (stdout if omitted)")
    p.set_defaults(fn=_cmd_bootstrap)

    p = sub.add_parser("report", help="metrics + regression bundle (CSV/JSON/markdown)")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--run", help="run directory, to include the response-error table")
    p.add_argument(
        "--include-original-in-robust-min",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="robust metric minimum ranges over p=0 too",
    )
    p.add_argument(
        "--compare",
        action="append",
        type=_name_and_path,
        help="NAME=SCORES.json; repeat to emit a problems-x-models delta heatmap",
    )
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except (ValueError, KeyError, TypeError, OSError, RuntimeError) as exc:
        _diag(error=type(exc).__name__, detail=str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
