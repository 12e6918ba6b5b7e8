"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime and enforcing its time budget."""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from lingobf import annotations
from lingobf.cli import main as cli_main
from lingobf.corpus import build_dataset, load_dataset, variant_maps
from lingobf.metrics import aggregate, score_run
from lingobf.mockserver import MockModelServer, knowledge_reply
from lingobf.obfuscate import apply, segment
from lingobf.prompts import build_prompts
from lingobf.rng import SplitMix64
from lingobf.rulesets import (
    FreeTable,
    Ruleset,
    Table,
    count_permutations,
    invert,
    map_issues,
    sample_permutation,
)
from lingobf.runner import read_records, run as run_prompts, summarize_errors, EndpointConfig
from lingobf.stats import bootstrap, ols_fit

from .test_annotations import source
from .test_metrics import brute_force_report, random_tensor
from .test_stats import ENUMERABLE


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed * 1000:.1f} ms)")
    assert elapsed < budget_s, f"{name} exceeded budget: {elapsed:.3f}s >= {budget_s}s"


def test_01_permutation_counting():
    table = Ruleset(tables=(Table(columns=(("p", "b"), ("t", "d"), ("k", "g"))),))
    two_sets = Ruleset(sets=(("p", "t", "k"), ("b", "d", "g")))
    free = Ruleset(
        free_tables=(
            FreeTable(columns=((("m",), ("p", "b", "f")), (("n",), ("t", "d", "s")))),
        )
    )
    with criterion(1, "permutation counting", 0.001):
        assert count_permutations(table) == 6
        assert count_permutations(two_sets) == 36
        assert count_permutations(free) == 72


def test_02_derangement_and_structure(somali, stodsde):
    with criterion(2, "derangement + structure preservation", 5.0):
        checked = 0
        for ruleset in (somali, stodsde):
            fixed = set(ruleset.fixed)
            for seed in range(500):
                pmap = sample_permutation(ruleset, seed)
                for src, img in pmap.pairs.items():
                    assert src not in fixed
                    assert src != img, f"fixed point {src!r} at seed {seed}"
                assert map_issues(ruleset, pmap) == []
                checked += 1
        assert checked >= 1000


def test_03_equivariance_round_trip(corpus):
    with criterion(3, "equivariance round trip", 5.0):
        for problem in corpus.problems:
            spans = []
            docs = [problem.preamble, problem.context]
            for q in problem.questions:
                docs.append(q.body)
                docs.extend(s.text for s in q.subquestions)
                docs.extend(s.answer for s in q.subquestions)
            for doc in docs:
                spans.extend(annotations.unescape(s.text) for s in doc.problemese_spans)
            for seed in range(50):
                pmap = sample_permutation(problem.ruleset, seed)
                inverse = invert(pmap)
                for text in spans:
                    obfuscated = apply(pmap, text, problem.ruleset)
                    assert apply(inverse, obfuscated, problem.ruleset) == text


def test_04_greedy_segmentation():
    shash = Ruleset(sets=(("s", "h", "a", "sh"),))
    named = Ruleset(fixed=("Kazune",), sets=(("a", "z", "e", "l"),))
    alphabet = "shazelKǃé💡 .'-39\n\tXŋ"
    with criterion(4, "greedy segmentation", 10.0):
        assert [u.text for u in segment("shash", shash)] == ["sh", "a", "sh"]
        units = segment("Kazune azzel", named)
        assert units[0].kind == "fixed" and units[0].text == "Kazune"
        rng = SplitMix64(404)
        for _ in range(10_000):
            text = "".join(
                alphabet[rng.below(len(alphabet))] for _ in range(rng.below(40))
            )
            for ruleset in (shash, named):
                assert "".join(u.text for u in segment(text, ruleset)) == text


def test_05_annotation_grammar(corpus_dir):
    extracts = [
        "This problem is about the way in which $$$Language X$$$ speakers build "
        "sentences out of a verb V.",
        "$$$Language X$$$ &&& &&& contains quite a few loanwords from English &&& &&&.",
        "@@@dinaldalusanda@@@ they were cleaning it",
        "tinaktakawda ida",
    ]
    with criterion(5, "annotation grammar", 1.0):
        texts = list(extracts)
        for path in sorted(corpus_dir.glob("*/problem.txt")):
            texts.append(path.read_text(encoding="utf-8"))
        for path in sorted(corpus_dir.glob("*/answers.json")):
            for per_question in json.loads(path.read_text(encoding="utf-8")):
                for entry in per_question.values():
                    # An entry is an answer, or an answer with its alternates.
                    if isinstance(entry, str):
                        texts.append(entry)
                    else:
                        texts += [entry["answer"], *entry.get("alternates", ())]
        for text in texts:
            assert source(annotations.parse(text)) == text  # parsing is lossless
        with pytest.raises(annotations.MarkerError) as unbalanced:
            annotations.parse("@@@abc")
        assert unbalanced.value.byte_offset == 0
        with pytest.raises(annotations.MarkerError) as nested:
            annotations.parse("@@@a$$$b$$$@@@")
        assert nested.value.byte_offset == 4


def test_06_metrics_oracle_equivalence():
    from .test_metrics import one_problem_tensor

    with criterion(6, "metrics oracle equivalence", 5.0):
        fixture = one_problem_tensor([[(1, 1)], [(1, 0)], [(0, 0)]])
        report = aggregate(fixture)
        assert report.m_og == 1.0
        assert report.m_obf == 0.25
        assert report.per_problem[0].delta == -0.75
        assert report.m_rob == 0.0

        rng = SplitMix64(606)
        for _ in range(100):
            tensor = random_tensor(rng)
            got = aggregate(tensor)
            m_og, m_obf, m_rob, per = brute_force_report(tensor)
            assert got.m_og == m_og and got.m_obf == m_obf and got.m_rob == m_rob
            for pm, (og_i, obf_i, rob_i, deltas, delta_i) in zip(got.per_problem, per):
                assert (pm.m_og, pm.m_obf, pm.m_rob) == (og_i, obf_i, rob_i)
                assert pm.delta_by_p == deltas and pm.delta == delta_i


def test_07_dataset_accounting(corpus):
    with criterion(7, "dataset pair accounting", 1.0):
        records = build_dataset(corpus, per_problem=6, seed=7)
        expected = 0
        capped = None
        for problem in corpus.problems:
            p_i = len(variant_maps(problem, 6, seed=7)) - 1
            if p_i < 6:
                capped = (problem.id, p_i)
            expected += (1 + p_i) * sum(len(q.subquestions) for q in problem.questions)
        assert capped == ("voicing-y", 2)  # one problem admits only 2 maps
        assert sum(len(r.subquestions) for r in records) == expected == 48


def test_08_bootstrap_calibration():
    with criterion(8, "bootstrap calibration", 2.0):
        first = bootstrap(ENUMERABLE, sets=500, seed=11)
        second = bootstrap(ENUMERABLE, sets=500, seed=11)
        assert first.set_scores == second.set_scores  # bit-identical rerun
        assert abs(first.mean - 0.5) <= 0.067
        assert set(first.set_scores) <= {0.0, 0.5, 1.0}


def test_09_ols():
    with criterion(9, "ordinary least squares", 0.001):
        line = ols_fit([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
        assert (line.slope, line.intercept, line.r_squared) == (2.0, 1.0, 1.0)
        three = ols_fit([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
        assert abs(three.slope - 0.5) < 1e-9
        assert abs(three.intercept - 1 / 6) < 1e-9


def _golden_pipeline(corpus_dir: Path, work: Path) -> dict:
    """validate -> generate(seed 7) -> prompt -> run(mock) -> score -> report."""
    dataset_dir = work / "dataset"
    prompts_path = work / "prompts.jsonl"
    run_dir = work / "run"
    scores_path = work / "scores.json"
    report_dir = work / "report"

    assert cli_main(["validate", str(corpus_dir)]) == 0
    assert cli_main(
        ["generate", str(corpus_dir), "--out", str(dataset_dir), "--seed", "7"]
    ) == 0
    assert cli_main(["prompt", str(dataset_dir), "--out", str(prompts_path)]) == 0

    records = load_dataset(dataset_dir)
    gold_by_prompt = {
        f"{r.variant_id}:q{r.question_index}": dict(r.answers) for r in records
    }
    prompts = list(build_prompts(records))
    assert len({p.user_message for p in prompts}) == len(prompts)
    planted = sorted(p.prompt_id for p in prompts)[:3]
    replies = {}
    for p in prompts:
        if p.prompt_id in planted[:2]:
            replies[p.user_message] = ""
        elif p.prompt_id == planted[2]:
            replies[p.user_message] = "The answer is probably irrelevant..."
        else:
            replies[p.user_message] = json.dumps(
                gold_by_prompt[p.prompt_id], ensure_ascii=False
            )

    with MockModelServer(lambda system, user: replies[user]) as server:
        endpoint = work / "endpoint.json"
        endpoint.write_text(
            json.dumps({"name": "mock", "url": server.url, "retry_base_s": 0.0}),
            encoding="utf-8",
        )
        assert cli_main(
            [
                "run",
                "--prompts",
                str(prompts_path),
                "--endpoint",
                str(endpoint),
                "--out",
                str(run_dir),
                "--parallelism",
                "4",
            ]
        ) == 0

    assert cli_main(
        [
            "score",
            "--run",
            str(run_dir),
            "--dataset",
            str(dataset_dir),
            "--out",
            str(scores_path),
        ]
    ) == 0
    assert cli_main(
        [
            "report",
            "--scores",
            str(scores_path),
            "--out",
            str(report_dir),
            "--run",
            str(run_dir),
        ]
    ) == 0
    assert cli_main(
        [
            "bootstrap",
            "--scores",
            str(scores_path),
            "--sets",
            "100",
            "--seed",
            "1",
            "--out",
            str(work / "hist.csv"),
        ]
    ) == 0

    deterministic_artifacts = [
        dataset_dir / "records.jsonl",
        dataset_dir / "manifest.json",
        prompts_path,
        scores_path,
        report_dir / "summary.json",
        report_dir / "per_problem.csv",
        report_dir / "regression.csv",
        report_dir / "summary.md",
        work / "hist.csv",
    ]
    digests = {
        str(path.relative_to(work)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in deterministic_artifacts
    }
    return {"digests": digests, "errors": summarize_errors(run_dir)}


def test_10_end_to_end_golden_run(corpus_dir, tmp_path, capsys):
    with criterion(10, "end-to-end golden run", 30.0):
        first = _golden_pipeline(corpus_dir, tmp_path / "one")
        second = _golden_pipeline(corpus_dir, tmp_path / "two")
        assert first["digests"] == second["digests"]
        for errors in (first["errors"], second["errors"]):
            assert errors["total"] == 31
            assert errors["empty"] == 2
            assert errors["bad_parsing"] == 1


def test_11_no_context_knowledge_shortcut(corpus, dataset, tmp_path):
    with criterion(11, "no-context knowledge shortcut", 10.0):
        reply_fn = knowledge_reply(corpus, dataset)
        prompts = list(build_prompts(dataset, no_context=True))

        def transport(headers, body, timeout):
            user = body["messages"][1]["content"]
            reply = reply_fn(body["messages"][0]["content"], user)
            return 200, json.dumps({"choices": [{"message": {"content": reply}}]})

        endpoint = EndpointConfig(name="lookup", url="http://in-process", retry_base_s=0.0)
        run_prompts(prompts, endpoint, tmp_path / "run", transport=transport)
        responses = read_records(tmp_path / "run")
        tensor, missing = score_run(responses, dataset)
        assert missing == []
        summary = aggregate(tensor)

        # Knowledge lookup succeeds on original orthography...
        assert summary.m_og > 0
        assert summary.by_answer_type["Other"]["og"] > 0
        # ...and scores nothing once the text is obfuscated.
        assert summary.by_answer_type["Other"]["obf"] == 0.0
