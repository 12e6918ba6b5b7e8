from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from lingobf.cli import main
from lingobf.corpus import load_corpus, load_dataset
from lingobf.mockserver import MockModelServer, knowledge_reply

from .conftest import REPO


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_clean_corpus(capsys, corpus_dir):
    # The corpus statistics count sub-questions by difficulty and by the
    # answer type of their p = 0 gold, listing only the non-zero keys.
    code, out, err = run_cli(capsys, "validate", str(corpus_dir))
    assert code == 0
    assert json.loads(out) == {
        "problems_ok": 3,
        "problems_failed": 0,
        "questions": 5,
        "subquestions": 8,
        "subquestions_by_difficulty": {"Breakthrough": 3, "Intermediate": 2, "Round2": 3},
        "subquestions_by_answer_type": {"Other": 6, "Digit": 1, "YN": 1},
    }


def test_validate_broken_corpus_exits_1(capsys, tmp_path, corpus_dir):
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    problem = tmp_path / "corpus" / "birds-x" / "problem.txt"
    problem.write_text(
        problem.read_text(encoding="utf-8").replace("@@@pek@@@", "@@@pexk@@@"),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "validate", str(tmp_path / "corpus"))
    assert code == 1
    diag = json.loads(err.splitlines()[0])
    assert diag["problem"] == "birds-x"


def test_exact_case_generate_names_the_refused_problem(capsys, tmp_path, corpus_dir):
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    problem = tmp_path / "corpus" / "birds-x" / "problem.txt"
    problem.write_text(
        problem.read_text(encoding="utf-8").replace("@@@pek@@@", "@@@Pek@@@"),
        encoding="utf-8",
    )
    argv = ["generate", str(tmp_path / "corpus"), "--out", str(tmp_path / "ds"), "--seed", "7"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--no-case-aware"])
    assert exc.value.code == 1
    assert json.loads(capsys.readouterr().err) == {
        "errors": ["coverage gaps: context: span 4 offset 0: 'P'"],
        "problem": "birds-x",
    }


def test_unknown_flag_exits_2(capsys, corpus_dir):
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(corpus_dir), "--frobnicate"])
    assert exc.value.code == 2


def test_seed_is_mandatory_for_randomized_commands(capsys, corpus_dir, tmp_path):
    for argv in (
        ["sample", str(corpus_dir)],
        ["generate", str(corpus_dir), "--out", str(tmp_path / "d")],
        ["bootstrap", "--scores", "x.json", "--sets", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_sample_prints_maps(capsys, corpus_dir):
    code, out, err = run_cli(
        capsys, "sample", str(corpus_dir), "--per-problem", "2", "--seed", "3"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert {l["problem"] for l in lines} == {"birds-x", "rivers-z", "voicing-y"}
    assert all(l["pairs"] for l in lines)


def test_generate_is_deterministic(capsys, corpus_dir, tmp_path):
    for name in ("a", "b"):
        code, out, _ = run_cli(
            capsys,
            "generate",
            str(corpus_dir),
            "--out",
            str(tmp_path / name),
            "--per-problem",
            "6",
            "--seed",
            "7",
        )
        assert code == 0
        assert json.loads(out)["pairs"] == 48
    assert (tmp_path / "a" / "records.jsonl").read_bytes() == (
        tmp_path / "b" / "records.jsonl"
    ).read_bytes()
    manifest_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
    manifest_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest_a["digests"] == manifest_b["digests"]


def test_generate_fixture_records_are_pinned(capsys, corpus_dir, tmp_path):
    # The fixtures hold one table (voicing-y) and one free table (rivers-z).
    argv = ("generate", str(corpus_dir), "--out", str(tmp_path), "--per-problem", "6", "--seed", "7")
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    digest = hashlib.sha256((tmp_path / "records.jsonl").read_bytes()).hexdigest()
    assert digest == "36eaf68ccb4786539af3ce19485cb684b7539282d08d86b9a3816a4286c7d59f"


def test_full_pipeline_through_cli(capsys, corpus_dir, tmp_path):
    ds = tmp_path / "dataset"
    run_cli(capsys, "generate", str(corpus_dir), "--out", str(ds), "--seed", "7")
    code, out, _ = run_cli(
        capsys, "prompt", str(ds), "--out", str(tmp_path / "prompts.jsonl")
    )
    assert code == 0 and json.loads(out)["prompts"] == 31

    def reply(system, user):
        return json.dumps({"1": "nope", "2": "nope"})

    with MockModelServer(reply) as server:
        endpoint_cfg = tmp_path / "endpoint.json"
        endpoint_cfg.write_text(
            json.dumps({"name": "mock", "url": server.url, "retry_base_s": 0.0}),
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys,
            "run",
            "--prompts",
            str(tmp_path / "prompts.jsonl"),
            "--endpoint",
            str(endpoint_cfg),
            "--out",
            str(tmp_path / "run"),
            "--parallelism",
            "2",
        )
    assert code == 0
    assert json.loads(out)["ok"] == 31

    code, out, _ = run_cli(
        capsys,
        "score",
        "--run",
        str(tmp_path / "run"),
        "--dataset",
        str(ds),
        "--out",
        str(tmp_path / "scores.json"),
    )
    assert code == 0
    assert json.loads(out)["missing"] == 0

    code, out, _ = run_cli(
        capsys,
        "bootstrap",
        "--scores",
        str(tmp_path / "scores.json"),
        "--sets",
        "50",
        "--seed",
        "1",
        "--out",
        str(tmp_path / "hist.csv"),
    )
    assert code == 0
    assert (tmp_path / "hist.csv").read_text().startswith("bin_start")

    code, out, _ = run_cli(
        capsys,
        "report",
        "--scores",
        str(tmp_path / "scores.json"),
        "--out",
        str(tmp_path / "report"),
        "--run",
        str(tmp_path / "run"),
    )
    assert code == 0
    summary = json.loads((tmp_path / "report" / "summary.json").read_text())
    assert summary["m_og"] == 0.0  # the mock answers everything wrong
    assert (tmp_path / "report" / "per_problem.csv").exists()
    assert (tmp_path / "report" / "regression.csv").exists()
    assert "## Response errors" in (tmp_path / "report" / "summary.md").read_text()


def test_fixture_chain_digests_are_pinned(capsys, corpus_dir, tmp_path):
    # Seed 7 through every stage, answered by the knowledge-lookup model.
    ds, prompts, run, scores = (
        tmp_path / name for name in ("ds", "prompts.jsonl", "run", "scores.json")
    )
    run_cli(capsys, "generate", str(corpus_dir), "--out", str(ds), "--seed", "7")
    run_cli(capsys, "prompt", str(ds), "--out", str(prompts))
    reply = knowledge_reply(load_corpus(corpus_dir)[0], load_dataset(ds))
    with MockModelServer(reply) as server:
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"name": "kb", "url": server.url, "retry_base_s": 0.0}))
        code, _, _ = run_cli(
            capsys, "run", "--prompts", str(prompts), "--endpoint", str(endpoint),
            "--out", str(run), "--parallelism", "2",
        )
    assert code == 0
    for argv in (
        ("score", "--run", str(run), "--dataset", str(ds), "--out", str(scores)),
        ("bootstrap", "--scores", str(scores), "--seed", "7", "--out", str(tmp_path / "hist.csv")),
        ("report", "--scores", str(scores), "--out", str(tmp_path / "report")),
    ):
        assert run_cli(capsys, *argv)[0] == 0
    pinned = {
        "prompts.jsonl": "01b1e594790a6d7eae194d832ca0e19e876b9ed8bd02ce5f5b749ba74ae1ab61",
        "scores.json": "a4d031ea077dd416b005b8dde9a0d17bb265f0733f2b3e5cb59889e0fe6c1bc7",
        "hist.csv": "759c257543ef7f77923b4b246152ea86a0b317acda0e2d71fc67164f9c13e97f",
        "report/summary.json": "83efed518b0618e6adce025d1e77726f5b2c3e5ce6dadf71d6d872d3af02601d",
        "report/per_problem.csv": "93a830690487d5b11878b34e83c77bcac0a0550a3266514a1381e42e74ecffd0",
    }
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in pinned
    }
    assert digests == pinned


def test_prompt_and_score_refuse_a_variant_unlike_p0(capsys, corpus_dir, tmp_path):
    # Each problem's p=1 question 0 loses its first sub-question and that answer.
    ds = tmp_path / "dataset"
    run_cli(capsys, "generate", str(corpus_dir), "--out", str(ds), "--seed", "7")
    lines = []
    for line in (ds / "records.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if (record["p"], record["question_index"]) == (1, 0):
            dropped = record["subquestions"].pop(0)["key"]
            del record["answers"][dropped]
            record["alternates"].pop(dropped, None)
        lines.append(json.dumps(record, ensure_ascii=False))
    (ds / "records.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "run").mkdir()
    for argv in (
        ("prompt", str(ds), "--out", str(tmp_path / "prompts.jsonl")),
        ("score", "--run", str(tmp_path / "run"), "--dataset", str(ds), "--out", str(tmp_path / "s")),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        diag = json.loads(err)
        assert diag["error"] == "ValueError"
        assert diag["detail"].startswith("dataset for birds-x: variant p=1 question 0 ")
    assert not (tmp_path / "prompts.jsonl").exists() and not (tmp_path / "s").exists()


def test_prompt_and_score_refuse_question_indices_that_do_not_start_at_0(
    capsys, corpus_dir, tmp_path
):
    # Every birds-x record of question 0 is gone; its question 1 would be
    # prompted as question 0, and --question 1 would skip birds-x.
    ds = tmp_path / "dataset"
    run_cli(capsys, "generate", str(corpus_dir), "--out", str(ds), "--seed", "7")
    lines = (ds / "records.jsonl").read_text(encoding="utf-8").splitlines()
    kept = [
        line
        for line, record in zip(lines, map(json.loads, lines))
        if (record["problem_id"], record["question_index"]) != ("birds-x", 0)
    ]
    (ds / "records.jsonl").write_text("\n".join(kept) + "\n", encoding="utf-8")
    (tmp_path / "run").mkdir()
    for argv in (
        ("prompt", str(ds), "--out", str(tmp_path / "prompts.jsonl")),
        ("prompt", str(ds), "--out", str(tmp_path / "prompts.jsonl"), "--question", "1"),
        ("score", "--run", str(tmp_path / "run"), "--dataset", str(ds), "--out", str(tmp_path / "s")),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ValueError",
            "detail": "dataset for birds-x: question indices [1] are not 0..0",
        }
    assert not (tmp_path / "prompts.jsonl").exists() and not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "edit, detail",
    [
        (
            lambda record: record["answers"].pop(next(iter(record["answers"]))),
            "answers keys ['2'] or alternates keys [] are not the sub-question keys ['1', '2']",
        ),
        (
            lambda record: record["alternates"].update({"9": ["x"]}),
            "answers keys ['1', '2'] or alternates keys ['9'] are not the sub-question keys "
            "['1', '2']",
        ),
        (lambda record: record.update(alternates=[]), "alternates is [], not an object"),
        (lambda record: record.update(p="0"), 'p is "0", not an integer'),
        (lambda record: record.update(question_index=0.0), "question_index is 0.0, not an integer"),
        (lambda record: record.update(speakers=True), "speakers is true, not an integer"),
        (lambda record: record.update(problem_id=7), "problem_id is 7, not a string"),
        (lambda record: record.update(body=None), "body is null, not a string"),
        (lambda record: record["answers"].update({"1": 5}), 'answers["1"] is 5, not a string'),
        (
            lambda record: record["subquestions"][1].update(text=7),
            "subquestions[1].text is 7, not a string",
        ),
        (
            lambda record: record.update(alternates={"1": "ab"}),
            'alternates["1"] is "ab", not a list',
        ),
        (
            lambda record: record["subquestions"][0].pop("text"),
            "record lacks field 'subquestions[0].text'",
        ),
    ],
    ids=["answer-missing", "alternate-unknown", "alternates-list", "p-string",
         "question-index-float", "speakers-bool", "problem-id-int", "body-null", "answer-int",
         "subquestion-text-int", "alternates-string", "subquestion-text-missing"],
)
def test_prompt_and_score_name_a_malformed_record_line(
    capsys, corpus_dir, tmp_path, edit, detail
):
    ds = tmp_path / "dataset"
    run_cli(capsys, "generate", str(corpus_dir), "--out", str(ds), "--seed", "7")
    first, rest = (ds / "records.jsonl").read_text(encoding="utf-8").split("\n", 1)
    record = json.loads(first)
    edit(record)
    (ds / "records.jsonl").write_text(json.dumps(record) + "\n" + rest, encoding="utf-8")
    (tmp_path / "run").mkdir()
    for argv in (
        ("prompt", str(ds), "--out", str(tmp_path / "prompts.jsonl")),
        ("score", "--run", str(tmp_path / "run"), "--dataset", str(ds), "--out", str(tmp_path / "s")),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ValueError",
            "detail": f"{ds / 'records.jsonl'}: line 1: {detail}",
        }


def test_prompt_and_score_do_not_read_the_dataset_manifest(capsys, corpus_dir, tmp_path):
    ds = tmp_path / "dataset"
    run_cli(capsys, "generate", str(corpus_dir), "--out", str(ds), "--seed", "7")
    (ds / "manifest.json").write_text("{oops", encoding="utf-8")
    (tmp_path / "run").mkdir()
    for argv in (
        ("prompt", str(ds), "--out", str(tmp_path / "prompts.jsonl")),
        ("score", "--run", str(tmp_path / "run"), "--dataset", str(ds), "--out", str(tmp_path / "s")),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0 and "manifest" not in err


def test_prompt_refuses_a_dataset_of_no_records(capsys, corpus_dir, tmp_path):
    ds = tmp_path / "dataset"
    run_cli(capsys, "generate", str(corpus_dir), "--out", str(ds), "--seed", "7")
    (ds / "records.jsonl").write_text("", encoding="utf-8")
    code, out, err = run_cli(capsys, "prompt", str(ds), "--out", str(tmp_path / "p.jsonl"))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValueError", "detail": f"{ds}: dataset has no records"}
    assert not (tmp_path / "p.jsonl").exists()


_FRESH_PIPELINE = """
import json, sys
from lingobf import cli

later = ("lingobf.metrics", "lingobf.runner", "lingobf.stats", "lingobf.transport")
corpus, endpoint, out = sys.argv[1:]
loaded = {"import": [name for name in later if name in sys.modules]}
for step, *argv in (
    ("generate", corpus, "--out", f"{out}/ds", "--seed", "7"),
    ("prompt", f"{out}/ds", "--out", f"{out}/prompts.jsonl"),
    ("validate", corpus),
    ("run", "--prompts", f"{out}/prompts.jsonl", "--endpoint", endpoint, "--out", f"{out}/run"),
    ("score", "--run", f"{out}/run", "--dataset", f"{out}/ds", "--out", f"{out}/scores.json"),
    ("bootstrap", "--scores", f"{out}/scores.json", "--sets", "20", "--seed", "1"),
    ("report", "--scores", f"{out}/scores.json", "--out", f"{out}/report", "--run", f"{out}/run"),
):
    assert cli.main([step, *argv]) == 0, step
    loaded[step] = [name for name in later if name in sys.modules]
print(json.dumps(loaded))
"""


def test_generate_and_prompt_load_no_run_or_scoring_code(corpus_dir, tmp_path):
    # In a fresh interpreter: cli leaves the run and scoring modules
    # unloaded through generate and prompt, and each later subcommand
    # still works once it imports what it needs.
    with MockModelServer(lambda system, user: json.dumps({"1": "a"})) as server:
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"name": "mock", "url": server.url}), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        )}
        done = subprocess.run(
            [sys.executable, "-c", _FRESH_PIPELINE, str(corpus_dir), str(endpoint), str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded["import"] == loaded["generate"] == loaded["prompt"] == []
    assert "lingobf.metrics" in loaded["validate"]
    assert loaded["report"] == ["lingobf.metrics", "lingobf.runner", "lingobf.stats", "lingobf.transport"]


def test_score_refuses_a_dataset_of_no_records(capsys, corpus_dir, tmp_path):
    ds = tmp_path / "dataset"
    run_cli(capsys, "generate", str(corpus_dir), "--out", str(ds), "--seed", "7")
    (ds / "records.jsonl").write_text("", encoding="utf-8")
    (tmp_path / "run").mkdir()
    argv = ("score", "--run", str(tmp_path / "run"), "--dataset", str(ds), "--out", str(tmp_path / "s"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValueError", "detail": f"{ds}: score tensor has no problems"}
    assert not (tmp_path / "s").exists()


def test_generate_refuses_a_speaker_count_of_true(capsys, corpus_dir, tmp_path):
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    meta = tmp_path / "corpus" / "birds-x" / "meta.json"
    data = json.loads(meta.read_text(encoding="utf-8"))
    data["language"]["speakers"] = True
    meta.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["generate", str(tmp_path / "corpus"), "--out", str(tmp_path / "ds"), "--seed", "7"])
    assert exc.value.code == 1
    assert json.loads(capsys.readouterr().err) == {
        "errors": ["meta.json: language.speakers must be a positive integer"],
        "problem": "birds-x",
    }
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize(
    "content, detail",
    [("[]", "record is a JSON list, not an object"), ("{oops", "Expecting property name")],
    ids=["list", "bad-json"],
)
def test_report_names_a_malformed_run_manifest(capsys, tmp_path, content, detail):
    scores = tmp_path / "scores.json"
    tensor = {"problems": [{
        "problem_id": "x1", "difficulty": "Foundation", "speakers": 9,
        "scores": [[[1]]], "answer_types": [["YN"]],
    }]}
    scores.write_text(json.dumps(tensor), encoding="utf-8")
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "manifest.json").write_text(content, encoding="utf-8")
    argv = ("report", "--scores", str(scores), "--out", str(tmp_path / "report"))
    code, out, err = run_cli(capsys, *argv, "--run", str(tmp_path / "run"))
    assert code == 1 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "ValueError"
    assert diag["detail"].startswith(f"{tmp_path / 'run' / 'manifest.json'}: {detail}")
    # Every input is read before any file is written.
    assert not (tmp_path / "report").exists()
    # A --compare value without NAME= is a usage error, refused before any write.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--compare", "foo"])
    assert exc.value.code == 2
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize(
    "content, detail",
    [
        ("{bad", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("[]", "record is a JSON list, not an object"),
        ("{}", "record lacks field 'problems'"),
        ('{"problems": []}', "score tensor has no problems"),
        (
            json.dumps({"problems": [{
                "problem_id": "x1", "difficulty": "Foundation", "speakers": 9,
                "scores": [[[1, 0], [1]], [[1], [0]]], "answer_types": [["YN", "YN"], ["Other"]],
            }]}),
            "problem x1: variant p=1 has rows of [1, 1] scores, answer_types has [2, 1]",
        ),
        (
            json.dumps({"problems": [
                {"problem_id": "x1", "difficulty": "Foundation", "speakers": 9,
                 "scores": scores, "answer_types": [["YN", "YN"]]}
                for scores in ([[[1, 0]], [[0, 0]]], [[[1, 1]], [[1, 1]]])
            ]}),
            "problem x1 appears more than once",
        ),
        *(
            (
                json.dumps({"problems": [{
                    "problem_id": "x1", "difficulty": "Foundation", "speakers": 9,
                    "scores": [[[1, 0]]], "answer_types": [["YN", "YN"]], name: value,
                }]}),
                f"{where}{name} is {json.dumps(value)}, not {expected}",
            )
            for where, name, value, expected in [
                ("problem x1: ", "speakers", 0, "a positive integer"),
                ("problem x1: ", "speakers", -3, "a positive integer"),
                ("problems[0].", "speakers", True, "an integer"),
                ("problems[0].", "speakers", "9", "an integer"),
                ("problems[0].", "speakers", 9.5, "an integer"),
                ("problems[0].", "difficulty", 5, "a string"),
                ("problems[0].", "problem_id", 7, "a string"),
            ]
        ),
        (
            json.dumps({"case_sensitive": "no", "problems": [{
                "problem_id": "x1", "difficulty": "Foundation", "speakers": 9,
                "scores": [[[1, 0]]], "answer_types": [["YN", "YN"]],
            }]}),
            'case_sensitive is "no", not a boolean',
        ),
        (
            json.dumps({"problems": [{
                "problem_id": "x1", "difficulty": "Foundation", "speakers": 9,
                "scores": [[[1, 0]]], "answer_types": [[1, None]],
            }]}),
            "problems[0].answer_types[0][0] is 1, not a string",
        ),
    ],
    ids=[
        "bad-json",
        "list",
        "no-problems",
        "empty-problems",
        "ragged",
        "repeated-problem",
        "speakers-zero",
        "speakers-negative",
        "speakers-bool",
        "speakers-string",
        "speakers-float",
        "difficulty-number",
        "problem-id-number",
        "case-sensitive-string",
        "answer-type-number",
    ],
)
def test_malformed_scores_file_is_named(capsys, tmp_path, content, detail):
    scores = tmp_path / "scores.json"
    scores.write_text(content, encoding="utf-8")
    for argv in (
        ("bootstrap", "--scores", str(scores), "--seed", "1"),
        ("report", "--scores", str(scores), "--out", str(tmp_path / "report")),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ValueError", "detail": f"{scores}: {detail}"}


@pytest.mark.parametrize("cell", ["0.7", "2", "-1", '"1"', "true", "null"])
def test_a_score_cell_other_than_0_or_1_is_named(capsys, tmp_path, cell):
    scores = tmp_path / "scores.json"
    scores.write_text(
        '{"problems": [{"problem_id": "x1", "difficulty": "Foundation", "speakers": 9, '
        f'"scores": [[[1, 0]], [[0, {cell}]]], "answer_types": [["YN", "YN"]]}}]}}',
        encoding="utf-8",
    )
    detail = f"{scores}: problem x1: variant p=1 has a score of {cell}, not 0 or 1"
    if cell not in ("2", "-1"):  # not a JSON integer
        detail = f"{scores}: problems[0].scores[1][0][1] is {cell}, not an integer"
    for argv in (
        ("bootstrap", "--scores", str(scores), "--seed", "1"),
        ("report", "--scores", str(scores), "--out", str(tmp_path / "report")),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ValueError", "detail": detail}
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize(
    "parsed, detail",
    [
        (["a"], 'parsed is ["a"], not an object or null'),
        ({"1": 5}, 'parsed["1"] is 5, not a string'),
    ],
    ids=["list", "int-value"],
)
def test_a_run_record_whose_parsed_is_not_strings_is_named(
    capsys, corpus_dir, tmp_path, parsed, detail
):
    ds = tmp_path / "dataset"
    prompts_path = tmp_path / "prompts.jsonl"
    run_cli(capsys, "generate", str(corpus_dir), "--out", str(ds), "--seed", "7")
    run_cli(capsys, "prompt", str(ds), "--out", str(prompts_path))
    first = json.loads(prompts_path.read_text(encoding="utf-8").splitlines()[0])
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text(
        json.dumps({"schema_version": 1, "endpoint": "mock", "prompts": 31}), encoding="utf-8"
    )
    record = {
        "prompt_id": first["prompt_id"], "status": "ok", "raw_text": json.dumps(parsed),
        "parsed": parsed, "attempts": 1, "latency_ms": 1.0, "timestamp": "t",
    }
    (run_dir / "records.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({"problems": [{
        "problem_id": "x1", "difficulty": "Foundation", "speakers": 9,
        "scores": [[[1]]], "answer_types": [["YN"]],
    }]}), encoding="utf-8")
    # The endpoint is never contacted: the records are read first.
    endpoint = tmp_path / "endpoint.json"
    endpoint.write_text(json.dumps({"name": "mock", "url": "http://127.0.0.1:9"}), encoding="utf-8")
    before = {path.name: path.read_bytes() for path in run_dir.iterdir()}
    for argv in (
        ("score", "--run", str(run_dir), "--dataset", str(ds), "--out", str(tmp_path / "s.json")),
        ("report", "--scores", str(scores), "--out", str(tmp_path / "report"), "--run", str(run_dir)),
        ("run", "--prompts", str(prompts_path), "--endpoint", str(endpoint), "--out", str(run_dir)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ValueError",
            "detail": f"{run_dir / 'records.jsonl'}: line 1: {detail}",
        }
    assert not (tmp_path / "s.json").exists() and not (tmp_path / "report").exists()
    assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == before


@pytest.mark.parametrize("bins", ["0", "-1"])
@pytest.mark.parametrize("sets", ["5", "0"])
def test_bootstrap_refuses_fewer_than_one_bin(capsys, tmp_path, bins, sets):
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({"problems": [{
        "problem_id": "x1", "difficulty": "Foundation", "speakers": 9,
        "scores": [[[1, 0]]], "answer_types": [["YN", "YN"]],
    }]}), encoding="utf-8")
    out_path = tmp_path / "hist.csv"
    argv = ("bootstrap", "--scores", str(scores), "--seed", "1", "--sets", sets, "--bins", bins)
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "detail": "bins must be >= 1"}
    assert sorted(path.name for path in tmp_path.iterdir()) == ["scores.json"]


def test_prompt_no_context_and_question_filter(capsys, corpus_dir, tmp_path):
    ds = tmp_path / "dataset"
    run_cli(capsys, "generate", str(corpus_dir), "--out", str(ds), "--seed", "7")
    code, out, _ = run_cli(
        capsys,
        "prompt",
        str(ds),
        "--out",
        str(tmp_path / "p.jsonl"),
        "--question",
        "0",
        "--no-context",
    )
    assert code == 0
    lines = (tmp_path / "p.jsonl").read_text().splitlines()
    assert all(json.loads(line)["no_context"] for line in lines)
    assert {json.loads(line)["question_index"] for line in lines} == {0}


def test_prompt_refuses_a_negative_question(capsys, corpus_dir, tmp_path):
    ds = tmp_path / "dataset"
    run_cli(capsys, "generate", str(corpus_dir), "--out", str(ds), "--seed", "7")
    argv = ("prompt", str(ds), "--out", str(tmp_path / "p.jsonl"), "--question", "-1")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "detail": "question index -1 is negative"}
    # No prompts file, and no temporary file beside it.
    assert [path.name for path in tmp_path.iterdir()] == ["dataset"]


def test_a_mistyped_endpoint_config_is_refused_before_the_run_directory(
    capsys, tmp_path, corpus_dir
):
    ds = tmp_path / "dataset"
    run_cli(capsys, "generate", str(corpus_dir), "--out", str(ds), "--seed", "7")
    run_cli(capsys, "prompt", str(ds), "--out", str(tmp_path / "p.jsonl"))
    cfg = tmp_path / "endpoint.json"
    cfg.write_text(json.dumps({"name": "x", "url": "http://127.0.0.1:9", "max_retries": "3"}))
    argv = ("run", "--prompts", str(tmp_path / "p.jsonl"), "--endpoint", str(cfg))
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "run"))
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "detail": f'{cfg}: max_retries is "3", not an integer',
    }
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "field, value, detail",
    [
        ("expected_keys", "ab", 'expected_keys is "ab", not a list'),
        ("expected_keys", ["a", 1], "expected_keys[1] is 1, not a string"),
        ("p", "0", 'p is "0", not an integer'),
        ("question_index", True, "question_index is true, not an integer"),
        ("prompt_id", 7, "prompt_id is 7, not a string"),
        ("user", None, "user is null, not a string"),
        ("no_context", 0, "no_context is 0, not a boolean"),
        ("guidance", ["x"], 'guidance is ["x"], not a string or null'),
    ],
    ids=["expected-keys-string", "expected-keys-int-item", "p-string", "question-index-bool",
         "prompt-id-int", "user-null", "no-context-int", "guidance-list"],
)
def test_a_mistyped_prompts_line_is_refused_before_the_run_directory(
    capsys, tmp_path, corpus_dir, field, value, detail
):
    ds, prompts = tmp_path / "dataset", tmp_path / "p.jsonl"
    run_cli(capsys, "generate", str(corpus_dir), "--out", str(ds), "--seed", "7")
    run_cli(capsys, "prompt", str(ds), "--out", str(prompts))
    lines = prompts.read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), field: value})
    prompts.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = tmp_path / "endpoint.json"
    cfg.write_text(json.dumps({"name": "x", "url": "http://127.0.0.1:9", "max_retries": 0}))
    argv = ("run", "--prompts", str(prompts), "--endpoint", str(cfg))
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "run"))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "detail": f"{prompts}: line 2: {detail}"}
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "fields, flags, detail",
    [
        ('"url": "ftp://127.0.0.1:9/v1"', (),
         '{cfg}: url is "ftp://127.0.0.1:9/v1", not an http:// or https:// URL with a host'),
        ('"url": "http:///v1"', (),
         '{cfg}: url is "http:///v1", not an http:// or https:// URL with a host'),
        ('"url": "http://127.0.0.1:9", "timeout_s": NaN', (),
         "{cfg}: timeout_s is NaN, not a finite number"),
        ('"url": "http://127.0.0.1:9", "retry_base_s": Infinity', (),
         "{cfg}: retry_base_s is Infinity, not a finite number"),
        ('"url": "http://127.0.0.1:9", "temperature": NaN', (),
         "{cfg}: temperature is NaN, not a finite number"),
        ('"url": "http://127.0.0.1:9", "retry_base_s": 1e300, "max_retries": 1', (),
         "{cfg}: retry_base_s is 1e+300: with max_retries 1, the longest wait between attempts, "
         "retry_base_s * 2**(max_retries - 1) s, is over half of threading.TIMEOUT_MAX "
         f"({threading.TIMEOUT_MAX / 2:.0f} s)"),
        ('"url": "http://127.0.0.1:9", "retry_base_s": 9223372036, "max_retries": 1', (),
         "{cfg}: retry_base_s is 9223372036: with max_retries 1, the longest wait between "
         "attempts, retry_base_s * 2**(max_retries - 1) s, is over half of "
         f"threading.TIMEOUT_MAX ({threading.TIMEOUT_MAX / 2:.0f} s)"),
        ('"url": "http://127.0.0.1:9"', ("--parallelism", "0"),
         "parallelism is 0, not at least 1"),
    ],
    ids=["ftp-url", "no-host", "nan-timeout", "infinite-retry-base", "nan-temperature",
         "retry-wait-overflow", "retry-wait-past-the-clock", "parallelism-0"],
)
def test_a_run_that_cannot_be_made_is_refused_before_the_run_directory(
    capsys, tmp_path, corpus_dir, fields, flags, detail
):
    ds = tmp_path / "dataset"
    run_cli(capsys, "generate", str(corpus_dir), "--out", str(ds), "--seed", "7")
    run_cli(capsys, "prompt", str(ds), "--out", str(tmp_path / "p.jsonl"))
    cfg = tmp_path / "endpoint.json"
    cfg.write_text('{"name": "x", ' + fields + "}")
    argv = ("run", "--prompts", str(tmp_path / "p.jsonl"), "--endpoint", str(cfg), *flags)
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "run"))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "detail": detail.format(cfg=cfg)}
    assert not (tmp_path / "run").exists()


def _scores_text(problems: dict[str, tuple[str, int, list[int]]]) -> str:
    """A score tensor: per problem its level, speakers and p = 0..2 scores of two sub-questions."""
    return json.dumps({"problems": [
        {"problem_id": pid, "difficulty": level, "speakers": speakers,
         "scores": [[[cell, 1]] for cell in cells], "answer_types": [["YN", "Other"]]}
        for pid, (level, speakers, cells) in problems.items()
    ]})


def test_report_reads_and_aggregates_each_score_file_once(capsys, monkeypatch, tmp_path):
    import lingobf.jsonio
    import lingobf.metrics

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(_scores_text({
        "x1": ("Foundation", 9, [1, 0, 1]),
        "x2": ("Foundation", 900, [1, 1, 0]),
        "x3": ("Advanced", 90000, [0, 1, 1]),
    }))
    b.write_text(_scores_text({
        "x1": ("Foundation", 9, [1, 1, 1]),
        "x2": ("Foundation", 900, [0, 0, 0]),
        "x4": ("Advanced", 50, [1, 0, 0]),
    }))
    reads, aggregates = [], []
    read_json, aggregate = lingobf.jsonio.read_json, lingobf.metrics.aggregate
    monkeypatch.setattr(
        lingobf.jsonio, "read_json", lambda path, *args: reads.append(path) or read_json(path, *args)
    )
    monkeypatch.setattr(
        lingobf.metrics,
        "aggregate",
        lambda *args, **kwargs: aggregates.append(args) or aggregate(*args, **kwargs),
    )
    argv = ("report", "--scores", str(a), "--out", str(tmp_path / "report"))
    code, _, _ = run_cli(capsys, *argv, "--compare", f"a={a}", "--compare", f"b={b}")
    assert code == 0
    assert reads == [str(a), str(b)] and len(aggregates) == 2
    # The same bytes as a report that reads and aggregates a.json twice.
    pinned = {
        "heatmap.csv": "f22afac78536d3f73e4f4a0b8567a1a4944c5c3151c46057b8be756bf289a7f4",
        "per_problem.csv": "163b7ff9bce45c7dda5610463500df0a49192a74295e3b82d4db24d5fefab03c",
        "regression.csv": "d003db03c1667a620f660dce6ad9a1cc33391ce9cfe4ce3b6806a8c47c3750a6",
        "summary.json": "304c569a1806688f1d3de0ba42c48812211323d9ed2f7a6e97a807e2be11e0b5",
        "summary.md": "484fac82bc54b4253b7bc5e9267f6d379f1f8a34acafd5c0edc03410304a732c",
    }
    assert {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (tmp_path / "report").iterdir()
    } == pinned


def test_bad_endpoint_config_exits_1(capsys, tmp_path, corpus_dir):
    ds = tmp_path / "dataset"
    run_cli(capsys, "generate", str(corpus_dir), "--out", str(ds), "--seed", "7")
    run_cli(capsys, "prompt", str(ds), "--out", str(tmp_path / "p.jsonl"))
    cfg = tmp_path / "endpoint.json"
    cfg.write_text(json.dumps({"name": "x", "url": "http://x", "tempreture": 1}))
    code, out, err = run_cli(
        capsys,
        "run",
        "--prompts",
        str(tmp_path / "p.jsonl"),
        "--endpoint",
        str(cfg),
        "--out",
        str(tmp_path / "run"),
    )
    assert code == 1
    assert "error" in json.loads(err.splitlines()[-1])


def test_data_error_exits_1_with_json_diag(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "score", "--run", str(tmp_path / "nope"), "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "s.json")
    )
    assert code == 1
    diag = json.loads(err.splitlines()[-1])
    assert "error" in diag


def test_an_os_error_is_a_diagnostic_naming_the_path(capsys, corpus_dir, tmp_path):
    ds = tmp_path / "dataset"
    run_cli(capsys, "generate", str(corpus_dir), "--out", str(ds), "--seed", "7")
    taken = tmp_path / "taken"
    taken.mkdir()
    problem = corpus_dir / "birds-x" / "problem.txt"
    for argv, error, path in (
        (("report", "--scores", str(taken), "--out", str(tmp_path / "report")),
         "IsADirectoryError", taken),
        (("prompt", str(problem), "--out", str(tmp_path / "p.jsonl")),
         "NotADirectoryError", problem / "records.jsonl"),
        (("prompt", str(ds), "--out", str(taken)), "IsADirectoryError", taken),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        diag = json.loads(err)
        assert diag["error"] == error and f"'{path}'" in diag["detail"]
    # No output and no temporary file is left beside the refused ones.
    assert sorted(path.name for path in tmp_path.iterdir()) == ["dataset", "taken"]
    assert list(taken.iterdir()) == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_demo_drives_the_cli_to_the_expected_scores(capsys, monkeypatch, tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_demo.py"
    spec = importlib.util.spec_from_file_location("run_demo", script)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(sys, "argv", ["run_demo.py", "--seed", "7", "--out", str(tmp_path)])
    assert demo.main() == 0
    out = capsys.readouterr().out
    for line in ("original score   : 1.000", "obfuscated score : 0.167", "robust score     : 0.167"):
        assert line in out
    for artifact in ("dataset", "prompts.jsonl", "run", "scores.json", "report", "hist.csv"):
        assert (tmp_path / artifact).exists()
