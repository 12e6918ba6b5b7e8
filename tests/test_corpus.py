from __future__ import annotations

import dataclasses
import json
import shutil
import tracemalloc

import pytest

from lingobf import jsonio
from lingobf.annotations import MARKERS, parse
from lingobf.cli import main
from lingobf.corpus import (
    Corpus,
    build_dataset,
    group_variants,
    load_corpus,
    load_dataset,
    variant_maps,
    write_dataset,
)

from .conftest import reference_render


def test_fixture_corpus_loads_clean(corpus):
    assert [p.id for p in corpus.problems] == ["birds-x", "rivers-z", "voicing-y"]
    assert all(len(p.questions) >= 1 for p in corpus.problems)


def test_empty_directory_warns(tmp_path):
    loaded, report = load_corpus(tmp_path)
    assert len(loaded) == 0
    assert report.warnings


def test_uncovered_problem_excluded_but_rest_load(tmp_path, corpus_dir):
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    bad = tmp_path / "corpus" / "birds-x" / "problem.txt"
    bad.write_text(bad.read_text(encoding="utf-8").replace("@@@pek@@@", "@@@pequx@@@"), encoding="utf-8")
    loaded, report = load_corpus(tmp_path / "corpus")
    assert [p.id for p in loaded.problems] == ["rivers-z", "voicing-y"]
    assert len(report.failures) == 1
    assert report.failures[0].problem_id == "birds-x"
    assert "coverage" in report.failures[0].errors[0]


def test_unbalanced_marker_is_a_load_failure(tmp_path, corpus_dir):
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    bad = tmp_path / "corpus" / "voicing-y" / "problem.txt"
    bad.write_text(bad.read_text(encoding="utf-8").replace("@@@pat@@@", "@@@pat"), encoding="utf-8")
    _, report = load_corpus(tmp_path / "corpus")
    assert any(f.problem_id == "voicing-y" for f in report.failures)


def test_missing_answer_key_is_a_load_failure(tmp_path, corpus_dir):
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    answers = tmp_path / "corpus" / "voicing-y" / "answers.json"
    answers.write_text(json.dumps([{"1": "@@@gup@@@"}]), encoding="utf-8")
    _, report = load_corpus(tmp_path / "corpus")
    assert any("missing answers" in e for f in report.failures for e in f.errors)


def test_bad_difficulty_is_a_load_failure(tmp_path, corpus_dir):
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    meta = tmp_path / "corpus" / "birds-x" / "meta.json"
    data = json.loads(meta.read_text(encoding="utf-8"))
    data["difficulty"] = "Impossible"
    meta.write_text(json.dumps(data), encoding="utf-8")
    _, report = load_corpus(tmp_path / "corpus")
    assert any("difficulty" in e for f in report.failures for e in f.errors)


@pytest.mark.parametrize(
    "name, content, error",
    [
        ("meta.json", "[]", "meta.json: record is a JSON list, not an object"),
        (
            "meta.json",
            '{"difficulty": "Foundation", "language": 5}',
            "meta.json: language.speakers must be a positive integer",
        ),
        (
            "meta.json",
            '{"difficulty": "Foundation", "language": {"speakers": true}}',
            "meta.json: language.speakers must be a positive integer",
        ),
        ("answers.json", '[{"1": 5, "2": "x"}]', "answers.json: question 0 key '1': expected"),
        (
            "answers.json",
            '[{"1": {"answer": "x", "alternates": 5}, "2": "x"}]',
            "answers.json: question 0 key '1': expected",
        ),
        ("answers.json", '[["1", "2"]]', "answers.json: question 0 must be a JSON object"),
        ("answers.json", '{"1": "x"}', "answers.json: record is a JSON dict, not a list"),
        ("answers.json", "[{oops", "answers.json: Expecting property name"),
        ("ruleset.json", "[]", "ruleset.json: record is a JSON list, not an object"),
        ("ruleset.json", '{"sets": 5}', "ruleset.json: sets is 5, not a list"),
        (
            "ruleset.json",
            '{"tables": [{"cols": []}]}',
            "ruleset.json: record lacks field 'tables[0].columns'",
        ),
        ("ruleset.json", "{oops", "ruleset.json: Expecting property name"),
        ("ruleset.json", '{"fixed": "sh"}', 'ruleset.json: fixed is "sh", not a list'),
        ("ruleset.json", '{"sets": "ab"}', 'ruleset.json: sets is "ab", not a list'),
        (
            "ruleset.json",
            '{"sets": [["p", "b"], "abc"]}',
            'ruleset.json: sets[1] is "abc", not a list',
        ),
        (
            "ruleset.json",
            '{"tables": [{"columns": "pb"}]}',
            'ruleset.json: tables[0].columns is "pb", not a list',
        ),
        (
            "ruleset.json",
            '{"tables": [{"columns": [["p"], "b"]}]}',
            'ruleset.json: tables[0].columns[1] is "b", not a list',
        ),
        (
            "ruleset.json",
            '{"free_tables": [{"columns": "pb"}]}',
            'ruleset.json: free_tables[0].columns is "pb", not a list',
        ),
        (
            "ruleset.json",
            '{"free_tables": [{"columns": [["p"], "b"]}]}',
            'ruleset.json: free_tables[0].columns[1] is "b", not a list',
        ),
        (
            "ruleset.json",
            '{"free_tables": [{"columns": [["p", 5], ["b", "d"]]}]}',
            "ruleset.json: free_tables[0].columns[0][1] is 5, not a string or a list",
        ),
        (
            "ruleset.json",
            '{"free_tables": [{"columns": [["p", [5]], ["b", "d"]]}]}',
            "ruleset.json: free_tables[0].columns[0][1][0] is 5, not a string",
        ),
        (
            "ruleset.json",
            '{"sets": [["p", "b"], ["q"], ["a", "@"]]}',
            "ruleset.json: set[1]: set of size 1 cannot be deranged; "
            "set[2]: grapheme '@' contains an annotation marker character",
        ),
    ],
    ids=[
        "meta-list",
        "language-number",
        "speakers-true",
        "answer-number",
        "alternates-number",
        "question-list",
        "answers-object",
        "answers-bad-json",
        "ruleset-list",
        "sets-number",
        "table-without-columns",
        "ruleset-bad-json",
        "fixed-string",
        "sets-string",
        "set-string",
        "table-columns-string",
        "table-column-string",
        "free-table-columns-string",
        "free-table-column-string",
        "free-table-cell-number",
        "free-table-cell-list-of-number",
        "invalid-ruleset",
    ],
)
def test_malformed_json_file_is_that_problems_load_failure(
    tmp_path, corpus_dir, name, content, error
):
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    (tmp_path / "corpus" / "voicing-y" / name).write_text(content, encoding="utf-8")
    loaded, report = load_corpus(tmp_path / "corpus")
    assert [p.id for p in loaded] == ["birds-x", "rivers-z"]
    assert [f.problem_id for f in report.failures] == ["voicing-y"]
    assert report.failures[0].errors[0].startswith(error)


@pytest.mark.parametrize(
    "answers, error",
    [
        (
            '[{"1": {"answer": "@@@gux@@@", "alternates": ["@@@gox@@@"]}, "2": "@@@kup@@@"}]',
            "coverage gaps: answer:q0.1: span 0 offset 2: 'x'; "
            "answer:alt0.q0.1: span 0 offset 1: 'ox'",
        ),
        ('[{"1": "@@@gup", "2": "@@@kup@@@"}]', "unbalanced marker @@@ at offset 0"),
        (
            '[{"1": {"answer": "@@@gup@@@", "alternates": ["yes", "@@@g$$$u$$$p@@@"]}, '
            '"2": "@@@kup@@@"}]',
            "nested marker $$$ inside @@@ span at offset 4",
        ),
    ],
    ids=["uncovered", "unbalanced", "nested-in-alternate"],
)
def test_a_bad_answer_is_that_problems_load_failure(tmp_path, corpus_dir, answers, error):
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    (tmp_path / "corpus" / "voicing-y" / "answers.json").write_text(answers, encoding="utf-8")
    loaded, report = load_corpus(tmp_path / "corpus")
    assert [p.id for p in loaded] == ["birds-x", "rivers-z"]
    assert [(f.problem_id, f.errors) for f in report.failures] == [("voicing-y", [error])]


def test_the_load_parses_each_text_once(capsys, tmp_path, corpus_dir, monkeypatch):
    import lingobf.annotations

    # One alternate, so that alternates are counted too.
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    (tmp_path / "corpus" / "voicing-y" / "answers.json").write_text(
        '[{"1": {"answer": "@@@gup@@@", "alternates": ["@@@gub@@@"]}, "2": "@@@kup@@@"}]',
        encoding="utf-8",
    )
    texts = []
    parse = lingobf.annotations.parse
    monkeypatch.setattr(
        lingobf.annotations, "parse", lambda text: texts.append(text) or parse(text)
    )
    loaded, report = load_corpus(tmp_path / "corpus")
    assert report.ok
    subs = [sub for p in loaded for q in p.questions for sub in q.subquestions]
    documents = sum(2 + len(p.questions) for p in loaded) + len(subs)
    answers = sum(1 + len(sub.alternates) for sub in subs)
    # 3 preambles, 3 contexts, 5 bodies and 8 sub-questions; 8 answers and 1 alternate.
    assert (documents, answers) == (19, 9)
    assert len(texts) == 19 + 9
    # validate classifies the parsed answers and parses nothing again.
    texts.clear()
    assert main(["validate", str(tmp_path / "corpus")]) == 0
    assert len(texts) == 19 + 9


# ---------------------------------------------------------------------------
# Dataset generation


def test_exact_case_load_refuses_what_folded_load_passes(tmp_path, corpus_dir):
    # Capitalized Problemese is covered only by case-folded matching, so an
    # exact-case load lists the problem as a failure under its own name.
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    text = tmp_path / "corpus" / "birds-x" / "problem.txt"
    text.write_text(
        text.read_text(encoding="utf-8").replace("@@@pek@@@", "@@@Pek@@@"), encoding="utf-8"
    )
    folded, report = load_corpus(tmp_path / "corpus")
    assert report.ok and folded.fold_case
    assert build_dataset(folded, per_problem=2, seed=7).fold_case
    exact, report = load_corpus(tmp_path / "corpus", fold_case=False)
    assert not exact.fold_case
    assert [p.id for p in exact] == ["rivers-z", "voicing-y"]
    assert [f.problem_id for f in report.failures] == ["birds-x"]
    assert report.failures[0].errors == ["coverage gaps: context: span 4 offset 0: 'P'"]


def test_pair_accounting(corpus, dataset):
    # Per problem: (1 + P_i) * sum_j m_ij, with one problem capped at 2 maps.
    expected = 0
    for problem in corpus.problems:
        p_i = len(variant_maps(problem, 6, seed=7)) - 1
        expected += (1 + p_i) * sum(len(q.subquestions) for q in problem.questions)
    assert sum(len(r.subquestions) for r in dataset) == expected == 48
    voicing = {r.p for r in dataset if r.problem_id == "voicing-y"}
    assert voicing == {0, 1, 2}


def test_per_problem_zero_gives_originals_only(corpus):
    records = build_dataset(corpus, per_problem=0, seed=1)
    assert {r.p for r in records} == {0}


def _synthetic_corpus():
    """Two problems x two questions x two subquestions, ample map support."""
    from lingobf.annotations import parse
    from lingobf.corpus import Corpus, Problem, Question, Subquestion
    from lingobf.rulesets import Ruleset

    ruleset = Ruleset(sets=(("a", "e", "i", "o", "u", "m", "t"),))
    words = [["ma", "me", "mi", "mo"], ["ta", "te", "ti", "to"]]

    def question(pair):
        return Question(
            body=parse("Translate."),
            subquestions=tuple(
                Subquestion(
                    key=str(k + 1), text=parse(f"item {k + 1}"), answer=parse(f"@@@{w}@@@")
                )
                for k, w in enumerate(pair)
            ),
        )

    problems = tuple(
        Problem(
            id=f"synth-{i}",
            difficulty="Breakthrough",
            speakers=100,
            preamble=parse("A preamble."),
            context=parse(f"@@@{words[i][0]}@@@ one"),
            questions=(question(words[i][:2]), question(words[i][2:])),
            ruleset=ruleset,
        )
        for i in range(2)
    )
    return Corpus(problems=problems)


def test_pair_accounting_two_by_two_by_two():
    # 2 problems x 2 questions x 2 subquestions with 6 permutations each:
    # (1 + 6) * 4 pairs per problem = 56 total.
    records = build_dataset(_synthetic_corpus(), per_problem=6, seed=1)
    assert sum(len(r.subquestions) for r in records) == 56


def test_build_dataset_deterministic_bytes(corpus, tmp_path):
    for name in ("a", "b"):
        write_dataset(build_dataset(corpus, per_problem=6, seed=7), tmp_path / name)
    assert (tmp_path / "a" / "records.jsonl").read_bytes() == (
        tmp_path / "b" / "records.jsonl"
    ).read_bytes()
    assert (tmp_path / "a" / "manifest.json").read_bytes() == (
        tmp_path / "b" / "manifest.json"
    ).read_bytes()


def test_different_seed_different_dataset(corpus):
    a = build_dataset(corpus, per_problem=6, seed=7)
    b = build_dataset(corpus, per_problem=6, seed=8)
    assert [r.to_dict() for r in a] != [r.to_dict() for r in b]


def test_same_map_consistency(corpus, dataset):
    """Re-rendering any stored answer with the variant's map reproduces it."""
    problems = {p.id: p for p in corpus.problems}
    for record in dataset:
        if record.p == 0:
            continue
        problem = problems[record.problem_id]
        pmap = dataset.maps[record.variant_id]
        assert pmap == variant_maps(problem, 6, seed=7)[record.p]
        for sub in problem.questions[record.question_index].subquestions:
            rendered = reference_render(sub.answer, pmap, problem.ruleset)
            assert rendered == record.answers[sub.key]


def test_no_leakage_in_prompt_facing_fields(corpus_dir, dataset):
    names = {
        json.loads(meta.read_text(encoding="utf-8"))["language"]["name"]
        for meta in corpus_dir.glob("*/meta.json")
    }
    assert len(names) == 3
    for record in dataset:
        fields = [record.preamble, record.context, record.body]
        fields.extend(text for _, text in record.subquestions)
        for text in fields:
            for marker in MARKERS:
                assert marker not in text
            for name in names:
                assert name not in text


def test_identity_variant_matches_unobfuscated_render(dataset):
    for record in dataset:
        if record.p == 0 and record.problem_id == "birds-x" and record.question_index == 0:
            assert "lami bird" in record.context
            assert record.answers == {"1": "peksu", "2": "tozi"}


def test_dataset_round_trip(tmp_path, corpus, dataset):
    manifest = write_dataset(dataset, tmp_path / "ds")
    assert load_dataset(tmp_path / "ds") == list(dataset)
    assert jsonio.read_json(tmp_path / "ds" / "manifest.json", dict) == manifest
    assert manifest["pairs"] == 48
    assert set(manifest["digests"]) == {r.variant_id for r in dataset}


def test_problem_text_lines_end_only_at_line_ends(tmp_path, corpus_dir):
    # str.splitlines would also break at U+2028 and form feed, rewriting the
    # span and reading the form-fed text as a [sub 9] directive.
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    path = tmp_path / "corpus" / "birds-x" / "problem.txt"
    text = path.read_text(encoding="utf-8")
    text = text.replace("@@@lami@@@ bird", "@@@la\u2028mi@@@ bird")
    text = text.replace("Translate into $$$Language X$$$.", "Translate\x0c[sub 9]")
    path.write_text(text, encoding="utf-8")
    loaded, report = load_corpus(tmp_path / "corpus")
    assert report.ok, [f.errors for f in report.failures]
    record = next(
        r
        for r in build_dataset(loaded, per_problem=0, seed=7)
        if (r.problem_id, r.question_index) == ("birds-x", 0)
    )
    assert "la\u2028mi bird" in record.context
    assert record.body == "Translate\x0c[sub 9]"
    assert [key for key, _ in record.subquestions] == ["1", "2"]


def test_load_dataset_keeps_unicode_line_separators(tmp_path, corpus):
    problem = corpus.problems[0]
    (question, *questions), (sub, *subs) = problem.questions, problem.questions[0].subquestions
    sub = dataclasses.replace(sub, answer=parse("a\u2028b\u0085c"))
    question = dataclasses.replace(question, subquestions=(sub, *subs))
    problem = dataclasses.replace(problem, questions=(question, *questions))
    dataset = build_dataset(Corpus(problems=(problem,)), per_problem=2, seed=7)
    write_dataset(dataset, tmp_path)
    loaded = load_dataset(tmp_path)
    assert len(loaded) == len(dataset)
    assert loaded[0].answers[sub.key] == "a\u2028b\u0085c"


@pytest.mark.parametrize(
    "bad, error",
    [
        ("{garbage", "line 2: Expecting"),
        ('{"p": 0}', "line 2: record lacks field 'problem_id'"),
        ('"x"', "line 2: record is a JSON str, not an object"),
    ],
)
def test_load_dataset_names_a_bad_line(tmp_path, dataset, bad, error):
    write_dataset(dataset, tmp_path)
    path = tmp_path / "records.jsonl"
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[1] = bad
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=f"records.jsonl: {error}"):
        load_dataset(tmp_path)


def test_write_is_independent_of_problem_order(tmp_path, corpus):
    # The write renders a problem at a time in problem-id order, so the
    # corpus's own order never reaches the bytes.
    for name, problems in (("sorted", corpus.problems), ("reversed", corpus.problems[::-1])):
        write_dataset(build_dataset(Corpus(problems=problems), per_problem=6, seed=7), tmp_path / name)
    for name in ("records.jsonl", "manifest.json"):
        assert (tmp_path / "sorted" / name).read_bytes() == (tmp_path / "reversed" / name).read_bytes()


def test_write_refuses_a_problem_id_given_twice(tmp_path, corpus):
    twice = Corpus(problems=(*corpus.problems, corpus.problems[1]))
    with pytest.raises(ValueError, match="^dataset for rivers-z: variant p=0 repeats a question index$"):
        write_dataset(build_dataset(twice, per_problem=6, seed=7), tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_write_refuses_what_prompt_and_score_refuse(tmp_path, dataset, monkeypatch):
    # Drop a sub-question from the last problem's p = 1: the blocks of the
    # problems before it are written by then, yet no records.jsonl is left.
    import lingobf.corpus

    render = lingobf.corpus._render_problem
    monkeypatch.setattr(
        lingobf.corpus,
        "_render_problem",
        lambda *args: (
            _drop_first_key(r) if r.prompt_id == "voicing-y:p1:q0" else r for r in render(*args)
        ),
    )
    with pytest.raises(ValueError, match="^dataset for voicing-y: variant p=1 question 0 "):
        write_dataset(dataset, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_load_dataset_keeps_a_variants_sheet_once(tmp_path, dataset):
    write_dataset(dataset, tmp_path)
    first, second = load_dataset(tmp_path), load_dataset(tmp_path)
    assert first == second == list(dataset)
    for variant in group_variants(first):
        for name in ("preamble", "context"):
            assert len({id(getattr(r, name)) for r in variant.questions}) == 1
    # The memo lives for one read: two reads share no text.
    for name in ("problem_id", "difficulty", "preamble", "context"):
        assert not {id(getattr(r, name)) for r in first} & {id(getattr(r, name)) for r in second}


def _wide_corpus(problems: int):
    """``problems`` copies of one problem with a 6 kB context, compiled as a load leaves them."""
    from lingobf.corpus import Problem, Question, Subquestion
    from lingobf.rulesets import Ruleset

    def question(k):
        return Question(
            body=parse("Translate."),
            subquestions=(Subquestion(key="1", text=parse(f"item {k}"), answer=parse("@@@mate@@@")),),
        )

    base = Problem(
        id="",
        difficulty="Breakthrough",
        speakers=100,
        preamble=parse("A preamble."),
        context=parse("@@@" + " ".join(["matu tomi"] * 600) + "@@@ one"),
        questions=(question(0), question(1)),
        ruleset=Ruleset(sets=(("a", "e", "i", "o", "u", "m", "t"),)),
    )
    corpus = Corpus(problems=tuple(dataclasses.replace(base, id=f"wide-{i:02d}") for i in range(problems)))
    for problem in corpus:
        problem.compiled
    return corpus


def test_generate_holds_one_problem_not_the_dataset(tmp_path):
    # Net of the loaded corpus, each problem adds its maps and manifest
    # entries, a few kB, while its 14 rendered records hold ~60 kB: a write
    # that held every problem's records peaks ~1.7 MB higher at 40 problems.
    peaks = []
    for problems in (10, 40):
        corpus = _wide_corpus(problems)
        tracemalloc.start()
        try:
            write_dataset(build_dataset(corpus, per_problem=6, seed=1), tmp_path / str(problems))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 512_000


def test_group_variants_sorts_problem_then_p_then_question(dataset):
    variants = group_variants(reversed(list(dataset)))
    assert [(v.problem_id, v.p) for v in variants] == sorted({(r.problem_id, r.p) for r in dataset})
    for variant in variants:
        assert [q.question_index for q in variant.questions] == list(range(len(variant.questions)))


def _drop_first_key(record):
    (key, _), *subquestions = record.subquestions
    return dataclasses.replace(
        record,
        subquestions=tuple(subquestions),
        answers={k: v for k, v in record.answers.items() if k != key},
        alternates={k: v for k, v in record.alternates.items() if k != key},
    )


@pytest.mark.parametrize(
    "edit, error",
    [
        (
            lambda r: None if (r.problem_id, r.p) == ("birds-x", 3) else r,
            r"dataset for birds-x: variants p=\[0, 1, 2, 4, 5, 6\] are not p=0..5",
        ),
        (
            lambda r: None if r.prompt_id == "birds-x:p2:q1" else r,
            "dataset for birds-x: variant p=2 lacks question 1, which p=0 has",
        ),
        (
            lambda r: None if r.prompt_id == "birds-x:p0:q1" else r,
            r"dataset for birds-x: variant p=1 question 1 has sub-question keys \['1'\], "
            r"p=0 has \[\]",
        ),
        (
            lambda r: dataclasses.replace(r, question_index=0)
            if r.prompt_id == "rivers-z:p1:q1" else r,
            "dataset for rivers-z: variant p=1 repeats a question index",
        ),
        (
            lambda r: _drop_first_key(r) if r.prompt_id == "voicing-y:p1:q0" else r,
            r"dataset for voicing-y: variant p=1 question 0 has sub-question keys \['2'\], "
            r"p=0 has \['1', '2'\]",
        ),
        (
            lambda r: None if (r.problem_id, r.question_index) == ("birds-x", 0) else r,
            r"dataset for birds-x: question indices \[1\] are not 0..0",
        ),
    ],
    ids=[
        "p-gap", "question-missing", "question-extra", "question-repeated", "key-dropped",
        "question-index-gap",
    ],
)
def test_group_variants_refuses_a_variant_unlike_p0(dataset, edit, error):
    records = [r for r in map(edit, dataset) if r is not None]
    with pytest.raises(ValueError, match=error):
        group_variants(records)


def test_manifest_maps_rederive_variants(tmp_path, corpus, dataset):
    write_dataset(dataset, tmp_path / "ds")
    manifest = jsonio.read_json(tmp_path / "ds" / "manifest.json", dict)
    problems = {p.id: p for p in corpus.problems}
    for variant_id, info in manifest["maps"].items():
        problem_id, _, p_tag = variant_id.partition(":")
        problem = problems[problem_id]
        from lingobf.rulesets import sample_permutation

        assert sample_permutation(problem.ruleset, info["seed"]).pairs == info["pairs"]


def test_maps_drawn_once_per_problem(tmp_path, corpus, monkeypatch):
    import lingobf.corpus

    calls = []
    draw = lingobf.corpus.sample_distinct
    monkeypatch.setattr(
        lingobf.corpus, "sample_distinct", lambda *args: calls.append(args) or draw(*args)
    )
    write_dataset(build_dataset(corpus, per_problem=6, seed=7), tmp_path / "ds")
    assert len(calls) == len(corpus) == 3


def test_generate_compiles_each_problem_once(tmp_path, corpus_dir, monkeypatch):
    import lingobf.corpus
    from lingobf.cli import main

    calls = []
    compile_texts = lingobf.corpus.CompiledTexts
    monkeypatch.setattr(
        lingobf.corpus,
        "CompiledTexts",
        lambda *args, **kwargs: calls.append(args) or compile_texts(*args, **kwargs),
    )
    assert main(["generate", str(corpus_dir), "--out", str(tmp_path / "ds"), "--seed", "7"]) == 0
    assert len(calls) == 3


def test_manifest_records_the_build_parameters(tmp_path, corpus_dir):
    corpus, report = load_corpus(corpus_dir, fold_case=False)
    assert report.ok
    dataset = build_dataset(corpus, per_problem=2, seed=3)
    manifest = write_dataset(dataset, tmp_path / "ds")
    assert (manifest["per_problem"], manifest["seed"], manifest["fold_case"]) == (2, 3, False)
    assert manifest["maps"] == {
        vid: {"seed": pmap.seed, "pairs": pmap.pairs} for vid, pmap in dataset.maps.items()
    }
    assert set(manifest["maps"]) == {r.variant_id for r in dataset if r.p > 0}


def _validate_stats(capsys, corpus_dir):
    code = main(["validate", str(corpus_dir)])
    return code, json.loads(capsys.readouterr().out)


def test_stats_on_corpus(capsys, tmp_path, corpus_dir):
    code, stats = _validate_stats(capsys, corpus_dir)
    assert code == 0
    assert stats["subquestions"] == 8
    assert stats["subquestions_by_answer_type"] == {"Digit": 1, "YN": 1, "Other": 6}
    # A problem that fails to load contributes nothing to the statistics.
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    bad = tmp_path / "corpus" / "birds-x" / "problem.txt"
    bad.write_text(bad.read_text(encoding="utf-8").replace("@@@pek@@@", "@@@pequx@@@"), encoding="utf-8")
    code, stats = _validate_stats(capsys, tmp_path / "corpus")
    assert code == 1
    assert (stats["problems_ok"], stats["problems_failed"]) == (2, 1)
    assert (stats["questions"], stats["subquestions"]) == (3, 5)
    assert stats["subquestions_by_difficulty"] == {"Intermediate": 2, "Round2": 3}
    assert stats["subquestions_by_answer_type"] == {"Other": 4, "YN": 1}


def test_stats_empty_dataset(capsys, tmp_path):
    code, stats = _validate_stats(capsys, tmp_path)
    assert code == 0
    assert stats == {
        "problems_ok": 0,
        "problems_failed": 0,
        "questions": 0,
        "subquestions": 0,
        "subquestions_by_difficulty": {},
        "subquestions_by_answer_type": {},
    }
