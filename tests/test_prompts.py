from __future__ import annotations

import dataclasses
import difflib
import json

import pytest

from lingobf.cli import main
from lingobf.corpus import write_dataset
from lingobf.prompts import (
    INSTRUCTIONS,
    SYSTEM_MESSAGE,
    answer_skeleton,
    build_prompts,
    load_prompts,
    write_prompts,
)


def _prompt(dataset, prompt_id: str, **options):
    """The prompt ``build_prompts`` gives for ``prompt_id`` (``problem:p{p}:q{j}``)."""
    return next(p for p in build_prompts(dataset, **options) if p.prompt_id == prompt_id)


def test_system_message_is_fixed(dataset):
    prompt = _prompt(dataset, "birds-x:p0:q0")
    assert prompt.system_message == "You are a helpful assistant."
    assert SYSTEM_MESSAGE == "You are a helpful assistant."


def test_prompt_contains_literal_instruction_sentence(dataset):
    prompt = _prompt(dataset, "birds-x:p0:q0")
    assert "Only respond with json output." in prompt.user_message
    assert INSTRUCTIONS in prompt.user_message


def test_prompt_golden_shape(dataset):
    prompt = _prompt(dataset, "birds-x:p0:q1")
    context = (
        "Study these words and their meanings.\n\nlami bird\nlamisu two birds\n"
        "tozi fish\ntozisu two fish\npek dog\n "  # trailing space: removed context
    )
    expected = "\n".join(
        [
            "Below is a problem sheet from a linguistics exam. You will first see the "
            "entire sheet, then be asked to respond to specific questions from the "
            "sheet. Your answers to the questions should rely only on reasoning about "
            "the information provided in the sheet.",
            "Translate into Language X.\n1. two dogs\n2. fish\n\n"
            "Answer with a single digit.\n1. How many birds are lamisu?",
            "",
            "Now respond to the following questions:",
            "This problem is about counting things in Language X.",
            context,
            "Answer with a single digit.\n1. How many birds are lamisu?",
            "",
            "Only respond with json output. Do not include anything other than the "
            "json in your response. Format your response as a json file with the keys "
            "as provided below:",
            '{"1": ""}',
        ]
    )
    assert prompt.user_message == expected
    assert prompt.prompt_id == "birds-x:p0:q1"
    assert prompt.expected_keys == ("1",)


def test_skeleton_lists_expected_keys_in_order():
    assert answer_skeleton(["1", "2"]) == '{"1": "", "2": ""}'
    assert list(json.loads(answer_skeleton(["b", "a"]))) == ["b", "a"]


def test_idempotent_build(dataset):
    a = _prompt(dataset, "rivers-z:p2:q0")
    b = _prompt(dataset, "rivers-z:p2:q0")
    assert a == b


def test_no_context_removes_exactly_the_context_block(dataset):
    prompt_id = "birds-x:p0:q0"
    with_ctx = _prompt(dataset, prompt_id).user_message.splitlines(keepends=True)
    without = _prompt(dataset, prompt_id, no_context=True).user_message.splitlines(keepends=True)
    diff = [
        line
        for line in difflib.ndiff(with_ctx, without)
        if line.startswith(("+ ", "- "))
    ]
    removed = "".join(line[2:] for line in diff if line.startswith("- "))
    assert not any(line.startswith("+ ") for line in diff)
    record = next(r for r in dataset if r.prompt_id == prompt_id)
    assert removed.rstrip("\n") == record.context


def test_guidance_inserted_before_instructions(dataset):
    guidance = "First find the plural suffix, then apply it."
    user = _prompt(dataset, "birds-x:p0:q0", guidance=guidance).user_message
    assert guidance in user
    assert user.index(guidance) < user.index(INSTRUCTIONS)
    lines = user.splitlines()
    assert lines[lines.index(guidance) + 2] == INSTRUCTIONS


def test_question_index_out_of_range(dataset, tmp_path, capsys):
    # No fixture problem has a question 99: prompt is refused before it
    # builds a prompt, and writes no file.
    with pytest.raises(ValueError, match="^no variant has question index 99$"):
        next(build_prompts(dataset, question_index=99))
    write_dataset(dataset, tmp_path / "dataset")
    capsys.readouterr()
    out = tmp_path / "p.jsonl"
    assert main(["prompt", str(tmp_path / "dataset"), "--out", str(out), "--question", "99"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ValueError",
        "detail": "no variant has question index 99",
    }
    assert [path.name for path in tmp_path.iterdir()] == ["dataset"]


def test_build_prompts_covers_every_variant_question(dataset):
    prompts = list(build_prompts(dataset))
    assert len(prompts) == len(dataset)  # one record per (variant, question)
    assert len({p.prompt_id for p in prompts}) == len(prompts)


def test_build_prompts_question_filter(dataset):
    prompts = list(build_prompts(dataset, question_index=1))
    assert {p.question_index for p in prompts} == {1}
    # voicing-y has a single question, so it contributes nothing.
    assert not any(p.problem_id == "voicing-y" for p in prompts)


def test_prompt_export_round_trip(dataset, tmp_path):
    prompts = list(build_prompts(dataset))
    write_prompts(prompts, tmp_path / "prompts.jsonl")
    again = load_prompts(tmp_path / "prompts.jsonl")
    assert again == prompts


def test_prompt_export_keeps_unicode_line_separators(dataset, tmp_path):
    prompts = list(build_prompts(dataset))[:3]
    prompts[1] = dataclasses.replace(prompts[1], user_message="a\u2028b\u2029c")
    write_prompts(prompts, tmp_path / "prompts.jsonl")
    assert load_prompts(tmp_path / "prompts.jsonl") == prompts


def test_load_prompts_names_a_bad_line(dataset, tmp_path):
    write_prompts(list(build_prompts(dataset))[:3], tmp_path / "prompts.jsonl")
    path = tmp_path / "prompts.jsonl"
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[1] = "{garbage"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=r"prompts\.jsonl: line 2: "):
        load_prompts(path)


def test_load_prompts_rejects_a_non_object_line(dataset, tmp_path):
    path = tmp_path / "prompts.jsonl"
    write_prompts(list(build_prompts(dataset))[:1], path)
    path.write_text(path.read_text(encoding="utf-8") + "[1, 2]\n", encoding="utf-8")
    error = r"prompts\.jsonl: line 2: record is a JSON list, not an object"
    with pytest.raises(ValueError, match=error):
        load_prompts(path)


def test_obfuscated_prompt_keeps_solverese(dataset):
    original = _prompt(dataset, "voicing-y:p0:q0").user_message
    obfuscated = _prompt(dataset, "voicing-y:p1:q0").user_message
    assert original != obfuscated
    assert "Translate into Language X." in obfuscated  # Solverese untouched
