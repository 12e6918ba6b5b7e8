"""Prompt assembly from dataset records.

Every prompt shows the entire rendered problem sheet first, then asks the
model to answer one question's sub-questions, and closes with formatting
instructions plus an empty JSON skeleton whose keys are the expected
answer keys.  The ``no_context`` mode removes the context block and
nothing else, which turns the prompt into a probe for knowledge
shortcuts: with the key information gone, scoring above chance requires
prior exposure rather than reasoning.  An optional guidance block (expert
reasoning steps) is inserted immediately before the instructions.

Prompts are built per variant from ``corpus.group_variants``, which
``metrics.score_run`` scores too: ``prompt`` refuses what ``score``
refuses, p = 0 question indices that are not 0..n-1 and a variant whose
questions or sub-question keys differ from p = 0's, with a ``ValueError``
naming the problem and, for a variant, its p.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import jsonio
from .corpus import DatasetRecord, Variant, group_variants

SYSTEM_MESSAGE = "You are a helpful assistant."

HEADER = (
    "Below is a problem sheet from a linguistics exam. You will first see the entire "
    "sheet, then be asked to respond to specific questions from the sheet. Your answers "
    "to the questions should rely only on reasoning about the information provided in "
    "the sheet."
)

INSTRUCTIONS = (
    "Only respond with json output. Do not include anything other than the json in "
    "your response. Format your response as a json file with the keys as provided below:"
)


@dataclass(frozen=True)
class PromptInstance:
    prompt_id: str
    variant_id: str
    problem_id: str
    p: int
    question_index: int
    system_message: str
    user_message: str
    expected_keys: tuple[str, ...]
    no_context: bool = False
    guidance: str | None = None


# A prompt file names the two messages "system" and "user".
jsonio.codec(
    PromptInstance, system_message=jsonio.Member("system"), user_message=jsonio.Member("user")
)


def _question_text(record: DatasetRecord) -> str:
    parts = [record.body] if record.body else []
    parts.extend(f"{key}. {text}" for key, text in record.subquestions)
    return "\n".join(parts)


def _sheet_text(variant: Variant) -> str:
    return "\n\n".join(_question_text(q) for q in variant.questions)


def answer_skeleton(keys: Sequence[str]) -> str:
    """Empty JSON object with the expected keys, values as empty strings."""
    return json.dumps({key: "" for key in keys}, ensure_ascii=False)


def _fill(
    variant: Variant, sheet: str, question_index: int, no_context: bool, guidance: str | None
) -> PromptInstance:
    """Fill the template for one (variant, question) pair.

    Template order: sheet, "Now respond" header, preamble, context (unless
    ``no_context``), the chosen question's sub-questions, optional
    guidance, instructions, JSON skeleton.
    """
    record = variant.questions[question_index]
    keys = record.expected_keys

    parts = [HEADER, sheet, "", "Now respond to the following questions:", record.preamble]
    if not no_context:
        parts.append(record.context)
    parts.append(_question_text(record))
    parts.append("")
    if guidance is not None:
        parts.extend([guidance, ""])
    parts.append(INSTRUCTIONS)
    parts.append(answer_skeleton(keys))

    return PromptInstance(
        prompt_id=record.prompt_id,
        variant_id=variant.variant_id,
        problem_id=variant.problem_id,
        p=variant.p,
        question_index=question_index,
        system_message=SYSTEM_MESSAGE,
        user_message="\n".join(parts),
        expected_keys=keys,
        no_context=no_context,
        guidance=guidance,
    )


def build_prompts(
    records: Iterable[DatasetRecord],
    *,
    question_index: int | None = None,
    no_context: bool = False,
    guidance: str | None = None,
) -> Iterator[PromptInstance]:
    """Prompts for every (variant, question) pair in the dataset, a variant at a time.

    ``question_index`` restricts output to one question index per variant
    (variants lacking that index are skipped).  Raises ``ValueError`` for
    a negative index, a dataset of no records, an index that no variant
    has, and as ``corpus.group_variants`` does, before the first prompt is
    yielded.
    """
    if question_index is not None and question_index < 0:
        raise ValueError(f"question index {question_index} is negative")
    variants = group_variants(records)
    if not variants:
        raise ValueError("dataset has no records")
    if question_index is not None and not any(
        question_index < len(variant.questions) for variant in variants
    ):
        raise ValueError(f"no variant has question index {question_index}")
    for variant in variants:
        indices = (
            range(len(variant.questions))
            if question_index is None
            else [question_index] if question_index < len(variant.questions) else []
        )
        sheet = _sheet_text(variant)
        yield from (_fill(variant, sheet, j, no_context, guidance) for j in indices)


def write_prompts(prompts: Iterable[PromptInstance], path: str | Path) -> int:
    """Stream ``prompts`` to the JSON-lines file ``path``; returns the count."""
    return jsonio.write_lines(path, (p.to_dict() for p in prompts))


def load_prompts(path: str | Path) -> list[PromptInstance]:
    return jsonio.read_lines(Path(path), PromptInstance.from_dict)
