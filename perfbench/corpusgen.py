"""Seeded synthetic lingobf corpora for the benchmark workloads.

Every problem gets its own ruleset, drawn from the seed, that mixes sets,
tables, free tables, fixed graphemes, fixed protected strings and
digraphs.  Problem texts look like olympiad sheets: a preamble with a
name tag and escaped marker triples, a context block of Problemese
examples with glosses and removed cultural notes, and questions whose
sub-questions are answered by Problemese words, English words, digits or
yes/no.  Some Problemese words are capitalized or written in capitals.

Two properties keep every generated variant an exact round trip under
greedy re-segmentation, so the program never has a reason to drop one:

* every multi-character grapheme ends in a modifier letter (``ʰ`` or
  ``ʼ``) that no grapheme starts with, so images of shorter units can
  never spell a digraph across a unit boundary;
* every protected string holds one letter (``ø``, ``æ``, ...) that occurs
  in no other grapheme, so images can never spell a protected string.

Each collection holds graphemes of one length, so the all-caps recasing
rule never maps a digraph onto a single letter.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

VOWELS = "aeiouy"
CONSONANTS = "pbtdkgmnszlrfvhwjcxq"
MARKS = ("ʰ", "ʼ")
PROTECTED_LETTERS = "øæåðþ"
DIFFICULTIES = ("Breakthrough", "Foundation", "Intermediate", "Advanced", "Round2")
GLOSSES = (
    "bird", "fish", "dog", "river", "stone", "house", "child", "mother", "father",
    "tree", "moon", "sun", "water", "fire", "road", "boat", "hill", "rain", "salt",
    "knife", "drum", "song", "goat", "horse", "field", "seed", "bread", "milk",
)
# Question kinds in sheet order: 0 translate into the language, 1 translate
# into English, 2 digits and yes/no.  The sheet shape is the same for every
# problem and seed, so the amount of work per pass does not depend on the seed.
QUESTION_KINDS = (0, 1, 2, 0)
SUBS = 2
VERBS = ("sees", "carries", "eats", "builds", "follows", "hears", "gives", "finds")


@dataclass(frozen=True)
class ProblemSpec:
    """What the generator wrote for one problem, for the output checks."""

    problem_id: str
    ruleset: dict
    cycle_permutations: int
    # Per question: ((key, answer is Problemese), ...) in file order.
    questions: tuple[tuple[tuple[str, bool], ...], ...]
    # Per question: key -> (answer, *alternates) as plain text, i.e. the p = 0 rendering.
    plain_answers: tuple[dict[str, tuple[str, ...]], ...]


def cycle_permutation_count(ruleset: dict) -> int:
    """Support size of full-cycle sampling, from the README's counting rules."""
    total = 1
    for s in ruleset["sets"]:
        total *= math.factorial(len(s) - 1)
    for t in ruleset["tables"]:
        total *= math.factorial(len(t["columns"]) - 1)
    for ft in ruleset["free_tables"]:
        total *= math.factorial(len(ft["columns"]) - 1)
        for col in ft["columns"]:
            for cell in col:
                total *= math.factorial(1 if isinstance(cell, str) else len(cell))
    return total


def _ruleset(rng: random.Random, min_cycles: int) -> dict:
    while True:
        cons = rng.sample(CONSONANTS, len(CONSONANTS))
        vowels = rng.sample(VOWELS, rng.randint(3, 6))
        ruleset: dict = {"fixed": [], "sets": [vowels], "tables": [], "free_tables": []}
        ruleset["tables"].append(
            {"columns": [[cons.pop(), cons.pop()] for _ in range(rng.randint(2, 3))]}
        )
        if rng.random() < 0.7:
            ruleset["free_tables"].append(
                {"columns": [[cons.pop(), [cons.pop(), cons.pop()]] for _ in range(2)]}
            )
        mark = rng.choice(MARKS)
        bases = rng.sample(CONSONANTS, 4)
        if rng.random() < 0.5:
            ruleset["sets"].append([b + mark for b in bases[: rng.randint(2, 3)]])
        else:
            other = MARKS[1 - MARKS.index(mark)]
            ruleset["tables"].append(
                {"columns": [[b + mark, b + other] for b in bases[:2]]}
            )
        ruleset["sets"].append([cons.pop() for _ in range(rng.randint(3, 5))])
        ruleset["fixed"].extend(cons.pop() for _ in range(rng.randint(1, 2)))
        for letter in rng.sample(PROTECTED_LETTERS, rng.randint(1, 2)):
            name = rng.choice(CONSONANTS).upper() + letter + rng.choice(VOWELS) + rng.choice(CONSONANTS) + "a"
            ruleset["fixed"].append(name)
        if cycle_permutation_count(ruleset) >= min_cycles:
            return ruleset


def _units(ruleset: dict) -> tuple[list[str], list[str]]:
    """(onset graphemes, nucleus graphemes) a word may use."""
    nuclei = list(ruleset["sets"][0])
    onsets = [g for g in ruleset["fixed"] if len(g) == 1]
    for s in ruleset["sets"][1:]:
        onsets.extend(s)
    for t in ruleset["tables"]:
        for col in t["columns"]:
            onsets.extend(col)
    for ft in ruleset["free_tables"]:
        for col in ft["columns"]:
            for cell in col:
                onsets.extend([cell] if isinstance(cell, str) else cell)
    return onsets, nuclei


def _word(rng: random.Random, onsets: list[str], nuclei: list[str]) -> str:
    text = "".join(
        rng.choice(onsets) + rng.choice(nuclei) for _ in range(rng.randint(1, 3))
    )
    if rng.random() < 0.3:
        text += rng.choice([o for o in onsets if len(o) == 1])
    roll = rng.random()
    if roll < 0.1:
        return text.upper()
    if roll < 0.25:
        return text[0].upper() + text[1:]
    return text


def _phrase(rng, onsets, nuclei, names, words: int) -> str:
    parts = []
    for _ in range(words):
        if names and rng.random() < 0.08:
            parts.append(rng.choice(names))
        else:
            parts.append(_word(rng, onsets, nuclei))
    text = " ".join(parts)
    if rng.random() < 0.2:
        text += rng.choice(("?", ",", "!", " 2", "-" + _word(rng, onsets, nuclei)))
    return text


def _problem(rng: random.Random, index: int, min_cycles: int, scale: int):
    ruleset = _ruleset(rng, min_cycles)
    onsets, nuclei = _units(ruleset)
    names = [g for g in ruleset["fixed"] if len(g) > 1]

    def span(words: int = 1) -> str:
        return "@@@" + _phrase(rng, onsets, nuclei, names, words) + "@@@"

    def gloss() -> str:
        return " ".join(rng.choice(GLOSSES) for _ in range(rng.randint(1, 3)))

    lines = [
        "[preamble]",
        f"This problem is about $$$Language X$$$, a language of $$$Place Y$$$. "
        f"&&&It is spoken in the valley of the old river.&&& Here are some "
        f"sentences and phrases in $$$Language X$$$ with their translations. "
        f"Prices in the sheet are written with \\$$$ and the sign \\@@@ marks "
        f"a reconstructed form; \\&&& joins compounds.",
        "",
        "[context]",
    ]
    for i in range(scale):
        if i % 3 == 0:
            lines.append(f"{span(rng.randint(3, 6))} - the {rng.choice(GLOSSES)} {rng.choice(VERBS)} the {gloss()}")
        else:
            lines.append(f"{span(rng.randint(1, 2))} - {gloss()}")
        if i % 8 == 7:
            lines.append("&&& A note on the harvest festival was removed here. &&&")
    lines.append("Note: the word order of $$$Language X$$$ is fixed.")

    questions = []
    answers = []
    for kind in QUESTION_KINDS:
        subs = []
        qanswers = {}
        lines.append("")
        lines.append("[question]")
        if kind == 0:
            lines.append("Translate into $$$Language X$$$:")
            for k in range(SUBS):
                key = str(k + 1)
                lines += ["", f"[sub {key}]", f"the {gloss()}"]
                answer = span(rng.randint(1, 2))
                if k == 0:
                    qanswers[key] = {"answer": answer, "alternates": [span(1)]}
                else:
                    qanswers[key] = answer
                subs.append((key, True))
        elif kind == 1:
            lines.append("Translate into English:")
            for k in range(SUBS):
                key = "abcd"[k]
                lines += ["", f"[sub {key}]", span(rng.randint(2, 4))]
                qanswers[key] = gloss()
                subs.append((key, False))
        else:
            lines.append("Answer with a single digit or with yes / no.")
            for k in range(SUBS):
                key = str(k + 1)
                if k % 2 == 0:
                    lines += ["", f"[sub {key}]", f"How many {rng.choice(GLOSSES)}s are in {span(2)}?"]
                    qanswers[key] = str(rng.randint(1, 9))
                else:
                    lines += ["", f"[sub {key}]", f"Is {span(1)} a possible word of $$$Language X$$$?"]
                    qanswers[key] = rng.choice(("yes", "no"))
                subs.append((key, False))
        questions.append(tuple(subs))
        answers.append(qanswers)

    meta = {
        "schema_version": 1,
        "difficulty": rng.choice(DIFFICULTIES),
        "language": {"name": f"Synthetic {index}", "speakers": int(10 ** rng.uniform(2, 8))},
    }
    problem_id = f"p{index:04d}-{rng.randrange(16**6):06x}"
    files = {
        "problem.txt": "\n".join(lines) + "\n",
        "answers.json": json.dumps(answers, ensure_ascii=False, indent=1) + "\n",
        "ruleset.json": json.dumps({"schema_version": 1, **ruleset}, ensure_ascii=False, indent=1) + "\n",
        "meta.json": json.dumps(meta, ensure_ascii=False) + "\n",
    }
    plain_answers = tuple(
        {
            key: tuple(text.replace("@@@", "") for text in
                       ([entry] if isinstance(entry, str) else [entry["answer"], *entry["alternates"]]))
            for key, entry in qanswers.items()
        }
        for qanswers in answers
    )
    spec = ProblemSpec(
        problem_id, ruleset, cycle_permutation_count(ruleset), tuple(questions), plain_answers
    )
    return spec, files


def write_corpus(
    out_dir: Path, seed: int, problems: int, *, min_cycles: int, scale: int
) -> list[ProblemSpec]:
    """Write ``problems`` problem directories under ``out_dir``; deterministic in the arguments.

    ``min_cycles`` is the fewest full-cycle permutations any ruleset may
    admit, so a workload requesting that many variants gets all of them.
    ``scale`` is the number of context lines, which sets the text length.
    """
    rng = random.Random(f"lingobf-bench-corpus:{seed}")
    specs = []
    seen = set()
    while len(specs) < problems:
        spec, files = _problem(rng, len(specs), min_cycles, scale)
        identity = json.dumps(spec.ruleset, sort_keys=True)
        if identity in seen:
            continue
        seen.add(identity)
        path = out_dir / spec.problem_id
        path.mkdir(parents=True)
        for name, text in files.items():
            (path / name).write_text(text, encoding="utf-8")
        specs.append(spec)
    return specs
