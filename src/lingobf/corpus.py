"""Problem corpus model, on-disk layout, and dataset generation.

A corpus directory holds one subdirectory per problem:

    <corpus>/<problem_id>/
        problem.txt    annotated text, sectioned by line directives
        answers.json   one object per question: key -> answer
        ruleset.json   the permutation ruleset (rulesets.py schema)
        meta.json      difficulty + language metadata

``problem.txt`` sections are introduced by a directive alone on a line:
``[preamble]``, ``[context]``, ``[question]`` (repeatable), and
``[sub KEY]`` inside a question.  Section content is everything up to the
next directive, with surrounding blank lines trimmed.  ``answers.json``
values are either a plain string or ``{"answer": ..., "alternates":
[...]}``; answers may themselves contain ``@@@...@@@`` spans.  The load
is the one place that parses a problem's texts: every section and every
answer and alternate becomes an ``AnnotatedDocument`` there, once.

The language *name* in meta.json is accepted but never read, so it cannot
reach dataset records or prompts; only the speaker count travels (it feeds
the resourcedness regression).  Datasets are line-delimited records, one
question of one variant per line, plus a manifest carrying the generation
parameters and per-variant content digests, so identical inputs reproduce
identical bytes.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, TypedDict

from . import annotations, jsonio
from .obfuscate import CompiledTexts
from .rng import derive_seed
from .rulesets import (
    PermutationMap,
    Ruleset,
    _norm,
    sample_distinct,
)

SCHEMA_VERSION = 1

DIFFICULTIES = ("Breakthrough", "Foundation", "Intermediate", "Advanced", "Round2")

PROBLEM_FILE = "problem.txt"
ANSWERS_FILE = "answers.json"
RULESET_FILE = "ruleset.json"
META_FILE = "meta.json"


@dataclass(frozen=True)
class Subquestion:
    key: str
    text: annotations.AnnotatedDocument
    answer: annotations.AnnotatedDocument
    alternates: tuple[annotations.AnnotatedDocument, ...] = ()


@dataclass(frozen=True)
class Question:
    body: annotations.AnnotatedDocument
    subquestions: tuple[Subquestion, ...]


@dataclass(frozen=True)
class Problem:
    id: str
    difficulty: str
    speakers: int
    preamble: annotations.AnnotatedDocument
    context: annotations.AnnotatedDocument
    questions: tuple[Question, ...]
    ruleset: Ruleset
    fold_case: bool = True

    @cached_property
    def compiled(self) -> CompiledTexts:
        """Every text of the problem, segmented and checked for coverage once.

        Documents are named as in :func:`_problem_documents`, then answers
        as in :func:`_answer_names`.  Raises ``obfuscate.CoverageError`` (a
        ``ValueError``) on any Problemese the ruleset cannot segment.
        """
        texts = _problem_documents(self)
        for j, q in enumerate(self.questions):
            for sub in q.subquestions:
                texts.update(zip(_answer_names(j, sub), (sub.answer, *sub.alternates)))
        return CompiledTexts(texts, self.ruleset, fold_case=self.fold_case)


@dataclass(frozen=True)
class Corpus:
    problems: tuple[Problem, ...]
    fold_case: bool = True

    def __iter__(self):
        return iter(self.problems)

    def __len__(self):
        return len(self.problems)


@dataclass
class LoadFailure:
    problem_id: str
    errors: list[str]


@dataclass
class LoadReport:
    failures: list[LoadFailure] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# problem.txt parsing

_DIRECTIVE = re.compile(r"^\[(preamble|context|question|sub ([^\]]+))\]\s*$")


def _split_sections(text: str) -> list[tuple[str, str | None, str]]:
    """(kind, sub_key, content) triples in file order."""
    sections: list[tuple[str, str | None, list[str]]] = []
    # Only LF ends a line (read_text has made CRLF and CR into LF); unlike
    # splitlines, U+2028, U+0085 and form feed are ordinary characters.
    for line in text.split("\n"):
        m = _DIRECTIVE.match(line)
        if m:
            kind = "sub" if m.group(2) is not None else m.group(1)
            sections.append((kind, m.group(2), []))
        elif sections:
            sections[-1][2].append(line)
        elif line.strip():
            raise ValueError(f"content before first section directive: {line!r}")
    return [(kind, key, "\n".join(lines).strip("\n")) for kind, key, lines in sections]


def _parse_problem_text(text: str) -> tuple[str, str, list[tuple[str, list[tuple[str, str]]]]]:
    """Returns (preamble, context, [(question_body, [(key, sub_text)])])."""
    preamble = ""
    context = ""
    questions: list[tuple[str, list[tuple[str, str]]]] = []
    for kind, key, content in _split_sections(text):
        if kind == "preamble":
            preamble = content
        elif kind == "context":
            context = content
        elif kind == "question":
            questions.append((content, []))
        else:  # sub
            if not questions:
                raise ValueError(f"[sub {key}] before any [question] section")
            questions[-1][1].append((key.strip(), content))
    return preamble, context, questions


# ---------------------------------------------------------------------------
# Loading


def _load_problem(path: Path, fold_case: bool) -> Problem:
    for name in (PROBLEM_FILE, ANSWERS_FILE, RULESET_FILE, META_FILE):
        if not (path / name).is_file():
            raise ValueError(f"missing {name}")

    def read(name: str, decode, kind: type = dict):
        return jsonio.decode_json(name, (path / name).read_text(encoding="utf-8"), decode, kind)

    meta = read(META_FILE, dict)
    difficulty = meta.get("difficulty")
    if difficulty not in DIFFICULTIES:
        raise ValueError(f"{META_FILE}: difficulty {difficulty!r} is not one of {DIFFICULTIES}")
    lang = meta.get("language", {})
    speakers = lang.get("speakers") if isinstance(lang, dict) else None
    if type(speakers) is not int or speakers <= 0:  # a bool is an int, yet true is no count
        raise ValueError(f"{META_FILE}: language.speakers must be a positive integer")

    ruleset = read(RULESET_FILE, Ruleset.from_dict)
    raw_answers = read(ANSWERS_FILE, list, list)

    text = _norm((path / PROBLEM_FILE).read_text(encoding="utf-8"))
    preamble_text, context_text, question_specs = _parse_problem_text(text)

    if not question_specs:
        raise ValueError("problem has no [question] section")
    if len(raw_answers) != len(question_specs):
        raise ValueError(
            f"answers.json has {len(raw_answers)} question entries, "
            f"problem.txt has {len(question_specs)}"
        )

    questions = []
    for j, (body_text, subs) in enumerate(question_specs):
        if not subs:
            raise ValueError(f"question {j} has no [sub ...] sections")
        keys = [key for key, _ in subs]
        if len(set(keys)) != len(keys):
            raise ValueError(f"question {j} has duplicate subquestion keys")
        answer_map = raw_answers[j]
        if not isinstance(answer_map, dict):
            raise ValueError(f"{ANSWERS_FILE}: question {j} must be a JSON object")
        missing = [k for k in keys if k not in answer_map]
        if missing:
            raise ValueError(f"question {j} missing answers for keys {missing}")
        subquestions = []
        for key, sub_text in subs:
            entry = answer_map[key]
            texts = [entry] if isinstance(entry, str) else [None]
            if isinstance(entry, dict) and isinstance(entry.get("alternates", []), list):
                texts = [entry.get("answer"), *entry.get("alternates", [])]
            if not all(isinstance(text, str) for text in texts):
                raise ValueError(
                    f"{ANSWERS_FILE}: question {j} key {key!r}: expected a string or "
                    '{"answer": string, "alternates": [string, ...]}'
                )
            answer, *alternates = (annotations.parse(_norm(text)) for text in texts)
            subquestions.append(
                Subquestion(
                    key=key,
                    text=annotations.parse(sub_text),
                    answer=answer,
                    alternates=tuple(alternates),
                )
            )
        questions.append(
            Question(body=annotations.parse(body_text), subquestions=tuple(subquestions))
        )

    problem = Problem(
        id=path.name,
        difficulty=difficulty,
        speakers=speakers,
        preamble=annotations.parse(preamble_text),
        context=annotations.parse(context_text),
        questions=tuple(questions),
        ruleset=ruleset,
        fold_case=fold_case,
    )
    problem.compiled  # a coverage gap fails this problem's load
    return problem


def _problem_documents(problem: Problem) -> dict[str, annotations.AnnotatedDocument]:
    docs = {"preamble": problem.preamble, "context": problem.context}
    for j, q in enumerate(problem.questions):
        docs[f"q{j}.body"] = q.body
        for sub in q.subquestions:
            docs[f"q{j}.sub.{sub.key}"] = sub.text
    return docs


def _answer_names(j: int, sub: Subquestion) -> list[str]:
    """Compiled names of a subquestion's answer, then of each alternate."""
    return [
        f"answer:q{j}.{sub.key}",
        *(f"answer:alt{a}.q{j}.{sub.key}" for a in range(len(sub.alternates))),
    ]


def load_corpus(directory: str | Path, *, fold_case: bool = True) -> tuple[Corpus, LoadReport]:
    """Parse and validate every problem directory; failures are per-problem.

    A problem that fails parsing, ruleset validation, or the coverage
    check is excluded from the corpus and listed in the report; the rest
    of the corpus still loads.  ``fold_case`` is the corpus's one case mode.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {directory}")
    report = LoadReport()
    problems = []
    candidates = sorted(p for p in directory.iterdir() if p.is_dir())
    if not candidates:
        report.warnings.append(f"no problem directories found in {directory}")
    for path in candidates:
        try:
            problems.append(_load_problem(path, fold_case))
        except (ValueError, KeyError) as exc:
            report.failures.append(LoadFailure(problem_id=path.name, errors=[str(exc)]))
    return Corpus(problems=tuple(problems), fold_case=fold_case), report


# ---------------------------------------------------------------------------
# Dataset generation


@dataclass(frozen=True)
class DatasetRecord:
    """One question of one problem variant, fully rendered; answers are keyed as sub-questions."""

    problem_id: str
    p: int  # 0 = original (identity map)
    question_index: int
    difficulty: str
    speakers: int
    preamble: str
    context: str
    body: str
    subquestions: tuple[tuple[str, str], ...]  # (key, rendered text)
    answers: dict[str, str]  # key -> rendered gold
    alternates: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def variant_id(self) -> str:
        return f"{self.problem_id}:p{self.p}"

    @property
    def prompt_id(self) -> str:
        return f"{self.variant_id}:q{self.question_index}"

    @property
    def expected_keys(self) -> tuple[str, ...]:
        return tuple([key for key, _ in self.subquestions])

    def __post_init__(self) -> None:
        keys = dict(self.subquestions).keys()
        if self.answers.keys() != keys or not self.alternates.keys() <= keys:
            raise ValueError(
                f"answers keys {sorted(self.answers)} or alternates keys "
                f"{sorted(self.alternates)} are not the sub-question keys "
                f"{list(self.expected_keys)}"
            )


# A record's file layout: sub-questions as {key, text} objects, no empty alternates.
jsonio.codec(
    DatasetRecord,
    schema_version=SCHEMA_VERSION,
    subquestions=jsonio.Member(
        json_type=tuple[TypedDict("Subquestion", {"key": str, "text": str}), ...],
        decode=lambda subs: tuple(map(itemgetter("key", "text"), subs)),
        encode=lambda subs: [{"key": key, "text": text} for key, text in subs],
    ),
    alternates=jsonio.Member(encode=lambda alts: {k: list(v) for k, v in alts.items() if v}),
)


@dataclass(frozen=True)
class Variant:
    """All questions of one rendered problem variant, in question order."""

    problem_id: str
    p: int
    questions: tuple[DatasetRecord, ...]

    @property
    def variant_id(self) -> str:
        return self.questions[0].variant_id


def group_variants(records: Iterable[DatasetRecord]) -> list[Variant]:
    """Records grouped into variants: problem -> p -> questions, each level sorted.

    This is the layout of the score tensor L(i, j, k, p), so every variant
    of a problem must repeat its p = 0: a problem's p values must be
    exactly 0..P, p = 0's question indices exactly 0..n-1, and every
    variant must have p = 0's question indices and, per question, its
    sub-question keys in order.  Otherwise ``ValueError``
    names the problem and, for a variant that differs, its p.
    """
    by_problem: dict[str, dict[int, list[DatasetRecord]]] = {}
    for record in records:
        by_problem.setdefault(record.problem_id, {}).setdefault(record.p, []).append(record)
    variants = []
    for problem_id, by_p in sorted(by_problem.items()):
        where = f"dataset for {problem_id}"
        if sorted(by_p) != list(range(len(by_p))):
            raise ValueError(f"{where}: variants p={sorted(by_p)} are not p=0..{len(by_p) - 1}")
        original: dict[int, tuple[str, ...]] = {}
        for p in range(len(by_p)):
            recs = tuple(sorted(by_p[p], key=lambda r: r.question_index))
            shape = {r.question_index: r.expected_keys for r in recs}
            if len(shape) < len(recs):
                raise ValueError(f"{where}: variant p={p} repeats a question index")
            if p == 0:
                original = shape
                if list(shape) != list(range(len(shape))):
                    raise ValueError(
                        f"{where}: question indices {list(shape)} are not 0..{len(shape) - 1}"
                    )
            if shape != original:
                _refuse_shape(where, p, shape, original)
            variants.append(Variant(problem_id=problem_id, p=p, questions=recs))
    return variants


def _refuse_shape(where: str, p: int, shape: dict, original: dict) -> None:
    """Name the first question, by index, where variant ``p`` differs from p = 0."""
    for j in sorted(original.keys() | shape.keys()):
        if j not in shape:
            raise ValueError(f"{where}: variant p={p} lacks question {j}, which p=0 has")
        if shape[j] != original.get(j):
            raise ValueError(
                f"{where}: variant p={p} question {j} has sub-question keys "
                f"{list(shape[j])}, p=0 has {list(original.get(j, ()))}"
            )


def variant_maps(problem: Problem, per_problem: int, seed: int) -> list[PermutationMap]:
    """Identity plus up to ``per_problem`` distinct sampled maps for a problem.

    The problem id is folded into the seed so corpora are insensitive to
    problem ordering and every problem draws from its own stream.
    """
    identity = PermutationMap.identity(problem.ruleset)
    sampled = sample_distinct(
        problem.ruleset, per_problem, derive_seed(seed, "problem", problem.id)
    )
    return [identity, *sampled]


@dataclass(frozen=True)
class Dataset:
    """Rendered records plus the facts they were generated from.

    ``maps`` holds the sampled map of every obfuscated variant (p >= 1) by
    variant id, exactly as the build drew and rendered it.  Iterates and
    sizes like its records.
    """

    records: tuple[DatasetRecord, ...]
    maps: Mapping[str, PermutationMap]
    seed: int
    per_problem: int
    fold_case: bool

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)


def build_dataset(corpus: Corpus, per_problem: int = 6, seed: int = 0) -> Dataset:
    """Render variant p=0 plus sampled variants for every problem.

    Deterministic in (corpus, per_problem, seed); renders each problem's
    ``compiled`` texts.  A problem whose ruleset admits fewer than
    ``per_problem`` distinct permutations simply yields fewer variants.
    """
    records: list[DatasetRecord] = []
    maps: dict[str, PermutationMap] = {}
    for problem in corpus.problems:
        for p, pmap in enumerate(variant_maps(problem, per_problem, seed)):
            if p > 0:
                maps[f"{problem.id}:p{p}"] = pmap
            rendered = problem.compiled.render(pmap)
            for j, q in enumerate(problem.questions):
                golds = {
                    sub.key: [rendered[name] for name in _answer_names(j, sub)]
                    for sub in q.subquestions
                }
                records.append(
                    DatasetRecord(
                        problem_id=problem.id,
                        p=p,
                        question_index=j,
                        difficulty=problem.difficulty,
                        speakers=problem.speakers,
                        preamble=rendered["preamble"],
                        context=rendered["context"],
                        body=rendered[f"q{j}.body"],
                        subquestions=tuple(
                            (key, rendered[f"q{j}.sub.{key}"]) for key in golds
                        ),
                        answers={key: texts[0] for key, texts in golds.items()},
                        alternates={
                            key: tuple(texts[1:]) for key, texts in golds.items() if texts[1:]
                        },
                    )
                )
    return Dataset(
        records=tuple(records),
        maps=maps,
        seed=seed,
        per_problem=per_problem,
        fold_case=corpus.fold_case,
    )


def write_dataset(dataset: Dataset, out_dir: str | Path) -> dict:
    """Persist records.jsonl + manifest.json; returns the manifest.

    Records are written as ``group_variants`` orders them, a variant's
    block at a time, so a dataset that ``prompt`` and ``score`` would
    refuse is never written.  The manifest carries toolkit version, the
    generation parameters and sampled maps the dataset was built with, and
    a content digest per variant.
    """
    from . import __version__

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    records = dataset.records
    digests = {}
    with jsonio.atomic_writer(out_dir / "records.jsonl") as fh:
        for variant in group_variants(records):
            block = jsonio.encode_lines(r.to_dict() for r in variant.questions)
            fh.write(block)
            digests[variant.variant_id] = hashlib.sha256(block.encode("utf-8")).hexdigest()

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "lingobf", "version": __version__},
        "seed": dataset.seed,
        "per_problem": dataset.per_problem,
        "fold_case": dataset.fold_case,
        "problems": len({r.problem_id for r in records}),
        "variants": len(digests),
        "records": len(records),
        "pairs": sum(len(r.subquestions) for r in records),
        "digests": digests,
        "maps": {
            vid: {"seed": pmap.seed, "pairs": pmap.pairs} for vid, pmap in dataset.maps.items()
        },
    }
    jsonio.write_json(out_dir / "manifest.json", manifest)
    return manifest


def load_dataset(path: str | Path) -> list[DatasetRecord]:
    """The records of the dataset directory ``path``; its ``manifest.json`` is not read."""
    return jsonio.read_lines(Path(path) / "records.jsonl", DatasetRecord.from_dict)
