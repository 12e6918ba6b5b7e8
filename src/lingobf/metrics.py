"""Exact-match scoring and every aggregate the benchmark reports.

The scoring unit is a binary tensor L(i, j, k, p): problem i, question j,
sub-question k, permutation p, where p = 0 is the original (identity)
variant.  From it:

* per question, ``m_og`` averages sub-question scores of p = 0 and
  ``m_obf`` averages over all sampled permutations p >= 1;
* overall scores average per-question values within each problem, then
  across problems, so problems weigh equally regardless of size;
* ``delta(i, p)`` = problem i's mean question score under permutation p
  minus its original-variant mean; negative when obfuscation hurts;
  ``delta(i)`` averages delta(i, p) over the sampled permutations;
* the robust score replaces the per-question mean over permutations with
  the per-question *minimum* across variants (p = 0 included by default;
  a flag restricts the minimum to sampled permutations only).

Exact match is strict: unicode-composed, whitespace-trimmed, internal
whitespace collapsed, case-sensitive unless toggled, no partial credit.
Missing predictions, empty responses and parse failures all score zero;
nothing is dropped.
"""

from __future__ import annotations

import csv
import io
import json
import unicodedata
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby
from typing import Iterable, Mapping, Sequence

from . import jsonio
from .corpus import DatasetRecord, group_variants
from .runner import STATUS_OK, ResponseRecord


def normalize_answer(text: str, *, case_sensitive: bool = True) -> str:
    """NFC, trimmed, each inner whitespace run one space, casefolded unless ``case_sensitive``."""
    text = " ".join(unicodedata.normalize("NFC", text).split())
    return text if case_sensitive else text.casefold()


def exact_match(
    pred: str | None,
    gold: str,
    alternates: Sequence[str] = (),
    *,
    case_sensitive: bool = True,
) -> int:
    """1 iff the normalized prediction equals the gold or any alternate."""
    if pred is None:
        return 0
    p = normalize_answer(pred, case_sensitive=case_sensitive)
    for candidate in (gold, *alternates):
        if p == normalize_answer(candidate, case_sensitive=case_sensitive):
            return 1
    return 0


def answer_type(gold: str) -> str:
    """Digit / SingleChar / YN / Other classification of a gold answer.

    Yes/no forms (including bare y/n) are classified before single
    characters, so the YN class is reachable for its one-letter members.
    """
    text = normalize_answer(gold)
    if text and all(c.isdigit() for c in text):
        return "Digit"
    if text.casefold() in {"yes", "no", "y", "n"}:
        return "YN"
    if len(text) == 1:
        return "SingleChar"
    return "Other"


# ---------------------------------------------------------------------------
# Score tensor


@dataclass(frozen=True)
class ProblemScores:
    """All binary outcomes for one problem: scores[p][j][k]."""

    problem_id: str
    difficulty: str
    speakers: int
    scores: tuple[tuple[tuple[int, ...], ...], ...]
    answer_types: tuple[tuple[str, ...], ...]  # [j][k]

    def __post_init__(self) -> None:
        """Refuse speakers below 1, and scores other than 0s and 1s shaped as answer_types."""
        where = f"problem {self.problem_id}"
        if self.speakers < 1:
            raise ValueError(f"{where}: speakers is {self.speakers}, not a positive integer")
        shape = [len(q) for q in self.answer_types]
        if not (self.scores and shape and all(shape)):
            raise ValueError(f"{where}: empty scores or answer_types")
        for perm, variant in enumerate(self.scores):
            rows = list(map(len, variant))
            if rows != shape:
                raise ValueError(
                    f"{where}: variant p={perm} has rows of {rows} scores, answer_types has {shape}"
                )
        if not {0, 1}.issuperset(chain.from_iterable(chain.from_iterable(self.scores))):
            perm, cell = next(
                (p, c) for p, v in enumerate(self.scores) for c in chain(*v) if c not in {0, 1}
            )
            raise ValueError(
                f"{where}: variant p={perm} has a score of {jsonio.dumps(cell)}, not 0 or 1"
            )

    @property
    def permutations(self) -> int:
        """P_i: number of sampled (non-identity) permutations."""
        return len(self.scores) - 1

    @property
    def question_count(self) -> int:
        return len(self.scores[0])

    @cached_property
    def variant_means(self) -> tuple[float, ...]:
        """Per p, the mean over questions of each question's mean sub-question score."""
        means = []
        for variant in self.scores:
            question_means = [sum(row) / len(row) for row in variant]
            means.append(sum(question_means) / len(question_means))
        return tuple(means)


@dataclass(frozen=True)
class ScoreTensor:
    problems: tuple[ProblemScores, ...]
    case_sensitive: bool = True

    def __post_init__(self) -> None:
        """Refuse a tensor of no problems, or of one problem id twice."""
        if not self.problems:
            raise ValueError("score tensor has no problems")
        ids = [problem.problem_id for problem in self.problems]
        if len(set(ids)) < len(ids):
            repeated = next(i for n, i in enumerate(ids) if i in ids[:n])
            raise ValueError(f"problem {repeated} appears more than once")


jsonio.codec(ScoreTensor, schema_version=1)


class UnknownPromptError(ValueError):
    """A run contains prompt_ids the dataset does not define."""

    def __init__(self, prompt_ids: Sequence[str]):
        self.prompt_ids = list(prompt_ids)
        shown = ", ".join(self.prompt_ids[:5])
        more = "" if len(self.prompt_ids) <= 5 else f" (+{len(self.prompt_ids) - 5} more)"
        super().__init__(f"prompt_ids not in dataset: {shown}{more}")


def score_run(
    responses: Mapping[str, ResponseRecord],
    records: Iterable[DatasetRecord],
    *,
    case_sensitive: bool = True,
) -> tuple[ScoreTensor, list[str]]:
    """Binary outcome for every (i, j, k, p) cell the dataset defines.

    Returns the tensor and the prompt_ids that have no response.  Missing
    records, empty responses, parse failures, transport errors and missing
    keys all score 0; extra keys in a parsed response are ignored.
    Responses whose prompt_id is not in the dataset raise
    UnknownPromptError; a dataset ``corpus.group_variants`` refuses raises
    its ``ValueError``, and so does one of no records, since a
    ``ScoreTensor`` holds at least one problem.
    """
    variants = group_variants(records)
    prompt_ids = [[r.prompt_id for r in v.questions] for v in variants]
    unknown = sorted(set(responses).difference(*prompt_ids))
    if unknown:
        raise UnknownPromptError(unknown)

    missing: list[str] = []

    def row(record: DatasetRecord, prompt_id: str) -> tuple[int, ...]:
        response = responses.get(prompt_id)
        if response is None:
            missing.append(prompt_id)
            parsed = None
        else:
            parsed = response.parsed if response.status == STATUS_OK else None
        if not parsed:
            return (0,) * len(record.subquestions)
        return tuple(
            exact_match(
                parsed.get(key),
                record.answers[key],
                record.alternates.get(key, ()),
                case_sensitive=case_sensitive,
            )
            for key, _ in record.subquestions
        )

    problems = []
    pairs = zip(variants, prompt_ids)
    for problem_id, group in groupby(pairs, key=lambda pair: pair[0].problem_id):
        group = list(group)
        original = group[0][0].questions
        problems.append(
            ProblemScores(
                problem_id=problem_id,
                difficulty=original[0].difficulty,
                speakers=original[0].speakers,
                scores=tuple(tuple(map(row, v.questions, ids)) for v, ids in group),
                answer_types=tuple(
                    tuple(answer_type(r.answers[key]) for key in r.expected_keys)
                    for r in original
                ),
            )
        )
    return ScoreTensor(problems=tuple(problems), case_sensitive=case_sensitive), missing


# ---------------------------------------------------------------------------
# Aggregation


@dataclass(frozen=True)
class ProblemMetrics:
    problem_id: str
    difficulty: str
    speakers: int
    m_og: float
    m_obf: float | None  # None when the problem has no sampled permutations
    m_rob: float
    delta_by_p: tuple[float, ...]  # indexed p = 1..P
    delta: float | None


@dataclass(frozen=True)
class MetricsReport:
    m_og: float
    m_obf: float | None
    m_rob: float
    per_problem: tuple[ProblemMetrics, ...]
    by_difficulty: dict[str, dict]
    by_answer_type: dict[str, dict]
    include_original_in_min: bool
    case_sensitive: bool


def _problem_metrics(p: ProblemScores, *, include_original_in_min: bool) -> ProblemMetrics:
    questions = range(p.question_count)
    P = p.permutations
    m_og_i, *obf_means = p.variant_means
    delta_by_p = tuple(mean - m_og_i for mean in obf_means)

    # hits[perm][j]: question j's correct sub-questions under perm (an exact int).
    hits = [list(map(sum, variant)) for variant in p.scores]
    sizes = list(map(len, p.scores[0]))
    if P > 0:
        obf_by_j = [sum(h[j] for h in hits[1:]) / (P * sizes[j]) for j in questions]
        m_obf_i = sum(obf_by_j) / len(obf_by_j)
        delta_i = sum(delta_by_p) / P
    else:
        m_obf_i = None
        delta_i = None

    start = 0 if include_original_in_min or P == 0 else 1
    rob_by_j = [min(h[j] for h in hits[start:]) / sizes[j] for j in questions]
    m_rob_i = sum(rob_by_j) / len(rob_by_j)

    return ProblemMetrics(
        problem_id=p.problem_id,
        difficulty=p.difficulty,
        speakers=p.speakers,
        m_og=m_og_i,
        m_obf=m_obf_i,
        m_rob=m_rob_i,
        delta_by_p=delta_by_p,
        delta=delta_i,
    )


def _overall(per_problem: Sequence[ProblemMetrics]) -> dict:
    og = [pm.m_og for pm in per_problem]
    obf = [pm.m_obf for pm in per_problem if pm.m_obf is not None]
    rob = [pm.m_rob for pm in per_problem]
    return {
        "m_og": sum(og) / len(og),
        "m_obf": sum(obf) / len(obf) if obf else None,
        "m_rob": sum(rob) / len(rob),
        "problems": len(per_problem),
    }


def aggregate(tensor: ScoreTensor, *, include_original_in_min: bool = True) -> MetricsReport:
    """Every aggregate: overall, per problem, per difficulty, per answer type.

    ``include_original_in_min`` controls whether the robust metric's
    per-question minimum ranges over p = 0 as well as the sampled
    permutations (default) or the sampled permutations only.
    """
    per_problem = tuple(
        _problem_metrics(p, include_original_in_min=include_original_in_min)
        for p in tensor.problems
    )

    by_difficulty = {}
    for level in sorted({pm.difficulty for pm in per_problem}):
        group = [pm for pm in per_problem if pm.difficulty == level]
        by_difficulty[level] = _overall(group)

    type_counts: dict[str, dict[str, int]] = {}
    for p in tensor.problems:
        for j, row in enumerate(p.answer_types):
            # Per sub-question k, its hits over the sampled permutations.
            sampled = [variant[j] for variant in p.scores[1:]]
            obf_hits = list(map(sum, zip(*sampled))) if sampled else [0] * len(row)
            for k, a_type in enumerate(row):
                slot = type_counts.setdefault(
                    a_type, {"og_hits": 0, "og_n": 0, "obf_hits": 0, "obf_n": 0}
                )
                slot["og_hits"] += p.scores[0][j][k]
                slot["og_n"] += 1
                slot["obf_hits"] += obf_hits[k]
                slot["obf_n"] += p.permutations
    by_answer_type = {
        a_type: {
            "og": c["og_hits"] / c["og_n"] if c["og_n"] else None,
            "obf": c["obf_hits"] / c["obf_n"] if c["obf_n"] else None,
            "og_pairs": c["og_n"],
            "obf_pairs": c["obf_n"],
        }
        for a_type, c in sorted(type_counts.items())
    }

    overall = _overall(per_problem)
    return MetricsReport(
        m_og=overall["m_og"],
        m_obf=overall["m_obf"],
        m_rob=overall["m_rob"],
        per_problem=per_problem,
        by_difficulty=by_difficulty,
        by_answer_type=by_answer_type,
        include_original_in_min=include_original_in_min,
        case_sensitive=tensor.case_sensitive,
    )


# ---------------------------------------------------------------------------
# Exports


def report_summary(report: MetricsReport) -> dict:
    return {
        "m_og": report.m_og,
        "m_obf": report.m_obf,
        "m_rob": report.m_rob,
        "problems": len(report.per_problem),
        "by_difficulty": report.by_difficulty,
        "by_answer_type": report.by_answer_type,
        "toggles": {
            "include_original_in_min": report.include_original_in_min,
            "case_sensitive": report.case_sensitive,
        },
    }


def per_problem_csv(report: MetricsReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["problem_id", "difficulty", "speakers", "m_og", "m_obf", "m_rob", "delta", "delta_by_p"]
    )
    for pm in report.per_problem:
        writer.writerow(
            [
                pm.problem_id,
                pm.difficulty,
                pm.speakers,
                repr(pm.m_og),
                "" if pm.m_obf is None else repr(pm.m_obf),
                repr(pm.m_rob),
                "" if pm.delta is None else repr(pm.delta),
                json.dumps(list(pm.delta_by_p)),
            ]
        )
    return buf.getvalue()


def heatmap_csv(reports: Mapping[str, MetricsReport]) -> str:
    """problems x models matrix of per-problem obfuscation deltas."""
    models = sorted(reports)
    deltas = {
        model: {pm.problem_id: pm.delta for pm in reports[model].per_problem} for model in models
    }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["problem_id", *models])
    for pid in sorted({pid for by_problem in deltas.values() for pid in by_problem}):
        row: list[str] = [pid]
        for model in models:
            delta = deltas[model].get(pid)
            row.append("" if delta is None else repr(delta))
        writer.writerow(row)
    return buf.getvalue()
