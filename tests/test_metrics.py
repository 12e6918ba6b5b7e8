from __future__ import annotations

import json
import re
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lingobf.metrics import (
    ProblemScores,
    ScoreTensor,
    UnknownPromptError,
    aggregate,
    answer_type,
    exact_match,
    heatmap_csv,
    normalize_answer,
    per_problem_csv,
    report_summary,
    score_run,
)
from lingobf.rng import SplitMix64
from lingobf.runner import ResponseRecord

# ---------------------------------------------------------------------------
# exact_match


def test_exact_match_basics():
    assert exact_match("kahmanama", "kahmanama") == 1
    assert exact_match("kahmana", "kahmanama") == 0  # no partial credit
    assert exact_match("  42 ", "42") == 1


def test_exact_match_collapses_internal_whitespace():
    assert exact_match("a  b\tc", "a b c") == 1


def test_exact_match_unicode_composition():
    assert exact_match("é", "é") == 1


def test_exact_match_case_toggle():
    assert exact_match("Yes", "yes") == 0
    assert exact_match("Yes", "yes", case_sensitive=False) == 1


def test_exact_match_alternates():
    assert exact_match("two", "2", alternates=["two"]) == 1
    assert exact_match("none", "2", alternates=["two"]) == 0


def test_exact_match_missing_prediction():
    assert exact_match(None, "42") == 0


# Whitespace that str.split() and the regex \s both know, beyond ASCII:
# NEL, NBSP, the line and paragraph separators, and the C0 separators
# \x1c-\x1f that str.isspace() counts; plus a decomposed é for NFC.
_WS_TEXT = st.text(
    st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029\u3000ae\u0301Σ")
    | st.characters(),
    max_size=12,
)


@given(_WS_TEXT | st.text(), st.booleans())
def test_normalize_answer_trims_and_collapses_like_the_regex_form(text, case_sensitive):
    expected = re.sub(r"\s+", " ", unicodedata.normalize("NFC", text).strip())
    expected = expected if case_sensitive else expected.casefold()
    assert normalize_answer(text, case_sensitive=case_sensitive) == expected


# ---------------------------------------------------------------------------
# answer_type


@pytest.mark.parametrize(
    "gold,expected",
    [
        ("42", "Digit"),
        ("7", "Digit"),
        ("a", "SingleChar"),
        ("é", "SingleChar"),
        ("yes", "YN"),
        ("No", "YN"),
        ("y", "YN"),
        ("n", "YN"),
        ("kahmanama", "Other"),
        ("two words", "Other"),
        ("", "Other"),
    ],
)
def test_answer_type(gold, expected):
    assert answer_type(gold) == expected


# ---------------------------------------------------------------------------
# Tensor construction from runs


def make_response(prompt_id, parsed, status="ok"):
    return ResponseRecord(
        prompt_id=prompt_id,
        status=status,
        raw_text=json.dumps(parsed) if parsed else "",
        parsed=parsed,
        attempts=1,
        latency_ms=1.0,
        timestamp="t",
    )


def all_correct_responses(dataset):
    return {
        f"{r.variant_id}:q{r.question_index}": make_response(
            f"{r.variant_id}:q{r.question_index}", dict(r.answers)
        )
        for r in dataset
    }


def test_all_correct_run_scores_ones(dataset):
    responses = all_correct_responses(dataset)
    tensor, missing = score_run(responses, dataset)
    assert missing == []
    for problem in tensor.problems:
        for perm in problem.scores:
            for row in perm:
                assert all(v == 1 for v in row)


def test_missing_record_scores_zero_and_is_reported(dataset):
    responses = all_correct_responses(dataset)
    dropped = "birds-x:p0:q1"
    del responses[dropped]
    tensor, missing = score_run(responses, dataset)
    assert missing == [dropped]
    birds = next(p for p in tensor.problems if p.problem_id == "birds-x")
    assert birds.scores[0][1] == (0,)
    assert birds.scores[0][0] == (1, 1)


def test_extra_keys_ignored(dataset):
    responses = all_correct_responses(dataset)
    target = "voicing-y:p0:q0"
    parsed = dict(responses[target].parsed)
    parsed["999"] = "junk"
    responses[target] = make_response(target, parsed)
    tensor, _ = score_run(responses, dataset)
    voicing = next(p for p in tensor.problems if p.problem_id == "voicing-y")
    assert voicing.scores[0][0] == (1, 1)


def test_non_ok_statuses_score_zero(dataset):
    responses = all_correct_responses(dataset)
    target = "birds-x:p0:q0"
    responses[target] = make_response(target, None, status="empty")
    tensor, _ = score_run(responses, dataset)
    birds = next(p for p in tensor.problems if p.problem_id == "birds-x")
    assert birds.scores[0][0] == (0, 0)


def test_unknown_prompt_id_raises(dataset):
    responses = all_correct_responses(dataset)
    responses["ghost:p0:q0"] = make_response("ghost:p0:q0", {"1": "x"})
    with pytest.raises(UnknownPromptError, match="ghost:p0:q0"):
        score_run(responses, dataset)


def test_variant_missing_a_question_is_a_value_error(dataset):
    records = [r for r in dataset if (r.problem_id, r.p, r.question_index) != ("birds-x", 2, 1)]
    with pytest.raises(ValueError, match="birds-x: variant p=2 lacks question 1"):
        score_run({}, records)


# ---------------------------------------------------------------------------
# Aggregation: hand-computed fixture


def one_problem_tensor(scores, answer_types=None, problem_id="p1", difficulty="Advanced"):
    scores = tuple(tuple(tuple(row) for row in perm) for perm in scores)
    if answer_types is None:
        answer_types = tuple(tuple("Other" for _ in row) for row in scores[0])
    return ScoreTensor(
        problems=(
            ProblemScores(
                problem_id=problem_id,
                difficulty=difficulty,
                speakers=1000,
                scores=scores,
                answer_types=answer_types,
            ),
        )
    )


def test_hand_computed_fixture():
    # One problem, one question, two sub-questions, two permutations:
    # p0 = (1, 1), p1 = (1, 0), p2 = (0, 0).
    tensor = one_problem_tensor([[(1, 1)], [(1, 0)], [(0, 0)]])
    report = aggregate(tensor)
    assert report.m_og == 1.0
    assert report.m_obf == 0.25
    pm = report.per_problem[0]
    assert pm.delta_by_p == (-0.5, -1.0)
    assert pm.delta == -0.75
    assert report.m_rob == 0.0


def test_all_ones_tensor():
    tensor = one_problem_tensor([[(1, 1), (1,)], [(1, 1), (1,)]])
    report = aggregate(tensor)
    assert report.m_og == report.m_obf == report.m_rob == 1.0
    assert report.per_problem[0].delta == 0.0


def test_robust_min_flag():
    # Original scores 0, the only permutation scores 1.
    tensor = one_problem_tensor([[(0,)], [(1,)]])
    assert aggregate(tensor).m_rob == 0.0
    assert aggregate(tensor, include_original_in_min=False).m_rob == 1.0


def test_robust_never_exceeds_means():
    rng = SplitMix64(99)
    for _ in range(50):
        tensor = random_tensor(rng)
        report = aggregate(tensor)
        for pm in report.per_problem:
            assert pm.m_rob <= pm.m_og + 1e-12
            if pm.m_obf is not None:
                assert pm.m_rob <= pm.m_obf + 1e-12


# ---------------------------------------------------------------------------
# Aggregation: brute-force oracle equivalence


def random_tensor(rng: SplitMix64) -> ScoreTensor:
    problems = []
    for i in range(rng.below(4) + 1):
        n = rng.below(3) + 1
        m = [rng.below(4) + 1 for _ in range(n)]
        P = rng.below(6) + 1
        scores = tuple(
            tuple(tuple(rng.below(2) for _ in range(m[j])) for j in range(n))
            for _ in range(P + 1)
        )
        answer_types = tuple(
            tuple(("Digit", "SingleChar", "YN", "Other")[rng.below(4)] for _ in range(m[j]))
            for j in range(n)
        )
        problems.append(
            ProblemScores(
                problem_id=f"p{i}",
                difficulty=("Breakthrough", "Advanced")[rng.below(2)],
                speakers=10 ** (rng.below(6) + 1),
                scores=scores,
                answer_types=answer_types,
            )
        )
    return ScoreTensor(problems=tuple(problems))


def brute_force_report(tensor: ScoreTensor, include_original_in_min=True):
    """Independent loop implementation of every aggregate, straight from the
    defining formulas."""
    per = []
    for prob in tensor.problems:
        n = len(prob.scores[0])
        P = len(prob.scores) - 1

        m_og_i = 0.0
        for j in range(n):
            s = 0
            for k in range(len(prob.scores[0][j])):
                s += prob.scores[0][j][k]
            m_og_i += s / len(prob.scores[0][j])
        m_og_i /= n

        if P > 0:
            m_obf_i = 0.0
            for j in range(n):
                s = 0
                for p in range(1, P + 1):
                    for k in range(len(prob.scores[p][j])):
                        s += prob.scores[p][j][k]
                m_obf_i += s / (P * len(prob.scores[0][j]))
            m_obf_i /= n

            deltas = []
            for p in range(1, P + 1):
                mean_p = 0.0
                for j in range(n):
                    s = 0
                    for k in range(len(prob.scores[p][j])):
                        s += prob.scores[p][j][k]
                    mean_p += s / len(prob.scores[p][j])
                mean_p /= n
                deltas.append(mean_p - m_og_i)
            delta_i = 0.0
            for d in deltas:
                delta_i += d
            delta_i /= P
        else:
            m_obf_i, deltas, delta_i = None, [], None

        lo = 0 if include_original_in_min or P == 0 else 1
        m_rob_i = 0.0
        for j in range(n):
            worst = None
            for p in range(lo, P + 1):
                s = 0
                for k in range(len(prob.scores[p][j])):
                    s += prob.scores[p][j][k]
                if worst is None or s < worst:
                    worst = s
            m_rob_i += worst / len(prob.scores[0][j])
        m_rob_i /= n

        per.append((m_og_i, m_obf_i, m_rob_i, tuple(deltas), delta_i))

    m_og = 0.0
    for x, *_ in per:
        m_og += x
    m_og /= len(per)
    obf_values = [x for _, x, *_ in per if x is not None]
    m_obf = None
    if obf_values:
        m_obf = 0.0
        for x in obf_values:
            m_obf += x
        m_obf /= len(obf_values)
    m_rob = 0.0
    for _, _, x, _, _ in per:
        m_rob += x
    m_rob /= len(per)
    return m_og, m_obf, m_rob, per


def test_oracle_equivalence_on_random_tensors():
    rng = SplitMix64(2024)
    for trial in range(100):
        tensor = random_tensor(rng)
        report = aggregate(tensor)
        m_og, m_obf, m_rob, per = brute_force_report(tensor)
        assert report.m_og == m_og
        assert report.m_obf == m_obf
        assert report.m_rob == m_rob
        for pm, (og_i, obf_i, rob_i, deltas, delta_i) in zip(report.per_problem, per):
            assert pm.m_og == og_i
            assert pm.m_obf == obf_i
            assert pm.m_rob == rob_i
            assert pm.delta_by_p == deltas
            assert pm.delta == delta_i


def test_answer_type_breakdown_matches_a_loop_over_cells():
    rng = SplitMix64(99)
    unsampled = ProblemScores("q", "Advanced", 10, (((1, 0), (1,)),), (("YN", "Digit"), ("YN",)))
    for _ in range(50):
        tensor = random_tensor(rng)
        tensor = ScoreTensor(problems=(*tensor.problems, unsampled))
        counts = {}
        for prob in tensor.problems:
            for j, row in enumerate(prob.answer_types):
                for k, a_type in enumerate(row):
                    c = counts.setdefault(a_type, [0, 0, 0, 0])
                    c[0] += prob.scores[0][j][k]
                    c[1] += 1
                    for variant in prob.scores[1:]:
                        c[2] += variant[j][k]
                        c[3] += 1
        expected = {
            a_type: {
                "og": og / og_n if og_n else None,
                "obf": obf / obf_n if obf_n else None,
                "og_pairs": og_n,
                "obf_pairs": obf_n,
            }
            for a_type, (og, og_n, obf, obf_n) in sorted(counts.items())
        }
        assert aggregate(tensor).by_answer_type == expected


def test_permutation_relabeling_invariance():
    rng = SplitMix64(17)
    for _ in range(20):
        tensor = random_tensor(rng)
        relabeled = ScoreTensor(
            problems=tuple(
                ProblemScores(
                    problem_id=p.problem_id,
                    difficulty=p.difficulty,
                    speakers=p.speakers,
                    scores=(p.scores[0], *reversed(p.scores[1:])),
                    answer_types=p.answer_types,
                )
                for p in tensor.problems
            )
        )
        a = aggregate(tensor)
        b = aggregate(relabeled)
        assert a.m_obf == b.m_obf
        assert a.m_rob == b.m_rob
        for pm_a, pm_b in zip(a.per_problem, b.per_problem):
            assert pm_a.delta == pytest.approx(pm_b.delta, abs=1e-12)


def test_duplicating_problems_leaves_overall_unchanged():
    rng = SplitMix64(5)
    tensor = random_tensor(rng)
    doubled = ScoreTensor(
        problems=tensor.problems
        + tuple(
            ProblemScores(
                problem_id=p.problem_id + "-copy",
                difficulty=p.difficulty,
                speakers=p.speakers,
                scores=p.scores,
                answer_types=p.answer_types,
            )
            for p in tensor.problems
        )
    )
    a, b = aggregate(tensor), aggregate(doubled)
    assert b.m_og == pytest.approx(a.m_og, abs=1e-12)
    assert b.m_rob == pytest.approx(a.m_rob, abs=1e-12)
    if a.m_obf is not None:
        assert b.m_obf == pytest.approx(a.m_obf, abs=1e-12)


def test_difficulty_breakdown_partitions_problems():
    rng = SplitMix64(8)
    tensor = random_tensor(rng)
    report = aggregate(tensor)
    assert sum(row["problems"] for row in report.by_difficulty.values()) == len(
        tensor.problems
    )


def test_answer_type_breakdown_counts():
    tensor = one_problem_tensor(
        [[(1, 0)], [(0, 0)]],
        answer_types=(("Digit", "Other"),),
    )
    report = aggregate(tensor)
    assert report.by_answer_type["Digit"] == {
        "og": 1.0,
        "obf": 0.0,
        "og_pairs": 1,
        "obf_pairs": 1,
    }
    assert report.by_answer_type["Other"]["og"] == 0.0


def test_empty_tensor_rejected():
    with pytest.raises(ValueError):
        aggregate(ScoreTensor(problems=()))


@pytest.mark.parametrize("cell", [0.7, 2, -1, "1", True, None, 1.0, [1]])
def test_a_score_cell_is_the_json_integer_0_or_1(cell):
    problem = {
        "problem_id": "x1", "difficulty": "Foundation", "speakers": 9,
        "scores": [[[1, 0]], [[0, cell]]], "answer_types": [["YN", "YN"]],
    }
    with pytest.raises(ValueError) as exc:
        ScoreTensor.from_dict({"problems": [problem]})
    if type(cell) is int:
        assert str(exc.value) == f"problem x1: variant p=1 has a score of {cell}, not 0 or 1"
    else:
        assert str(exc.value) == f"problems[0].scores[1][0][1] is {json.dumps(cell)}, not an integer"
    problem["scores"][1][0][1] = 1
    tensor = ScoreTensor.from_dict({"problems": [problem]})
    assert tensor.problems[0].scores == (((1, 0),), ((0, 1),))


# ---------------------------------------------------------------------------
# Exports


def test_csv_exports_have_rows(dataset):
    tensor, _ = score_run(all_correct_responses(dataset), dataset)
    report = aggregate(tensor)
    csv_text = per_problem_csv(report)
    assert csv_text.count("\n") == 1 + len(report.per_problem)
    summary = report_summary(report)
    assert summary["toggles"]["include_original_in_min"] is True

    heat = heatmap_csv({"model-a": report, "model-b": report})
    lines = heat.strip().splitlines()
    assert lines[0] == "problem_id,model-a,model-b"
    assert len(lines) == 1 + len(report.per_problem)
