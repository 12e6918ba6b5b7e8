from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lingobf.metrics import ProblemScores, ScoreTensor
from lingobf.rng import stream
from lingobf.stats import (
    DegenerateDataError,
    bootstrap,
    fit_groups,
    histogram_csv,
    ols_fit,
    regression_csv,
)


def two_version_problem(pid, p0, p1):
    return ProblemScores(
        problem_id=pid,
        difficulty="Advanced",
        speakers=1000,
        scores=(((p0,),), ((p1,),)),
        answer_types=(("Other",),),
    )


# The enumerable fixture: two problems, each with an original scoring 0 and
# one permutation scoring 1.  A bootstrap set picks one version per problem,
# so the exact set-score distribution is {0: 1/4, 0.5: 1/2, 1: 1/4}.
ENUMERABLE = ScoreTensor(
    problems=(two_version_problem("a", 0, 1), two_version_problem("b", 0, 1))
)


def test_exact_distribution_of_enumerable_fixture():
    outcomes = []
    for pa, pb in itertools.product((0, 1), repeat=2):
        score_a = ENUMERABLE.problems[0].scores[pa][0][0]
        score_b = ENUMERABLE.problems[1].scores[pb][0][0]
        outcomes.append((score_a + score_b) / 2)
    assert sorted(outcomes) == [0.0, 0.5, 0.5, 1.0]


def test_bootstrap_point_mass():
    constant = ScoreTensor(
        problems=(two_version_problem("a", 1, 1), two_version_problem("b", 1, 1))
    )
    result = bootstrap(constant, sets=50, seed=3)
    assert set(result.set_scores) == {1.0}


def test_bootstrap_calibration_on_enumerable_fixture():
    result = bootstrap(ENUMERABLE, sets=500, seed=11)
    assert len(result.set_scores) == 500
    assert set(result.set_scores) <= {0.0, 0.5, 1.0}
    assert abs(result.mean - 0.5) <= 0.067  # 3 sigma with sigma <= 0.5/sqrt(500)


def test_bootstrap_deterministic_in_seed():
    a = bootstrap(ENUMERABLE, sets=100, seed=42)
    b = bootstrap(ENUMERABLE, sets=100, seed=42)
    assert a.set_scores == b.set_scores
    c = bootstrap(ENUMERABLE, sets=100, seed=43)
    assert a.set_scores != c.set_scores


def test_bootstrap_zero_sets():
    result = bootstrap(ENUMERABLE, sets=0, seed=1)
    assert result.set_scores == ()


def test_bootstrap_every_problem_enters_every_set():
    # With three problems scoring 1 only in distinct versions, any set score
    # is a multiple of 1/3 -- evidence each problem contributes exactly once.
    tensor = ScoreTensor(
        problems=(
            two_version_problem("a", 0, 1),
            two_version_problem("b", 1, 0),
            two_version_problem("c", 0, 1),
        )
    )
    result = bootstrap(tensor, sets=200, seed=9)
    for score in result.set_scores:
        assert math.isclose(score * 3, round(score * 3))


def test_bootstrap_relabeling_symmetry():
    relabeled = ScoreTensor(
        problems=(two_version_problem("a", 1, 0), two_version_problem("b", 1, 0))
    )
    a = bootstrap(ENUMERABLE, sets=2000, seed=7)
    b = bootstrap(relabeled, sets=2000, seed=7)
    assert abs(a.mean - b.mean) < 0.05


def test_histogram_totals_and_edges():
    result = bootstrap(ENUMERABLE, sets=500, seed=11)
    csv_text = histogram_csv(result, bins=4)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "bin_start,bin_end,count"
    assert len(lines) == 5
    assert sum(int(line.split(",")[2]) for line in lines[1:]) == 500


# ---------------------------------------------------------------------------
# OLS


def test_exact_line():
    x = [0.0, 1.0, 2.0, 3.0]
    y = [2 * xi + 1 for xi in x]
    fit = ols_fit(x, y)
    assert fit.slope == 2.0
    assert fit.intercept == 1.0
    assert fit.r_squared == 1.0
    assert fit.stderr == 0.0
    assert fit.t_stat == math.inf


def test_constant_y():
    fit = ols_fit([0.0, 1.0, 2.0], [5.0, 5.0, 5.0])
    assert fit.slope == 0.0
    assert fit.r_squared == 0.0
    assert fit.t_stat == 0.0


def test_three_point_fixture_matches_normal_equations():
    fit = ols_fit([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
    assert fit.slope == pytest.approx(0.5, abs=1e-9)
    assert fit.intercept == pytest.approx(1 / 6, abs=1e-9)
    # Hand-solved: SSR = sum of squared residuals at (0,-1/6), (1,1/3), (2,-1/6)
    ssr = (1 / 6) ** 2 + (1 / 3) ** 2 + (1 / 6) ** 2
    sst = (0 - 2 / 3) ** 2 + (1 - 2 / 3) ** 2 * 2
    assert fit.r_squared == pytest.approx(1 - ssr / sst, abs=1e-9)
    assert fit.stderr == pytest.approx(math.sqrt(ssr / 1 / 2), abs=1e-9)


def test_degenerate_inputs_rejected():
    with pytest.raises(DegenerateDataError):
        ols_fit([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DegenerateDataError):
        ols_fit([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateDataError):
        ols_fit([1.0, 2.0, 3.0], [1.0, 2.0])


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-100, max_value=100),
            st.floats(min_value=-100, max_value=100),
        ),
        min_size=3,
        max_size=30,
    )
)
def test_residual_orthogonality(points):
    x = [p[0] for p in points]
    y = [p[1] for p in points]
    if max(x) - min(x) < 1e-6:
        return
    fit = ols_fit(x, y)
    residuals = [yi - (fit.slope * xi + fit.intercept) for xi, yi in zip(x, y)]
    scale = 1 + sum(abs(v) for v in y)
    assert abs(sum(residuals)) / scale < 1e-9
    assert abs(sum(r * xi for r, xi in zip(residuals, x))) / (scale * (1 + max(map(abs, x)))) < 1e-9


def test_fit_groups_splits_and_reports_degenerates():
    points = [
        ("Advanced", 1.0, 2.0),
        ("Advanced", 2.0, 4.0),
        ("Advanced", 3.0, 6.0),
        ("Round2", 1.0, 1.0),
        ("Round2", 1.0, 2.0),
        ("Round2", 1.0, 3.0),
    ]
    fits, skipped = fit_groups(points)
    assert fits["Advanced"].slope == pytest.approx(2.0)
    assert "Round2" in skipped  # constant x

    csv_text = regression_csv(fits)
    assert csv_text.splitlines()[0] == "label,n,slope,intercept,r_squared,stderr,t_stat"
    assert "Advanced" in csv_text


@st.composite
def score_tensors(draw):
    """Random 0/1 tensors; some problems have no sampled permutation (P = 0)."""
    problems = []
    for i in range(draw(st.integers(1, 5))):
        shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        variants = draw(st.integers(1, 4))
        scores = tuple(
            tuple(tuple(draw(st.integers(0, 1)) for _ in range(m)) for m in shape)
            for _ in range(variants)
        )
        answer_types = tuple(("Other",) * m for m in shape)
        problems.append(ProblemScores(f"x{i}", "Advanced", 10, scores, answer_types))
    return ScoreTensor(problems=tuple(problems))


@given(score_tensors(), st.integers(0, 30), st.integers(0, 2**64 - 1))
def test_bootstrap_draws_set_s_from_its_named_stream(tensor, sets, seed):
    expected = []
    for s in range(sets):
        below = stream(seed, "bootstrap-set", s).below
        per_problem = [p.variant_means[below(p.permutations + 1)] for p in tensor.problems]
        expected.append(sum(per_problem) / len(per_problem))
    assert bootstrap(tensor, sets=sets, seed=seed).set_scores == tuple(expected)
