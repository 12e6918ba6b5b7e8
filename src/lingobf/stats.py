"""Bootstrap score distributions and the resourcedness regression.

The bootstrap builds score distributions over permutation choices rather
than over problem resampling: each bootstrap set contains every problem
exactly once, with one variant p in {0..P_i} chosen independently and
uniformly per problem, scored as the mean over problems of per-question
mean sub-question scores.  Each set draws from its own named substream of
the seed, so set s is reproducible regardless of how many sets run or in
what order.

The regression is closed-form OLS of per-problem obfuscation deltas on
log10 speaker counts, fit separately per group (difficulty level, model
family, ...).  Slope, intercept, R^2, classical standard error and the
t-statistic are reported; p-values are deliberately not computed (no
distribution-function dependency).  To test ``tests`` groups at level
``alpha``, compare each t-statistic against the critical value for the
Bonferroni threshold ``alpha / tests``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .metrics import ScoreTensor
from .rng import SplitMix64, absorb, derive_seed, rejection_limits


@dataclass(frozen=True)
class BootstrapResult:
    set_scores: tuple[float, ...]
    sets: int

    @property
    def mean(self) -> float:
        return sum(self.set_scores) / len(self.set_scores) if self.set_scores else math.nan


def bootstrap(tensor: ScoreTensor, sets: int = 500, seed: int = 0) -> BootstrapResult:
    """Score distribution over uniform per-problem variant choices."""
    if sets < 0:
        raise ValueError("sets must be >= 0")
    # A set only picks one variant per problem, so its score is bit-identical
    # to recomputing the question means for every set.
    variant_means = [problem.variant_means for problem in tensor.problems]
    limits = rejection_limits(len(means) for means in variant_means)
    # Set s draws from stream(seed, "bootstrap-set", s); the shared prefix is folded once.
    prefix = derive_seed(seed, "bootstrap-set")
    scores = []
    for s in range(sets):
        picks = SplitMix64(absorb(prefix, s)).below_each(limits)
        per_problem = [means[i] for means, i in zip(variant_means, picks)]
        scores.append(sum(per_problem) / len(per_problem))
    return BootstrapResult(set_scores=tuple(scores), sets=sets)


def histogram_csv(result: BootstrapResult, bins: int = 20) -> str:
    """Fixed [0, 1] binning of set scores; last bin closed on the right."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    counts = [0] * bins
    for score in result.set_scores:
        idx = min(int(score * bins), bins - 1)
        counts[idx] += 1
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["bin_start", "bin_end", "count"])
    for i, count in enumerate(counts):
        writer.writerow([repr(i / bins), repr((i + 1) / bins), count])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Regression


class DegenerateDataError(ValueError):
    """Too few points or constant x: the fit is undefined."""


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    r_squared: float
    stderr: float
    t_stat: float
    n: int


def ols_fit(x: Sequence[float], y: Sequence[float]) -> RegressionResult:
    """Closed-form simple OLS with classical standard errors.

    slope = Sxy / Sxx, intercept = ybar - slope * xbar,
    R^2 = 1 - SSR/SST (0 when y is constant), SE from the residual
    variance SSR/(n-2).  A perfect fit has SE 0; the t-statistic is then
    0 for a zero slope and +/-inf otherwise.
    """
    if len(x) != len(y):
        raise DegenerateDataError("x and y must have equal length")
    n = len(x)
    if n < 3:
        raise DegenerateDataError(f"need at least 3 points, got {n}")
    x_bar = sum(x) / n
    y_bar = sum(y) / n
    sxx = sum((xi - x_bar) ** 2 for xi in x)
    if sxx == 0:
        raise DegenerateDataError("x is constant; slope is undefined")
    sxy = sum((xi - x_bar) * (yi - y_bar) for xi, yi in zip(x, y))
    slope = sxy / sxx
    intercept = y_bar - slope * x_bar

    residuals = [yi - (slope * xi + intercept) for xi, yi in zip(x, y)]
    ssr = sum(r * r for r in residuals)
    sst = sum((yi - y_bar) ** 2 for yi in y)
    r_squared = 1.0 - ssr / sst if sst > 0 else 0.0

    stderr = math.sqrt((ssr / (n - 2)) / sxx)
    if stderr > 0:
        t_stat = slope / stderr
    else:
        t_stat = 0.0 if slope == 0 else math.copysign(math.inf, slope)

    return RegressionResult(
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        stderr=stderr,
        t_stat=t_stat,
        n=n,
    )


def fit_groups(
    points: Sequence[tuple[str, float, float]]
) -> tuple[dict[str, RegressionResult], dict[str, str]]:
    """One OLS fit per group label over (label, x, y) points.

    Groups are caller-defined (difficulty levels, model families); groups
    with degenerate data land in the second mapping with the reason.
    """
    grouped: dict[str, tuple[list[float], list[float]]] = {}
    for label, x, y in points:
        xs, ys = grouped.setdefault(label, ([], []))
        xs.append(x)
        ys.append(y)
    fits: dict[str, RegressionResult] = {}
    skipped: dict[str, str] = {}
    for label in sorted(grouped):
        xs, ys = grouped[label]
        try:
            fits[label] = ols_fit(xs, ys)
        except DegenerateDataError as exc:
            skipped[label] = str(exc)
    return fits, skipped


def regression_csv(fits: Mapping[str, RegressionResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "n", "slope", "intercept", "r_squared", "stderr", "t_stat"])
    for label in sorted(fits):
        fit = fits[label]
        writer.writerow(
            [
                label,
                fit.n,
                repr(fit.slope),
                repr(fit.intercept),
                repr(fit.r_squared),
                repr(fit.stderr),
                repr(fit.t_stat),
            ]
        )
    return buf.getvalue()
