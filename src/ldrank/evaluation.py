"""Graded-relevance evaluation: DCG, NDCG, and the strategy comparison.

The discounted gain of a ranked list counts the first grade at full value
and divides the grade at position i >= 2 by log2(i).  NDCG divides by the
gain of the ideal reordering of the same grades, so it stays in [0, 1].
``compare_strategies`` scores every strategy, in ``STRATEGIES`` order, by
the grades that ``grades_of`` gives each bundle's resources.  A cutoff is
an integer of at least 1 by the one rule of ``types.integer``.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

from .rank import STRATEGIES, Pipeline, PipelineParams
from .types import integer

__all__ = [
    "StrategyComparison",
    "dcg",
    "ndcg",
    "compare_strategies",
]


def dcg(grades, r: int) -> float:
    """Discounted cumulative gain of the first ``r`` positions.

    The grade at position 1 counts at full value; the grade at position
    i >= 2 is divided by log2(i).
    """
    r = integer(r, "cutoff", 1)
    grades = list(grades)
    if not grades:
        raise ValueError("grades list must not be empty")
    end = min(r, len(grades))
    total = float(grades[0])
    for i in range(2, end + 1):
        total += grades[i - 1] / math.log2(i)
    return total


_ZERO_GAIN = "ideal ranking has zero gain; returning 1.0"


def ndcg(grades, r: int) -> float:
    """Normalized DCG at cutoff ``r`` of a list of grades in rank order.

    If even the ideal ordering has zero gain there is nothing to normalize
    by; that degenerate case scores 1.0, with a warning.
    """
    ideal = sorted(grades, reverse=True)
    ideal_gain = dcg(ideal, r)
    if ideal_gain == 0.0:
        warnings.warn(_ZERO_GAIN)
        return 1.0
    return dcg(grades, r) / ideal_gain


@dataclass(frozen=True, eq=False)
class StrategyComparison:
    """NDCG per bundle, strategy and cutoff, its means, and mean seconds."""

    cutoffs: tuple[int, ...]
    mean_ndcg: dict[str, dict[int, float]]
    mean_seconds: dict[str, float]
    per_query_ndcg: tuple[dict[str, dict[int, float]], ...]

    @property
    def n_queries(self) -> int:
        return len(self.per_query_ndcg)


def compare_strategies(
    bundles,
    judgments,
    cutoffs,
    params: PipelineParams | None = None,
) -> StrategyComparison:
    """Run every strategy over aligned (bundle, judgments) pairs.

    Each bundle gets one ``Pipeline``, from which every strategy is ranked,
    and one ``grades_of`` call, by whose grades every ranking is scored at
    every cutoff by ``ndcg``.  A bundle whose grades are all 0 scores 1.0
    everywhere, with one warning instead of one per ``ndcg`` call.  The
    seconds are marginal, measured with a monotonic clock: a stage shared
    by several strategies is charged to the first one that needs it, in
    ``STRATEGIES`` order.  Means are arithmetic over the bundles; an empty
    bundle list yields an empty comparison.
    """
    bundles = list(bundles)
    judgments = list(judgments)
    if len(bundles) != len(judgments):
        raise ValueError(
            f"{len(bundles)} bundles but {len(judgments)} judgment sets"
        )
    cutoffs = tuple(integer(r, "cutoff", 1) for r in cutoffs)

    if not bundles:
        return StrategyComparison(cutoffs, {}, {}, ())

    per_query: list[dict[str, dict[int, float]]] = []
    seconds: dict[str, list[float]] = {name: [] for name in STRATEGIES}
    for bundle, judged in zip(bundles, judgments):
        pipeline = Pipeline(bundle, params)
        grades = judged.grades_of(bundle.resource_ids)
        judged_any = any(grades)
        if not judged_any:  # every ideal gain is 0: warn once, not per ndcg call
            warnings.warn(_ZERO_GAIN)
        row: dict[str, dict[int, float]] = {}
        for name in STRATEGIES:
            start = time.perf_counter()
            result = pipeline.rank(name)
            seconds[name].append(time.perf_counter() - start)
            if judged_any:
                ranked = [grades[i] for i in result.order.tolist()]
                row[name] = {r: ndcg(ranked, r) for r in cutoffs}
            else:
                row[name] = dict.fromkeys(cutoffs, 1.0)
        per_query.append(row)

    n = len(bundles)
    mean_ndcg = {
        name: {r: sum(row[name][r] for row in per_query) / n for r in cutoffs}
        for name in STRATEGIES
    }
    mean_seconds = {name: sum(ts) / n for name, ts in seconds.items()}
    return StrategyComparison(
        cutoffs=cutoffs,
        mean_ndcg=mean_ndcg,
        mean_seconds=mean_seconds,
        per_query_ndcg=tuple(per_query),
    )
