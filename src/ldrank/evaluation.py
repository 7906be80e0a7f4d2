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
from .types import integer, shown_int

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
    grades, r = _checked(grades, r)
    return _gains(grades, (r,))[0]


def _checked(grades, r: int) -> tuple[list, int]:
    """``grades`` as a non-empty list, and ``r`` a cutoff of at least 1."""
    r = integer(r, "cutoff", 1)
    grades = list(grades)
    if not grades:
        raise ValueError("grades list must not be empty")
    return grades, r


def _gains(grades: list, cutoffs: tuple[int, ...]) -> list[float]:
    """``dcg(grades, r)`` for each ``r`` of ``cutoffs`` (0.0 for no grades),
    from one left-to-right sum, of which each cutoff takes a prefix."""
    sums = [0.0]  # sums[k]: the gain of the first k positions
    for i, grade in enumerate(grades[:max(cutoffs)], start=1):
        sums.append(float(grade) if i == 1 else sums[-1] + grade / math.log2(i))
    return [sums[min(r, len(sums) - 1)] for r in cutoffs]


_ZERO_GAIN = "ideal ranking has zero gain; returning 1.0"


def ndcg(grades, r: int) -> float:
    """Normalized DCG at cutoff ``r`` of a list of grades in rank order.

    If even the ideal ordering has zero gain there is nothing to normalize
    by; that degenerate case scores 1.0, with a warning.
    """
    grades, r = _checked(grades, r)
    return next(_ndcgs(grades, [grades], (r,)))[r]


def _ndcgs(grades: list, rankings, cutoffs: tuple[int, ...]):
    """Yield, per ranking of ``rankings`` (each ``grades`` reordered), its
    NDCG at each cutoff.  A zero ideal gain leaves nothing to normalize by:
    it scores 1.0, with one warning before the first ranking is drawn."""
    ideal = _gains(sorted(grades, reverse=True), cutoffs)
    if 0.0 in ideal:
        warnings.warn(_ZERO_GAIN)
    for ranked in rankings:
        gains = _gains(ranked, cutoffs)
        yield {r: 1.0 if best == 0.0 else gain / best
               for r, gain, best in zip(cutoffs, gains, ideal)}


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


def _scores(bundle, judged, cutoffs, params, seconds) -> dict[str, dict[int, float]]:
    """NDCG per strategy and cutoff on one bundle, each strategy's seconds
    appended to ``seconds``; the pipeline and rankings die with the call."""
    pipeline = Pipeline(bundle, params)
    grades = judged.grades_of(bundle.resource_ids)

    def rankings():
        for name in STRATEGIES:
            start = time.perf_counter()
            result = pipeline.rank(name)
            seconds[name].append(time.perf_counter() - start)
            yield [grades[i] for i in result.order.tolist()]

    return dict(zip(STRATEGIES, _ndcgs(grades, rankings(), cutoffs)))


def compare_strategies(
    pairs,
    cutoffs,
    params: PipelineParams | None = None,
) -> StrategyComparison:
    """Run every strategy over ``(bundle, judgments)`` pairs, drawn one at
    a time once the cutoff list (at least one, none twice) is checked.

    Each bundle gets one ``Pipeline``, from which every strategy is ranked,
    and one ``grades_of`` call, whose grades are sorted once for the ideal
    gains.  A ranking's gains at all cutoffs come from one pass; a zero
    ideal gain (every grade 0) scores 1.0, with one warning per bundle.  The
    seconds are marginal, measured with a monotonic clock: a stage shared
    by several strategies is charged to the first one that needs it, in
    ``STRATEGIES`` order.  Means are arithmetic over the bundles; no pairs
    yield an empty comparison.
    """
    cutoffs = tuple(integer(r, "cutoff", 1) for r in cutoffs)
    if not cutoffs:
        raise ValueError("at least one cutoff required")
    repeated = [r for k, r in enumerate(cutoffs) if r in cutoffs[:k]]
    if repeated:
        raise ValueError(f"cutoff {shown_int(repeated[0])} is given more than once")
    per_query: list[dict[str, dict[int, float]]] = []
    seconds: dict[str, list[float]] = {name: [] for name in STRATEGIES}
    for bundle, judged in pairs:
        per_query.append(_scores(bundle, judged, cutoffs, params, seconds))
        del bundle, judged  # so one entry is held while the next is drawn

    if not per_query:
        return StrategyComparison(cutoffs, {}, {}, ())
    n = len(per_query)
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
