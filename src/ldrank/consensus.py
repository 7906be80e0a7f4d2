"""Consensus pooling of expert probability distributions.

Experts repeatedly move toward each other: at every synchronous step each
expert mixes its own distribution with a weighted average of the others,
weighting each peer by its total-variation distance (so far-away opinions
pull harder).  The damping factor controls the step size.  Iteration stops
once the largest pairwise distance falls below epsilon; the pooled belief is
the arithmetic mean of the final expert distributions.  The damping, epsilon
and iteration cap come from ``PipelineParams``, which checked their ranges.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .types import ConvergenceWarning, Distribution, PipelineParams

__all__ = ["ConsensusResult", "consensual_pool"]


@dataclass(frozen=True, eq=False)
class ConsensusResult:
    """Pooled distribution plus how the iteration ended."""

    distribution: Distribution
    iterations: int
    converged: bool


def _pairwise_tv(rows: np.ndarray) -> np.ndarray:
    """Total-variation distance between every pair of rows, zero diagonal."""
    m = rows.shape[0]
    dist = np.zeros((m, m), dtype=np.float64)
    for i in range(m):
        dist[i] = 0.5 * np.abs(rows - rows[i]).sum(axis=1)
    return dist


def _pool_step(rows: np.ndarray, dist: np.ndarray, damping: float) -> np.ndarray:
    """One synchronous update of every expert toward the others, given
    their pairwise distances ``dist``."""
    m = rows.shape[0]
    row_sums = dist.sum(axis=1)
    pulled = np.empty_like(rows)
    for i in range(m):
        if row_sums[i] <= 0.0:
            # Identical to every peer: nothing pulls this expert anywhere.
            pulled[i] = rows[i]
            continue
        weights = dist[i] / row_sums[i]
        pulled[i] = weights @ rows
    return (1.0 - damping) * rows + damping * pulled


def consensual_pool(experts, params: PipelineParams) -> ConsensusResult:
    """Iterate the experts to consensus and return the mean distribution.

    ``experts`` is a non-empty sequence of distributions of one length;
    ``params`` gives the step ``damping``, the stopping threshold
    ``consensus_epsilon`` and the cap ``consensus_max_iters``.  Convergence
    is checked before the first update, so identical experts return after
    zero iterations.  If the pool has not converged after the cap, the mean
    of the current distributions is returned anyway, flagged and warned as
    non-converged.
    """
    if not experts:
        raise ValueError("pool needs at least one expert")
    n = len(experts[0])
    if any(len(e) != n for e in experts):
        raise ValueError("all experts must share the same support length")
    rows = np.stack([e.values for e in experts])
    iterations = 0
    converged = False
    while True:
        dist = _pairwise_tv(rows)
        if dist.max() < params.consensus_epsilon:
            converged = True
            break
        if iterations >= params.consensus_max_iters:
            break
        rows = _pool_step(rows, dist, params.damping)
        iterations += 1
    if not converged:
        warnings.warn(
            f"consensus pooling still above epsilon after {iterations} iterations",
            ConvergenceWarning,
        )
    mean = rows.mean(axis=0)
    return ConsensusResult(
        distribution=Distribution(mean),
        iterations=iterations,
        converged=converged,
    )
