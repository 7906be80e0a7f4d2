"""Consensus pooling of expert probability distributions.

Experts repeatedly move toward each other: at every synchronous step each
expert mixes its own distribution with a weighted average of the others,
weighting each peer by its total-variation distance (so far-away opinions
pull harder).  The damping factor controls the step size.  Iteration stops
once the largest pairwise distance falls below epsilon; the pooled belief is
the arithmetic mean of the final expert distributions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .types import ConvergenceWarning, Distribution

__all__ = ["ExpertPool", "ConsensusResult", "pairwise_distance", "consensual_pool"]


def pairwise_distance(p: Distribution, q: Distribution) -> float:
    """Total-variation distance: half the L1 distance, in [0, 1]."""
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return 0.5 * float(np.abs(p.values - q.values).sum())


@dataclass(frozen=True, eq=False)
class ExpertPool:
    """A set of expert distributions plus the pooling schedule."""

    experts: tuple[Distribution, ...]
    damping: float = 0.5
    epsilon: float = 1e-9
    max_iters: int = 10000

    def __post_init__(self):
        if not self.experts:
            raise ValueError("pool needs at least one expert")
        n = len(self.experts[0])
        if any(len(e) != n for e in self.experts):
            raise ValueError("all experts must share the same support length")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


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


def consensual_pool(pool: ExpertPool) -> ConsensusResult:
    """Iterate the pool to consensus and return the mean distribution.

    Convergence is checked before the first update, so a pool of identical
    experts returns after zero iterations.  If the pool has not converged
    after ``max_iters`` updates, the mean of the current distributions is
    returned anyway, flagged and warned as non-converged.
    """
    rows = np.stack([e.values for e in pool.experts])
    iterations = 0
    converged = False
    while True:
        dist = _pairwise_tv(rows)
        if dist.max() < pool.epsilon:
            converged = True
            break
        if iterations >= pool.max_iters:
            break
        rows = _pool_step(rows, dist, pool.damping)
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
