"""Biased random-walk ranking and the full LDRANK pipeline.

``power_rank`` runs the damped power iteration for the walk matrix
``alpha * S + (1 - alpha) * ones * teleport'`` without ever materializing
the dense matrix: each step costs O(edges + n).

``Pipeline`` holds the staged computation for one bundle: hit prior from
the result page, amplification set from the query plus the top hit,
latent-drift prior from the stressed SVD, consensus pooling of the three
priors, and the resource graph.  Each stage runs at most once, and every
strategy walks from the same stages, with its prior used both as teleport
vector and as dangling-row fill.  ``ldrank`` and ``strategy`` rank one
strategy from a fresh pipeline.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .consensus import ConsensusResult, ExpertPool, consensual_pool
from .graph import ResourceGraph, TransitionOperator, build_graph
from .lsa import build_text_matrix
from .priors import build_info_need, equi_prior, hit_prior, svd_prior
from .types import ConvergenceWarning, CorpusBundle, Distribution

__all__ = [
    "RankerConfig",
    "RankingResult",
    "PipelineParams",
    "Pipeline",
    "STRATEGIES",
    "power_rank",
    "ldrank",
    "strategy",
]

STRATEGIES = ("EQUI", "HIT", "SVD", "LDRANK")


@dataclass(frozen=True)
class RankerConfig:
    """Power-iteration parameters.

    ``teleport`` is the restart distribution; it also fills the rows with
    no out-edges.
    """

    teleport: Distribution
    alpha: float = 0.7
    tol: float = 1e-10
    max_iters: int = 1000

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly inside (0, 1), got {self.alpha}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


@dataclass(frozen=True, eq=False)
class RankingResult:
    """Stationary scores plus the induced ordering.

    ``order`` holds resource indices sorted by descending score, ties broken
    by ascending resource identifier.
    """

    scores: Distribution
    order: np.ndarray
    resource_ids: tuple[str, ...]
    iterations: int
    converged: bool

    def __post_init__(self):
        n = len(self.scores)
        order = np.asarray(self.order, dtype=np.int64)
        if sorted(order.tolist()) != list(range(n)):
            raise ValueError("order must be a permutation of the resource indices")
        if len(self.resource_ids) != n:
            raise ValueError("one resource id required per score")
        order = order.copy()
        order.setflags(write=False)
        object.__setattr__(self, "order", order)

    def ranked_ids(self) -> list[str]:
        return [self.resource_ids[i] for i in self.order]


def power_rank(graph: ResourceGraph, config: RankerConfig) -> RankingResult:
    """Power iteration from the teleport vector to the stationary scores.

    Stops when the L1 difference between successive iterates drops below
    ``config.tol``; the walk matrix is an ``alpha``-contraction in L1, so
    the stationarity residual of the returned vector is below tolerance as
    well.  Hitting ``max_iters`` first returns the current iterate flagged
    (and warned) as non-converged.
    """
    op = TransitionOperator(graph, config.teleport)
    t = config.teleport.values
    restart = (1.0 - config.alpha) * t
    x = t.copy()
    iterations = 0
    converged = False
    while iterations < config.max_iters:
        x_next = config.alpha * op.apply(x) + restart
        diff = float(np.abs(x_next - x).sum())
        x = x_next
        iterations += 1
        if diff < config.tol:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"power iteration still above tolerance after {iterations} iterations",
            ConvergenceWarning,
        )
    ids = np.array(graph.resource_ids)
    order = np.lexsort((ids, -x))
    return RankingResult(
        scores=Distribution(x),
        order=order,
        resource_ids=graph.resource_ids,
        iterations=iterations,
        converged=converged,
    )


@dataclass(frozen=True)
class PipelineParams:
    """Knobs for the full pipeline, with the recommended defaults."""

    alpha: float = 0.7
    ndim: int = 1
    stress: float = 1000.0
    tol: float = 1e-10
    bidirectional: bool = False
    damping: float = 0.5
    consensus_epsilon: float = 1e-9
    consensus_max_iters: int = 10000
    power_max_iters: int = 1000
    stopwords: frozenset[str] | None = None


class Pipeline:
    """The staged computation for one bundle.

    Every stage runs on first use and at most once: ``hit`` (visibility
    prior), ``svd`` (text matrix and latent-drift prior), ``consensus``
    (pool of the hit, svd and uniform priors) and ``graph``.  ``prior`` and
    ``rank`` derive each strategy in ``STRATEGIES`` from those stages.
    """

    def __init__(self, bundle: CorpusBundle, params: PipelineParams | None = None):
        self.bundle = bundle
        self.params = params or PipelineParams()

    @cached_property
    def hit(self) -> Distribution:
        return hit_prior(self.bundle.serp, self.bundle.n)

    @cached_property
    def svd(self) -> Distribution:
        info_need = build_info_need(self.bundle.query, self.hit)
        matrix = build_text_matrix(self.bundle, self.params.stopwords)
        return svd_prior(matrix, info_need, k=self.params.ndim, stress=self.params.stress)

    @cached_property
    def consensus(self) -> ConsensusResult:
        p = self.params
        experts = (self.hit, self.svd, equi_prior(self.bundle.n))
        pool = ExpertPool(experts, damping=p.damping, epsilon=p.consensus_epsilon,
                          max_iters=p.consensus_max_iters)
        return consensual_pool(pool)

    @cached_property
    def graph(self) -> ResourceGraph:
        return build_graph(self.bundle, bidirectional=self.params.bidirectional)

    def prior(self, name: str) -> Distribution:
        """The teleport of strategy ``name``; LDRANK's is the consensus."""
        if name == "EQUI":
            return equi_prior(self.bundle.n)
        if name == "HIT":
            return self.hit
        if name == "SVD":
            return self.svd
        if name == "LDRANK":
            return self.consensus.distribution
        raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGIES}")

    def rank(self, name: str) -> RankingResult:
        """Walk with the prior of strategy ``name`` as teleport and dangling fill."""
        prior, p = self.prior(name), self.params
        config = RankerConfig(teleport=prior, alpha=p.alpha, tol=p.tol,
                              max_iters=p.power_max_iters)
        return power_rank(self.graph, config)


def ldrank(bundle: CorpusBundle, params: PipelineParams | None = None) -> RankingResult:
    """Full pipeline: pooled prior, then the biased walk it parameterizes."""
    return Pipeline(bundle, params).rank("LDRANK")


def strategy(
    name: str, bundle: CorpusBundle, params: PipelineParams | None = None
) -> RankingResult:
    """Rank with one of the named teleport strategies.

    EQUI and HIT skip the text analysis entirely; SVD runs the latent-drift
    prior on its own; LDRANK pools all three priors.  In every case the
    chosen prior serves as both teleport vector and dangling fill.
    """
    if name == "LDRANK":
        return ldrank(bundle, params)
    return Pipeline(bundle, params).rank(name)
