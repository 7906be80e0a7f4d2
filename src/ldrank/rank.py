"""Biased random-walk ranking and the full LDRANK pipeline.

``power_rank`` runs the damped power iteration for the walk matrix
``alpha * S + (1 - alpha) * ones * teleport'`` without ever materializing
the dense matrix: each step costs O(edges + n).

Every stage takes its settings from one ``PipelineParams`` (defined in
``types``), which has checked them when it was built.

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

from .consensus import ConsensusResult, consensual_pool
from .graph import ResourceGraph, TransitionOperator, build_graph
from .lsa import build_text_matrix
from .priors import build_info_need, equi_prior, hit_prior, svd_prior
from .types import (
    ConvergenceWarning,
    CorpusBundle,
    Distribution,
    PipelineParams,
    integer_array,
)

__all__ = [
    "RankingResult",
    "PipelineParams",
    "Pipeline",
    "STRATEGIES",
    "power_rank",
    "ldrank",
    "strategy",
]

STRATEGIES = ("EQUI", "HIT", "SVD", "LDRANK")


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
        order = integer_array(self.order, "order")
        if sorted(order.tolist()) != list(range(n)):
            raise ValueError("order must be a permutation of the resource indices")
        if len(self.resource_ids) != n:
            raise ValueError("one resource id required per score")
        order = order.copy()
        order.setflags(write=False)
        object.__setattr__(self, "order", order)

    def ranked_ids(self) -> list[str]:
        return [self.resource_ids[i] for i in self.order]


def power_rank(
    graph: ResourceGraph, teleport: Distribution, params: PipelineParams
) -> RankingResult:
    """Power iteration from the teleport vector to the stationary scores.

    ``teleport`` is the restart distribution and also fills the rows with
    no out-edges.  Stops when the L1 difference between successive iterates
    drops below ``params.tol``; the walk matrix is an ``alpha``-contraction
    in L1, so the stationarity residual of the returned vector is below
    tolerance as well.  Hitting ``params.power_max_iters`` first returns
    the current iterate flagged (and warned) as non-converged.
    """
    op = TransitionOperator(graph, teleport)
    restart = (1.0 - params.alpha) * teleport.values
    x = teleport.values.copy()
    iterations = 0
    converged = False
    while iterations < params.power_max_iters:
        x_next = params.alpha * op.apply(x) + restart
        diff = float(np.abs(x_next - x).sum())
        x = x_next
        iterations += 1
        if diff < params.tol:
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
        return svd_prior(build_text_matrix(self.bundle), info_need, self.params)

    @cached_property
    def consensus(self) -> ConsensusResult:
        experts = (self.hit, self.svd, equi_prior(self.bundle.n))
        return consensual_pool(experts, self.params)

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
        return power_rank(self.graph, self.prior(name), self.params)


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
