"""Biased random-walk ranking and the full LDRANK pipeline.

``power_rank`` runs the damped power iteration for the walk matrix
``alpha * S + (1 - alpha) * ones * teleport'`` without ever materializing
the dense matrix: each step is one product ``x @ S`` with the sparse S of
``graph.build_graph``, at O(edges + n).  Its ``RankingResult`` holds the
scores, and reads the ranking of indices off them: score ties by
ascending index, which is id order, as the bundle sorts its ids.

Every stage takes its settings from one ``PipelineParams`` (defined in
``types``), which has checked them when it was built.

``Pipeline`` holds the staged computation for one bundle: hit prior from
the result page, amplification set from the query plus the top hit,
latent-drift prior from the stressed SVD, consensus pooling of the three
priors, and the walk matrix S.  Each stage runs at most once, and every
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
from .graph import build_graph
from .lsa import build_text_matrix
from .priors import build_info_need, equi_prior, hit_prior, svd_prior
from .types import (
    ConvergenceWarning,
    CorpusBundle,
    Distribution,
    PipelineParams,
    SparseMatrix,
    shown,
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
    """Stationary scores and the walk that reached them.

    ``order`` holds resource indices sorted by descending score, ties broken
    by ascending index, which is ascending resource id; it is read off the
    scores on first use, read-only.
    """

    scores: Distribution
    iterations: int
    converged: bool

    @cached_property
    def order(self) -> np.ndarray:
        order = np.argsort(-self.scores.values, kind="stable")
        order.setflags(write=False)
        return order


def power_rank(
    graph: SparseMatrix, teleport: Distribution, params: PipelineParams
) -> RankingResult:
    """Power iteration from the teleport vector to the stationary scores.

    ``graph`` is the walk matrix S, n-by-n with each non-empty row summing
    to one, as ``graph.build_graph`` gives it.  ``teleport`` is the restart
    distribution and also fills the empty rows.  Stops when the L1
    difference between successive iterates drops below ``params.tol``; the
    walk matrix is an ``alpha``-contraction in L1, so the stationarity
    residual of the returned vector is below tolerance as well, up to
    float64 rounding of about n times its epsilon, which a smaller ``tol``
    cannot undercut.  Hitting ``params.power_max_iters`` first returns the
    current iterate flagged (and warned) as non-converged.
    """
    n = len(teleport)
    if graph.shape != (n, n):
        raise ValueError(f"fill distribution has length {n}, graph has shape {graph.shape}")
    dangling = np.bincount(graph.rows, minlength=n) == 0
    restart = (1.0 - params.alpha) * teleport.values
    x = teleport.values.copy()
    iterations = 0
    converged = False
    while iterations < params.power_max_iters:
        # Row i sends x[i] / degree(i) to each successor, summed in entry
        # order; the last bits of the printed scores depend on that order.
        step = x @ graph
        mass = float(x[dangling].sum())
        if mass:
            step = step + mass * teleport.values
        x_next = params.alpha * step + restart
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
    return RankingResult(Distribution(x), iterations, converged)


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
        return hit_prior(self.bundle)

    @cached_property
    def svd(self) -> Distribution:
        info_need = build_info_need(self.bundle.query, self.hit)
        return svd_prior(build_text_matrix(self.bundle), info_need, self.params)

    @cached_property
    def consensus(self) -> ConsensusResult:
        experts = (self.hit, self.svd, equi_prior(self.bundle.n))
        return consensual_pool(experts, self.params)

    @cached_property
    def graph(self) -> SparseMatrix:
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
        raise ValueError(f"unknown strategy {shown(name)}; expected one of {STRATEGIES}")

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
