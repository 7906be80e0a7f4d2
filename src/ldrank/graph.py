"""Resource graph extraction.

The walk structure ignores predicates entirely: an edge is a distinct
(subject, object) pair.  ``build_graph`` turns a bundle's edge rows into
the walk matrix S itself, a ``types.SparseMatrix`` over resource indices
with no ids; ``rank.power_rank`` steps with ``x @ S``.
"""

from __future__ import annotations

import numpy as np

from .types import CorpusBundle, SparseMatrix, count_pairs

__all__ = ["build_graph"]


def build_graph(bundle: CorpusBundle, bidirectional: bool = False) -> SparseMatrix:
    """The walk matrix S of the edge rows of a bundle: resource i moves to
    each of its d distinct successors with probability 1 / d, and a
    resource without successors has an empty row.  Multiple predicates
    between the same pair count once and self-loops stay; the entries run
    by source, then target.  With ``bidirectional=True`` every edge is
    mirrored, which makes the adjacency symmetric.
    """
    n = bundle.n
    sources, targets = bundle.graph_edges.T
    rows, cols = count_pairs(sources, targets, n, mirror=bidirectional)[:2]
    degree = np.bincount(rows, minlength=n)
    return SparseMatrix((n, n), rows, cols, (1.0 / np.maximum(degree, 1))[rows])
