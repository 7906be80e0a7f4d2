"""Resource graph extraction.

The walk structure ignores predicates entirely: an edge is a distinct
(subject, object) pair.  ``build_graph`` turns a bundle's edge rows into
the walk matrix S itself, a ``types.SparseMatrix`` over resource indices
with no ids.  ``rank.power_rank`` computes each step's ``x @ S`` from its
pattern and row degrees: it scales ``x`` by the row weights once, spreads
the result to the entries, which run by source, and adds it into the
targets in entry order, the same products in the same order as ``x @ S``,
so the step equals ``x @ S`` bit for bit.
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
