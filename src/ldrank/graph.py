"""Resource graph extraction and the row-stochastic transition operator.

The walk structure ignores predicates entirely: an edge is a distinct
(subject, object) pair.  ``ResourceGraph`` holds the edges as one
compressed-sparse-row adjacency over resource indices, with no ids.
Dangling rows (no out-edges) are completed with a caller-supplied fill
distribution at application time; the n-by-n stochastic matrix itself is
never materialized densely.  scipy is imported only where the operator is
built, so importing this module does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import CorpusBundle, Distribution, integer_array

__all__ = ["ResourceGraph", "TransitionOperator", "build_graph"]


@dataclass(frozen=True, eq=False)
class ResourceGraph:
    """Adjacency over resource indices in compressed sparse row form.

    The successors of node i are ``indices[indptr[i]:indptr[i + 1]]``,
    sorted and unique.  The graph has ``indptr.size - 1`` nodes.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        indptr = integer_array(self.indptr, "indptr")
        indices = integer_array(self.indices, "indices")
        n = indptr.size - 1
        if indptr.ndim != 1 or n < 0 or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must be a vector of offsets from 0 to the edge count")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr offsets must not decrease")
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        bad = (indices < 0) | (indices >= n)
        if bad.any():
            raise ValueError(f"successor index out of range for node {rows[bad.argmax()]}")
        # Row-major keys increase strictly iff every row is sorted and unique.
        steps = np.diff(rows * n + indices) <= 0
        if steps.any():
            node = rows[steps.argmax() + 1]
            raise ValueError(f"successors of node {node} must be sorted and unique")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def edge_count(self) -> int:
        return int(self.indices.size)

    def successors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]


def build_graph(bundle: CorpusBundle, bidirectional: bool = False) -> ResourceGraph:
    """Collapse the edge rows of a bundle into the CSR adjacency.

    Parallel edges collapse (multiple predicates between the same pair count
    once) and self-loops are kept as they appear in the input.  With
    ``bidirectional=True`` every edge is mirrored, which makes the adjacency
    symmetric.
    """
    n = bundle.n
    src, dst = bundle.graph_edges.T
    if bidirectional:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
    # Sort, then drop repeats: same result as np.unique, whose hash-table
    # path (numpy >= 2.3) is many times slower on millions of distinct keys.
    keys = np.sort(src * n + dst)
    rows, cols = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return ResourceGraph(indptr=indptr, indices=cols)


class TransitionOperator:
    """Matrix-free view of the dangling-completed row-stochastic matrix.

    ``apply(x)`` computes ``x @ S`` where row i of S is uniform over the
    successors of i, or the fill distribution if i has none.  Cost is
    O(edges + n) per application.
    """

    def __init__(self, graph: ResourceGraph, dangling_fill: Distribution):
        if len(dangling_fill) != graph.n:
            raise ValueError(
                f"fill distribution has length {len(dangling_fill)}, "
                f"graph has {graph.n} resources"
            )
        import scipy.sparse as sp

        n = graph.n
        degree = np.diff(graph.indptr)
        weights = np.repeat(1.0 / np.maximum(degree, 1), degree)
        self._matrix = sp.csr_array((weights, graph.indices, graph.indptr), shape=(n, n))
        self._dangling_mask = degree == 0
        self._fill = dangling_fill.values
        self.n = n

    @property
    def dangling_mask(self) -> np.ndarray:
        return self._dangling_mask

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got {x.shape}")
        out = x @ self._matrix
        mass = float(x[self._dangling_mask].sum())
        if mass:
            out = out + mass * self._fill
        return out
