"""Resource graph extraction.

The walk structure ignores predicates entirely: an edge is a distinct
(subject, object) pair.  ``ResourceGraph`` holds the edges as one
compressed-sparse-row adjacency over resource indices, with no ids; the
walk in ``rank.power_rank`` reads it as plain index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import CorpusBundle, compressed_pairs, integer_array

__all__ = ["ResourceGraph", "build_graph"]


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
    indptr, indices, _ = compressed_pairs(src, dst, n, n)
    return ResourceGraph(indptr=indptr, indices=indices)
