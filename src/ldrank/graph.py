"""Resource graph extraction.

The walk structure ignores predicates entirely: an edge is a distinct
(subject, object) pair.  ``ResourceGraph`` holds the edge pairs over
resource indices, with no ids, as one compressed-sparse-row adjacency; the
walk in ``rank.power_rank`` reads it as plain index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import CorpusBundle, compressed_pairs, integer, integer_array

__all__ = ["ResourceGraph", "build_graph"]


@dataclass(frozen=True, eq=False, init=False)
class ResourceGraph:
    """The edges ``sources[e] -> targets[e]`` over nodes ``0..n-1`` as a
    compressed sparse row adjacency.

    Parallel pairs collapse and self-loops stay.  The successors of node i
    are ``indices[indptr[i]:indptr[i + 1]]``, sorted and unique; both
    arrays are read-only int64.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __init__(self, n: int, sources, targets):
        n = integer(n, "n", 0)
        sources = integer_array(sources, "sources", n)
        targets = integer_array(targets, "targets", n)
        if sources.ndim != 1 or sources.shape != targets.shape:
            raise ValueError(
                "sources and targets must be vectors of one length, "
                f"got shapes {sources.shape} and {targets.shape}"
            )
        indptr, indices, _ = compressed_pairs(sources, targets, n, n)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    @property
    def edge_count(self) -> int:
        return int(self.indices.size)

    def successors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]


def build_graph(bundle: CorpusBundle, bidirectional: bool = False) -> ResourceGraph:
    """The ``ResourceGraph`` of the edge rows of a bundle.

    Multiple predicates between the same pair count once.  With
    ``bidirectional=True`` every edge is mirrored, which makes the
    adjacency symmetric.
    """
    src, dst = bundle.graph_edges.T
    if bidirectional:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
    return ResourceGraph(bundle.n, src, dst)
