"""Shared data model: pipeline settings, probability vectors, result-page
context, corpus bundle.

Everything downstream indexes resources by position in the lexicographically
sorted list of resource identifiers.  The bundle fixes that order once and
holds its graph, texts, result page and query in index form, so no stage
after ``corpus.assemble_bundle`` looks up an identifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

#: Absolute tolerance on "entries sum to one" checks.
SUM_TOL = 1e-9


class InputFormatError(ValueError):
    """A malformed line in an input file, reported as ``path:line: reason``."""

    def __init__(self, path, line_no: int, reason: str):
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{self.path}:{line_no}: {reason}")


def read_lines(path):
    """Yield ``(line_no, line)`` for each line of a UTF-8 text file.

    Lines are numbered from 1, read lazily, and end at ``\\n``, ``\\r\\n``
    or ``\\r``, which are stripped.  Undecodable bytes raise
    ``InputFormatError`` at line 0.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                yield line_no, line.rstrip("\n")
    except UnicodeDecodeError as exc:
        raise InputFormatError(path, 0, f"not valid UTF-8 ({exc.reason})") from exc


class ConvergenceWarning(UserWarning):
    """An iterative routine hit its iteration cap before reaching tolerance."""


_POSITIVE = ("must be positive and finite", lambda v: 0.0 < v < math.inf)
_COUNT = ("must be at least 1 and an integer", lambda v: isinstance(v, Integral) and v >= 1)
_PARAM_RANGES = {
    "alpha": ("must lie strictly inside (0, 1)", lambda v: 0.0 < v < 1.0),
    "ndim": _COUNT,
    "stress": _POSITIVE,
    "tol": _POSITIVE,
    "damping": ("must lie in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "consensus_epsilon": _POSITIVE,
    "consensus_max_iters": _COUNT,
    "power_max_iters": _COUNT,
}


@dataclass(frozen=True)
class PipelineParams:
    """Every setting of the pipeline: its default and its valid range.

    ``alpha`` is the walk damping, ``ndim`` the SVD dimension k, ``stress``
    the row amplification of the resources under focus, ``tol`` the L1
    tolerance of the power iteration and ``damping`` the consensus step
    lambda.  Construction rejects any out-of-range, NaN or infinite value
    with a ``ValueError`` naming the field, so no stage checks them again.
    """

    alpha: float = 0.7
    ndim: int = 1
    stress: float = 1000.0
    tol: float = 1e-10
    bidirectional: bool = False
    damping: float = 0.5
    consensus_epsilon: float = 1e-9
    consensus_max_iters: int = 10000
    power_max_iters: int = 1000

    def __post_init__(self):
        for name, (rule, ok) in _PARAM_RANGES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} {rule}, got {value}")


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over the resource index.

    ``values`` is a read-only float64 array with non-negative entries that
    sum to one within ``SUM_TOL``.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("distribution must be a non-empty 1-d vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("distribution entries must be finite")
        if v.min() < 0.0:
            raise ValueError("distribution entries must be non-negative")
        total = float(v.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"distribution entries sum to {total!r}, not 1")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size

    @staticmethod
    def uniform(n: int) -> "Distribution":
        if n < 1:
            raise ValueError("need at least one resource")
        return Distribution(np.full(n, 1.0 / n))

    @staticmethod
    def from_weights(weights) -> "Distribution":
        """Normalize a vector of non-negative weights; errors if all zero."""
        w = np.asarray(weights, dtype=np.float64)
        total = float(w.sum())
        if total <= 0.0:
            raise ValueError("weights sum to zero; cannot normalize")
        return Distribution(w / total)


@dataclass(frozen=True, eq=False)
class SerpContext:
    """A search-engine result page restricted to one query.

    ``docs`` lists document identifiers in rank order (rank of ``docs[i]``
    is ``i + 1``).  ``occurrences`` maps a resource index to the set of
    1-based ranks of the documents that mention it.
    """

    docs: tuple[str, ...]
    occurrences: dict[int, frozenset[int]]

    def __post_init__(self):
        size = len(self.docs)
        for idx, ranks in self.occurrences.items():
            if idx < 0:
                raise ValueError(f"negative resource index {idx} in occurrences")
            if not ranks:
                raise ValueError(f"resource index {idx} has an empty rank set")
            for r in ranks:
                if not 1 <= r <= size:
                    raise ValueError(
                        f"rank {r} for resource index {idx} outside 1..{size}"
                    )


@dataclass(frozen=True, eq=False)
class CorpusBundle:
    """Everything one ranking run needs, in index form.

    ``resource_ids`` is sorted lexicographically and defines the index used
    by every vector and matrix row downstream; every other field refers to
    resources by that index only.  ``graph_edges`` is an ``(m, 2)`` int64
    array with one ``(subject, object)`` row per input triple, in input
    order (predicates dropped, parallel rows kept); ``texts`` holds one text
    per resource; ``query`` is the set of query-resource indices.
    ``corpus.assemble_bundle`` builds bundles from resource identifiers.
    """

    resource_ids: tuple[str, ...]
    graph_edges: np.ndarray
    texts: tuple[str, ...]
    serp: SerpContext
    query: frozenset[int]

    def __post_init__(self):
        if list(self.resource_ids) != sorted(set(self.resource_ids)):
            raise ValueError("resource_ids must be sorted and free of duplicates")
        n = len(self.resource_ids)
        edges = np.asarray(self.graph_edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"graph_edges must have shape (m, 2), got {edges.shape}")
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError(f"graph_edges hold an index outside 0..{n - 1}")
        texts = tuple(self.texts)
        if len(texts) != n:
            raise ValueError(f"{len(texts)} texts for {n} resources")
        query = frozenset(int(i) for i in self.query)
        if any(not 0 <= i < n for i in query):
            raise ValueError(f"query holds an index outside 0..{n - 1}")
        object.__setattr__(self, "graph_edges", edges)
        object.__setattr__(self, "texts", texts)
        object.__setattr__(self, "query", query)

    @property
    def n(self) -> int:
        return len(self.resource_ids)
