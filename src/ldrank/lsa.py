"""Latent text analysis: stem-count matrix and truncated SVD coordinates.

Texts are tokenized (lowercase, split on non-alphanumeric runs), filtered
against a stopword list plus a minimum length of 2, and stemmed; the stemmer
is cached, so each distinct token is stemmed once.  The counts are built in
one pass over token-id arrays, COO pairs summed into a sparse
resources-by-stems matrix in compressed-column storage; its rank-k SVD gives
every resource a k-dimensional coordinate vector whose length measures how
much of the resource's text mass survives the truncation.  scipy is
imported inside the functions that use it, so importing this module does
not load it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources as importlib_resources
from typing import TYPE_CHECKING

import numpy as np

from .stemmer import stem
from .types import CorpusBundle

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "ResourceTextMatrix",
    "SvdResult",
    "ConvergenceError",
    "tokenize",
    "load_default_stopwords",
    "build_text_matrix",
    "sparse_svd",
    "resource_coordinates",
]

MIN_TOKEN_LENGTH = 2

# Alphanumeric runs; underscores separate tokens like any other punctuation.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

_stopwords_cache: frozenset[str] | None = None


class ConvergenceError(RuntimeError):
    """The iterative SVD failed: out of iterations, or ARPACK gave up."""


def load_default_stopwords() -> frozenset[str]:
    """The packaged English stopword list (one lowercase word per line)."""
    global _stopwords_cache
    if _stopwords_cache is None:
        text = (
            importlib_resources.files("ldrank")
            .joinpath("data/stopwords_en.txt")
            .read_text(encoding="utf-8")
        )
        _stopwords_cache = frozenset(
            w for w in (line.strip() for line in text.splitlines()) if w
        )
    return _stopwords_cache


def tokenize(text: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """Lowercase, split, drop stopwords and short tokens, then stem.

    Stopwords and the length cutoff apply to the raw lowercased token,
    before stemming.
    """
    if stopwords is None:
        stopwords = load_default_stopwords()
    out = []
    for token in _TOKEN_RE.findall(text.lower()):
        if len(token) < MIN_TOKEN_LENGTH or token in stopwords:
            continue
        out.append(stem(token))
    return out


@dataclass(frozen=True, eq=False)
class ResourceTextMatrix:
    """Sparse stem counts, resources as rows, stems as columns.

    ``counts`` is compressed-column (CSC) with strictly positive entries;
    ``stem_vocab`` maps each stem to its column, in lexicographic order.
    """

    counts: sp.csc_array
    stem_vocab: dict[str, int]

    def __post_init__(self):
        if self.counts.shape[1] != len(self.stem_vocab):
            raise ValueError("vocabulary size disagrees with matrix width")
        if self.counts.nnz and self.counts.data.min() <= 0:
            raise ValueError("stored counts must be strictly positive")

    @property
    def n_resources(self) -> int:
        return self.counts.shape[0]

    @property
    def n_stems(self) -> int:
        return self.counts.shape[1]


def build_text_matrix(bundle: CorpusBundle) -> ResourceTextMatrix:
    """Count stems per resource, rows in resource-index order.

    ``tokenize`` stems each distinct token once (``stem`` is cached).  Each
    stem gets an id on first sight; one array pass maps the ids to columns
    of the sorted vocabulary, and the duplicate (row, column) pairs of a
    COO matrix are summed into canonical CSC counts.
    """
    import scipy.sparse as sp

    ids: dict[str, int] = {}
    token_ids: list[int] = []
    lengths: list[int] = []
    for text in bundle.texts:
        stems = tokenize(text)
        lengths.append(len(stems))
        token_ids.extend([ids.setdefault(s, len(ids)) for s in stems])
    stem_vocab = {s: j for j, s in enumerate(sorted(ids))}
    column_of_id = np.array([stem_vocab[s] for s in ids], dtype=np.int64)
    cols = column_of_id[np.array(token_ids, dtype=np.int64)]
    rows = np.repeat(np.arange(bundle.n, dtype=np.int64), lengths)
    matrix = sp.coo_array(
        (np.ones(cols.size), (rows, cols)), shape=(bundle.n, len(stem_vocab))
    ).tocsc()
    matrix.sum_duplicates()
    matrix.sort_indices()
    return ResourceTextMatrix(counts=matrix, stem_vocab=stem_vocab)


@dataclass(frozen=True, eq=False)
class SvdResult:
    """Rank-k factorization: singular values descending, vectors columnwise.

    ``left_vectors`` is resources-by-k, ``right_vectors`` stems-by-k, both
    with orthonormal columns.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def __post_init__(self):
        s = self.singular_values
        if s.ndim != 1:
            raise ValueError("singular values must form a vector")
        if s.size and s.min() < 0:
            raise ValueError("singular values must be non-negative")
        if np.any(np.diff(s) > 0):
            raise ValueError("singular values must be sorted descending")
        if self.left_vectors.shape[1] != s.size or self.right_vectors.shape[1] != s.size:
            raise ValueError("vector blocks must have one column per singular value")

    @property
    def k(self) -> int:
        return self.singular_values.size


def sparse_svd(matrix: ResourceTextMatrix, k: int) -> SvdResult:
    """Truncated SVD of the count matrix at rank ``k``.

    Uses the Lanczos-style iterative solver with a fixed start vector, so
    repeated calls on the same matrix give identical results.  The solver
    requires k strictly below min(shape); the boundary case falls back to a
    dense factorization, which is exact.  Any ARPACK failure is raised as
    ``ConvergenceError`` carrying ARPACK's message.
    """
    import scipy.linalg
    import scipy.sparse.linalg

    m, n = matrix.counts.shape
    limit = min(m, n)
    if not 1 <= k <= limit:
        raise ValueError(f"k must lie in 1..{limit} for a {m}x{n} matrix, got {k}")

    a = matrix.counts.astype(np.float64)
    if k == limit:
        u, s, vt = scipy.linalg.svd(a.toarray(), full_matrices=False)
        u, s, vt = u[:, :k], s[:k], vt[:k]
    else:
        v0 = np.ones(limit, dtype=np.float64)
        try:
            u, s, vt = scipy.sparse.linalg.svds(a, k=k, v0=v0, tol=0)
        except scipy.sparse.linalg.ArpackError as exc:
            raise ConvergenceError(f"iterative SVD failed at k={k}: {exc}") from exc
        order = np.argsort(s)[::-1]
        u, s, vt = u[:, order], s[order], vt[order]
    return SvdResult(
        singular_values=np.maximum(s, 0.0),
        left_vectors=np.ascontiguousarray(u),
        right_vectors=np.ascontiguousarray(vt.T),
    )


def resource_coordinates(svd: SvdResult) -> np.ndarray:
    """Per-resource coordinates in the latent space: rows of U scaled by S.

    Row norms never exceed the corresponding row norms of the original
    matrix, since these are projections onto the top right-singular
    directions.
    """
    return svd.left_vectors * svd.singular_values[np.newaxis, :]
