"""Latent text analysis: stem-count matrix and its truncated SVD.

Texts are tokenized (lowercase, split on non-alphanumeric runs), filtered
against a stopword list plus a minimum length of 2, and stemmed; the stemmer
is cached, so each distinct token is stemmed once.  The counts are built in
one pass over token-id arrays, COO pairs summed into a sparse
resources-by-stems matrix in compressed-column storage.  ``sparse_svd``
returns its rank-k factors ``(u, s, vt)`` as plain arrays; the rows of
``u * s`` are the resources' latent coordinates, whose lengths
``priors.svd_prior`` compares.  scipy is imported inside the functions that
use it, so importing this module does not load it.
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
    "ConvergenceError",
    "tokenize",
    "load_default_stopwords",
    "build_text_matrix",
    "sparse_svd",
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


def sparse_svd(counts: sp.sparray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated SVD ``(u, s, vt)`` of a sparse count array at rank ``k``.

    In numpy's convention: ``u`` is rows-by-k with orthonormal columns,
    ``s`` holds the singular values sorted descending and clamped at 0, and
    ``vt`` is k-by-columns with orthonormal rows.  Uses the Lanczos-style
    iterative solver with a fixed start vector, so repeated calls on the
    same array give identical results.  The solver requires k strictly
    below min(shape); the boundary case falls back to a dense
    factorization, which is exact.  Any ARPACK failure is raised as
    ``ConvergenceError`` carrying ARPACK's message.
    """
    import scipy.linalg
    import scipy.sparse.linalg

    m, n = counts.shape
    limit = min(m, n)
    if not 1 <= k <= limit:
        raise ValueError(f"k must lie in 1..{limit} for a {m}x{n} matrix, got {k}")

    a = counts.astype(np.float64)
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
    # Row-major u keeps each resource's coordinates contiguous, so numpy
    # sums the squares of a row pairwise when taking its norm.
    return np.ascontiguousarray(u), np.maximum(s, 0.0), vt
