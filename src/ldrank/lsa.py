"""Latent text analysis: stem-count matrix and its truncated SVD.

Texts are tokenized (lowercase, split on non-alphanumeric runs), filtered
against the packaged English stopword list plus a minimum length of 2, and
stemmed; the stemmer is cached, so each distinct token is stemmed once.  The
counts are built in one pass over token-id arrays, the (stem, resource)
pairs sorted and counted by ``types.count_pairs`` into a resources-by-stems
``types.SparseMatrix``, the type that also holds the walk matrix.
``sparse_svd`` computes its rank-k factors ``(u, s, vt)`` from the
matrix's two products with numpy alone; the rows of ``u * s`` are the
resources' latent coordinates, whose lengths ``priors.svd_prior`` compares.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from importlib import resources as importlib_resources

import numpy as np

from .stemmer import stem
from .types import CorpusBundle, SparseMatrix, count_pairs, integer

__all__ = [
    "ResourceTextMatrix",
    "tokenize",
    "build_text_matrix",
    "sparse_svd",
]

MIN_TOKEN_LENGTH = 2

# Alphanumeric runs; underscores separate tokens like any other punctuation.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@functools.cache
def _stopwords() -> frozenset[str]:
    """The packaged English stopword list (one lowercase word per line)."""
    text = (
        importlib_resources.files("ldrank")
        .joinpath("data/stopwords_en.txt")
        .read_text(encoding="utf-8")
    )
    return frozenset(w for w in (line.strip() for line in text.splitlines()) if w)


def tokenize(text: str) -> list[str]:
    """Lowercase, split, drop stopwords and short tokens, then stem.

    Stopwords and the length cutoff apply to the raw lowercased token,
    before stemming.
    """
    stopwords = _stopwords()
    out = []
    for token in _TOKEN_RE.findall(text.lower()):
        if len(token) < MIN_TOKEN_LENGTH or token in stopwords:
            continue
        out.append(stem(token))
    return out


@dataclass(frozen=True, eq=False)
class ResourceTextMatrix:
    """Sparse stem counts, resources as rows, stems as columns.

    ``counts`` is a ``SparseMatrix`` of strictly positive counts, one entry
    per distinct position, ordered by stem column, then resource row;
    ``stem_vocab`` maps the sorted stems to columns 0, 1, ...
    """

    counts: SparseMatrix
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
    of the sorted vocabulary, and each distinct (column, row) pair of the
    token stream becomes one entry, holding how often it occurs.
    """
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
    cols, rows, counts = count_pairs(cols, rows, bundle.n)
    matrix = SparseMatrix((bundle.n, len(stem_vocab)), rows, cols, counts.astype(np.float64))
    return ResourceTextMatrix(counts=matrix, stem_vocab=stem_vocab)


def _extend(r: np.ndarray, basis: np.ndarray, tiny: float) -> tuple[float, np.ndarray]:
    """``r`` orthogonalized twice against the orthonormal rows of ``basis``,
    as a norm and a unit vector.  Below ``tiny`` (a breakdown) the norm is 0
    and the vector the coordinate axis the basis covers least, orthogonalized.

    The products are ``np.einsum``, not BLAS: a threaded BLAS sums in an
    order that depends on its thread count, and so would the result."""
    for _ in range(2):
        r = r - np.einsum("ij,i->j", basis, np.einsum("ij,j->i", basis, r))
    norm = float(np.sqrt(np.einsum("i,i->", r, r)))
    if norm > tiny:
        return norm, r / norm
    axis = np.zeros(basis.shape[1])
    axis[np.argmin(np.einsum("ij,ij->j", basis, basis))] = 1.0
    return 0.0, _extend(axis, basis, 0.0)[1]


def sparse_svd(counts: SparseMatrix, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated SVD ``(u, s, vt)`` of a sparse count matrix at rank ``k``.

    In numpy's convention: ``u`` is rows-by-k with orthonormal columns,
    ``s`` holds the singular values sorted descending, and ``vt`` is
    k-by-columns with orthonormal rows.  Golub-Kahan-Lanczos
    bidiagonalization (Golub & Kahan 1965) with full reorthogonalization,
    from a start fixed by the shape, so calls on one matrix give one result.
    After j steps ``A V = U B``; with ``B = P S Q'`` triplet i is exact
    within ``beta_j * |P[j-1, i]|``, and the iteration stops when that is at
    the rounding level for the k leading triplets, or when B is the whole
    matrix.  A repeated singular value shows up only after the basis
    (nearly) spans an invariant subspace; past such a breakdown it stops
    only at another, once B has captured all but less than sigma_k squared
    of the squared Frobenius norm, which it reads off ``counts.data``: one
    entry per position, as ``build_text_matrix`` stores them.
    """
    m, n = counts.shape
    k = integer(k, f"k for a {m}x{n} matrix", 1, min(m, n))

    times, times_t = counts.__matmul__, counts.__rmatmul__  # A @ x, A.T @ y

    # Started on the larger side, the Krylov space would keep a component in
    # that side's null space.
    if n > m:
        times, times_t = times_t, times
    short, long_ = sorted((m, n))
    eps = np.finfo(np.float64).eps
    norm = float(np.sqrt(np.einsum("i,i->", counts.data, counts.data)))  # Frobenius
    tiny = 100 * eps * norm  # rounding noise

    start = np.random.default_rng(0).standard_normal(short)
    vs = (start / np.sqrt(np.einsum("i,i->", start, start)))[np.newaxis]  # orthonormal rows
    us = np.empty((0, long_))
    alphas, betas = [], []
    beta, broken = 0.0, False
    for j in range(short):
        r = times(vs[j]) - beta * us[j - 1] if j else times(vs[j])
        alpha, u = _extend(r, us, tiny)
        us = np.vstack((us, u))
        beta = 0.0
        if j + 1 < short:
            beta, v = _extend(times_t(u) - alpha * vs[j], vs, tiny)
            vs = np.vstack((vs, v))
        alphas.append(alpha)
        betas.append(beta)
        breakdown = min(alpha, beta) <= eps ** (1 / 3) * norm
        if j + 1 < short and (j + 1 < k or broken and not breakdown):
            continue
        p, s, qt = np.linalg.svd(np.diag(alphas) + np.diag(betas[:-1], 1))
        converged = np.all(beta * np.abs(p[-1, :k]) <= eps * s[0])
        if breakdown:
            rest = norm**2 - s @ s
            converged &= rest < max(s[k - 1] ** 2 - tiny * norm, tiny * norm)
        if converged or j + 1 == short:
            break
        broken |= breakdown
    short_vectors = np.einsum("ji,kj->ik", vs[: len(alphas)], qt[:k])
    long_vectors = np.einsum("ji,jk->ik", us, p[:, :k])
    u, v = (short_vectors, long_vectors) if n > m else (long_vectors, short_vectors)
    # Row-major u keeps each resource's coordinates contiguous, so numpy
    # sums the squares of a row pairwise when taking its norm.
    return np.ascontiguousarray(u), s[:k], np.ascontiguousarray(v.T)
