"""Prior belief distributions over resources.

Three independent experts emit a prior each:

* ``equi_prior``: indifference, the uniform distribution;
* ``hit_prior``: visibility on the result page, where a mention in the
  document at rank r is worth ``size + 1 - r`` points;
* ``svd_prior``: latent-text response, scoring each resource by how far its
  latent coordinates (the rows of ``u * s`` from ``lsa.sparse_svd``) grow
  when the count rows of the resources under focus are amplified and the
  truncated SVD is recomputed; its dimension and stress come from
  ``PipelineParams``, which checked their ranges.

Each prior degrades to the uniform distribution (with a warning) when its
evidence is entirely absent.
"""

from __future__ import annotations

import warnings

import numpy as np

from .lsa import ResourceTextMatrix, sparse_svd
from .types import Distribution, PipelineParams, SerpContext

__all__ = ["equi_prior", "hit_prior", "build_info_need", "svd_prior"]

#: Singular values closer than this fraction of the largest one count as tied.
TIE_RTOL = 1e-9


def equi_prior(n: int) -> Distribution:
    """Uniform distribution over ``n`` resources."""
    return Distribution.uniform(n)


def hit_prior(serp: SerpContext, n: int) -> Distribution:
    """Result-page visibility prior.

    Every mention of a resource contributes ``size + 1 - rank`` where rank
    is the 1-based position of the mentioning document.  If nothing is
    mentioned at all, falls back to the uniform distribution with a warning.
    """
    if n < 1:
        raise ValueError("need at least one resource")
    scores = np.zeros(n, dtype=np.float64)
    size = len(serp.docs)
    for idx, ranks in serp.occurrences.items():
        if idx >= n:
            raise ValueError(f"occurrence index {idx} outside 0..{n - 1}")
        scores[idx] = float(sum(size + 1 - r for r in ranks))
    total = scores.sum()
    if total <= 0.0:
        warnings.warn(
            "no resource occurs in any result-page document; "
            "hit prior falls back to uniform"
        )
        return equi_prior(n)
    return Distribution(scores / total)


def build_info_need(query, hit: Distribution) -> frozenset[int]:
    """Resource indices to amplify: the query set plus the top hit resource.

    The top hit resource (ties broken toward the lowest index) is always
    included, whether or not the query set is empty.
    """
    n = len(hit)
    indices = set()
    for idx in query:
        if not 0 <= idx < n:
            raise ValueError(f"query resource index {idx} outside 0..{n - 1}")
        indices.add(int(idx))
    indices.add(int(np.argmax(hit.values)))
    return frozenset(indices)


def _coordinate_norms(counts, k: int) -> np.ndarray:
    """Row norms of the rank-k latent coordinates ``u * s``, k widened while
    sigma_k ties sigma_(k+1): only then is the truncation unique.  Ties among
    negligible singular values add nothing to the norms and are let be."""
    limit = min(counts.shape)
    while True:
        u, s, _ = sparse_svd(counts, min(k + 1, limit))
        tol = TIE_RTOL * s[0]
        if k == limit or s[k - 1] <= tol or s[k - 1] - s[k] > tol:
            return np.linalg.norm(u[:, :k] * s[:k], axis=1)
        k += 1


def svd_prior(
    matrix: ResourceTextMatrix, info_need, params: PipelineParams
) -> Distribution:
    """Latent-drift prior.

    Computes rank-k coordinates (k = ``params.ndim``) for every resource,
    multiplies the count rows of the ``info_need`` resources by
    ``params.stress``, recomputes the coordinates, and scores each resource
    by the growth of its coordinate norm (negative drifts clamp to zero).
    If sigma_k ties sigma_(k+1), k widens over the tie (see ``TIE_RTOL``).
    All-zero drift falls back to the uniform distribution with a warning,
    and so does a ``k`` above the rank bound min(resources, stems), which
    includes an empty vocabulary.  A stress so large that the squared
    stressed counts overflow float64 raises ``ValueError``.
    """
    n = matrix.n_resources
    if not info_need:
        raise ValueError("info_need must contain at least one resource index")
    focus = sorted(int(i) for i in info_need)
    if focus[0] < 0 or focus[-1] >= n:
        raise ValueError(f"info_need indices must lie in 0..{n - 1}")
    k, stress = params.ndim, params.stress
    if k > min(matrix.counts.shape):
        warnings.warn(
            f"k={k} exceeds the rank bound of the {n}x{matrix.n_stems} text matrix; "
            "svd prior falls back to uniform"
        )
        return equi_prior(n)

    row_scale = np.ones(n, dtype=np.float64)
    row_scale[focus] = stress
    # CSC stores row indices in .indices, so rows scale in place on the data.
    stressed_counts = matrix.counts.copy()
    stressed_counts.data = stressed_counts.data * row_scale[stressed_counts.indices]
    if not np.isfinite(stressed_counts.data @ stressed_counts.data):
        raise ValueError(
            f"stress {stress} is too large: the squared stressed counts overflow"
        )

    drift = np.zeros(n)
    # A stress that leaves the matrix as it is (focus rows without stems, or
    # stress 1) moves nothing; two solver runs would differ only by rounding.
    if not np.array_equal(stressed_counts.data, matrix.counts.data):
        grown = _coordinate_norms(stressed_counts, k)
        drift = np.maximum(grown - _coordinate_norms(matrix.counts, k), 0.0)
    total = drift.sum()
    if total <= 0.0:
        warnings.warn(
            "latent coordinates did not grow for any resource; "
            "svd prior falls back to uniform"
        )
        return equi_prior(n)
    return Distribution(drift / total)
