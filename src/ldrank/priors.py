"""Prior belief distributions over resources.

Three independent experts emit a prior each:

* ``equi_prior``: indifference, the uniform distribution;
* ``hit_prior``: visibility on the result page: the document at rank r
  of ``serp_size`` gives each resource it mentions ``serp_size + 1 - r``
  points, one ``np.bincount`` over the distinct mention rows;
* ``svd_prior``: latent-text response, scoring each resource by how far its
  latent coordinates (the rows of ``u * s`` from ``lsa.sparse_svd``) grow
  when the count rows of the resources under focus are amplified (each
  entry of the ``SparseMatrix`` of counts scaled by its row) and the
  truncated SVD is recomputed; its dimension and stress come from
  ``PipelineParams``, which checked their ranges.  A drift no larger
  than the error the solver can leave in the norms (``DRIFT_ROUNDING``)
  counts as none, so a stress that leaves the counts, or every coordinate
  norm, as they are (stress 1, focus rows without stems, or a focus block
  whose singular value stays below sigma_k) drifts by zero.

One rule, ``_normalized``, turns evidence weights into a prior: they are
divided by their total, or, when no weight is positive, the prior falls
back to ``equi_prior`` with a warning naming the prior and the reason.
Every fallback goes through it, and a bundle with no resource raises
there before any warning.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from .lsa import ResourceTextMatrix, sparse_svd
from .types import CorpusBundle, Distribution, PipelineParams, integer_array, shown_int

__all__ = ["equi_prior", "hit_prior", "build_info_need", "svd_prior"]

#: Singular values closer than this fraction of the largest one count as tied.
TIE_RTOL = 1e-9
#: A truncated SVD leaves each coordinate norm within a few float64
#: roundings of the largest norm, times sigma_1 over the gap below the
#: truncation: a Ritz vector's error is its residual over that gap.  So a
#: drift up to this many epsilons of the largest norm, times the larger
#: factor of the two matrices, is solver error, not growth.
DRIFT_ROUNDING = 64


def equi_prior(n: int) -> Distribution:
    """Uniform distribution over ``n`` resources."""
    if n < 1:
        raise ValueError("need at least one resource")
    return Distribution(np.full(n, 1.0 / n))


def _normalized(weights: np.ndarray, fallback: str) -> Distribution:
    """``weights`` divided by their total, or, when no weight is positive,
    ``equi_prior`` after the warning ``fallback``."""
    total = weights.sum()
    if total <= 0.0:
        uniform = equi_prior(weights.size)  # no resource raises first
        warnings.warn(fallback)
        return uniform
    return Distribution(weights / total)


def hit_prior(bundle: CorpusBundle) -> Distribution:
    """Result-page visibility prior.

    The document at rank r gives each resource it mentions, however often,
    ``serp_size + 1 - r`` points.  If nothing is mentioned at all, falls
    back to the uniform distribution with a warning.
    """
    resources, ranks = np.unique(bundle.mentions, axis=0).T
    scores = np.bincount(resources, weights=bundle.serp_size + 1 - ranks, minlength=bundle.n)
    return _normalized(
        scores,
        "no resource occurs in any result-page document; hit prior falls back to uniform",
    )


def build_info_need(query, hit: Distribution) -> frozenset[int]:
    """Resource indices to amplify: the query set plus the top hit resource.

    The top hit resource (ties broken toward the lowest index) is always
    included, whether or not the query set is empty.
    """
    query = integer_array(list(query), "query", len(hit)).tolist()
    return frozenset([*query, int(np.argmax(hit.values))])


def _coordinate_norms(counts, k: int) -> tuple[np.ndarray, float]:
    """Row norms of the rank-k latent coordinates ``u * s``, k widened while
    sigma_k ties sigma_(k+1): only then is the truncation unique.  Ties among
    negligible singular values add nothing to the norms and are let be.

    Also returns the error factor of the norms, sigma_1 over the gap below
    the truncation: from the last singular value within the widened k above
    the tie tolerance to the next one, 0 past the last; 1 for a zero matrix."""
    limit = min(counts.shape)
    while True:
        u, s, _ = sparse_svd(counts, min(k + 1, limit))
        tol = TIE_RTOL * s[0]
        if k == limit or s[k - 1] <= tol or s[k - 1] - s[k] > tol:
            break
        k += 1
    norms = np.linalg.norm(u[:, :k] * s[:k], axis=1)
    j = np.count_nonzero(s[:k] > tol)
    if not j:  # an all-zero matrix: every norm is 0
        return norms, 1.0
    return norms, s[0] / (s[j - 1] - (s[j] if j < s.size else 0.0))


def svd_prior(
    matrix: ResourceTextMatrix, info_need, params: PipelineParams
) -> Distribution:
    """Latent-drift prior.

    Computes rank-k coordinates (k = ``params.ndim``) for every resource,
    multiplies the count rows of the ``info_need`` resources by
    ``params.stress``, recomputes the coordinates, and scores each resource
    by the growth of its coordinate norm.  A drift at or below
    ``DRIFT_ROUNDING`` * float64 epsilon * the largest norm of either
    matrix * the larger of the two matrices' sigma_1 / (sigma_j -
    sigma_(j+1)) counts as zero, and so does a negative one: sigma_j is
    the last singular value above the tie tolerance within k, widened
    over a tie as below, and sigma_(j+1) the next, 0 past the last.  If
    sigma_k ties sigma_(k+1), k widens over the tie (see ``TIE_RTOL``).
    All-zero drift falls back to the uniform distribution with a warning,
    and so does a ``k`` above the rank bound min(resources, stems), which
    includes an empty vocabulary.  A stress so large that the squared
    stressed counts overflow float64 raises ``ValueError``.
    """
    n = matrix.n_resources
    focus = integer_array(list(info_need), "info_need", n)
    if not focus.size:
        raise ValueError("info_need must contain at least one resource index")
    k, stress = params.ndim, params.stress
    if k > min(matrix.counts.shape):
        return _normalized(np.zeros(n), (
            f"k={shown_int(k)} exceeds the rank bound of the "
            f"{n}x{matrix.n_stems} text matrix; svd prior falls back to uniform"
        ))

    row_scale = np.ones(n, dtype=np.float64)
    row_scale[focus] = stress
    # Each entry names its row, so rows scale entry by entry.
    counts = matrix.counts
    stressed = counts.data * row_scale[counts.rows]
    if not np.isfinite(stressed @ stressed):
        raise ValueError(
            f"stress {stress} is too large: the squared stressed counts overflow"
        )

    grown, grown_factor = _coordinate_norms(replace(counts, data=stressed), k)
    norms, norms_factor = _coordinate_norms(counts, k)
    rounding = (DRIFT_ROUNDING * np.finfo(np.float64).eps * max(grown.max(), norms.max())
                * max(grown_factor, norms_factor))
    drift = grown - norms
    drift[drift <= rounding] = 0.0
    return _normalized(
        drift,
        "latent coordinates did not grow for any resource; svd prior falls back to uniform",
    )
