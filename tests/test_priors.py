import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldrank import (
    CorpusBundle,
    Distribution,
    PipelineParams,
    build_info_need,
    build_text_matrix,
    equi_prior,
    hit_prior,
    load_bundle,
    svd_prior,
)
from ldrank.lsa import ResourceTextMatrix

import oracles


def _matrix_from_dense(dense):
    dense = np.asarray(dense, dtype=float)
    vocab = {f"s{j:03d}": j for j in range(dense.shape[1])}
    return ResourceTextMatrix(counts=oracles.sparse_from_dense(dense), stem_vocab=vocab)


# ------------------------------------------------------------------ equi


def test_equi_prior_uniform():
    p = equi_prior(5)
    assert np.allclose(p.values, 0.2)
    with pytest.raises(ValueError):
        equi_prior(0)


# ------------------------------------------------------------------- hit


def _page(n, serp_size, mentions):
    """A bundle of ``n`` resources whose result page has ``serp_size``
    documents and the given ``(resource, rank)`` mention rows."""
    return CorpusBundle(
        tuple(f"r{i}" for i in range(n)), np.empty((0, 2), dtype=np.int64), ("",) * n,
        serp_size, np.array(mentions, dtype=np.int64).reshape(-1, 2), frozenset(),
    )


# Hand-picked pages with their hit priors: rank r of N documents is worth
# N + 1 - r.  On the fixture, Berlin is on ranks 1 and 2, Germany on 1,
# Museum and River on 2, City and Europe on 3.
_PINNED_PAGES = {
    "rank-weighting": ((4, 3, [[0, 1], [0, 2], [2, 3]]), [5, 0, 1, 0]),
    "fixture": (None, [5, 1, 1, 3, 2, 2]),
}


@pytest.mark.parametrize("page, weights", _PINNED_PAGES.values(), ids=list(_PINNED_PAGES))
def test_pinned_page_has_its_hit_prior(basic_bundle, page, weights):
    bundle = basic_bundle if page is None else _page(*page)
    raw = oracles.hit_weights_by_loop(bundle.serp_size, bundle.mentions, bundle.n)
    assert raw.tolist() == weights
    assert np.array_equal(hit_prior(bundle).values, raw / raw.sum())


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 5),
    serp_size=st.integers(0, 6),
    rows=st.lists(st.tuples(st.integers(0, 4), st.integers(1, 6)), max_size=12),
)
def test_hit_prior_matches_loop_oracle_on_random_pages(n, serp_size, rows):
    # Repeated rows, which a document naming a resource twice gives, count once.
    mentions = [(i % n, (r - 1) % serp_size + 1) for i, r in rows] if serp_size else []
    bundle = _page(n, serp_size, mentions)
    raw = oracles.hit_weights_by_loop(serp_size, bundle.mentions, n)
    if raw.sum():
        assert np.array_equal(hit_prior(bundle).values, raw / raw.sum())
    else:
        with pytest.warns(UserWarning, match="hit prior falls back to uniform"):
            assert np.array_equal(hit_prior(bundle).values, np.full(n, 1.0 / n))


def test_hit_prior_counts_a_resource_named_twice_by_one_document_once(basic_dir, tmp_path):
    serp = tmp_path / "serp.tsv"
    serp.write_text("1\td\tBerlin,Berlin\n", encoding="utf-8")
    bundle = load_bundle(basic_dir / "graph.tsv", basic_dir / "texts.jsonl", serp,
                         basic_dir / "query.txt")
    assert bundle.mentions.tolist() == [[0, 1], [0, 1]]
    assert hit_prior(bundle).values.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_hit_prior_empty_page_falls_back_to_uniform():
    with pytest.warns(UserWarning):
        p = hit_prior(_page(3, 0, []))
    assert np.allclose(p.values, 1.0 / 3.0)
    # A page whose documents mention nothing falls back too.
    with pytest.warns(UserWarning, match="hit prior falls back to uniform"):
        p = hit_prior(_page(3, 4, []))
    assert np.array_equal(p.values, np.full(3, 1.0 / 3.0))


def test_hit_prior_needs_a_resource_before_it_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^need at least one resource$"):
            hit_prior(_page(0, 0, []))


def test_hit_prior_rejects_out_of_range_index():
    # The bundle checks the mention rows hit_prior reads, once, when it is built.
    with pytest.raises(ValueError, match="^mention resources hold an index outside 0..2$"):
        _page(3, 1, [[5, 1]])
    with pytest.raises(ValueError, match=r"^mention ranks lie outside 1\.\.1$"):
        _page(3, 1, [[0, 2]])


# ------------------------------------------------------------- info need


def test_info_need_union_of_query_and_top_hit():
    hit = Distribution(np.array([0.1, 0.6, 0.3]))
    assert build_info_need({0, 2}, hit) == frozenset({0, 1, 2})
    assert build_info_need(set(), hit) == frozenset({1})


def test_info_need_top_hit_already_in_query():
    hit = Distribution(np.array([0.7, 0.3]))
    assert build_info_need({0}, hit) == frozenset({0})


def test_info_need_tie_breaks_to_lowest_index():
    hit = Distribution(np.array([0.25, 0.25, 0.25, 0.25]))
    assert build_info_need(set(), hit) == frozenset({0})


def test_info_need_rejects_bad_indices():
    hit = Distribution(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        build_info_need({4}, hit)


# ------------------------------------------------------------------- svd


@pytest.mark.parametrize("focus, stress", [({0, 2}, 1000.0), ({1}, 1.0)])
def test_svd_prior_unchanged_matrix_falls_back_to_exact_uniform(focus, stress):
    # Rows 0 and 2 hold no stems, so stressing them changes nothing, as does
    # stress 1.  The solver gives one result per matrix, so the drift is
    # exactly zero: no rounding difference can turn into a spike.
    m = _matrix_from_dense([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.warns(UserWarning, match="did not grow"):
        p = svd_prior(m, focus, PipelineParams(ndim=1, stress=stress))
    assert np.array_equal(p.values, np.full(4, 0.25))


# Hand-picked count matrices whose SVD prior sends most of its mass to the
# stressed rows: a 4 x 4 matrix stressed on row 1, and the fixture's texts
# stressed on its info need, Germany (the query) and Berlin (the top hit).
_PINNED_MATRICES = {
    "stressed-row": ([[3, 1, 0, 0], [0, 2, 1, 0], [1, 0, 2, 1], [0, 1, 0, 3]], {1}, 2),
    "fixture": (None, {0, 3}, 1),
}


@pytest.mark.parametrize("dense, focus, k", _PINNED_MATRICES.values(), ids=list(_PINNED_MATRICES))
def test_pinned_matrix_puts_its_svd_prior_on_the_stressed_rows(basic_bundle, dense, focus, k):
    if dense is None:
        assert build_info_need(basic_bundle.query, hit_prior(basic_bundle)) == focus
        dense = oracles.dense_from_sparse(build_text_matrix(basic_bundle).counts)
    dense = np.asarray(dense, dtype=float)
    p = svd_prior(_matrix_from_dense(dense), focus, PipelineParams(ndim=k, stress=1000.0))
    assert np.allclose(p.values, oracles.latent_prior_by_dense_svd(dense, focus, k, 1000.0),
                       atol=1e-6)
    assert p.values[sorted(focus)].sum() > 0.5


def test_svd_prior_widens_k_over_tied_singular_values():
    # Stressing rows 0 and 1 of the identity gives sigma = 1000, 1000, 1: no
    # rank-1 truncation is unique, so k widens to 2 and both rows drift alike.
    m = _matrix_from_dense(np.eye(3))
    p = svd_prior(m, {0, 1}, PipelineParams(ndim=1, stress=1000.0))
    assert np.allclose(p.values, [0.5, 0.5, 0.0], atol=1e-12)
    want = oracles.latent_prior_by_dense_svd(np.eye(3), {0, 1}, 1, 1000.0)
    assert np.allclose(p.values, want, atol=1e-12)


def test_svd_prior_validates_inputs():
    m = _matrix_from_dense(np.eye(3))
    with pytest.raises(ValueError):
        svd_prior(m, set(), PipelineParams(ndim=1))
    with pytest.raises(ValueError):
        svd_prior(m, {9}, PipelineParams(ndim=1))
    with pytest.raises(ValueError):
        svd_prior(m, {0}, PipelineParams(ndim=1, stress=0.0))
    with pytest.raises(ValueError):
        svd_prior(m, {0}, PipelineParams(ndim=0))


def test_svd_prior_rank_above_matrix_falls_back_to_uniform():
    m = _matrix_from_dense(np.eye(3))
    with pytest.warns(UserWarning, match="falls back to uniform"):
        p = svd_prior(m, {0}, PipelineParams(ndim=5))
    assert np.array_equal(p.values, np.full(3, 1.0 / 3.0))
    empty = _matrix_from_dense(np.zeros((3, 0)))
    with pytest.warns(UserWarning, match="falls back to uniform"):
        p = svd_prior(empty, {0}, PipelineParams(ndim=1))
    assert np.array_equal(p.values, np.full(3, 1.0 / 3.0))
