import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ldrank import (
    Pipeline,
    PipelineParams,
    SparseMatrix,
    build_text_matrix,
    sparse_svd,
    tokenize,
)
from ldrank.corpus import assemble_bundle
from ldrank.lsa import _stopwords

import oracles


def _counts(dense):
    return oracles.sparse_from_dense(dense)


# ----------------------------------------------------------- tokenizer


def test_tokenize_lowercases_splits_and_stems():
    out = tokenize("Berlin's famous Museums, 1990!")
    assert out == ["berlin", "famous", "museum", "1990"]


def test_tokenize_drops_stopwords_and_short_tokens():
    assert tokenize("a at of the in x running") == ["run"]


def test_stopword_test_happens_before_stemming():
    # "have" is on the packaged list and "haves" is not: a token whose
    # *stem* is a stopword still passes if the surface form is not listed.
    assert tokenize("haves have") == ["have"]


def test_tokenize_splits_on_underscore_and_punctuation():
    assert tokenize("alpha_beta-gamma.delta") == ["alpha", "beta", "gamma", "delta"]


def test_default_stopwords_loaded_once():
    stops = _stopwords()
    assert "the" in stops and "and" in stops
    assert stops is _stopwords()


# --------------------------------------------------------- count matrix


def test_build_text_matrix_counts(basic_bundle):
    m = build_text_matrix(basic_bundle)
    assert m.n_resources == 6
    assert m.n_stems == len(m.stem_vocab)
    assert list(m.stem_vocab) == sorted(m.stem_vocab)
    dense = oracles.dense_from_sparse(m.counts)
    # "city" appears once in Berlin's text and once in City's.
    j = m.stem_vocab["citi"]
    assert dense[0, j] == 1.0
    assert dense[1, j] == 1.0
    # Counts are all strictly positive where stored.
    assert m.counts.data.min() > 0


def test_repeated_tokens_counted():
    bundle = assemble_bundle(
        [],
        {"x": "Running runner runs", "y": "nothing else"},
        [],
        set(),
    )
    m = build_text_matrix(bundle)
    dense = oracles.dense_from_sparse(m.counts)
    # "running" and "runs" share a stem; "runner" keeps its own.
    assert dense[0, m.stem_vocab["run"]] == 2.0
    assert dense[0, m.stem_vocab["runner"]] == 1.0


def test_empty_texts_give_empty_rows():
    bundle = assemble_bundle([], {"x": "", "y": "words here"}, [], set())
    m = build_text_matrix(bundle)
    assert oracles.dense_from_sparse(m.counts)[0].sum() == 0.0


# Stopwords, one-letter tokens, mixed case, digits, underscores, non-ASCII
# letters (some change length when lowercased) and repeated inflections.
_PIECES = (
    "the", "and", "of", "a", "x", "I", "Running", "runs", "runner", "RIVER",
    "rivers", "River's", "x86", "2024", "alpha_beta", "Snake_Case_42",
    "café", "Straße", "naïve", "東京", "İstanbul", "ÆON",
)
_TEXT = st.lists(st.sampled_from(_PIECES) | st.text(max_size=6), max_size=10).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(st.lists(_TEXT, min_size=1, max_size=6))
@example(["", "the and of", "a x I"])
@example(["Running runs RIVER", "rivers running", "river"])
def test_text_matrix_matches_counter_oracle(texts):
    bundle = assemble_bundle([], {f"r{i}": t for i, t in enumerate(texts)}, [], set())
    m = build_text_matrix(bundle)
    vocab, dense = oracles.stem_counts_by_counter(bundle.texts, tokenize)
    assert list(m.stem_vocab) == vocab
    assert m.stem_vocab == {s: j for j, s in enumerate(vocab)}
    assert m.counts.shape == (len(texts), len(vocab))
    assert np.array_equal(oracles.dense_from_sparse(m.counts), dense)
    # Column by column: row indices strictly increase within every column.
    c = m.counts
    assert np.all(np.diff(c.cols) >= 0)
    for j in range(c.shape[1]):
        assert np.all(np.diff(c.rows[c.cols == j]) > 0)


@pytest.mark.parametrize("texts", [["the and of", "a x I"], ["", "the"], [""]])
def test_all_stopword_texts_give_an_empty_vocabulary(texts):
    bundle = assemble_bundle([], {f"r{i}": t for i, t in enumerate(texts)}, [], {"r0"})
    m = build_text_matrix(bundle)
    assert m.stem_vocab == {} and m.counts.shape == (len(texts), 0) and m.counts.nnz == 0
    assert m.counts.rows.dtype == m.counts.cols.dtype == np.int64
    pipeline = Pipeline(bundle, PipelineParams(ndim=1))
    with pytest.warns(UserWarning, match="hit prior falls back"):  # the empty result page
        pipeline.hit
    with pytest.warns(UserWarning, match=rf"^k=1 exceeds the rank bound of the {len(texts)}x0 "):
        svd = pipeline.svd
    assert np.array_equal(svd.values, np.full(len(texts), 1.0 / len(texts)))


# ------------------------------------------------------------------ SVD


def test_sparse_svd_known_values():
    # Rows (1,0), (0,1), (1,1): squared singular values are the
    # eigenvalues 3 and 1 of the 2x2 Gram matrix.
    _, s, _ = sparse_svd(_counts([[1, 0], [0, 1], [1, 1]]), 2)
    assert np.allclose(s, [np.sqrt(3.0), 1.0], atol=1e-10)


def test_sparse_svd_diagonal():
    _, s, _ = sparse_svd(_counts(np.diag([3.0, 2.0, 1.0])), 2)
    assert np.allclose(s, [3.0, 2.0], atol=1e-10)


def test_sparse_svd_matches_gram_oracle_all_ranks():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dense = rng.integers(0, 4, size=(7, 5)).astype(float)
        dense[rng.random(dense.shape) < 0.5] = 0.0
        counts = _counts(dense)
        want = oracles.singular_values_by_gram(dense)
        for k in range(1, 6):
            _, s, _ = sparse_svd(counts, k)
            # The Gram route squares the conditioning, so near-zero values
            # carry an error of order sqrt(eps) * s_max; 1e-6 respects that.
            assert np.allclose(s, want[:k], atol=1e-6), k


def test_sparse_svd_orthonormal_vectors():
    rng = np.random.default_rng(3)
    dense = rng.integers(0, 5, size=(8, 6)).astype(float)
    u, _, vt = sparse_svd(_counts(dense), 4)
    assert np.allclose(u.T @ u, np.eye(4), atol=1e-8)
    assert np.allclose(vt @ vt.T, np.eye(4), atol=1e-8)


def test_sparse_svd_truncation_is_best_approximation():
    rng = np.random.default_rng(5)
    dense = rng.integers(0, 3, size=(6, 5)).astype(float)
    counts = _counts(dense)
    for k in range(1, 6):
        u, s, vt = sparse_svd(counts, k)
        approx = (u * s) @ vt
        got = np.linalg.norm(dense - approx)
        want = oracles.truncation_residual_by_gram(dense, k)
        assert abs(got - want) < 1e-8, k


def test_sparse_svd_deterministic():
    rng = np.random.default_rng(9)
    dense = rng.integers(0, 4, size=(9, 7)).astype(float)
    counts = _counts(dense)
    a = sparse_svd(counts, 3)
    b = sparse_svd(counts, 3)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_sparse_svd_repeats_itself_on_a_rank_deficient_matrix():
    # Rank 1 with a zero row: the second step breaks down, and at k=2 the
    # second triplet (sigma 0) comes from the fixed restart.
    counts = _counts([[0, 0, 0], [1, 1, 1], [1, 1, 1]])
    for k in (1, 2):
        results = {b"".join(a.tobytes() for a in sparse_svd(counts, k)) for _ in range(20)}
        assert len(results) == 1, k
    _, s, _ = sparse_svd(counts, 2)
    assert np.allclose(s, [np.sqrt(6.0), 0.0], atol=1e-12)


def test_pipeline_repeats_itself_on_a_rank_deficient_text_matrix():
    bundle = assemble_bundle(
        [("a", "p", "b"), ("b", "p", "c"), ("c", "p", "a")],
        {"a": "", "b": "river stone cloud", "c": "river stone cloud"},
        [],
        {"b"},
    )
    runs = []
    for _ in range(2):
        with pytest.warns(UserWarning):  # the empty result page
            runs.append(Pipeline(bundle).rank("LDRANK").scores.values.tobytes())
    assert runs[0] == runs[1]


# Small count matrices, many with zero rows and columns, repeated rows and
# repeated singular values, so rank-deficient ones are common.
_DENSE = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 7), st.integers(1, 7)),
    elements=st.sampled_from([0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0]),
)


@settings(max_examples=300, deadline=None)
@given(_DENSE, st.data())
@example(np.array([[0.0, 0, 0], [1, 1, 1], [1, 1, 1]]), None)
@example(np.eye(5), None)
@example(np.zeros((3, 4)), None)
def test_sparse_svd_matches_dense_svd(dense, data):
    limit = min(dense.shape)
    ks = [data.draw(st.integers(1, limit)) if data else 1, limit]
    _, want, _ = np.linalg.svd(dense)
    tol = 1e-9 * max(want[0], 1.0)
    for k in ks:
        u, s, vt = sparse_svd(_counts(dense), k)
        assert u.shape == (dense.shape[0], k) and vt.shape == (k, dense.shape[1])
        assert np.allclose(s, want[:k], rtol=0, atol=tol), k
        assert np.allclose(u.T @ u, np.eye(k), atol=1e-9), k
        assert np.allclose(vt @ vt.T, np.eye(k), atol=1e-9), k
        # The rank-k coordinates are unique unless sigma_k ties sigma_(k+1).
        if k == limit or want[k - 1] <= tol or want[k - 1] - want[k] > 1e-6 * want[0]:
            norms = np.linalg.norm(u * s, axis=1)
            assert np.allclose(norms, oracles.coordinate_norms_by_dense_svd(dense, k),
                               rtol=0, atol=1e-7 * max(want[0], 1.0)), k


def test_sparse_svd_finds_every_copy_of_a_repeated_singular_value():
    # Equal diagonal blocks repeat each singular value of the block, and
    # extra rows tie the copies to the rest.  From one start vector only one
    # copy of each is in reach until the basis nearly spans an invariant
    # subspace; stopping on the residuals alone misses the others here.
    for seed in range(30):
        rng = np.random.default_rng(seed)
        block = rng.choice([0.0, 0, 0, 1, 2], size=(rng.integers(2, 6), rng.integers(2, 6)))
        dense = np.kron(np.eye(rng.integers(2, 6)), block)
        extra = rng.choice([0.0] * 6 + [1, 2, 3], size=(rng.integers(1, 10), dense.shape[1]))
        dense = np.vstack([dense, extra])
        _, want, _ = np.linalg.svd(dense)
        for k in range(1, min(dense.shape) + 1):
            _, s, _ = sparse_svd(_counts(dense), k)
            assert np.allclose(s, want[:k], rtol=0, atol=1e-9 * want[0]), (seed, k)


def test_sparse_svd_takes_entries_of_any_integer_dtype():
    m = SparseMatrix((np.int64(2), 2), np.array([0, 1], dtype=np.int32), [0, 1], np.ones(2))
    assert m.shape == (2, 2)
    assert m.rows.dtype == m.cols.dtype == np.int64
    assert sparse_svd(m, 1)[1].tolist() == [1.0]


def test_sparse_svd_rank_bounds():
    counts = _counts([[1, 0], [0, 1], [1, 1]])
    with pytest.raises(ValueError):
        sparse_svd(counts, 0)
    with pytest.raises(ValueError):
        sparse_svd(counts, 3)


def test_sparse_svd_descending_order():
    rng = np.random.default_rng(13)
    dense = rng.integers(0, 6, size=(10, 6)).astype(float)
    _, s, _ = sparse_svd(_counts(dense), 5)
    assert np.all(np.diff(s) <= 0)
    assert s.min() >= 0


def test_sparse_svd_returns_row_major_u():
    # numpy sums a contiguous row pairwise and a strided one in sequence,
    # so the layout of u sets the last bits of the coordinate norms once
    # k reaches 8 (rank --ndim 8 and above).
    dense = np.random.default_rng(17).integers(0, 4, size=(12, 10)).astype(float)
    for k in (9, 10):  # below min(shape), then at it
        u, _, _ = sparse_svd(_counts(dense), k)
        assert u.flags.c_contiguous, k


# ---------------------------------------------------------- coordinates


def test_resource_coordinates_shape_and_scaling():
    u, s, _ = sparse_svd(_counts([[2, 0], [0, 5], [0, 0]]), 2)
    coords = u * s
    assert coords.shape == (3, 2)
    assert np.allclose(np.abs(coords[:2]), [[0, 2], [5, 0]])
    # The all-zero row has an all-zero coordinate vector.
    assert np.allclose(coords[2], 0.0)


def test_coordinate_norms_never_exceed_row_norms():
    rng = np.random.default_rng(21)
    for _ in range(10):
        dense = rng.integers(0, 4, size=(7, 6)).astype(float)
        row_norms = np.linalg.norm(dense, axis=1)
        counts = _counts(dense)
        for k in range(1, 7):
            u, s, _ = sparse_svd(counts, k)
            norms = np.linalg.norm(u * s, axis=1)
            assert np.all(norms <= row_norms + 1e-8), k


def test_full_rank_coordinates_preserve_row_norms():
    rng = np.random.default_rng(23)
    dense = rng.integers(1, 5, size=(6, 4)).astype(float)
    u, s, _ = sparse_svd(_counts(dense), 4)
    assert np.allclose(
        np.linalg.norm(u * s, axis=1), np.linalg.norm(dense, axis=1), atol=1e-8
    )
