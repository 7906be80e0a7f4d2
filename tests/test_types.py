import re
from dataclasses import fields

import numpy as np
import pytest

from ldrank import CorpusBundle, Distribution, PipelineParams, equi_prior, hit_prior


def test_distribution_accepts_valid_vector():
    d = Distribution(np.array([0.25, 0.75]))
    assert len(d) == 2
    assert d.values.sum() == pytest.approx(1.0)


def test_distribution_is_read_only():
    d = Distribution(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        d.values[0] = 0.9


def test_distribution_rejects_bad_input():
    with pytest.raises(ValueError):
        Distribution(np.array([0.5, 0.6]))  # sums to 1.1
    with pytest.raises(ValueError):
        Distribution(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        Distribution(np.array([[0.5], [0.5]]))
    with pytest.raises(ValueError):
        Distribution(np.array([]))
    with pytest.raises(ValueError):
        Distribution(np.array([np.nan, 1.0]))


def test_distribution_uniform_and_weights():
    u = equi_prior(4)
    assert np.allclose(u.values, 0.25)
    w = np.array([2.0, 0.0, 6.0])
    assert np.allclose(Distribution(w / w.sum()).values, [0.25, 0.0, 0.75])
    with pytest.raises(ValueError):
        equi_prior(0)


_NO_EDGES = np.empty((0, 2), dtype=np.int64)
_NO_MENTIONS = np.empty((0, 2), dtype=np.int64)


def _bundle(n=1, serp_size=1, mentions=_NO_MENTIONS):
    """A bundle of ``n`` resources without edges or query, with the given
    result page."""
    ids = tuple(f"r{i}" for i in range(n))
    return CorpusBundle(ids, _NO_EDGES, ("",) * n, serp_size, mentions, frozenset())


def test_serp_context_validates_ranks():
    # The result page's mention rows: resources in 0..n-1, ranks in
    # 1..serp_size.
    bundle = _bundle(n=1, serp_size=2, mentions=[[0, 1], [0, 2], [0, 2]])
    assert bundle.mentions.dtype == np.int64
    assert bundle.mentions.tolist() == [[0, 1], [0, 2], [0, 2]]  # repeats kept
    with pytest.raises(ValueError, match=r"^mention ranks lie outside 1\.\.1$"):
        _bundle(serp_size=1, mentions=[[0, 2]])
    with pytest.raises(ValueError, match=r"^mention ranks lie outside 1\.\.1$"):
        _bundle(serp_size=1, mentions=[[0, 0]])
    with pytest.raises(ValueError, match=r"^mention resources hold an index outside 0\.\.0$"):
        _bundle(serp_size=1, mentions=[[-1, 1]])
    with pytest.raises(ValueError, match=r"^mention ranks lie outside 1\.\.0$"):
        _bundle(serp_size=0, mentions=[[0, 1]])  # an empty page has no rank


@pytest.mark.parametrize(
    "mentions, message",
    [
        ([[1.5, 1]], "mentions must hold integers, got float64 values"),
        ([[1.0, 1]], "mentions must hold integers, got float64 values"),
        ([[True, 1]], "mentions must hold integers, got bool values"),
        ([[0, 1.0]], "mentions must hold integers, got float64 values"),
        ([[0, True]], "mentions must hold integers, got bool values"),
        (np.array([[0, 1]], dtype=np.float64), "mentions must hold integers, got float64"),
        (np.array([[0, 1]], dtype=bool), "mentions must hold integers, got bool values"),
        ([[0, np.True_]], "mentions must hold integers, got bool values"),
    ],
    ids=["index-1.5", "index-1.0", "index-True", "rank-1.0", "rank-True", "rank-float64",
         "bool-array", "rank-numpy-True"],
)
def test_serp_context_rejects_indices_and_ranks_that_are_not_integers(mentions, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _bundle(n=2, serp_size=1, mentions=mentions)


def test_serp_context_takes_numpy_integers():
    bundle = _bundle(serp_size=np.int64(1), mentions=np.array([[0, 1]], dtype=np.int32))
    assert type(bundle.serp_size) is int and bundle.mentions.dtype == np.int64
    assert hit_prior(bundle).values.tolist() == [1.0]


@pytest.mark.parametrize("size", [-1, True, 1.0, "1", None])
def test_corpus_bundle_rejects_a_serp_size_that_is_not_a_count(size):
    message = f"^serp_size must be a non-negative integer, got {re.escape(repr(size))}$"
    with pytest.raises(ValueError, match=message):
        _bundle(serp_size=size)


@pytest.mark.parametrize("mentions", [np.zeros((1, 3), dtype=np.int64), np.zeros(2, dtype=np.int64),
                                      []])
def test_corpus_bundle_rejects_mentions_of_another_shape(mentions):
    with pytest.raises(ValueError, match=r"^mentions must have shape \(m, 2\)"):
        _bundle(mentions=mentions)


def test_corpus_bundle_requires_sorted_unique_ids():
    with pytest.raises(ValueError):
        CorpusBundle(
            resource_ids=("b", "a"),
            graph_edges=_NO_EDGES,
            texts=("", ""),
            serp_size=0,
            mentions=_NO_MENTIONS,
            query=frozenset(),
        )


@pytest.mark.parametrize("ids", [("b", "a"), ("a", "a"), ("a", "c", "b"), ("a", "b", "b")])
def test_corpus_bundle_names_unsorted_or_repeated_ids(ids):
    with pytest.raises(ValueError, match="^resource_ids must be sorted and free of duplicates$"):
        CorpusBundle(
            resource_ids=ids,
            graph_edges=_NO_EDGES,
            texts=("",) * len(ids),
            serp_size=0,
            mentions=_NO_MENTIONS,
            query=frozenset(),
        )


def test_corpus_bundle_index_is_positional():
    bundle = CorpusBundle(
        resource_ids=("a", "b", "c"),
        graph_edges=[[2, 0]],
        texts=["", "", ""],
        serp_size=2,
        mentions=[[1, 2]],
        query=[1],
    )
    assert bundle.graph_edges.dtype == np.int64
    assert bundle.graph_edges.tolist() == [[2, 0]]
    assert bundle.texts == ("", "", "")
    assert bundle.mentions.tolist() == [[1, 2]]
    assert bundle.query == frozenset({1})
    assert bundle.n == 3


@pytest.mark.parametrize(
    "edges, query, field",
    [
        ([[0.0, 1.9]], set(), "graph_edges"),
        ([[True, False]], set(), "graph_edges"),
        ([["0", "1"]], set(), "graph_edges"),
        ([[0, 1]], {0.7}, "query"),
        ([[0, 1]], {True}, "query"),
        ([[True, 1]], set(), "graph_edges"),
        ([[0, 1]], {0, True}, "query"),
    ],
)
def test_corpus_bundle_rejects_non_integer_indices(edges, query, field):
    with pytest.raises(ValueError, match=f"^{field} must hold integers"):
        CorpusBundle(("a", "b"), edges, ("", ""), 0, _NO_MENTIONS, query)
    # Empty input of any dtype, and integer arrays of any width, pass.
    bundle = CorpusBundle(
        ("a", "b"), np.empty((0, 2)), ("", ""), 0, np.empty((0, 2)), np.array([1], dtype=np.uint8)
    )
    assert bundle.graph_edges.dtype == np.int64 and bundle.query == {1}
    assert bundle.mentions.dtype == np.int64


_NUMERIC_PARAMS = [f.name for f in fields(PipelineParams) if f.name != "bidirectional"]


@pytest.mark.parametrize("name", _NUMERIC_PARAMS)
@pytest.mark.parametrize("value", [True, False, "1", None])
def test_pipeline_params_reject_a_numeric_field_that_is_not_a_number(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a number, got {value!r}$"):
        PipelineParams(**{name: value})


@pytest.mark.parametrize("value", ["no", 0, 1, None, np.bool_(True)])
def test_pipeline_params_reject_a_bidirectional_that_is_not_a_bool(value):
    with pytest.raises(ValueError, match=f"^bidirectional must be a bool, got {value!r}$"):
        PipelineParams(bidirectional=value)
    assert PipelineParams(bidirectional=True).bidirectional is True
    # numpy scalars are numbers.
    assert PipelineParams(ndim=np.int64(2), alpha=np.float64(0.5)).ndim == 2
