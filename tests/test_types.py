import numpy as np
import pytest

from ldrank import CorpusBundle, Distribution, SerpContext


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
    u = Distribution.uniform(4)
    assert np.allclose(u.values, 0.25)
    w = Distribution.from_weights([2.0, 0.0, 6.0])
    assert np.allclose(w.values, [0.25, 0.0, 0.75])
    with pytest.raises(ValueError):
        Distribution.from_weights([0.0, 0.0])
    with pytest.raises(ValueError):
        Distribution.uniform(0)


def test_serp_context_validates_ranks():
    SerpContext(docs=("d1", "d2"), occurrences={0: frozenset({1, 2})})
    with pytest.raises(ValueError):
        SerpContext(docs=("d1",), occurrences={0: frozenset({2})})
    with pytest.raises(ValueError):
        SerpContext(docs=("d1",), occurrences={0: frozenset({0})})
    with pytest.raises(ValueError):
        SerpContext(docs=("d1",), occurrences={-1: frozenset({1})})
    with pytest.raises(ValueError):
        SerpContext(docs=("d1",), occurrences={0: frozenset()})


def test_corpus_bundle_requires_sorted_unique_ids():
    serp = SerpContext(docs=(), occurrences={})
    with pytest.raises(ValueError):
        CorpusBundle(
            resource_ids=("b", "a"),
            graph_edges=np.empty((0, 2), dtype=np.int64),
            texts=("", ""),
            serp=serp,
            query=frozenset(),
        )


def test_corpus_bundle_index_is_positional():
    serp = SerpContext(docs=(), occurrences={})
    bundle = CorpusBundle(
        resource_ids=("a", "b", "c"),
        graph_edges=[[2, 0]],
        texts=["", "", ""],
        serp=serp,
        query=[1],
    )
    assert bundle.graph_edges.dtype == np.int64
    assert bundle.graph_edges.tolist() == [[2, 0]]
    assert bundle.texts == ("", "", "")
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
    ],
)
def test_corpus_bundle_rejects_non_integer_indices(edges, query, field):
    serp = SerpContext(docs=(), occurrences={})
    with pytest.raises(ValueError, match=f"^{field} must hold integers"):
        CorpusBundle(("a", "b"), edges, ("", ""), serp, query)
    # Empty input of any dtype, and integer arrays of any width, pass.
    bundle = CorpusBundle(
        ("a", "b"), np.empty((0, 2)), ("", ""), serp, np.array([1], dtype=np.uint8)
    )
    assert bundle.graph_edges.dtype == np.int64 and bundle.query == {1}
