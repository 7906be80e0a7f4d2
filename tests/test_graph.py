import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldrank import Distribution, ResourceGraph, TransitionOperator, build_graph
from ldrank.corpus import assemble_bundle

import oracles


def _bundle(edges, ids=None, query=()):
    ids = ids or sorted({x for s, _p, o in edges for x in (s, o)})
    texts = {rid: "" for rid in ids}
    return assemble_bundle(edges, texts, [], query)


def test_build_graph_dedups_predicates(basic_bundle):
    g = build_graph(basic_bundle)
    # 9 triples, 8 distinct subject/object pairs.
    assert g.edge_count == 8
    # Berlin (index 0) points at City, Germany, Museum.
    assert g.successors(0).tolist() == [1, 3, 4]
    # City has no out-edges.
    assert g.successors(1).size == 0


def test_build_graph_bidirectional_symmetric(basic_bundle):
    g = build_graph(basic_bundle, bidirectional=True)
    present = {
        (i, j) for i in range(g.n) for j in g.successors(i).tolist()
    }
    assert present == {(j, i) for i, j in present}


def test_self_loops_kept():
    g = build_graph(_bundle([("a", "p", "a"), ("a", "q", "b")]))
    assert g.successors(0).tolist() == [0, 1]


def test_edge_count_and_sorted_successors():
    edges = [("c", "p", "a"), ("c", "p", "b"), ("a", "p", "c")]
    g = build_graph(_bundle(edges))
    assert g.edge_count == 3
    assert g.successors(2).tolist() == [0, 1]


_IDS = tuple(f"r{i}" for i in range(6))


@settings(max_examples=200, deadline=None)
@given(
    triples=st.lists(
        st.tuples(st.sampled_from(_IDS), st.sampled_from(("p", "q")), st.sampled_from(_IDS)),
        max_size=40,
    ),
    bidirectional=st.booleans(),
)
def test_build_graph_matches_out_list_oracle(triples, bidirectional):
    # Two predicates over six nodes: parallel edges and self-loops are common.
    bundle = _bundle(triples, ids=list(_IDS))
    g = build_graph(bundle, bidirectional=bidirectional)
    index = {rid: i for i, rid in enumerate(bundle.resource_ids)}
    pairs = {(index[s], index[o]) for s, _p, o in triples}
    if bidirectional:
        pairs |= {(j, i) for i, j in pairs}
    assert [g.successors(i).tolist() for i in range(g.n)] == oracles.edges_to_out_lists(
        bundle.n, pairs
    )
    assert g.edge_count == len(pairs)


@pytest.mark.parametrize(
    "indptr, indices, message",
    [
        ([0, 1, 1], [2], "out of range for node 0"),
        ([0, 0, 1], [-1], "out of range for node 1"),
        ([0, 2, 2], [1, 0], "node 0 must be sorted and unique"),
        ([0, 0, 2], [1, 1], "node 1 must be sorted and unique"),
        ([0, 1], [0], "indptr"),
        ([0, 2, 1], [0], "indptr"),
        ([1, 1, 1], [], "indptr"),
    ],
)
def test_resource_graph_rejects_malformed_adjacency(indptr, indices, message):
    with pytest.raises(ValueError, match=message):
        ResourceGraph(resource_ids=("a", "b"), indptr=np.array(indptr), indices=np.array(indices))


def test_resource_graph_rows_are_checked_independently():
    # A descending step across a row boundary is fine.
    g = ResourceGraph(
        resource_ids=("a", "b"), indptr=np.array([0, 1, 2]), indices=np.array([1, 0])
    )
    assert [g.successors(0).tolist(), g.successors(1).tolist()] == [[1], [0]]


@pytest.mark.parametrize(
    "indptr, indices, field",
    [
        ([0, 1.5, 1.0], [1], "indptr"),
        ([0, 1, 1], [1.2], "indices"),
        ([False, True, True], [1], "indptr"),
    ],
)
def test_resource_graph_rejects_non_integer_offsets(indptr, indices, field):
    with pytest.raises(ValueError, match=f"^{field} must hold integers"):
        ResourceGraph(resource_ids=("a", "b"), indptr=indptr, indices=indices)
    g = ResourceGraph(
        resource_ids=("a", "b"), indptr=np.array([0, 1, 1], dtype=np.int32), indices=[1]
    )
    assert g.indptr.dtype == np.int64 and g.successors(0).tolist() == [1]


def test_transition_operator_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        ids = [f"r{i:02d}" for i in range(n)]
        edges = [
            (ids[i], "p", ids[j])
            for i in range(n)
            for j in range(n)
            if rng.random() < 0.3
        ]
        bundle = _bundle(edges, ids=ids)
        g = build_graph(bundle)
        fill = Distribution.from_weights(rng.random(n) + 0.05)
        op = TransitionOperator(g, fill)
        out_lists = [g.successors(i).tolist() for i in range(g.n)]
        dense = oracles.dense_transition(out_lists, fill.values)
        x = rng.random(n)
        assert np.allclose(op.apply(x), x @ dense, atol=1e-12)


def test_operator_preserves_total_mass():
    bundle = _bundle([("a", "p", "b"), ("c", "p", "a")], ids=["a", "b", "c", "d"])
    g = build_graph(bundle)
    op = TransitionOperator(g, Distribution.uniform(4))
    x = np.array([0.1, 0.2, 0.3, 0.4])
    assert op.apply(x).sum() == pytest.approx(x.sum(), abs=1e-12)


def test_operator_rejects_wrong_lengths():
    g = build_graph(_bundle([("a", "p", "b")]))
    with pytest.raises(ValueError):
        TransitionOperator(g, Distribution.uniform(3))
    op = TransitionOperator(g, Distribution.uniform(2))
    with pytest.raises(ValueError):
        op.apply(np.zeros(5))


def test_dangling_mask():
    g = build_graph(_bundle([("a", "p", "b")]))
    op = TransitionOperator(g, Distribution.uniform(2))
    assert op.dangling_mask.tolist() == [False, True]
