import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldrank import (
    Distribution,
    PipelineParams,
    ResourceGraph,
    build_graph,
    equi_prior,
    power_rank,
)
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


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=60),
    bidirectional=st.booleans(),
)
@example(n=1, pairs=[], bidirectional=False)
@example(n=1, pairs=[(0, 0), (0, 0)], bidirectional=True)
@example(n=5, pairs=[], bidirectional=True)
def test_build_graph_matches_np_unique(n, pairs, bidirectional):
    # Self-loops and repeated pairs are common on up to 12 nodes.
    pairs = [(i % n, j % n) for i, j in pairs]
    ids = [f"r{i:02d}" for i in range(n)]
    bundle = _bundle([(ids[i], "p", ids[j]) for i, j in pairs], ids=ids)
    g = build_graph(bundle, bidirectional=bidirectional)
    src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    if bidirectional:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
    rows, cols = np.divmod(np.unique(src * n + dst), n)
    assert np.array_equal(g.indptr, np.searchsorted(rows, np.arange(n + 1)))
    assert np.array_equal(g.indices, cols)
    assert g.indptr.dtype == g.indices.dtype == np.int64


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=12),
    pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=60),
    dtype=st.sampled_from([np.int64, np.int32, np.uint16, None]),
)
@example(n=0, pairs=[], dtype=None)
@example(n=1, pairs=[], dtype=np.int64)
@example(n=1, pairs=[(0, 0), (0, 0)], dtype=np.int32)
def test_resource_graph_matches_np_unique_of_its_pairs(n, pairs, dtype):
    # Self-loops and parallel pairs are common on up to 12 nodes; a
    # ``None`` dtype passes Python lists.
    pairs = [(i % n, j % n) for i, j in pairs] if n else []
    sources, targets = [s for s, _ in pairs], [t for _, t in pairs]
    if dtype is not None:
        sources, targets = np.array(sources, dtype=dtype), np.array(targets, dtype=dtype)
    g = ResourceGraph(n, sources, targets)
    src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    width = max(n, 1)
    rows, cols = np.divmod(np.unique(src * width + dst), width)
    assert g.n == n
    assert np.array_equal(g.indptr, np.searchsorted(rows, np.arange(n + 1)))
    assert np.array_equal(g.indices, cols)
    assert g.edge_count == len(set(pairs))
    assert g.indptr.dtype == g.indices.dtype == np.int64
    assert not g.indptr.flags.writeable and not g.indices.flags.writeable


_SHAPES = "sources and targets must be vectors of one length, "


@pytest.mark.parametrize(
    "n, sources, targets, message",
    [
        (3, [0, -1], [1, 2], "sources hold an index outside 0..2"),
        (3, [0, 1], [1, 3], "targets hold an index outside 0..2"),
        (0, [0], [0], "sources hold an index outside"),
        (3, [0.0], [1], "sources must hold integers, got float64"),
        (3, [0], [True], "targets must hold integers, got bool"),
        (3, ["0"], [1], "sources must hold integers, got <U1"),
        (3, [0, 1], [1], _SHAPES + r"got shapes \(2,\) and \(1,\)"),
        (3, [[0, 1]], [[1, 2]], _SHAPES + r"got shapes \(1, 2\) and \(1, 2\)"),
        (3, [0], np.zeros((1, 1), dtype=int), _SHAPES),
        (-1, [], [], "n must be at least 0, got -1"),
        (2.0, [], [], "n must be an integer, got float"),
        (True, [], [], "n must be an integer, got bool"),
        (3, [True, 0], [1, 1], "sources must hold integers, got bool"),
    ],
)
def test_resource_graph_rejects_bad_edge_pairs(n, sources, targets, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        ResourceGraph(n, sources, targets)


def test_resource_graph_is_immutable():
    g = ResourceGraph(np.int64(3), [2, 0, 2], [0, 1, 0])
    assert g.n == 3 and type(g.n) is int
    assert [g.successors(i).tolist() for i in range(3)] == [[1], [], [0]]
    with pytest.raises(AttributeError):
        g.n = 4
    with pytest.raises(AttributeError):
        g.indptr = np.zeros(4, dtype=np.int64)
    with pytest.raises(ValueError, match="read-only"):
        g.indices[0] = 2


# The transition operator S (row i uniform over the successors of i, or the
# fill if it has none) is applied inside power_rank, one step per iteration.


def _walk(graph, teleport, steps, alpha=0.7):
    """The scores after ``steps`` power-iteration steps, never converged."""
    params = PipelineParams(alpha=alpha, tol=5e-324, power_max_iters=steps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the ConvergenceWarning
        return power_rank(graph, teleport, params).scores.values


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
        fill = oracles.normalized(rng.random(n) + 0.05)
        out_lists = [g.successors(i).tolist() for i in range(g.n)]
        dense = oracles.dense_transition(out_lists, fill.values)
        # The same products summed in the same order as a CSR matvec, which
        # the walk replaced, so it matches that route bit for bit.
        degree = np.diff(g.indptr)
        csr = sp.csr_array(
            (np.repeat(1.0 / np.maximum(degree, 1), degree), g.indices, g.indptr), shape=(n, n)
        )
        x = y = fill.values
        for steps in (1, 2, 3):  # from the second step on, x differs from the fill
            x = 0.7 * (x @ dense) + (1 - 0.7) * fill.values
            step = y @ csr
            mass = float(y[degree == 0].sum())
            if mass:
                step = step + mass * fill.values
            y = 0.7 * step + (1 - 0.7) * fill.values
            got = _walk(g, fill, steps)
            assert np.allclose(got, x, atol=1e-12)
            assert np.array_equal(got, y)


def test_operator_preserves_total_mass():
    bundle = _bundle([("a", "p", "b"), ("c", "p", "a")], ids=["a", "b", "c", "d"])
    g = build_graph(bundle)
    teleport = Distribution(np.array([0.1, 0.2, 0.3, 0.4]))
    for steps in (1, 2, 3):
        assert _walk(g, teleport, steps).sum() == pytest.approx(1.0, abs=1e-12)


def test_operator_rejects_wrong_lengths():
    g = build_graph(_bundle([("a", "p", "b")]))
    with pytest.raises(ValueError, match="fill distribution has length 3, graph has 2"):
        power_rank(g, equi_prior(3), PipelineParams())
