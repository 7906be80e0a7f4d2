import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldrank import (
    Distribution,
    PipelineParams,
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
    successors = oracles.successor_lists(g)
    # 9 triples, 8 distinct subject/object pairs.
    assert g.nnz == 8
    # Berlin (index 0) points at City, Germany, Museum.
    assert successors[0] == [1, 3, 4]
    # City has no out-edges.
    assert successors[1] == []


def test_build_graph_bidirectional_symmetric(basic_bundle):
    g = build_graph(basic_bundle, bidirectional=True)
    present = set(zip(g.rows.tolist(), g.cols.tolist()))
    assert present == {(j, i) for i, j in present}


def test_self_loops_kept():
    g = build_graph(_bundle([("a", "p", "a"), ("a", "q", "b")]))
    assert oracles.successor_lists(g)[0] == [0, 1]


def test_nnz_and_sorted_successors():
    edges = [("c", "p", "a"), ("c", "p", "b"), ("a", "p", "c")]
    g = build_graph(_bundle(edges))
    assert g.nnz == 3
    assert oracles.successor_lists(g)[2] == [0, 1]


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
    assert oracles.successor_lists(g) == oracles.edges_to_out_lists(bundle.n, pairs)
    assert g.nnz == len(pairs)


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
    assert g.shape == (n, n)
    assert np.array_equal(g.rows, rows)
    assert np.array_equal(g.cols, cols)
    assert np.array_equal(g.data, 1.0 / np.bincount(rows, minlength=n)[rows])
    assert g.rows.dtype == g.cols.dtype == np.int64 and g.data.dtype == np.float64


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=60),
    bidirectional=st.booleans(),
)
@example(n=1, pairs=[], bidirectional=False)
@example(n=3, pairs=[(0, 1)] * 3 + [(0, 2)], bidirectional=False)
@example(n=7, pairs=[(i, j) for i in range(7) for j in range(7)], bidirectional=True)
def test_each_non_empty_row_of_the_walk_matrix_sums_to_one(n, pairs, bidirectional):
    pairs = [(i % n, j % n) for i, j in pairs]
    ids = [f"r{i:02d}" for i in range(n)]
    g = build_graph(_bundle([(ids[i], "p", ids[j]) for i, j in pairs], ids=ids), bidirectional)
    sums = np.zeros(n)
    for i, value in zip(g.rows.tolist(), g.data.tolist()):
        sums[i] += value
    touched = {i for i, _ in pairs} | ({j for _, j in pairs} if bidirectional else set())
    for i in range(n):
        assert sums[i] == pytest.approx(1.0 if i in touched else 0.0, abs=1e-12), i
    assert (g.data > 0).all()


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
    vectors = np.random.default_rng(8)
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
        dense = oracles.dense_transition(oracles.successor_lists(g), fill.values)
        # The same products summed in the same order as a CSR matvec, which
        # the walk replaced, so x @ S matches that route bit for bit.
        degree = np.bincount(g.rows, minlength=n)
        indptr = np.concatenate(([0], np.cumsum(degree)))
        csr = sp.csr_array(
            (np.repeat(1.0 / np.maximum(degree, 1), degree), g.cols, indptr), shape=(n, n)
        )
        x = y = fill.values
        z = vectors.random(n)
        assert np.array_equal(z @ g, z @ csr)
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
    with pytest.raises(ValueError, match=r"fill distribution has length 3, graph has shape \(2, 2\)"):
        power_rank(g, equi_prior(3), PipelineParams())
