import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldrank import PipelineParams, build_graph, power_rank
from ldrank.corpus import assemble_bundle

import oracles


def _bundle(edges, ids):
    return assemble_bundle(edges, {rid: "" for rid in ids}, [], ())


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    triples=st.lists(
        st.tuples(st.integers(0, 11), st.sampled_from(("p", "q")), st.integers(0, 11)),
        max_size=60,
    ),
    bidirectional=st.booleans(),
)
@example(n=1, triples=[], bidirectional=False)
@example(n=1, triples=[(0, "p", 0), (0, "q", 0)], bidirectional=True)
@example(n=5, triples=[], bidirectional=True)
def test_build_graph_matches_out_list_oracle_and_np_unique(n, triples, bidirectional):
    # Two predicates over up to 12 nodes: parallel edges, repeated pairs and
    # self-loops are common.
    pairs = [(i % n, j % n) for i, _p, j in triples]
    ids = [f"r{i:02d}" for i in range(n)]
    bundle = _bundle([(ids[i % n], p, ids[j % n]) for i, p, j in triples], ids)
    g = build_graph(bundle, bidirectional=bidirectional)
    distinct = set(pairs) | ({(j, i) for i, j in pairs} if bidirectional else set())
    assert oracles.successor_lists(g) == oracles.edges_to_out_lists(n, distinct)
    src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    if bidirectional:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
    rows, cols = np.divmod(np.unique(src * n + dst), n)
    assert g.shape == (n, n)
    assert np.array_equal(g.rows, rows)
    assert np.array_equal(g.cols, cols)
    assert np.array_equal(g.data, 1.0 / np.bincount(rows, minlength=n)[rows])
    assert g.rows.dtype == g.cols.dtype == np.int64 and g.data.dtype == np.float64


# Hand-picked graphs with their successor lists.  The fixture's nine
# triples hold eight distinct pairs (Berlin locatedIn and capitalOf
# Germany), and City has no out-edge; over Berlin, City, Europe, Germany,
# Museum, River.
_PINNED = {
    "fixture": (None, False, [[1, 3, 4], [], [3], [2], [0], [0, 3]]),
    "fixture-bidirectional": (None, True, [[1, 3, 4, 5], [0], [3], [0, 2, 5], [0], [0, 3]]),
    "self-loop": ([("a", "p", "a"), ("a", "q", "b")], False, [[0, 1], []]),
    "sorted-successors": ([("c", "p", "a"), ("c", "p", "b"), ("a", "p", "c")], False,
                          [[2], [], [0, 1]]),
}


@pytest.mark.parametrize("edges, bidirectional, successors", _PINNED.values(), ids=list(_PINNED))
def test_pinned_graph_has_its_successor_lists(basic_bundle, edges, bidirectional, successors):
    ids = sorted({x for s, _p, o in edges or () for x in (s, o)})
    bundle = basic_bundle if edges is None else _bundle(edges, ids)
    g = build_graph(bundle, bidirectional=bidirectional)
    assert oracles.successor_lists(g) == successors
    assert g.nnz == sum(map(len, successors))


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
    g = build_graph(_bundle([(ids[i], "p", ids[j]) for i, j in pairs], ids), bidirectional)
    sums = np.zeros(n)
    for i, value in zip(g.rows.tolist(), g.data.tolist()):
        sums[i] += value
    touched = {i for i, _ in pairs} | ({j for _, j in pairs} if bidirectional else set())
    for i in range(n):
        assert sums[i] == pytest.approx(1.0 if i in touched else 0.0, abs=1e-12), i
    assert (g.data > 0).all()


# The walk step x @ S (row i of S uniform over the successors of i, and the
# mass of a row with none spread by the fill) runs inside power_rank, once
# per iteration.


def _walk(graph, teleport, steps, alpha=0.7):
    """The scores after ``steps`` power-iteration steps, never converged."""
    params = PipelineParams(alpha=alpha, tol=5e-324, power_max_iters=steps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the ConvergenceWarning
        return power_rank(graph, teleport, params).scores.values


def test_walk_steps_match_the_dense_walk_and_a_csr_matvec():
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
        bundle = _bundle(edges, ids)
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


# Every target with 30 sources, from sources of one to four successors:
# long sums, where another summation order would change the last bits.
_DENSE = [(i, "p", j) for i in range(30) for j in range(0, 30, i % 4 + 1)]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    triples=st.lists(
        st.tuples(st.integers(0, 29), st.sampled_from(("p", "q")), st.integers(0, 29)),
        max_size=150,
    ),
    bidirectional=st.booleans(),
    weights=st.lists(st.floats(0.05, 1.0), min_size=30, max_size=30),
)
@example(n=30, triples=_DENSE, bidirectional=False, weights=[1 / (i + 1) for i in range(30)])
@example(n=30, triples=_DENSE, bidirectional=True, weights=[(i % 7 + 1) / 7 for i in range(30)])
@example(n=3, triples=[], bidirectional=True, weights=[0.5] * 30)
def test_walk_iterates_equal_steps_of_x_at_s_bit_for_bit(n, triples, bidirectional, weights):
    # Two predicates over up to 30 nodes: parallel edges, self-loops and
    # dangling rows are common, one-way or mirrored.
    ids = [f"r{i:02d}" for i in range(n)]
    bundle = _bundle([(ids[i % n], p, ids[j % n]) for i, p, j in triples], ids)
    g = build_graph(bundle, bidirectional=bidirectional)
    fill = oracles.normalized(weights[:n])
    dangling = np.bincount(g.rows, minlength=n) == 0
    x = fill.values
    for steps in range(1, 5):
        step = x @ g
        mass = float(x[dangling].sum())
        if mass:
            step = step + mass * fill.values
        x = 0.7 * step + (1 - 0.7) * fill.values
        assert np.array_equal(_walk(g, fill, steps), x), steps
