import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ldrank import (
    STRATEGIES,
    ConvergenceWarning,
    Distribution,
    Pipeline,
    PipelineParams,
    RankingResult,
    SparseMatrix,
    build_graph,
    equi_prior,
    load_bundle,
    power_rank,
    tokenize,
)
from ldrank.corpus import assemble_bundle
from ldrank.types import SUM_TOL

import oracles


def _bundle(edges, ids):
    return assemble_bundle(edges, {r: "" for r in ids}, [], set())


def _graph(edges, ids, bidirectional=False):
    return build_graph(_bundle(edges, ids), bidirectional=bidirectional)


def test_all_dangling_graph_returns_teleport():
    g = _graph([], ["a", "b", "c"])
    t = Distribution(np.array([0.2, 0.5, 0.3]))
    res = power_rank(g, t, PipelineParams(alpha=0.7))
    # Every row is the fill = teleport, so the teleport is stationary:
    # the first iterate equals the start and the loop exits immediately.
    assert res.iterations == 1
    assert np.abs(res.scores.values - t.values).max() < 1e-15


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 6),
       alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       tol=st.floats(0.0, 1.0, exclude_min=True))
def test_a_converged_walk_meets_its_residual_bound(data, n, alpha, tol):
    # Dangling rows and zero teleport weights included.  The bound holds up
    # to float64 rounding: at an exact fixed point of the step, whatever
    # the tol, the dense residual still reads about 1e-16.
    node = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(node, node), max_size=3 * n))
    weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(any))
    ids = [f"r{i}" for i in range(n)]
    g = _graph([(ids[s], "p", ids[o]) for s, o in edges], ids)
    t = oracles.normalized(weights)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        res = power_rank(g, t, PipelineParams(alpha=alpha, tol=tol))
    assume(res.converged)
    dense = oracles.dense_walk_matrix(
        oracles.successor_lists(g), alpha, t.values, t.values
    )
    x = res.scores.values
    residual = np.abs(x - x @ dense).sum()
    assert residual < tol + n * np.finfo(np.float64).eps


_ID_CHARS = "abcXYZ09_-"


@settings(max_examples=150, deadline=None)
@given(
    ids=st.lists(st.text(_ID_CHARS, min_size=1, max_size=3), min_size=2, max_size=8,
                 unique=True),
    data=st.data(),
)
def test_order_breaks_ties_as_the_id_lexsort(ids, data):
    # Isolated nodes with equal teleport weight score exactly alike, so
    # small weights and few edges make ties common.
    node = st.sampled_from(ids)
    edges = data.draw(st.lists(st.tuples(node, node), max_size=len(ids)))
    weights = data.draw(st.lists(st.sampled_from([1, 2]), min_size=len(ids),
                                 max_size=len(ids)))
    bundle = _bundle([(s, "p", o) for s, o in edges], ids)
    res = power_rank(build_graph(bundle), oracles.normalized(weights),
                     PipelineParams())
    scores = res.scores.values
    assume(np.unique(scores).size < scores.size)
    want = oracles.order_by_score_then_id(scores, bundle.resource_ids)
    assert res.order.tolist() == want.tolist()


def test_max_iters_flags_nonconvergence():
    g = _graph([("a", "p", "b"), ("b", "p", "a")], ["a", "b"])
    t = Distribution(np.array([0.9, 0.1]))
    with pytest.warns(ConvergenceWarning):
        res = power_rank(g, t, PipelineParams(power_max_iters=2, tol=1e-16))
    assert not res.converged
    assert res.iterations == 2


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineParams(alpha=1.0)
    with pytest.raises(ValueError):
        PipelineParams(alpha=0.0)
    with pytest.raises(ValueError):
        PipelineParams(tol=0.0)
    g = _graph([("a", "p", "b")], ["a", "b"])
    with pytest.raises(ValueError,
                       match=r"^fill distribution has length 3, graph has shape \(2, 2\)$"):
        power_rank(g, equi_prior(3), PipelineParams())


# power_rank steps from S's pattern and row degrees, so it takes only a walk
# matrix: entries by source, each holding 1 / degree of its row.
@pytest.mark.parametrize("rows, cols, data, reason", [
    ([0, 0, 1], [0, 1, 0], [0.25, 0.75, 1.0], "an entry is not 1 / degree of its row"),
    ([1, 0, 0], [0, 0, 1], [1.0, 0.5, 0.5], "its rows decrease somewhere"),
], ids=["two-weights-in-a-row", "unsorted-rows"])
def test_power_rank_rejects_a_matrix_that_is_not_a_walk_matrix(rows, cols, data, reason):
    graph = SparseMatrix((2, 2), rows, cols, np.array(data))
    with pytest.raises(ValueError, match=f"^graph is not a walk matrix: {re.escape(reason)}$"):
        power_rank(graph, equi_prior(2), PipelineParams())


# ------------------------------------------------------------- settings

_OPEN_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_POSITIVE = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_NOT_POSITIVE = st.floats(max_value=0.0) | _NON_FINITE
_NOT_A_COUNT = st.integers(max_value=0) | _NON_FINITE | st.just(1.5)

# An out-of-range, NaN or infinite value for every checked field.
_BAD_VALUES = {
    "alpha": st.floats(max_value=0.0) | st.floats(min_value=1.0) | _NON_FINITE,
    "ndim": _NOT_A_COUNT,
    "stress": _NOT_POSITIVE,
    "tol": _NOT_POSITIVE,
    "damping": _NOT_POSITIVE | st.floats(min_value=1.0),
    "consensus_epsilon": _NOT_POSITIVE,
    "consensus_max_iters": _NOT_A_COUNT,
    "power_max_iters": _NOT_A_COUNT,
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_BAD_VALUES)).flatmap(
    lambda name: st.tuples(st.just(name), _BAD_VALUES[name])))
def test_out_of_range_setting_names_its_field(case):
    name, value = case
    with pytest.raises(ValueError, match=f"^{name} "):
        PipelineParams(**{name: value})


@settings(max_examples=60, deadline=None)
@given(st.builds(
    PipelineParams,
    alpha=_OPEN_UNIT | st.sampled_from([5e-324, 1e-12, 1.0 - 1e-12, 0.9999999999999999]),
    ndim=st.integers(min_value=1, max_value=8),
    stress=_POSITIVE | st.sampled_from([5e-324, 1e150, 1e200, 1e300]),
    tol=_POSITIVE | st.sampled_from([5e-324, 1e-300]),
    bidirectional=st.booleans(),
    damping=_OPEN_UNIT,
    consensus_epsilon=_POSITIVE | st.just(5e-324),
    consensus_max_iters=st.integers(min_value=1, max_value=500),
    power_max_iters=st.integers(min_value=1, max_value=500),
))
def test_any_valid_settings_rank_or_raise_an_input_error(basic_dir, params):
    bundle = load_bundle(*(basic_dir / f for f in
                           ("graph.tsv", "texts.jsonl", "serp.tsv", "query.txt")))
    for name in STRATEGIES:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                res = Pipeline(bundle, params).rank(name)
            except ValueError:
                continue
        assert isinstance(res.scores, Distribution)
        Distribution(res.scores.values)


# ------------------------------------------------------------- pipeline


def test_strategy_dispatch(basic_bundle):
    equi, hit, svd, full = (Pipeline(basic_bundle).rank(name) for name in STRATEGIES)
    assert not np.allclose(equi.scores.values, hit.scores.values)
    assert not np.allclose(hit.scores.values, svd.scores.values)
    ld2 = Pipeline(basic_bundle).rank("LDRANK")
    assert np.array_equal(full.scores.values, ld2.scores.values)
    with pytest.raises(ValueError):
        Pipeline(basic_bundle).rank("PAGERANK")


def test_ranking_result_orders_by_its_scores():
    result = RankingResult(Distribution(np.array([0.1, 0.9])), 1, True)
    assert result.order.tolist() == [1, 0]
    assert result.order is result.order  # computed once
    with pytest.raises(ValueError, match="read-only"):
        result.order[0] = 0
    with pytest.raises(AttributeError):
        result.order = np.array([0, 1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=12).filter(any))
def test_ranking_result_order_sorts_scores_with_ties_by_index(weights):
    # Four weight levels over up to 12 resources force ties, zeros included.
    scores = oracles.normalized(weights).values
    order = RankingResult(Distribution(scores), 1, True).order
    assert sorted(order.tolist()) == list(range(len(weights)))
    ranked = scores[order]
    assert np.all(np.diff(ranked) <= 0)
    tied = np.diff(ranked) == 0
    assert np.all(np.diff(order)[tied] > 0)


# ------------------------------------------------------- random bundles

_WORDS = ("river", "city", "museum", "bridge", "tower")
# Sixteen words: texts share some stems, and a text whose stems no other
# text holds gives the count matrix a block of its own.
_VOCABULARY = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "theta", "kappa",
               "lambda", "sigma", "omega", "river", "city", "castle", "paris", "berlin")


@st.composite
def _bundle_parts(draw, words=_WORDS):
    """Parsed primitives (texts, triples, serp, query) over resources
    r0..r{n-1}: two predicates, so parallel edges and self-loops are
    common, and documents that may mention a resource twice."""
    n = draw(st.integers(min_value=2, max_value=8))
    node = st.integers(min_value=0, max_value=n - 1)
    texts = [" ".join(draw(st.lists(st.sampled_from(words), max_size=7))) for _ in range(n)]
    edges = draw(st.lists(st.tuples(node, st.sampled_from("pq"), node), max_size=3 * n))
    serp = draw(st.lists(st.lists(node, max_size=3), max_size=4))
    query = draw(st.sets(node, max_size=2))
    return texts, edges, serp, query


@st.composite
def _bundle_and_renaming(draw):
    """Bundle parts and an order-changing renaming: resource ``ri`` becomes
    ``r{perm[i]}``."""
    texts, edges, serp, query = draw(_bundle_parts())
    perm = draw(st.permutations(range(len(texts))).filter(lambda p: list(p) != sorted(p)))
    return texts, edges, serp, query, perm


def _assemble(texts, edges, serp, query, name=lambda i: f"r{i}"):
    return assemble_bundle(
        [(name(s), p, name(o)) for s, p, o in edges],
        {name(i): text for i, text in enumerate(texts)},
        [[name(i) for i in mentions] for mentions in serp],
        {name(i) for i in query},
    )


# Two bundles whose SVD prior is solver error alone.  The focus resource's
# one stem is in no other text, so its row is a block of its own, and
# stress 2 leaves the block's singular value below sigma_k: no coordinate
# norm changes.  In the first, every drift is about 1e-15; in the second,
# sigma_2 lies 0.018 above the block, and that small gap leaves a norm
# 5e-14 off, above 64 epsilons of the largest norm.
_SOLVER_NOISE = {
    "below-sigma-3": (
        (["omega omega lambda", "omega castle paris sigma epsilon zeta alpha", "delta",
          "beta beta beta alpha", "omega sigma gamma lambda castle epsilon",
          "kappa lambda river berlin theta", "berlin"],
         [], [[5, 3, 6, 2, 4], [2, 0, 5]], set()),
        PipelineParams(ndim=3, stress=2.0),
    ),
    "small-gap": (
        (["", "kappa", "epsilon gamma sigma river epsilon", "river delta sigma", "delta lambda",
          "gamma omega beta alpha epsilon", "theta", "theta city"],
         [], [[0, 1], [0, 4, 3]], {1}),
        PipelineParams(ndim=2, stress=2.0),
    ),
}


@pytest.mark.parametrize("parts, params", _SOLVER_NOISE.values(), ids=list(_SOLVER_NOISE))
def test_svd_prior_of_solver_error_alone_falls_back_to_uniform(parts, params):
    bundle = _assemble(*parts)
    with pytest.warns(UserWarning, match="did not grow"):
        p = Pipeline(bundle, params).prior("SVD")
    assert np.array_equal(p.values, np.full(bundle.n, 1 / bundle.n))


@settings(max_examples=300, deadline=None)
@given(
    parts=_bundle_parts(_VOCABULARY),
    params=st.builds(
        PipelineParams,
        alpha=st.floats(0.01, 0.99),
        ndim=st.integers(1, 9),
        stress=st.floats(0.1, 1e4),
        damping=st.floats(0.05, 1.0, exclude_max=True),
        bidirectional=st.booleans(),
    ),
)
@example(*_SOLVER_NOISE["below-sigma-3"])
@example(*_SOLVER_NOISE["small-gap"])
def test_every_strategy_ranks_as_the_dense_pipeline(parts, params):
    # Up to 9 dimensions over at most 8 resources: the rank bound and the
    # empty vocabulary fall back.  A walk or pool at its iteration cap (just
    # below damping 1 the pool may still reach it) is flagged and warned
    # instead.
    bundle = _assemble(*parts)
    pipeline = Pipeline(bundle, params)
    for name in STRATEGIES:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = pipeline.rank(name)
        warned = [str(w.message) for w in caught]
        if name == "LDRANK" and not pipeline.consensus.converged:
            assert (f"consensus pooling still above epsilon after "
                    f"{params.consensus_max_iters} iterations") in warned
            continue
        if not result.converged:
            assert (f"power iteration still above tolerance after "
                    f"{params.power_max_iters} iterations") in warned
            continue
        assert np.abs(result.scores.values - _dense(bundle, params, name)).sum() < 1e-6, name


def _dense(bundle, params, name):
    return oracles.dense_pipeline_scores(
        bundle, tokenize, name, alpha=params.alpha, k=params.ndim, stress=params.stress,
        damping=params.damping, bidirectional=params.bidirectional,
    )


# The hand-picked bundles of the end-to-end check, one row per bundle and
# strategy: the fixture in both edge modes, a dangling chain, a cycle, a
# symmetric two-cycle whose EQUI and HIT scores tie, and a sink with an
# isolated resource.  Every walk and pool here converges.
_PINNED = {
    "fixture": (None, PipelineParams()),
    "fixture-bidirectional": (None, PipelineParams(bidirectional=True)),
    "two-node-chain": ((["river city", "river"], [(0, "p", 1)], [[1], [0, 1]], {0}),
                       PipelineParams(alpha=0.8)),
    "three-cycle": ((["berlin river", "paris river", "castle"],
                     [(0, "p", 1), (1, "p", 2), (2, "p", 0)], [[2]], set()),
                    PipelineParams(tol=1e-10)),
    "two-cycle": ((["river", "river"], [(1, "p", 0), (0, "p", 1)], [[0, 1]], set()),
                  PipelineParams()),
    "sink-and-isolated": ((["museum", "museum tower", "bridge", ""],
                           [(0, "p", 1), (2, "p", 1)], [[1, 3], [2]], {3}),
                          PipelineParams()),
}


@pytest.mark.parametrize("case, name", [(c, n) for c in _PINNED for n in STRATEGIES],
                         ids=[f"{c}-{n}" for c in _PINNED for n in STRATEGIES])
def test_pinned_bundle_ranks_as_the_dense_pipeline(basic_bundle, case, name):
    parts, params = _PINNED[case]
    bundle = basic_bundle if parts is None else _assemble(*parts)
    result = Pipeline(bundle, params).rank(name)
    assert result.converged
    assert np.abs(result.scores.values - _dense(bundle, params, name)).sum() < 1e-6
    want = oracles.order_by_score_then_id(result.scores.values, bundle.resource_ids)
    assert result.order.tolist() == want.tolist()


# ------------------------------------------------------------- relabelling


@settings(max_examples=150, deadline=None)
@given(_bundle_and_renaming())
def test_relabelling_resources_permutes_ldrank_scores(case):
    texts, edges, serp, query, perm = case
    before = _assemble(texts, edges, serp, query)
    after = _assemble(texts, edges, serp, query, lambda i: f"r{perm[i]}")
    # The top hit joins the focus set, and a tie for it goes to the lowest
    # index, i.e. to the smallest identifier: only a unique top hit is
    # independent of the names.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pipeline = Pipeline(before)
        assume(np.count_nonzero(pipeline.hit.values == pipeline.hit.values.max()) == 1)
        a = pipeline.rank("LDRANK").scores.values
        b = Pipeline(after).rank("LDRANK").scores.values
    assert np.abs(b[list(perm)] - a).sum() < 1e-8


@settings(max_examples=100, deadline=None)
@given(_bundle_parts())
def test_bidirectional_leaves_symmetric_graph_unchanged(parts):
    texts, edges, serp, query = parts
    symmetric = edges + [(o, p, s) for s, p, o in edges]
    bundle = _assemble(texts, symmetric, serp, query)
    plain, mirrored = build_graph(bundle), build_graph(bundle, bidirectional=True)
    assert np.array_equal(plain.rows, mirrored.rows)
    assert np.array_equal(plain.cols, mirrored.cols)
    assert np.array_equal(plain.data, mirrored.data)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        teleport = Pipeline(bundle).prior("LDRANK")
        a = power_rank(plain, teleport, PipelineParams())
        b = Pipeline(bundle, PipelineParams(bidirectional=True)).rank("LDRANK")
    assert np.array_equal(a.scores.values, b.scores.values)
    assert np.array_equal(a.order, b.order)


@settings(max_examples=100, deadline=None)
@given(_bundle_parts())
def test_priors_and_scores_are_distributions_and_repeatable(parts):
    bundle = _assemble(*parts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        first, second = Pipeline(bundle), Pipeline(bundle)
        for name in STRATEGIES:
            scores = first.rank(name).scores.values
            for values in (first.prior(name).values, scores):
                assert values.shape == (len(bundle.resource_ids),)
                assert (values >= 0.0).all()
                assert abs(values.sum() - 1.0) <= SUM_TOL
            assert second.rank(name).scores.values.tobytes() == scores.tobytes()
