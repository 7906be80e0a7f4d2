import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ldrank import (
    STRATEGIES,
    ConvergenceWarning,
    Distribution,
    Pipeline,
    PipelineParams,
    RankingResult,
    build_graph,
    equi_prior,
    ldrank,
    load_bundle,
    power_rank,
    strategy,
)
from ldrank.corpus import assemble_bundle
from ldrank.types import SUM_TOL

import oracles


def _bundle(edges, ids):
    return assemble_bundle(edges, {r: "" for r in ids}, [], set())


def _graph(edges, ids, bidirectional=False):
    return build_graph(_bundle(edges, ids), bidirectional=bidirectional)


def test_two_node_chain_against_dense_oracle():
    # a -> b, b dangling; teleport and fill both uniform.
    g = _graph([("a", "p", "b")], ["a", "b"])
    t = equi_prior(2)
    res = power_rank(g, t, PipelineParams(alpha=0.8))
    want = oracles.stationary_by_eig(
        oracles.dense_walk_matrix([[1], []], 0.8, t.values, t.values)
    )
    assert res.converged
    assert np.abs(res.scores.values - want).sum() < 1e-9
    # b receives everything a passes along, so it must score higher.
    assert res.scores.values[1] > res.scores.values[0]


def test_all_dangling_graph_returns_teleport():
    g = _graph([], ["a", "b", "c"])
    t = Distribution(np.array([0.2, 0.5, 0.3]))
    res = power_rank(g, t, PipelineParams(alpha=0.7))
    # Every row is the fill = teleport, so the teleport is stationary:
    # the first iterate equals the start and the loop exits immediately.
    assert res.iterations == 1
    assert np.abs(res.scores.values - t.values).max() < 1e-15


def test_matches_dense_eig_on_random_graphs():
    rng = np.random.default_rng(53)
    for trial in range(60):
        n = int(rng.integers(2, 11))
        ids = [f"r{i:02d}" for i in range(n)]
        edges = [
            (ids[i], "p", ids[j])
            for i in range(n)
            for j in range(n)
            if rng.random() < 0.3
        ]
        t = oracles.normalized(rng.random(n) + 0.05)
        alpha = rng.choice([0.6, 0.7, 0.8])
        g = _graph(edges, ids)
        res = power_rank(g, t, PipelineParams(alpha=float(alpha)))
        dense = oracles.dense_walk_matrix(
            oracles.successor_lists(g), float(alpha), t.values, t.values
        )
        want = oracles.stationary_by_eig(dense)
        assert res.converged, trial
        assert np.abs(res.scores.values - want).sum() < 1e-8, trial


def test_stationarity_residual_below_tolerance():
    g = _graph([("a", "p", "b"), ("b", "p", "c"), ("c", "p", "a")], ["a", "b", "c"])
    t = Distribution(np.array([0.5, 0.25, 0.25]))
    res = power_rank(g, t, PipelineParams(alpha=0.7, tol=1e-10))
    dense = oracles.dense_walk_matrix([[1], [2], [0]], 0.7, t.values, t.values)
    residual = np.abs(res.scores.values - res.scores.values @ dense).sum()
    assert residual < 1e-10


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


def test_scores_form_distribution():
    g = _graph([("a", "p", "b"), ("c", "p", "b")], ["a", "b", "c", "d"])
    t = equi_prior(4)
    res = power_rank(g, t, PipelineParams())
    v = res.scores.values
    assert v.min() >= 0
    assert abs(v.sum() - 1.0) < 1e-9


def test_order_breaks_ties_by_resource_id():
    # Symmetric two-cycle: both nodes share the same score exactly.
    bundle = _bundle([("b", "p", "a"), ("a", "p", "b")], ["a", "b"])
    t = equi_prior(2)
    res = power_rank(build_graph(bundle), t, PipelineParams())
    assert res.scores.values[0] == pytest.approx(res.scores.values[1])
    assert [bundle.resource_ids[i] for i in res.order] == ["a", "b"]


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


def test_order_sorted_by_score():
    rng = np.random.default_rng(59)
    ids = [f"r{i}" for i in range(6)]
    edges = [(ids[i], "p", ids[j]) for i in range(6) for j in range(6) if i != j and rng.random() < 0.4]
    t = oracles.normalized(rng.random(6) + 0.01)
    res = power_rank(_graph(edges, ids), t, PipelineParams())
    ranked_scores = res.scores.values[res.order]
    assert np.all(np.diff(ranked_scores) <= 1e-15)


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
    with pytest.raises(ValueError):
        power_rank(g, equi_prior(3), PipelineParams())


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
    "damping": _NOT_POSITIVE | st.floats(min_value=1.0, exclude_min=True),
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
    damping=_OPEN_UNIT | st.just(1.0),
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
                res = strategy(name, bundle, params)
            except ValueError:
                continue
        assert isinstance(res.scores, Distribution)
        Distribution(res.scores.values)


# ------------------------------------------------------------- pipeline


def test_ldrank_fixture_end_to_end(basic_bundle):
    res = ldrank(basic_bundle)
    assert res.converged
    assert res.scores.values.min() >= 0
    assert abs(res.scores.values.sum() - 1.0) < 1e-9
    ranked = [basic_bundle.resource_ids[i] for i in res.order]
    # Germany is the query resource, gets half the drift prior and has two
    # in-edges from well-scored nodes, so it must come out on top.  River
    # has no in-edges at all: nothing but the teleport feeds it, so it
    # lands at the bottom.
    assert ranked[0] == "Germany"
    assert ranked[-1] == "River"


def test_ldrank_matches_dense_pipeline(basic_bundle):
    from ldrank import tokenize

    res = ldrank(basic_bundle)
    want = oracles.dense_pipeline_scores(basic_bundle, tokenize)
    assert np.abs(res.scores.values - want).sum() < 1e-6


def test_priors_exposed(basic_bundle):
    pipeline = Pipeline(basic_bundle)
    assert pipeline.consensus.converged
    for name in ("EQUI", "HIT", "SVD", "LDRANK"):
        assert abs(pipeline.prior(name).values.sum() - 1.0) < 1e-9
    assert np.allclose(pipeline.prior("EQUI").values, 1.0 / 6.0)


def test_strategy_dispatch(basic_bundle):
    equi = strategy("EQUI", basic_bundle)
    hit = strategy("HIT", basic_bundle)
    svd = strategy("SVD", basic_bundle)
    full = strategy("LDRANK", basic_bundle)
    assert not np.allclose(equi.scores.values, hit.scores.values)
    assert not np.allclose(hit.scores.values, svd.scores.values)
    ld2 = ldrank(basic_bundle)
    assert np.array_equal(full.scores.values, ld2.scores.values)
    with pytest.raises(ValueError):
        strategy("PAGERANK", basic_bundle)


def test_strategy_teleport_equals_dangling(basic_bundle):
    # On EQUI the teleport is uniform, so the City dangling row spreads
    # uniformly too; verify against the dense oracle built that way.
    res = strategy("EQUI", basic_bundle)
    g = build_graph(basic_bundle)
    n = basic_bundle.n
    uniform = np.full(n, 1.0 / n)
    dense = oracles.dense_walk_matrix(
        oracles.successor_lists(g), 0.7, uniform, uniform
    )
    want = oracles.stationary_by_eig(dense)
    assert np.abs(res.scores.values - want).sum() < 1e-8


def test_bidirectional_changes_result(basic_bundle):
    plain = ldrank(basic_bundle)
    mirrored = ldrank(basic_bundle, PipelineParams(bidirectional=True))
    assert not np.allclose(plain.scores.values, mirrored.scores.values)


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


# ------------------------------------------------------------- relabelling

_WORDS = ("river", "city", "museum", "bridge", "tower")


@st.composite
def _bundle_parts(draw):
    """Parsed primitives (texts, edges, serp, query) over resources
    r0..r{n-1}."""
    n = draw(st.integers(min_value=2, max_value=7))
    node = st.integers(min_value=0, max_value=n - 1)
    texts = [" ".join(draw(st.lists(st.sampled_from(_WORDS), max_size=5))) for _ in range(n)]
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    serp = draw(st.lists(st.lists(node, unique=True, max_size=3), min_size=1, max_size=4))
    query = draw(st.sets(node, max_size=2))
    return texts, edges, serp, query


@st.composite
def _bundle_and_renaming(draw):
    """Bundle parts and an order-changing renaming: resource ``ri`` becomes
    ``r{perm[i]}``."""
    texts, edges, serp, query = draw(_bundle_parts())
    perm = draw(st.permutations(range(len(texts))).filter(lambda p: list(p) != sorted(p)))
    return texts, edges, serp, query, perm


def _assemble(texts, edges, serp, query, name):
    return assemble_bundle(
        [(name(s), "p", name(o)) for s, o in edges],
        {name(i): text for i, text in enumerate(texts)},
        [[name(i) for i in mentions] for mentions in serp],
        {name(i) for i in query},
    )


@settings(max_examples=150, deadline=None)
@given(_bundle_and_renaming())
def test_relabelling_resources_permutes_ldrank_scores(case):
    texts, edges, serp, query, perm = case
    before = _assemble(texts, edges, serp, query, lambda i: f"r{i}")
    after = _assemble(texts, edges, serp, query, lambda i: f"r{perm[i]}")
    # The top hit joins the focus set, and a tie for it goes to the lowest
    # index, i.e. to the smallest identifier: only a unique top hit is
    # independent of the names.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pipeline = Pipeline(before)
        assume(np.count_nonzero(pipeline.hit.values == pipeline.hit.values.max()) == 1)
        a = pipeline.rank("LDRANK").scores.values
        b = ldrank(after).scores.values
    assert np.abs(b[list(perm)] - a).sum() < 1e-8


@settings(max_examples=100, deadline=None)
@given(_bundle_parts())
def test_bidirectional_leaves_symmetric_graph_unchanged(parts):
    texts, edges, serp, query = parts
    symmetric = edges + [(o, s) for s, o in edges]
    bundle = _assemble(texts, symmetric, serp, query, lambda i: f"r{i}")
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
    bundle = _assemble(*parts, lambda i: f"r{i}")
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
