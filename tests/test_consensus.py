import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldrank import (
    ConvergenceWarning,
    Distribution,
    PipelineParams,
    consensual_pool,
)
from ldrank.consensus import _pairwise_tv, _pool_step

import oracles


def _dist(*values):
    return Distribution(np.array(values, dtype=float))


# ------------------------------------------------------------------ pool


def test_identical_experts_zero_iterations():
    experts = (_dist(0.3, 0.7), _dist(0.3, 0.7), _dist(0.3, 0.7))
    res = consensual_pool(experts, PipelineParams())
    assert res.converged
    assert res.iterations == 0
    assert np.allclose(res.distribution.values, [0.3, 0.7])


def test_single_expert_returned_as_is():
    res = consensual_pool((_dist(0.9, 0.1),), PipelineParams())
    assert res.converged and res.iterations == 0
    assert np.allclose(res.distribution.values, [0.9, 0.1])


def test_two_experts_meet_at_midpoint():
    experts = (_dist(0.8, 0.2), _dist(0.2, 0.8))
    res = consensual_pool(experts, PipelineParams(damping=0.5))
    assert res.converged
    # With two experts the full pull is the other expert, so a 0.5 step
    # sends both straight to the midpoint.
    assert res.iterations == 1
    assert np.allclose(res.distribution.values, [0.5, 0.5], atol=1e-12)


# Hand-picked pairs with their total-variation distance.
_PINNED_PAIRS = {
    "disjoint": ((1.0, 0.0), (0.0, 1.0), 1.0),
    "equal": ((0.5, 0.5), (0.5, 0.5), 0.0),
    "shifted": ((0.8, 0.2), (0.6, 0.4), 0.2),
}


@pytest.mark.parametrize("p, q, distance", _PINNED_PAIRS.values(), ids=list(_PINNED_PAIRS))
def test_pinned_pair_has_its_distance(p, q, distance):
    d = _pairwise_tv(np.array([p, q]))
    assert d[0, 1] == d[1, 0] == pytest.approx(distance, abs=1e-15)
    assert d[0, 0] == d[1, 1] == 0.0


# Hand-picked pools whose experts are symmetric about the uniform mean.
_PINNED_POOLS = {
    "two-opposite": ((1.0, 0.0), (0.0, 1.0)),
    "three-symmetric": ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5)),
}


@pytest.mark.parametrize("experts", _PINNED_POOLS.values(), ids=list(_PINNED_POOLS))
def test_pinned_pool_meets_at_the_uniform_mean(experts):
    res = consensual_pool(tuple(_dist(*e) for e in experts), PipelineParams())
    assert res.converged
    assert np.allclose(res.distribution.values, [0.5, 0.5], atol=1e-9)
    assert np.allclose(res.distribution.values, oracles.consensus_mean_by_loops(experts),
                       atol=1e-9)


@settings(max_examples=300, deadline=None)
@given(
    experts=st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(any),
        min_size=1, max_size=4,
    )),
    damping=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    epsilon=st.floats(0.0, 2.0, exclude_min=True),
    max_iters=st.integers(1, 60),
)
def test_pooled_mean_lies_between_the_experts_and_matches_the_loops(
    experts, damping, epsilon, max_iters
):
    # Converged or not: every step mixes the experts, so no entry of the
    # mean leaves the range the experts span.  A converged pool ends at the
    # mean of the pure-Python loops, up to the rounding of their sums.
    pool = tuple(oracles.normalized(w) for w in experts)
    params = PipelineParams(damping=damping, consensus_epsilon=epsilon,
                            consensus_max_iters=max_iters)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        result = consensual_pool(pool, params)
    v = result.distribution.values
    rows = np.stack([e.values for e in pool])
    assert np.all(v >= rows.min(axis=0) - 1e-12)
    assert np.all(v <= rows.max(axis=0) + 1e-12)
    if result.converged:
        want = oracles.consensus_mean_by_loops(rows, damping, epsilon, max_iters)
        assert np.allclose(v, want, rtol=0, atol=1e-9)


def test_max_pairwise_distance_is_monotone():
    rng = np.random.default_rng(41)
    rows = np.stack(
        [oracles.normalized(rng.random(4) + 1e-9).values for _ in range(4)]
    )
    dist = _pairwise_tv(rows)
    prev = dist.max()
    for _ in range(50):
        rows = _pool_step(rows, dist, 0.5)
        dist = _pairwise_tv(rows)
        cur = dist.max()
        assert cur <= prev + 1e-15
        prev = cur


def test_non_convergence_returns_mean_with_flag():
    # Three asymmetric experts keep a strictly positive spread for any
    # finite number of steps, so an unreachable epsilon forces the cap.
    experts = (_dist(1.0, 0.0), _dist(0.0, 1.0), _dist(0.3, 0.7))
    params = PipelineParams(consensus_max_iters=2, consensus_epsilon=1e-300)
    with pytest.warns(ConvergenceWarning):
        res = consensual_pool(experts, params)
    assert not res.converged
    assert res.iterations == 2
    v = res.distribution.values
    assert v.min() >= 0.0 and abs(v.sum() - 1.0) < 1e-9


def test_pool_validation():
    with pytest.raises(ValueError):
        consensual_pool((), PipelineParams())
    with pytest.raises(ValueError):
        consensual_pool((_dist(1.0), _dist(0.5, 0.5)), PipelineParams())
    with pytest.raises(ValueError):
        PipelineParams(damping=0.0)
    with pytest.raises(ValueError):
        PipelineParams(damping=1.5)
    with pytest.raises(ValueError):
        PipelineParams(consensus_epsilon=0.0)
    with pytest.raises(ValueError):
        PipelineParams(consensus_max_iters=0)
