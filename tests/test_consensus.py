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


def _tv(p, q):
    return _pairwise_tv(np.stack([p.values, q.values]))[0, 1]


# -------------------------------------------------------------- distance


def test_pairwise_distance_known_value():
    assert _tv(_dist(1.0, 0.0), _dist(0.0, 1.0)) == pytest.approx(1.0)
    assert _tv(_dist(0.5, 0.5), _dist(0.5, 0.5)) == 0.0
    assert _tv(_dist(0.8, 0.2), _dist(0.6, 0.4)) == pytest.approx(0.2)


def test_pairwise_distance_properties():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        p = oracles.normalized(rng.random(n) + 1e-9)
        q = oracles.normalized(rng.random(n) + 1e-9)
        d = _tv(p, q)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(_tv(q, p))
    with pytest.raises(ValueError):
        consensual_pool((_dist(1.0), _dist(0.5, 0.5)), PipelineParams())


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


def test_three_expert_symmetric_case():
    experts = (_dist(1.0, 0.0), _dist(0.0, 1.0), _dist(0.5, 0.5))
    res = consensual_pool(experts, PipelineParams())
    assert res.converged
    assert np.allclose(res.distribution.values, [0.5, 0.5], atol=1e-9)


def test_result_stays_in_convex_hull():
    rng = np.random.default_rng(37)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 5))
        experts = tuple(
            oracles.normalized(rng.random(n) + 1e-12) for _ in range(m)
        )
        res = consensual_pool(experts, PipelineParams())
        assert res.converged
        rows = np.stack([e.values for e in experts])
        lo = rows.min(axis=0) - 1e-12
        hi = rows.max(axis=0) + 1e-12
        v = res.distribution.values
        assert np.all(v >= lo) and np.all(v <= hi)


@settings(max_examples=300, deadline=None)
@given(
    experts=st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(any),
        min_size=1, max_size=4,
    )),
    damping=st.floats(0.0, 1.0, exclude_min=True),
    epsilon=st.floats(0.0, 2.0, exclude_min=True),
    max_iters=st.integers(1, 60),
)
def test_pooled_mean_lies_between_the_experts(experts, damping, epsilon, max_iters):
    # Converged or not: every step mixes the experts, so no entry of the
    # mean leaves the range the experts span.
    pool = tuple(oracles.normalized(w) for w in experts)
    params = PipelineParams(damping=damping, consensus_epsilon=epsilon,
                            consensus_max_iters=max_iters)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        v = consensual_pool(pool, params).distribution.values
    rows = np.stack([e.values for e in pool])
    assert np.all(v >= rows.min(axis=0) - 1e-12)
    assert np.all(v <= rows.max(axis=0) + 1e-12)


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


def test_matches_pure_python_reference():
    rng = np.random.default_rng(43)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        experts = tuple(
            oracles.normalized(rng.random(n) + 1e-9) for _ in range(m)
        )
        res = consensual_pool(experts, PipelineParams())
        want = oracles.consensus_mean_by_loops([e.values for e in experts])
        assert np.allclose(res.distribution.values, want, atol=1e-7)


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


def test_mean_is_valid_distribution():
    rng = np.random.default_rng(47)
    for _ in range(50):
        experts = tuple(
            oracles.normalized(rng.random(3) + 1e-9) for _ in range(3)
        )
        res = consensual_pool(experts, PipelineParams())
        v = res.distribution.values
        assert v.min() >= 0.0
        assert abs(v.sum() - 1.0) < 1e-9
