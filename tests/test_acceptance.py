"""Acceptance gate: one test per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Every expected value is either computed along an
independent route (dense eigendecompositions, Gram-matrix spectra, literal
pair enumeration, pure-Python reimplementations in oracles.py) or was
frozen after being derived by hand; tolerances are pinned in the asserts.
"""

import time
import warnings

import numpy as np
import pytest

import oracles
from ldrank import (
    Distribution,
    GradeDistance,
    JudgmentRecord,
    JudgmentSet,
    PipelineParams,
    RankingResult,
    RelevanceJudgments,
    ResourceGraph,
    ResourceTextMatrix,
    assemble_bundle,
    consensual_pool,
    dcg,
    krippendorff_alpha,
    ldrank,
    ndcg,
    power_rank,
    sparse_svd,
    strategy,
    svd_prior,
    tokenize,
)
from ldrank.cli import main
import scipy.sparse as sp


def _random_graph(rng, n, edge_prob=0.3):
    mask = rng.random((n, n)) < edge_prob
    ids = tuple(f"n{i:02d}" for i in range(n))
    indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
    return ResourceGraph(resource_ids=ids, indptr=indptr, indices=np.nonzero(mask)[1])


def _random_distribution(rng, n):
    w = rng.random(n) + 0.05
    return Distribution(w / w.sum())


def test_criterion_01_stationary_walk_matches_dense_eigenvector():
    """Power iteration agrees with the dense principal-eigenvector route to
    L1 < 1e-8 on 200 random graphs (n <= 10, edge probability 0.3,
    damping in {0.6, 0.7, 0.8}), finishing in under 5 seconds total."""
    rng = np.random.default_rng(101)
    alphas = (0.6, 0.7, 0.8)
    started = time.perf_counter()
    for trial in range(200):
        n = int(rng.integers(2, 11))
        graph = _random_graph(rng, n)
        teleport = _random_distribution(rng, n)
        alpha = alphas[trial % 3]

        params = PipelineParams(alpha=alpha, tol=1e-13, power_max_iters=5000)
        result = power_rank(graph, teleport, params)
        assert result.converged

        walk = oracles.dense_walk_matrix(
            [graph.successors(i).tolist() for i in range(n)], alpha,
            teleport.values, teleport.values,
        )
        expected = oracles.stationary_by_eig(walk)
        l1 = float(np.abs(result.scores.values - expected).sum())
        assert l1 < 1e-8, f"trial {trial}: L1 {l1}"
    assert time.perf_counter() - started < 5.0


def test_criterion_02_truncated_svd_matches_gram_oracle():
    """At every rank of 100 random 8x6 count matrices the singular values
    match the Gram-spectrum route within 1e-6 and the rank-k residual
    matches the tail of that spectrum within 1e-6."""
    rng = np.random.default_rng(202)
    for trial in range(100):
        dense = rng.integers(1, 6, size=(8, 6)).astype(np.float64)
        dense *= rng.random((8, 6)) < 0.6
        counts = sp.csc_array(dense)
        gram_spectrum = oracles.singular_values_by_gram(dense)
        for k in range(1, 7):
            u, s, vt = sparse_svd(counts, k)
            assert np.allclose(
                s, gram_spectrum[:k], rtol=1e-9, atol=1e-6
            ), f"trial {trial}, k={k}"
            approx = (u * s) @ vt
            residual = float(np.linalg.norm(dense - approx))
            expected = oracles.truncation_residual_by_gram(dense, k)
            assert abs(residual - expected) < 1e-6, f"trial {trial}, k={k}"


def test_criterion_03_full_rank_drift_follows_row_norm_law():
    """At full rank the latent coordinates of every resource have exactly
    the norms of its count row, so amplifying the focus rows by s must
    yield drift (s - 1) * ||row|| there and zero elsewhere (1e-8); the
    emitted prior matches that closed form to relative 1e-6."""
    rng = np.random.default_rng(303)
    for trial in range(50):
        m, n = 6, 9
        dense = rng.integers(0, 5, size=(m, n)).astype(np.float64)
        dense *= rng.random((m, n)) < 0.5
        for i in range(m):  # no all-zero rows: every norm must be positive
            dense[i, i % n] = max(dense[i, i % n], 1.0)
        stress = (2.0, 1000.0)[trial % 2]
        focus = frozenset(
            int(i) for i in rng.choice(m, size=int(rng.integers(1, 4)), replace=False)
        )
        matrix = ResourceTextMatrix(
            counts=sp.csc_array(dense),
            stem_vocab={f"s{j:03d}": j for j in range(n)},
        )

        prior = svd_prior(matrix, focus, PipelineParams(ndim=m, stress=stress))

        row_norms = np.linalg.norm(dense, axis=1)
        predicted = np.zeros(m)
        for i in focus:
            predicted[i] = (stress - 1.0) * row_norms[i]
        predicted /= predicted.sum()
        assert np.allclose(
            prior.values, predicted, rtol=1e-6, atol=1e-9
        ), f"trial {trial}"
        outside = [i for i in range(m) if i not in focus]
        assert np.all(prior.values[outside] < 1e-8), f"trial {trial}"


def test_criterion_04_consensus_converges_inside_hull():
    """500 random expert triples reach consensus within the iteration cap
    at epsilon 1e-9, the pooled belief stays coordinate-wise inside the
    initial convex hull (slack 1e-12), and two experts always pool to
    their midpoint within 1e-9."""
    rng = np.random.default_rng(404)
    for trial in range(500):
        n = int(rng.integers(2, 7))
        experts = tuple(_random_distribution(rng, n) for _ in range(3))
        res = consensual_pool(experts, PipelineParams())
        assert res.converged, f"trial {trial}"
        assert res.iterations <= 10000

        stacked = np.stack([e.values for e in experts])
        lo = stacked.min(axis=0) - 1e-12
        hi = stacked.max(axis=0) + 1e-12
        assert np.all(res.distribution.values >= lo), f"trial {trial}"
        assert np.all(res.distribution.values <= hi), f"trial {trial}"

    for trial in range(100):
        n = int(rng.integers(2, 7))
        p, q = _random_distribution(rng, n), _random_distribution(rng, n)
        damping = (0.5, 0.25)[trial % 2]
        res = consensual_pool((p, q), PipelineParams(damping=damping))
        assert res.converged
        midpoint = 0.5 * (p.values + q.values)
        assert np.abs(res.distribution.values - midpoint).max() < 1e-9


def test_criterion_05_pipeline_matches_dense_reimplementation(
    basic_bundle, basic_dir, capsys
):
    """On the bundled fixture the full pipeline agrees with an end-to-end
    dense reimplementation to L1 < 1e-6, and the command-line ranking is
    byte-identical across two runs."""
    result = ldrank(basic_bundle)
    assert result.converged
    expected = oracles.dense_pipeline_scores(basic_bundle, lambda t: tokenize(t))
    l1 = float(np.abs(result.scores.values - expected).sum())
    assert l1 < 1e-6, f"L1 {l1}"

    args = [
        "rank",
        str(basic_dir / "graph.tsv"),
        str(basic_dir / "texts.jsonl"),
        str(basic_dir / "serp.tsv"),
        str(basic_dir / "query.txt"),
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second and first


def test_criterion_06_discounted_gain_worked_example():
    """The grade list (3, 2, 3, 0, 1, 2) has discounted gain 8.097 within
    1e-3; 1000 random lists agree with the direct-formula route within
    1e-10; a ranking already in ideal order scores exactly 1.0; the
    normalized score of 1000 random ranking/judgment pairs never leaves
    [0, 1]."""
    worked = dcg((3, 2, 3, 0, 1, 2), 6)
    assert worked == pytest.approx(8.097, abs=1e-3)
    assert worked == pytest.approx(8.097171433256848, abs=1e-12)

    rng = np.random.default_rng(606)
    for _ in range(1000):
        grades = rng.integers(0, 4, size=int(rng.integers(1, 13))).tolist()
        r = int(rng.integers(1, 16))
        assert dcg(grades, r) == pytest.approx(
            oracles.gain_by_direct_formula(grades, r), abs=1e-10
        )

    ranking = RankingResult(
        scores=Distribution(np.array([0.4, 0.3, 0.2, 0.1])),
        order=np.array([0, 1, 2, 3]),
        resource_ids=("a", "b", "c", "d"),
        iterations=1,
        converged=True,
    )
    judged = RelevanceJudgments(grades={"a": 3, "b": 2, "c": 1, "d": 0})
    for r in (1, 2, 3, 4):
        assert ndcg(ranking, judged, r) == 1.0

    for trial in range(1000):
        n = int(rng.integers(1, 9))
        ids = tuple(f"x{i}" for i in range(n))
        scores = Distribution.from_weights(rng.random(n) + 1e-3)
        order = np.lexsort((np.array(ids), -scores.values))
        random_ranking = RankingResult(
            scores=scores, order=order, resource_ids=ids,
            iterations=1, converged=True,
        )
        # Judge a random subset so the grade-0 default path is exercised.
        graded_ids = [rid for rid in ids if rng.random() < 0.8]
        random_judged = RelevanceJudgments(
            grades={rid: int(rng.integers(0, 4)) for rid in graded_ids}
        )
        r = int(rng.integers(1, 11))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            value = ndcg(random_ranking, random_judged, r)
        assert 0.0 <= value <= 1.0, f"trial {trial}: {value}"


def test_criterion_07_agreement_matches_pair_enumeration():
    """Perfect agreement yields exactly 1.0; on 100 random judgment sets
    the coincidence-matrix route agrees with literal ordered-pair
    enumeration within 1e-10."""
    perfect = JudgmentSet.from_records(
        JudgmentRecord(item=f"i{k}", worker=f"w{w}", grade=k % 4)
        for k in range(5)
        for w in range(3)
    )
    assert krippendorff_alpha(perfect) == 1.0

    rng = np.random.default_rng(707)
    table = GradeDistance.relevance_scale().table
    for trial in range(100):
        records = []
        for k in range(int(rng.integers(3, 9))):
            raters = rng.choice(5, size=int(rng.integers(2, 6)), replace=False)
            for w in raters:
                records.append(
                    JudgmentRecord(
                        item=f"i{k}", worker=f"w{w}", grade=int(rng.integers(0, 4))
                    )
                )
        judgments = JudgmentSet.from_records(records)
        got = krippendorff_alpha(judgments)
        want = oracles.alpha_by_pair_enumeration(
            oracles.records_to_item_grades(records), table
        )
        assert got == pytest.approx(want, abs=1e-10), f"trial {trial}"


def _synthetic_bundle(n_resources=81, vocab_size=520, words_per_text=40):
    rng = np.random.default_rng(808)
    ids = [f"r{i:02d}" for i in range(n_resources)]
    vocab = [f"w{j:03d}xq" for j in range(vocab_size)]
    texts = {
        rid: " ".join(rng.choice(vocab, size=words_per_text)) for rid in ids
    }
    edges = []
    for i in range(n_resources):
        edges.append((ids[i], "linksTo", ids[(i + 1) % n_resources]))
        edges.append((ids[i], "linksTo", ids[(i * 7 + 3) % n_resources]))
    serp = []
    for d in range(10):
        picks = rng.choice(n_resources, size=3, replace=False)
        serp.append((f"doc{d:02d}", [ids[int(p)] for p in picks]))
    return assemble_bundle(edges, texts, serp, {ids[0]})


def test_criterion_08_strategy_runtime_envelope():
    """On a 81-resource bundle with a ~500-stem vocabulary the full
    pipeline finishes in under a second, and the text-free strategies are
    faster than both text-analyzing ones (min of 3 timed runs each)."""
    bundle = _synthetic_bundle()
    timings = {}
    for name in ("EQUI", "HIT", "SVD", "LDRANK"):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            result = strategy(name, bundle)
            best = min(best, time.perf_counter() - start)
        assert result.converged
        timings[name] = best
    assert timings["LDRANK"] < 1.0, f"timings: {timings}"
    for cheap in ("EQUI", "HIT"):
        for costly in ("SVD", "LDRANK"):
            assert timings[cheap] < timings[costly], f"timings: {timings}"


def test_criterion_09_published_corpus_replication():
    """Replication of the reported ranking-quality comparison needs the
    published evaluation corpus, which is not retrievable in this offline
    environment."""
    pytest.skip(
        "external evaluation corpus unavailable offline; "
        "see the decisions ledger for the replication recipe"
    )
