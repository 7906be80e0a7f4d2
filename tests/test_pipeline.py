"""Each stage of the staged run is computed at most once per bundle."""

import collections
import importlib

import pytest

from ldrank import compare_strategies, load_qrels
from ldrank.cli import main

STAGES = (
    ("ldrank.rank", "build_text_matrix"),
    ("ldrank.priors", "sparse_svd"),
    ("ldrank.rank", "build_graph"),
    ("ldrank.rank", "consensual_pool"),
)


@pytest.fixture()
def stage_calls(monkeypatch):
    """Calls per stage function, counted where the pipeline looks it up."""
    counts = collections.Counter()
    for module, name in STAGES:
        original = getattr(importlib.import_module(module), name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(f"{module}.{name}", counted)
    return counts


def _per_bundle(text_matrix, svd, graph, pool, bundles=1):
    return {
        "build_text_matrix": text_matrix * bundles,
        "sparse_svd": svd * bundles,
        "build_graph": graph * bundles,
        "consensual_pool": pool * bundles,
    }


def test_compare_strategies_runs_each_stage_once_per_bundle(basic_bundle, basic_dir, stage_calls):
    judged = load_qrels(basic_dir / "qrels.tsv")
    table = compare_strategies([(basic_bundle, judged)] * 3, (1, 3))
    assert table.n_queries == 3
    assert dict(stage_calls) == _per_bundle(1, 2, 1, 1, bundles=3)


def _rank_args(basic_dir, *extra):
    files = ("graph.tsv", "texts.jsonl", "serp.tsv", "query.txt")
    return ["rank", *(str(basic_dir / f) for f in files), *extra]


def test_rank_hit_never_builds_the_text_matrix(basic_dir, stage_calls, capsys):
    assert main(_rank_args(basic_dir, "--strategy", "HIT")) == 0
    capsys.readouterr()
    assert stage_calls["build_text_matrix"] == 0
    assert stage_calls["sparse_svd"] == 0
    assert stage_calls["build_graph"] == 1


@pytest.mark.parametrize("name", ["HIT", "LDRANK"])
def test_rank_emit_priors_reuses_the_ranking_pipeline(
    basic_dir, tmp_path, stage_calls, capsys, name
):
    dump = tmp_path / "priors.tsv"
    assert main(_rank_args(basic_dir, "--strategy", name, "--emit-priors", str(dump))) == 0
    capsys.readouterr()
    assert dict(stage_calls) == _per_bundle(1, 2, 1, 1)
