"""Tests of the benchmark itself: generator, tracing arithmetic, checks, smoke run."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = 0.02


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
def test_generator_is_deterministic(tmp_path, workload):
    a = generate.generate(workload, 7, tmp_path / "a", TINY)
    b = generate.generate(workload, 7, tmp_path / "b", TINY)
    generate.generate(workload, 8, tmp_path / "c", TINY)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert a.sizes == b.sizes
    assert a.sizes["triples"] >= a.sizes["distinct_edges"] > 0


def test_self_time_subtracts_covered_child_intervals():
    tree = [
        spans.Span("root", 0.0, 10.0, -1),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("b", 3.0, 6.0, 0, leaf_s=1.0),  # overlaps a on [3, 4]
        spans.Span("a", 2.0, 3.0, 1),  # inside the first a
        spans.Span("late", 9.0, 12.0, 0),  # runs past the end of root
    ]
    times = spans.self_times(tree)
    assert times["root"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert times["a"] == {"calls": 2, "total_s": pytest.approx(4.0), "self_s": pytest.approx(3.0)}
    assert times["b"]["self_s"] == pytest.approx(2.0)
    assert times["late"]["self_s"] == pytest.approx(3.0)


def test_wrappers_catch_calls_through_importing_modules(tmp_path):
    import ldrank
    import ldrank.rank

    inputs = generate.generate("query-stream", 3, tmp_path, TINY)
    b = inputs.bundles[0]
    bundle = ldrank.load_bundle(b.graph, b.texts, b.queries[0].serp, b.queries[0].query)
    tracer = spans.Tracer()
    gone = ("graph.gone", "ldrank.graph", "no_such_function", None)
    restore = spans.install(tracer, spans.TARGETS + (gone,))
    try:
        ldrank.strategy("LDRANK", bundle)
    finally:
        restore()
    assert ldrank.rank.build_graph.__module__ == "ldrank.graph"
    assert not hasattr(ldrank.rank.build_graph, "__wrapped__")
    names = [s.name for s in tracer.spans]
    assert names[0] == "rank.strategy"
    assert "graph.gone" not in names
    parents = {s.name: tracer.spans[s.parent].name for s in tracer.spans if s.parent >= 0}
    assert parents["graph.build_graph"] == "rank.ldrank"
    assert parents["lsa.sparse_svd"] == "priors.svd_prior"
    assert tracer.leaf_calls["stemmer.stem"] > 0
    metrics = spans.combine([spans.layer_metrics({"import_s": 0.0, **tracer.to_json()}, 0)])
    assert metrics["lsa.svd_calls"] == 2
    assert 0 < metrics["stemmer.distinct_ratio"] < 1


def _ranking(ids, scores):
    return "".join(f"{i}\t{r}\t{s}\n" for i, (r, s) in enumerate(zip(ids, scores), start=1))


def test_rank_check_rejects_corrupted_rankings():
    ids = ["a", "b", "c"]
    good = _ranking(ids, [0.5, 0.3, 0.2])
    assert checks.check_rank(good, ids)[0] is None
    assert checks.check_rank(_ranking(["a", "a", "c"], [0.5, 0.3, 0.2]), ids)[0]
    assert checks.check_rank(_ranking(ids[:2], [0.6, 0.4]), ids)[0]
    assert checks.check_rank(_ranking(ids, [0.5, 0.3, 0.3]), ids)[0]
    assert checks.check_rank(_ranking(ids, [0.2, 0.3, 0.5]), ids)[0]
    assert checks.check_eval("strategy\tndcg@1\nEQUI\t1.2\nHIT\t0\nSVD\t0\nLDRANK\t0\n", (1,))[0]


def test_corrupted_output_counts_as_failed_op(tmp_path):
    fake = tmp_path / "fake" / "ldrank"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "__main__.py").write_text("print('1\\ta\\t0.5')\nprint('2\\ta\\t0.5')\n")
    work = tmp_path / "work"
    work.mkdir()
    client = run.Client(work, deadline=time.perf_counter() + 60, reference={})
    client.env["PYTHONPATH"] = str(tmp_path / "fake")
    command = run.Command("rank", ("rank",), lambda out: checks.check_rank(out, ["a", "b"]), "k")
    outcome = client.run(command)
    assert outcome.error == "ranking is not a permutation of the resources"
    assert len(client.errors) == 1

    (fake / "__main__.py").write_text("print('1\\ta\\t0.5')\nprint('2\\tb\\t0.5')\n")
    client.reference = {"k": "0" * 16}
    assert "differs from reference" in client.run(command).error
    (fake / "__main__.py").write_text("raise SystemExit(3)\n")
    assert client.run(command).error == "exit code 3"
    assert len(client.errors) == 3 and len(client.outcomes) == 3


def test_tail_uses_highest_percentile_with_ten_samples_above():
    assert run.tail([3.0, 1.0, 2.0]) == ("max", 3.0)
    assert run.tail([float(i) for i in range(1, 41)]) == ("p75", 30.0)
    assert run.tail([float(i) for i in range(1, 101)]) == ("p90", 90.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
def test_smoke_run_prints_every_named_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--scale", str(TINY)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
