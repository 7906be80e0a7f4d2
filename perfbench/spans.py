"""Span recording around the public functions of each ``ldrank`` module.

The benchmark records spans from its own files: ``install`` replaces each
target function by a timing wrapper wherever it is looked up (the defining
module, the package root and every module that imported it by name), so a
call through ``ldrank.rank`` or ``ldrank.evaluation`` is caught the same as
one through the defining module.  A target that no longer exists is skipped.

A span holds name, start, end and the index of its parent span.  ``stem``
runs about a million times per op, so it is recorded as a leaf aggregate
instead (calls, total time, distinct inputs), and its time is charged to
the enclosing span as covered child time.  Spans stay in memory until the
op ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass

__all__ = ["Span", "Tracer", "TARGETS", "install", "self_times", "layer_metrics", "combine"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    leaf_s: float = 0.0  # time in leaf-aggregate calls made directly inside


class Tracer:
    """In-memory spans, leaf aggregates and counters of one traced op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.leaf_inputs: dict[str, set] = defaultdict(set)
        self._open: list[int] = []

    def wrap(self, name, fn, record=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if record is not None:
                try:
                    record(self, result)
                except AttributeError:
                    pass  # the result type changed shape; sizes go unrecorded
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_leaf(self, name, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter
        inputs = self.leaf_inputs[name]
        calls, totals = self.leaf_calls, self.leaf_s

        def traced(arg):
            start = clock()
            result = fn(arg)
            elapsed = clock() - start
            inputs.add(arg)
            calls[name] += 1
            totals[name] += elapsed
            if stack:
                spans[stack[-1]].leaf_s += elapsed
            return result

        traced.__wrapped__ = fn
        return traced

    def to_json(self) -> dict:
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.leaf_s] for s in self.spans],
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "leaves": {
                name: {"calls": self.leaf_calls[name], "total_s": self.leaf_s[name],
                       "distinct": len(self.leaf_inputs[name])}
                for name in self.leaf_calls
            },
        }


def _text_matrix(tracer, m):
    tracer.maxima["lsa.vocab"] = max(tracer.maxima["lsa.vocab"], m.n_stems)
    tracer.maxima["lsa.nnz"] = max(tracer.maxima["lsa.nnz"], m.counts.nnz)


def _pool(tracer, result):
    tracer.counters["consensus.iterations"] += result.iterations


def _graph(tracer, g):
    tracer.maxima["graph.edges"] = max(tracer.maxima["graph.edges"], g.edge_count)
    dangling = sum(1 for succ in g.out_edges if succ.size == 0)
    tracer.maxima["graph.dangling"] = max(tracer.maxima["graph.dangling"], dangling)


def _walk(tracer, result):
    tracer.counters["rank.walk_iterations"] += result.iterations


def _bundle(tracer, bundle):
    tracer.counters["corpus.triples"] += len(bundle.graph_edges)
    tracer.counters["corpus.resources"] += bundle.n


def _judgments(tracer, judged):
    tracer.counters["judgments.records"] += len(judged.records)


LEAF = "leaf"

# (span name, module, attribute path, recorder).  The recorder reads sizes
# from the return value; LEAF marks a leaf aggregate.
TARGETS = (
    ("stemmer.stem", "ldrank.stemmer", "stem", LEAF),
    ("lsa.build_text_matrix", "ldrank.lsa", "build_text_matrix", _text_matrix),
    ("lsa.sparse_svd", "ldrank.lsa", "sparse_svd", None),
    ("priors.hit_prior", "ldrank.priors", "hit_prior", None),
    ("priors.svd_prior", "ldrank.priors", "svd_prior", None),
    ("consensus.consensual_pool", "ldrank.consensus", "consensual_pool", _pool),
    ("graph.build_graph", "ldrank.graph", "build_graph", _graph),
    ("graph.row_stochastic_view", "ldrank.graph", "row_stochastic_view", None),
    ("graph.operator", "ldrank.graph", "TransitionOperator.__init__", None),
    ("rank.power_rank", "ldrank.rank", "power_rank", _walk),
    ("rank.strategy", "ldrank.rank", "strategy", None),
    ("rank.ldrank", "ldrank.rank", "ldrank", None),
    ("rank.compute_priors", "ldrank.rank", "compute_priors", None),
    ("corpus.load_bundle", "ldrank.corpus", "load_bundle", _bundle),
    ("evaluation.compare_strategies", "ldrank.evaluation", "compare_strategies", None),
    ("evaluation.ndcg", "ldrank.evaluation", "ndcg", None),
    ("judgments.load_judgments", "ldrank.judgments", "load_judgments", _judgments),
    ("judgments.load_qrels", "ldrank.judgments", "load_qrels", None),
    ("judgments.filter_workers", "ldrank.judgments", "filter_workers", None),
    ("judgments.majority_vote", "ldrank.judgments", "majority_vote", None),
    ("judgments.krippendorff_alpha", "ldrank.judgments", "krippendorff_alpha", None),
    ("cli.main", "ldrank.cli", "main", None),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute, value) for a dotted path, or None if it is gone."""
    owner = sys.modules.get(module_name)
    if owner is None:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


def install(tracer: Tracer, targets=TARGETS):
    """Wrap every target that exists; return a function that undoes it.

    ``ldrank`` must already be imported.  Module-level functions are
    replaced in every loaded ``ldrank`` module that holds the same object;
    methods are replaced on their class.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "ldrank" or name.startswith("ldrank."))]
    undo = []
    for name, module_name, path, record in targets:
        found = _resolve(module_name, path)
        if found is None:
            continue
        owner, attr, original = found
        wrapper = (tracer.wrap_leaf(name, original) if record is LEAF
                   else tracer.wrap(name, original, record))
        holders = [(owner, attr)] if isinstance(owner, type) else [
            (m, a) for m in modules for a, v in list(vars(m).items()) if v is original]
        for holder, a in holders:
            setattr(holder, a, wrapper)
            undo.append((holder, a, original))

    def restore():
        for holder, a, original in reversed(undo):
            setattr(holder, a, original)

    return restore


def self_times(spans) -> dict[str, dict[str, float]]:
    """Calls, total and self seconds per span name.

    A span's self time is its duration minus the part of its interval that
    its direct children cover (overlapping children count once) and minus
    the time of leaf-aggregate calls made directly inside it.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        duration = s.end - s.start
        entry = out[s.name]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += max(0.0, duration - covered - s.leaf_s)
    return dict(out)


def layer_metrics(trace: dict, stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced process, from what traced_op.py wrote."""
    spans = [Span(*row) for row in trace["spans"]]
    times = self_times(spans)
    counters, maxima, leaves = trace["counters"], trace["maxima"], trace["leaves"]

    def total(name):
        return times.get(name, {}).get("total_s", 0.0)

    def own(name):
        return times.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return times.get(name, {}).get("calls", 0)

    stem = leaves.get("stemmer.stem", {"calls": 0, "total_s": 0.0, "distinct": 0})
    return {
        "stemmer.stem_s": stem["total_s"],
        "stemmer.calls": stem["calls"],
        "stemmer.distinct_inputs": stem["distinct"],  # a ratio once combined
        "lsa.text_matrix_self_s": own("lsa.build_text_matrix"),
        "lsa.text_matrix_calls": calls("lsa.build_text_matrix"),
        "lsa.vocab": maxima.get("lsa.vocab", 0),
        "lsa.nnz": maxima.get("lsa.nnz", 0),
        "lsa.svd_s": total("lsa.sparse_svd"),
        "lsa.svd_calls": calls("lsa.sparse_svd"),
        "priors.hit_s": total("priors.hit_prior"),
        "priors.svd_prior_self_s": own("priors.svd_prior"),
        "priors.svd_prior_calls": calls("priors.svd_prior"),
        "consensus.pool_s": total("consensus.consensual_pool"),
        "consensus.iterations": counters.get("consensus.iterations", 0),
        "graph.build_s": total("graph.build_graph"),
        "graph.build_calls": calls("graph.build_graph"),
        "graph.edges": maxima.get("graph.edges", 0),
        "graph.dangling": maxima.get("graph.dangling", 0),
        "graph.operator_s": total("graph.operator"),
        "graph.operator_calls": calls("graph.operator"),
        "rank.walk_self_s": own("rank.power_rank"),
        "rank.walk_iterations": counters.get("rank.walk_iterations", 0),
        "rank.walk_calls": calls("rank.power_rank"),
        "rank.strategy_calls": calls("rank.strategy"),
        "corpus.load_s": total("corpus.load_bundle"),
        "corpus.triples": counters.get("corpus.triples", 0),
        "corpus.resources": counters.get("corpus.resources", 0),
        "evaluation.compare_self_s": own("evaluation.compare_strategies"),
        "evaluation.ndcg_s": total("evaluation.ndcg"),
        "judgments.load_s": total("judgments.load_judgments"),
        "judgments.filter_s": total("judgments.filter_workers"),
        "judgments.vote_s": total("judgments.majority_vote"),
        "judgments.alpha_s": total("judgments.krippendorff_alpha"),
        "judgments.records": counters.get("judgments.records", 0),
        "cli.self_s": own("cli.main"),
        "cli.import_s": trace["import_s"],
        "cli.stdout_bytes": stdout_bytes,
        "trace.op_s": total("cli.main"),
    }


def layer_self_seconds(trace: dict) -> dict[str, float]:
    """Self seconds per layer (the module part of each span name)."""
    out: dict[str, float] = defaultdict(float)
    for name, entry in self_times([Span(*row) for row in trace["spans"]]).items():
        out[name.split(".", 1)[0]] += entry["self_s"]
    for name, leaf in trace["leaves"].items():
        out[name.split(".", 1)[0]] += leaf["total_s"]
    return dict(out)


# Structure sizes: an op reports the largest seen, not the sum over calls.
MAX_KEYS = frozenset({"lsa.vocab", "lsa.nnz", "graph.edges", "graph.dangling"})


def combine(per_process: list[dict[str, float]]) -> dict[str, float]:
    """Metrics of one op from the metrics of its processes: sizes take the
    maximum, everything else adds up; the distinct ratio is recomputed."""
    out: dict[str, float] = {}
    for metrics in per_process:
        for key, value in metrics.items():
            if key in MAX_KEYS:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    calls = out.get("stemmer.calls", 0)
    ratio = out.get("stemmer.distinct_inputs", 0) / calls if calls else 0.0
    return {("stemmer.distinct_ratio" if k == "stemmer.distinct_inputs" else k):
            (ratio if k == "stemmer.distinct_inputs" else v) for k, v in out.items()}
