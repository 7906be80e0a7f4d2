"""Seeded synthetic inputs for the ldrank benchmark.

Every file is a pure function of (workload, seed, scale): the same arguments
write byte-identical files.  Texts draw from a Zipf vocabulary of
English-like words carrying real suffixes (-ing, -ed, -ation, -ness, -s, ...)
mixed with stopwords, so the stemmer and the stopword filter do realistic
work.  Graph out-degrees follow a power law, targets favour popular
resources, and most resource pairs carry more than one predicate, so the
collapse from triples to edges is exercised.  Each query has a 10-document
result page and 1-3 query resources drawn from one topic neighbourhood.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["WORKLOADS", "Inputs", "generate"]

ONSETS = ("b", "bl", "br", "c", "ch", "cr", "d", "dr", "f", "fl", "g", "gl", "gr",
          "h", "j", "k", "l", "m", "n", "p", "pl", "pr", "qu", "r", "s", "sc",
          "sh", "sl", "sp", "st", "t", "th", "tr", "v", "w", "wh", "z")
NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ee", "oa", "ou", "ie")
CODAS = ("", "", "", "b", "ck", "d", "ft", "g", "l", "ll", "m", "mp", "n", "nd",
         "nt", "p", "r", "rd", "rn", "s", "sk", "st", "t", "x")
# Weighted towards the bare form and plurals, as in running English text.
SUFFIXES = ("", "", "", "", "s", "s", "es", "ed", "ed", "ing", "ing", "er", "ers",
            "ly", "ness", "ation", "ations", "ment", "ments", "ful", "ous", "ive",
            "ity", "al", "ize", "ization", "able", "ism", "ist", "ence", "est",
            "ational", "fulness", "iveness")
STOPWORDS = ("the", "of", "and", "in", "a", "to", "is", "was", "for", "on", "with",
             "by", "as", "at", "from", "its", "an", "which", "that", "this")
PREDICATES = tuple(f"p{name}" for name in (
    "locatedIn", "partOf", "type", "hasMember", "relatedTo", "sameAs", "seeAlso",
    "subject", "knownFor", "influencedBy", "birthPlace", "country", "genre",
    "author", "owner", "leader", "successor", "predecessor", "capital", "region",
    "language", "industry", "founder", "product", "award", "team", "club",
    "field", "mentor", "location"))

SERP_DOCS = 10


@dataclass(frozen=True)
class Shape:
    """Size of one bundle before scaling."""

    resources: int
    raw_edges_per_resource: float
    extra_predicates: float  # mean predicates per pair minus one
    tokens: tuple[int, int]  # inclusive range of tokens per text


@dataclass(frozen=True)
class Workload:
    shape: Shape
    bundles: int  # disjoint bundles (eval-suite) or 1 shared corpus
    queries: int  # result pages per shared corpus
    judges_per_item: int = 0


WORKLOADS = {
    "query-stream": Workload(Shape(20_000, 4.3, 0.39, (40, 80)), bundles=1, queries=8),
    "graph-sweep": Workload(Shape(100_000, 8.6, 0.88, (1, 5)), bundles=1, queries=8),
    "eval-suite": Workload(Shape(2_000, 4.3, 0.39, (40, 80)), bundles=4, queries=1,
                           judges_per_item=12),
}

VOCAB = 5_000
WORKERS = 400


@dataclass
class Query:
    """One result page plus query set over a bundle."""

    serp: Path
    query: Path


@dataclass
class Bundle:
    graph: Path
    texts: Path
    resource_ids: list[str]
    queries: list[Query]
    qrels: Path | None = None


@dataclass
class Inputs:
    """Paths and sizes of everything one workload needs."""

    bundles: list[Bundle]
    manifest: Path | None = None
    judgments: Path | None = None
    planted: dict[str, int] = field(default_factory=dict)
    sizes: dict[str, int] = field(default_factory=dict)


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *tags])))


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        n_syll = 1 + int(rng.integers(0, 3))
        root = "".join(
            ONSETS[rng.integers(len(ONSETS))] + NUCLEI[rng.integers(len(NUCLEI))]
            + CODAS[rng.integers(len(CODAS))]
            for _ in range(n_syll)
        )
        word = root + SUFFIXES[rng.integers(len(SUFFIXES))]
        if len(word) >= 3 and word not in seen and word not in STOPWORDS:
            seen.add(word)
            words.append(word)
    return words


def _zipf(n: int, exponent: float = 1.0, shift: float = 2.7) -> np.ndarray:
    p = 1.0 / (np.arange(n) + shift) ** exponent
    return p / p.sum()


def _texts(rng, n: int, tokens: tuple[int, int], vocab: list[str]) -> tuple[list[str], int]:
    lengths = rng.integers(tokens[0], tokens[1] + 1, size=n)
    total = int(lengths.sum())
    words = np.array(vocab, dtype=object)[rng.choice(len(vocab), size=total, p=_zipf(len(vocab)))]
    stop = rng.random(total) < 0.3
    words[stop] = np.array(STOPWORDS, dtype=object)[rng.integers(len(STOPWORDS), size=int(stop.sum()))]
    punct = rng.random(total) < 0.08
    words[punct] = words[punct] + ","
    out, pos = [], 0
    for length in lengths.tolist():
        chunk = words[pos:pos + length]
        pos += length
        out.append((" ".join(chunk)).capitalize() + ".")
    return out, total


def _edges(rng, n: int, shape: Shape) -> np.ndarray:
    """Distinct (source, target) pairs as a sorted array of source*n+target."""
    degree = np.minimum(rng.pareto(1.7, size=n) * shape.raw_edges_per_resource * 0.7, 2_000)
    degree = degree.astype(np.int64)
    sources = np.repeat(np.arange(n, dtype=np.int64), degree)
    popularity = rng.permutation(n)
    targets = popularity[rng.choice(n, size=sources.size, p=_zipf(n, 0.8, 10.0))]
    return np.unique(sources * n + targets)


def _serp(rng, n: int, keys: np.ndarray, popular: np.ndarray):
    """A result page about one focus resource and the query set around it."""
    focus = int(rng.integers(n))
    lo, hi = np.searchsorted(keys, [focus * n, (focus + 1) * n])
    neighbours = (keys[lo:hi] % n)[:20]
    pool = np.unique(np.concatenate([[focus], neighbours, rng.choice(popular, 10)]))
    docs = []
    for _ in range(SERP_DOCS):
        m = min(len(pool), 1 + int(rng.poisson(1.5)))
        docs.append(sorted(rng.choice(pool, size=m, replace=False).tolist()))
    extra = rng.choice(pool, size=int(rng.integers(0, 3)), replace=False).tolist()
    query = sorted({focus, *extra})
    return docs, query


def _write_bundle(out: Path, rng, shape: Shape, scale: float, vocab: list[str],
                  prefix: str, queries: int):
    """Write one bundle; return it, its sizes, and what grades are planted from:
    the shuffled ids, the edge keys and the first query's page and query set."""
    n = max(30, int(round(shape.resources * scale)))
    width = len(str(n - 1))
    # Ids are a shuffled labelling, so lexicographic order is unrelated to
    # the generation order.
    labels = rng.permutation(n)
    ids = [f"{prefix}r{int(k):0{width}d}" for k in labels]

    keys = _edges(rng, n, shape)
    preds_per_pair = 1 + rng.poisson(shape.extra_predicates, size=keys.size)
    first_pred = rng.integers(len(PREDICATES), size=keys.size)
    graph_lines = []
    for key, first, count in zip(keys.tolist(), first_pred.tolist(), preds_per_pair.tolist()):
        s, o = ids[key // n], ids[key % n]
        for k in range(count):
            graph_lines.append(f"{s}\t{PREDICATES[(first + k) % len(PREDICATES)]}\t{o}\n")
    out.mkdir(parents=True, exist_ok=True)
    graph = out / "graph.tsv"
    graph.write_text("".join(graph_lines), encoding="utf-8")

    texts = out / "texts.jsonl"
    text_list, tokens = _texts(rng, n, shape.tokens, vocab)
    texts.write_text("".join(
        json.dumps({"id": rid, "text": text}) + "\n" for rid, text in zip(ids, text_list)),
        encoding="utf-8")

    popular = np.argsort(np.bincount(keys % n, minlength=n))[::-1][:50]
    qs, first = [], None
    for qi in range(queries):
        docs, query = _serp(rng, n, keys, popular)
        serp, qfile = out / f"serp{qi}.tsv", out / f"query{qi}.txt"
        serp.write_text("".join(
            f"{rank}\tdoc{rank}\t{','.join(ids[i] for i in doc)}\n"
            for rank, doc in enumerate(docs, start=1)), encoding="utf-8")
        qfile.write_text("".join(ids[i] + "\n" for i in query), encoding="utf-8")
        qs.append(Query(serp=serp, query=qfile))
        first = first or (docs, query)

    bundle = Bundle(graph=graph, texts=texts, resource_ids=sorted(ids), queries=qs)
    sizes = np.array([n, len(graph_lines), keys.size, tokens])
    return bundle, sizes, (ids, keys, first)


def _planted_grades(n: int, ids: list[str], keys: np.ndarray, about) -> dict[str, int]:
    """Relevance planted around the first query: query resources 3, their
    successors and top-3 page mentions 2, other mentions 1, the rest 0."""
    docs, query = about
    grades = np.zeros(n, dtype=np.int64)
    for rank, doc in enumerate(docs, start=1):
        grades[doc] = np.maximum(grades[doc], 2 if rank <= 3 else 1)
    for q in query:
        lo, hi = np.searchsorted(keys, [q * n, (q + 1) * n])
        succ = keys[lo:hi] % n
        grades[succ] = np.maximum(grades[succ], 2)
    grades[query] = 3
    return {ids[i]: int(g) for i, g in enumerate(grades)}


def _write_judgments(path: Path, rng, planted: dict[str, int], per_item: int) -> int:
    items = sorted(planted)
    noise = np.where(rng.random(WORKERS) < 0.15,
                     rng.uniform(0.5, 0.8, WORKERS), rng.uniform(0.02, 0.15, WORKERS))
    trust_base = np.clip(1.0 - noise, 0.0, 1.0)
    per_item = min(per_item, WORKERS)
    picks = np.argpartition(rng.random((len(items), WORKERS)), per_item, axis=1)[:, :per_item]
    flip = rng.random(picks.shape) < noise[picks]
    # A slip lands on an adjacent grade, reflected at the ends of the scale.
    step = rng.choice((-1, 1), size=picks.shape)
    trust = np.clip(trust_base[picks] + rng.normal(0.0, 0.05, picks.shape), 0.0, 1.0)
    lines = []
    for row, item in enumerate(items):
        truth = planted[item]
        for col in range(per_item):
            grade = truth
            if flip[row, col]:
                grade = truth + step[row, col]
                grade = 1 if grade < 0 else 2 if grade > 3 else grade
            lines.append(
                f'{{"item": "{item}", "worker": "w{int(picks[row, col]):03d}", '
                f'"grade": {int(grade)}, "trust": {float(trust[row, col]):.3f}}}\n'
            )
    path.write_text("".join(lines), encoding="utf-8")
    return len(lines)


def generate(workload: str, seed: int, out: Path, scale: float = 1.0) -> Inputs:
    """Write the inputs of ``workload`` under ``out`` and describe them."""
    spec = WORKLOADS[workload]
    tag = list(WORKLOADS).index(workload)
    vocab = _vocabulary(_rng(seed, tag, 0), VOCAB)
    inputs = Inputs(bundles=[])
    totals = np.zeros(4, dtype=np.int64)
    planted: dict[str, int] = {}
    manifest_lines = []
    for b in range(spec.bundles):
        rng = _rng(seed, tag, 1 + b)
        prefix = f"b{b}" if spec.bundles > 1 else ""
        sub = out / prefix if prefix else out
        bundle, sizes, (ids, keys, about) = _write_bundle(
            sub, rng, spec.shape, scale, vocab, prefix, spec.queries)
        totals += sizes
        if spec.judges_per_item:
            grades = _planted_grades(len(ids), ids, keys, about)
            bundle.qrels = sub / "qrels.tsv"
            bundle.qrels.write_text(
                "".join(f"{k}\t{v}\n" for k, v in sorted(grades.items())), encoding="utf-8")
            planted.update(grades)
            q = bundle.queries[0]
            manifest_lines.append("\t".join(
                str(p.relative_to(out)) for p in
                (bundle.graph, bundle.texts, q.serp, q.query, bundle.qrels)) + "\n")
        inputs.bundles.append(bundle)
    inputs.sizes = {
        "resources": int(totals[0]),
        "triples": int(totals[1]),
        "distinct_edges": int(totals[2]),
        "tokens": int(totals[3]),
        "judgment_records": 0,
    }
    if spec.judges_per_item:
        inputs.manifest = out / "manifest.tsv"
        inputs.manifest.write_text("".join(manifest_lines), encoding="utf-8")
        inputs.judgments = out / "judgments.jsonl"
        inputs.sizes["judgment_records"] = _write_judgments(
            inputs.judgments, _rng(seed, tag, 99), planted, spec.judges_per_item)
        inputs.planted = planted
    return inputs
