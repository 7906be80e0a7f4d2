"""Reference computations the tests compare the package against.

Everything here is deliberately written along different routes than the
package: dense matrices instead of sparse operators, eigendecompositions
instead of power iterations, literal pair enumeration instead of
coincidence counting, plain Python loops instead of vectorized updates,
one reading loop per input file instead of the shared chunked readers.
"""

import json
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from ldrank.judgments import JudgmentRecord
from ldrank.types import InputFormatError, read_lines


# ---------------------------------------------------------------- texts

def stem_counts_by_counter(texts, tokenize_fn):
    """Sorted stem vocabulary and the dense texts-by-stems count matrix,
    from one Counter per text."""
    per_text = [Counter(tokenize_fn(text)) for text in texts]
    vocab = sorted(set().union(*per_text))
    col = {s: j for j, s in enumerate(vocab)}
    dense = np.zeros((len(texts), len(vocab)))
    for i, counts in enumerate(per_text):
        for s, c in counts.items():
            dense[i, col[s]] = c
    return vocab, dense


# ---------------------------------------------------------------- walks

def dense_transition(out_edges, dangling_fill):
    """Row-stochastic matrix with dangling rows replaced by the fill."""
    n = len(out_edges)
    m = np.zeros((n, n))
    for i, succ in enumerate(out_edges):
        succ = list(succ)
        if succ:
            for j in succ:
                m[i, j] = 1.0 / len(succ)
        else:
            m[i, :] = dangling_fill
    return m


def dense_walk_matrix(out_edges, alpha, teleport, dangling_fill):
    n = len(out_edges)
    s = dense_transition(out_edges, dangling_fill)
    return alpha * s + (1.0 - alpha) * np.outer(np.ones(n), teleport)


def stationary_by_eig(walk_matrix):
    """Left stationary vector via a dense eigendecomposition."""
    vals, vecs = np.linalg.eig(walk_matrix.T)
    idx = np.argmin(np.abs(vals - 1.0))
    v = np.real(vecs[:, idx])
    return v / v.sum()


def edges_to_out_lists(n, pairs):
    out = [set() for _ in range(n)]
    for i, j in pairs:
        out[i].add(j)
    return [sorted(s) for s in out]


# ---------------------------------------------------------------- SVD

def singular_values_by_gram(dense):
    """All singular values, descending, via the Gram matrix eigenvalues."""
    m, n = dense.shape
    gram = dense @ dense.T if m <= n else dense.T @ dense
    evals = np.linalg.eigvalsh(gram)
    return np.sqrt(np.clip(evals, 0.0, None))[::-1]


def truncation_residual_by_gram(dense, k):
    """Frobenius norm of the rank-k truncation error."""
    s = singular_values_by_gram(dense)
    return float(np.sqrt((s[k:] ** 2).sum()))


def coordinate_norms_by_dense_svd(dense, k, rtol=1e-9):
    """Rank-k coordinate norms, k widened while sigma_k ties sigma_(k+1)."""
    u, s, _vt = np.linalg.svd(dense, full_matrices=False)
    while k < s.size and s[k - 1] > rtol * s[0] and s[k - 1] - s[k] <= rtol * s[0]:
        k += 1
    return np.linalg.norm(u[:, :k] * s[:k], axis=1)


def latent_prior_by_dense_svd(dense, info_need, k, stress):
    prev = coordinate_norms_by_dense_svd(dense, k)
    stressed = dense.copy()
    for i in info_need:
        stressed[i] *= stress
    after = coordinate_norms_by_dense_svd(stressed, k)
    drift = np.maximum(after - prev, 0.0)
    total = drift.sum()
    if total == 0.0:
        n = dense.shape[0]
        return np.full(n, 1.0 / n)
    return drift / total


# ---------------------------------------------------------------- consensus

def consensus_by_loops(experts, damping=0.5, epsilon=1e-9, max_iters=10000):
    """Pure-Python consensus pooling; returns (rows, iterations, converged)."""
    rows = [[float(x) for x in e] for e in experts]
    m = len(rows)
    n = len(rows[0])

    def tv(p, q):
        return 0.5 * sum(abs(a - b) for a, b in zip(p, q))

    iterations = 0
    while True:
        worst = 0.0
        for i in range(m):
            for j in range(i + 1, m):
                worst = max(worst, tv(rows[i], rows[j]))
        if worst < epsilon:
            return rows, iterations, True
        if iterations >= max_iters:
            return rows, iterations, False
        new_rows = []
        for i in range(m):
            dists = [tv(rows[i], rows[j]) if j != i else 0.0 for j in range(m)]
            total = sum(dists)
            if total == 0.0:
                pulled = rows[i][:]
            else:
                weights = [d / total for d in dists]
                pulled = [
                    sum(weights[j] * rows[j][c] for j in range(m)) for c in range(n)
                ]
            new_rows.append(
                [
                    (1.0 - damping) * rows[i][c] + damping * pulled[c]
                    for c in range(n)
                ]
            )
        rows = new_rows
        iterations += 1


def consensus_mean_by_loops(experts, damping=0.5, epsilon=1e-9, max_iters=10000):
    rows, _its, _conv = consensus_by_loops(experts, damping, epsilon, max_iters)
    m = len(rows)
    return np.array([sum(r[c] for r in rows) / m for c in range(len(rows[0]))])


# ---------------------------------------------------------------- metrics

def gain_by_direct_formula(grades, r):
    """First grade at full value, grade at position i >= 2 over log2(i)."""
    grades = list(grades)[: min(r, len(grades))]
    total = float(grades[0])
    for pos in range(2, len(grades) + 1):
        total += grades[pos - 1] / np.log2(pos)
    return total


# ---------------------------------------------------------------- agreement

def alpha_by_pair_enumeration(item_grades, table):
    """Agreement coefficient by literally enumerating ordered grade pairs.

    ``item_grades`` maps item -> list of grades; ``table`` is indexable as
    ``table[a][b]``.
    """
    units = [grades for grades in item_grades.values() if len(grades) >= 2]
    if not units:
        raise ValueError("nothing pairable")
    n_total = sum(len(g) for g in units)

    observed = 0.0
    for grades in units:
        m = len(grades)
        within = sum(
            table[a][b]
            for i, a in enumerate(grades)
            for j, b in enumerate(grades)
            if i != j
        )
        observed += within / (m - 1)
    observed /= n_total

    pooled = [g for grades in units for g in grades]
    expected = sum(
        table[a][b]
        for i, a in enumerate(pooled)
        for j, b in enumerate(pooled)
        if i != j
    )
    expected /= n_total * (n_total - 1)
    if expected == 0.0:
        return 1.0
    return 1.0 - observed / expected


def records_to_item_grades(records):
    grouped = defaultdict(list)
    for rec in records:
        grouped[rec.item].append(rec.grade)
    return dict(grouped)


def _records_by_item(records):
    grouped = defaultdict(list)
    for rec in records:
        grouped[rec.item].append(rec)
    return dict(grouped)


def alpha_by_item_loop(records, table):
    """Agreement coefficient, one item's coincidences added at a time."""
    pairable = [
        [rec.grade for rec in recs]
        for recs in _records_by_item(records).values()
        if len(recs) >= 2
    ]
    if not pairable:
        raise ValueError("no item has two or more judgments; alpha is undefined")
    coincidence = np.zeros((4, 4))
    for grades in pairable:
        m = len(grades)
        counts = np.bincount(grades, minlength=4).astype(np.float64)
        coincidence += (np.outer(counts, counts) - np.diag(counts)) / (m - 1)
    total = coincidence.sum()
    margins = coincidence.sum(axis=0)
    observed = float((coincidence * table).sum()) / total
    expected = float((np.outer(margins, margins) * table).sum()) / (
        total * (total - 1.0)
    )
    if expected == 0.0:
        return 1.0
    return 1.0 - observed / expected


def kept_records_by_counter(records, threshold):
    """Records of the workers whose rate against strict per-item majorities
    is at most ``threshold``, majorities taken over all records."""
    majority = {}
    for item, recs in _records_by_item(records).items():
        top = Counter(rec.grade for rec in recs).most_common()
        if len(top) == 1 or top[0][1] > top[1][1]:
            majority[item] = top[0][0]
    judged = defaultdict(int)
    against = defaultdict(int)
    for rec in records:
        if rec.item not in majority:
            continue
        judged[rec.worker] += 1
        if rec.grade != majority[rec.item]:
            against[rec.worker] += 1
    dropped = {
        worker
        for worker in {rec.worker for rec in records}
        if judged[worker] and against[worker] / judged[worker] > threshold
    }
    return [rec for rec in records if rec.worker not in dropped]


def majority_grades_by_counter(records, tie_break):
    """Item -> modal grade, items in order of first record; ties to the
    highest grade, or to the highest mean trust of the supporters."""
    if tie_break == "mean-trust":
        for rec in records:
            if rec.trust is None:
                raise ValueError(
                    f"mean-trust tie-breaking needs trust values; record for item "
                    f"{rec.item!r} by worker {rec.worker!r} has none"
                )
    grades = {}
    for item, recs in _records_by_item(records).items():
        counts = Counter(rec.grade for rec in recs)
        best = max(counts.values())
        tied = sorted(g for g, c in counts.items() if c == best)
        if len(tied) == 1 or tie_break == "highest-value":
            grades[item] = tied[-1]
            continue
        mean_trust = {
            g: float(np.mean([rec.trust for rec in recs if rec.grade == g]))
            for g in tied
        }
        top_trust = max(mean_trust.values())
        grades[item] = max(g for g in tied if mean_trust[g] == top_trust)
    return grades


# ---------------------------------------------------------------- pipeline

def hit_weights_by_loop(serp_docs_total, occurrences, n):
    """Raw visibility weights: rank r on a page of N docs is worth N+1-r."""
    scores = np.zeros(n)
    for idx, ranks in occurrences.items():
        scores[idx] = float(sum(serp_docs_total + 1 - r for r in ranks))
    return scores


def dense_pipeline_scores(bundle, tokenize_fn, alpha=0.7, k=1, stress=1000.0,
                          damping=0.5, epsilon=1e-9):
    """End-to-end dense reimplementation of the full ranking pipeline."""
    n = bundle.n
    equi = np.full(n, 1.0 / n)

    raw = hit_weights_by_loop(len(bundle.serp.docs), bundle.serp.occurrences, n)
    hit = raw / raw.sum() if raw.sum() > 0 else equi.copy()

    info_need = set(bundle.query)
    info_need.add(int(np.argmax(hit)))

    _vocab, counts = stem_counts_by_counter(bundle.texts, tokenize_fn)
    latent = latent_prior_by_dense_svd(counts, info_need, k, stress)
    final = consensus_mean_by_loops([hit, latent, equi], damping, epsilon)

    pairs = {(int(s), int(o)) for s, o in bundle.graph_edges}
    out_edges = edges_to_out_lists(n, pairs)
    walk = dense_walk_matrix(out_edges, alpha, final, final)
    return stationary_by_eig(walk)


# ---------------------------------------------------------------- input files
#
# One loop per file format, each reading and checking one line at a time.


def _records_by_line(path, numbered_lines):
    """Validate ``(line_no, line)`` pairs one line at a time.

    Yields one ``JudgmentRecord`` per non-blank line and raises
    ``InputFormatError`` at the first bad line.
    """
    for line_no, raw in numbered_lines:
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InputFormatError(path, line_no, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise InputFormatError(path, line_no, "expected a JSON object")
        item = obj.get("item")
        worker = obj.get("worker")
        grade = obj.get("grade")
        trust = obj.get("trust")
        if not isinstance(item, str) or not item:
            raise InputFormatError(path, line_no, 'missing or invalid "item"')
        if not isinstance(worker, str) or not worker:
            raise InputFormatError(path, line_no, 'missing or invalid "worker"')
        if isinstance(grade, bool) or not isinstance(grade, int):
            raise InputFormatError(path, line_no, 'field "grade" must be an integer')
        if trust is not None and not isinstance(trust, (int, float)):
            raise InputFormatError(path, line_no, 'field "trust" must be numeric')
        try:
            trust = None if trust is None else float(trust)
        except OverflowError as exc:
            raise InputFormatError(path, line_no, "trust must lie in [0, 1]") from exc
        try:
            record = JudgmentRecord(item=item, worker=worker, grade=grade, trust=trust)
        except ValueError as exc:
            raise InputFormatError(path, line_no, str(exc)) from exc
        yield record


def _resource_id_by_split(token, path, line_no, what):
    if not token:
        raise InputFormatError(path, line_no, f"empty {what}")
    if token.split() != [token]:
        raise InputFormatError(path, line_no, f"{what} {token!r} contains whitespace")
    return token


def texts_by_line(path):
    """The id-to-text table of a JSON Lines texts file."""
    texts = {}
    for line_no, raw in read_lines(path):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InputFormatError(path, line_no, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise InputFormatError(path, line_no, "expected a JSON object")
        rid = record.get("id")
        text = record.get("text")
        if not isinstance(rid, str) or not isinstance(text, str):
            raise InputFormatError(
                path, line_no, 'expected string fields "id" and "text"'
            )
        _resource_id_by_split(rid, path, line_no, "resource id")
        if "," in rid:
            raise InputFormatError(path, line_no, f"resource id {rid!r} contains ','")
        if rid in texts:
            raise InputFormatError(path, line_no, f"duplicate resource id {rid!r}")
        texts[rid] = text
    return texts


def graph_triples_by_line(path):
    """The ``(subject, predicate, object)`` triples of a graph file."""
    triples = []
    for line_no, raw in read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            raise InputFormatError(
                path, line_no, f"expected 3 tab-separated fields, got {len(fields)}"
            )
        subject, predicate, obj = fields
        _resource_id_by_split(subject, path, line_no, "subject")
        _resource_id_by_split(obj, path, line_no, "object")
        if not predicate:
            raise InputFormatError(path, line_no, "empty predicate")
        triples.append((subject, predicate, obj))
    return triples


def serp_by_line(path):
    """``(doc_id, [resource ids])`` per result, in rank order."""
    rows = {}
    for line_no, raw in read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            raise InputFormatError(
                path, line_no, f"expected 3 tab-separated fields, got {len(fields)}"
            )
        rank_text, doc_id, mention_text = fields
        try:
            rank = int(rank_text)
        except ValueError:
            raise InputFormatError(path, line_no, f"rank {rank_text!r} is not an integer")
        if rank < 1:
            raise InputFormatError(path, line_no, f"rank must be positive, got {rank}")
        if rank in rows:
            raise InputFormatError(path, line_no, f"duplicate rank {rank}")
        if not doc_id:
            raise InputFormatError(path, line_no, "empty document id")
        mentions = []
        if mention_text:
            for token in mention_text.split(","):
                mentions.append(_resource_id_by_split(token, path, line_no, "resource id"))
        rows[rank] = (doc_id, mentions)
    expected = set(range(1, len(rows) + 1))
    if set(rows) != expected:
        missing = sorted(expected - set(rows))
        raise InputFormatError(path, 0, f"ranks are not contiguous from 1; missing {missing}")
    return [rows[r] for r in sorted(rows)]


def query_by_line(path):
    """The set of resource ids of a query file."""
    resources = set()
    for line_no, raw in read_lines(path):
        line = raw.strip()
        if not line:
            continue
        resources.add(_resource_id_by_split(line, path, line_no, "resource id"))
    return resources


def qrels_by_line(path, valid_grades=(0, 1, 2, 3)):
    """The item-to-grade table of a qrels file."""
    grades = {}
    for line_no, line in read_lines(path):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise InputFormatError(
                path, line_no, f"expected 2 tab-separated fields, got {len(fields)}"
            )
        item, grade_text = fields
        if not item:
            raise InputFormatError(path, line_no, "empty item id")
        try:
            grade = int(grade_text)
        except ValueError:
            raise InputFormatError(path, line_no, f"grade {grade_text!r} is not an integer")
        if grade not in valid_grades:
            raise InputFormatError(
                path, line_no, f"grade must be one of {valid_grades}, got {grade}"
            )
        if item in grades:
            raise InputFormatError(path, line_no, f"duplicate item {item!r}")
        grades[item] = grade
    return grades


def manifest_by_line(path):
    """Five paths per manifest line, relative to the manifest's directory."""
    base = Path(path).parent
    entries = []
    for line_no, line in read_lines(path):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise InputFormatError(
                path, line_no, f"expected 5 tab-separated paths, got {len(fields)}"
            )
        entries.append(tuple(base / f for f in fields))
    return entries
