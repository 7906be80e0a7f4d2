"""Reference computations the tests compare the package against.

Everything here is deliberately written along different routes than the
package: dense matrices instead of sparse operators, eigendecompositions
instead of power iterations, literal pair enumeration instead of
coincidence counting, plain Python loops instead of vectorized updates,
one reading loop per input file instead of the shared chunked readers.
"""

import json
import math
import re
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from ldrank.judgments import JudgmentSet
from ldrank.types import Distribution, InputFormatError, SparseMatrix


def normalized(weights):
    """The distribution proportional to non-negative ``weights``, not all zero."""
    w = np.asarray(weights, dtype=np.float64)
    return Distribution(w / w.sum())


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


def sparse_from_dense(dense):
    """The nonzero entries of a dense matrix as a ``SparseMatrix``, column
    by column with rows ascending, from ``np.nonzero`` of its transpose."""
    dense = np.asarray(dense, dtype=float)
    cols, rows = np.nonzero(dense.T)
    return SparseMatrix(dense.shape, rows, cols, dense[rows, cols])


def dense_from_sparse(matrix):
    """The dense matrix of a ``SparseMatrix``, one stored entry at a time."""
    dense = np.zeros(matrix.shape)
    for i, j, value in zip(matrix.rows.tolist(), matrix.cols.tolist(), matrix.data.tolist()):
        dense[i, j] += value
    return dense


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


def order_by_score_then_id(scores, resource_ids):
    """Indices by descending score, ties by ascending resource id."""
    return np.lexsort((np.array(resource_ids), -np.asarray(scores)))


def successor_lists(matrix):
    """Per row of a sparse matrix, the columns of its entries in stored
    order, one entry at a time."""
    out = [[] for _ in range(matrix.shape[0])]
    for i, j in zip(matrix.rows.tolist(), matrix.cols.tolist()):
        out[i].append(j)
    return out


def walk_matrix_from_mask(mask):
    """The walk matrix S of a dense 0/1 adjacency: each row's entries
    1 / its count, from ``np.nonzero`` of the mask."""
    mask = np.asarray(mask, dtype=bool)
    rows, cols = np.nonzero(mask)
    return SparseMatrix(mask.shape, rows, cols, 1.0 / mask.sum(axis=1)[rows])


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


def _widened_rank(s, k, rtol):
    """k, widened while sigma_k ties sigma_(k+1) above ``rtol`` * sigma_1."""
    while k < s.size and s[k - 1] > rtol * s[0] and s[k - 1] - s[k] <= rtol * s[0]:
        k += 1
    return k


def coordinate_norms_by_dense_svd(dense, k, rtol=1e-9):
    """Rank-k coordinate norms, k widened while sigma_k ties sigma_(k+1)."""
    u, s, _vt = np.linalg.svd(dense, full_matrices=False)
    k = _widened_rank(s, k, rtol)
    return np.linalg.norm(u[:, :k] * s[:k], axis=1)


def sigma_over_gap_by_dense_svd(dense, k, rtol=1e-9):
    """sigma_1 over the gap below the rank-k truncation: from the last
    singular value within the widened k that exceeds ``rtol`` * sigma_1 to
    the next one, which is 0 past the last; 1 for a zero matrix."""
    s = np.linalg.svd(dense, compute_uv=False)
    kept = [x for x in s[:_widened_rank(s, k, rtol)] if x > rtol * s[0]]
    if not kept:
        return 1.0
    below = s[len(kept)] if len(kept) < s.size else 0.0
    return s[0] / (kept[-1] - below)


def latent_prior_by_dense_svd(dense, info_need, k, stress):
    """The latent-drift prior: growth of each rank-k coordinate norm when
    the ``info_need`` rows are multiplied by ``stress``, normalized.

    A drift no larger than the error an SVD solver can leave in a norm
    counts as none: 64 float64 epsilons of the largest norm of either
    matrix, times the larger ``sigma_over_gap_by_dense_svd`` of the two,
    since a singular subspace is off by its residual over the gap below
    it.  The uniform distribution when nothing drifts, or when k exceeds
    min(rows, columns), an empty vocabulary included."""
    n = dense.shape[0]
    uniform = np.full(n, 1.0 / n)
    if k > min(dense.shape):
        return uniform
    stressed = dense.copy()
    for i in info_need:
        stressed[i] *= stress
    prev = coordinate_norms_by_dense_svd(dense, k)
    after = coordinate_norms_by_dense_svd(stressed, k)
    ratio = max(sigma_over_gap_by_dense_svd(m, k) for m in (dense, stressed))
    noise = 64 * np.finfo(np.float64).eps * max(prev.max(), after.max()) * ratio
    drift = np.where(after - prev > noise, after - prev, 0.0)
    total = drift.sum()
    return uniform if total == 0.0 else drift / total


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
    """First grade at full value, grade at position i >= 2 over log2(i),
    added in position order: the float64 sum of one cutoff alone."""
    grades = list(grades)[: min(r, len(grades))]
    total = float(grades[0])
    for pos in range(2, len(grades) + 1):
        total += grades[pos - 1] / math.log2(pos)
    return total


def ndcg_by_direct_formula(ranked, r):
    """The direct-formula gain of ``ranked`` over that of its descending
    sort, or 1.0 when that ideal gain is 0."""
    ideal = gain_by_direct_formula(sorted(ranked, reverse=True), r)
    return 1.0 if ideal == 0.0 else gain_by_direct_formula(ranked, r) / ideal


# ---------------------------------------------------------------- agreement

def _distance_by_rule(g, h):
    """The distance between grades ``g`` and ``h`` of the 0..3 scale, by its
    rule: a non-relevant 0 against a relevant h costs 0.5 + 0.25 (h - 1),
    two relevant grades 0.25 per step."""
    low, high = sorted((g, h))
    if low == 0 < high:
        return 0.5 + 0.25 * (high - 1)
    return 0.25 * (high - low)


#: ``table[g][h]``: the scale's distances, stated apart from the package's.
RELEVANCE_DISTANCE_BY_RULE = [[_distance_by_rule(g, h) for h in range(4)] for g in range(4)]


def alpha_by_pair_enumeration(item_grades, table):
    """Agreement coefficient by literally enumerating ordered grade pairs.

    ``item_grades`` maps item -> list of grades; ``table`` is indexable as
    ``table[a][b]``.
    """
    units = [grades for grades in item_grades.values() if len(grades) >= 2]
    if not units:
        raise ValueError("no item has two or more judgments; alpha is undefined")
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
        grouped[rec["item"]].append(rec["grade"])
    return dict(grouped)


def _records_by_item(records):
    grouped = defaultdict(list)
    for rec in records:
        grouped[rec["item"]].append(rec)
    return dict(grouped)


def kept_records_by_counter(records, threshold):
    """Records of the workers whose rate against strict per-item majorities
    is at most ``threshold``, majorities taken over all records."""
    majority = {}
    for item, recs in _records_by_item(records).items():
        top = Counter(rec["grade"] for rec in recs).most_common()
        if len(top) == 1 or top[0][1] > top[1][1]:
            majority[item] = top[0][0]
    judged = defaultdict(int)
    against = defaultdict(int)
    for rec in records:
        if rec["item"] not in majority:
            continue
        judged[rec["worker"]] += 1
        if rec["grade"] != majority[rec["item"]]:
            against[rec["worker"]] += 1
    dropped = {
        worker
        for worker in {rec["worker"] for rec in records}
        if judged[worker] and against[worker] / judged[worker] > threshold
    }
    return [rec for rec in records if rec["worker"] not in dropped]


def majority_grades_by_counter(records, tie_break):
    """Item -> modal grade, items in order of first record; ties to the
    highest grade, or to the highest mean trust of the supporters."""
    if tie_break == "mean-trust":
        for rec in records:
            if rec.get("trust") is None:
                raise ValueError(
                    f"mean-trust tie-breaking needs trust values; record for item "
                    f"{rec['item']!r} by worker {rec['worker']!r} has none"
                )
    grades = {}
    for item, recs in _records_by_item(records).items():
        counts = Counter(rec["grade"] for rec in recs)
        best = max(counts.values())
        tied = sorted(g for g, c in counts.items() if c == best)
        if len(tied) == 1 or tie_break == "highest-value":
            grades[item] = tied[-1]
            continue
        mean_trust = {
            g: float(np.mean([rec["trust"] for rec in recs if rec["grade"] == g]))
            for g in tied
        }
        top_trust = max(mean_trust.values())
        grades[item] = max(g for g in tied if mean_trust[g] == top_trust)
    return grades


# ---------------------------------------------------------------- pipeline

def hit_weights_by_loop(serp_size, mentions, n):
    """Raw visibility weights: rank r on a page of N docs is worth N+1-r to
    each resource it mentions, once however often it names it."""
    scores = np.zeros(n)
    for idx, rank in set(map(tuple, mentions.tolist())):
        scores[idx] += serp_size + 1 - rank
    return scores


def dense_pipeline_scores(bundle, tokenize_fn, name="LDRANK", alpha=0.7, k=1, stress=1000.0,
                          damping=0.5, epsilon=1e-9, bidirectional=False, max_iters=10000):
    """End-to-end dense reimplementation of the ranking of strategy
    ``name``: the stationary vector, by a dense eigendecomposition, of the
    walk whose teleport and dangling fill are the strategy's prior.

    EQUI's prior is uniform and HIT's the visibility weights of
    ``hit_weights_by_loop``, or uniform when nothing is mentioned.  SVD's is
    ``latent_prior_by_dense_svd`` of the counts of ``stem_counts_by_counter``
    with the query plus the first top hit under stress, which is uniform for
    a k above the rank bound or an empty vocabulary and for drifts of
    solver error alone.  LDRANK's is the mean of ``consensus_by_loops``
    over the hit, latent and uniform priors, after at most ``max_iters``
    steps.  The walk moves along the distinct (subject, object) pairs, each
    mirrored with ``bidirectional``."""
    n = bundle.n
    equi = np.full(n, 1.0 / n)
    raw = hit_weights_by_loop(bundle.serp_size, bundle.mentions, n)
    hit = raw / raw.sum() if raw.sum() > 0 else equi.copy()
    prior = {"EQUI": equi, "HIT": hit}.get(name)
    if prior is None:
        info_need = set(bundle.query) | {int(np.argmax(hit))}
        _vocab, counts = stem_counts_by_counter(bundle.texts, tokenize_fn)
        prior = latent_prior_by_dense_svd(counts, info_need, k, stress)
    if name == "LDRANK":
        prior = consensus_mean_by_loops([hit, prior, equi], damping, epsilon, max_iters)

    pairs = {(int(s), int(o)) for s, o in bundle.graph_edges}
    if bidirectional:
        pairs |= {(o, s) for s, o in pairs}
    out_edges = edges_to_out_lists(n, pairs)
    walk = dense_walk_matrix(out_edges, alpha, prior, prior)
    return stationary_by_eig(walk)


# ---------------------------------------------------------------- input files
#
# One loop per file format, each reading and checking one line at a time.


def lines_of_file(path):
    """Yield ``(line_no, line)`` for each line of a UTF-8 file, read whole:
    lines end at ``\n``, ``\r\n`` or ``\r`` and are numbered from 1.  At
    the first undecodable byte the text is cut after the last line end
    before it, its lines are yielded, and ``InputFormatError`` is raised at
    line 0."""
    data = Path(path).read_bytes()
    try:
        text, fault = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        fault = exc
        text = data[:exc.start].decode("utf-8")
        text = text[:max(text.rfind("\n"), text.rfind("\r")) + 1]
    lines = re.split(r"\r\n|\r|\n", text)
    if not lines[-1]:  # the text ends with a line end, or is empty
        lines.pop()
    yield from enumerate(lines, 1)
    if fault:
        raise InputFormatError(path, 0, f"not valid UTF-8 ({fault.reason})")


def _json_fault(exc):
    """The reason for a line ``json.loads`` rejects: malformed, nested too
    deep, or an integer with more digits than ``int`` converts."""
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON ({exc.msg})"
    if isinstance(exc, RecursionError):
        return f"invalid JSON ({exc})"
    return "invalid JSON (an integer with too many digits)"


def _records_by_line(path, numbered_lines):
    """Validate ``(line_no, line)`` pairs one line at a time.

    Yields one record mapping per non-blank line and raises
    ``InputFormatError`` at the first bad line; an item id at fault is
    bad on the first line that names it.
    """
    seen = set()
    for line_no, raw in numbered_lines:
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise InputFormatError(path, line_no, _json_fault(exc)) from exc
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
        if trust is not None and (isinstance(trust, bool) or not isinstance(trust, (int, float))):
            raise InputFormatError(path, line_no, 'field "trust" must be numeric')
        try:
            trust = None if trust is None else float(trust)
        except OverflowError as exc:
            raise InputFormatError(path, line_no, "trust must lie in [0, 1]") from exc
        if grade not in (0, 1, 2, 3):
            raise InputFormatError(
                path, line_no, f"grade must be one of (0, 1, 2, 3), got {shown_int(grade)}"
            )
        if trust is not None and not 0.0 <= trust <= 1.0:
            raise InputFormatError(path, line_no, f"trust must lie in [0, 1], got {trust}")
        if item not in seen:
            seen.add(item)
            fault = item_id_fault(item)
            if fault:
                raise InputFormatError(path, line_no, fault)
        yield {"item": item, "worker": worker, "grade": grade, "trust": trust}


def judgments_by_line(path):
    """The per-line loop over the whole file, as ``load_judgments`` ran it
    before chunking; a repeated pair is reported at the first line that
    repeats one."""
    records = list(_records_by_line(path, lines_of_file(path)))
    seen = set()
    numbers = (line_no for line_no, line in lines_of_file(path) if line.strip())
    for line_no, record in zip(numbers, records):
        pair = record["item"], record["worker"]
        if pair in seen:
            raise InputFormatError(path, line_no, f"duplicate judgment for item "
                                   f"{shown(pair[0])} by worker {shown(pair[1])}")
        seen.add(pair)
    return JudgmentSet.from_records(records)


def item_id_fault(item):
    """Why a non-empty ``str`` cannot be an item id, character by
    character, or None: a qrels line cannot hold it."""
    if any(ch in "\t\n\r" for ch in item):
        return f"item id {shown(item)} holds a tab or line break"
    if item.lstrip().startswith("#"):
        return f"item id {shown(item)} starts with '#'"
    if any("\ud800" <= ch <= "\udfff" for ch in item):
        return f"item id {shown(item)} is not valid in UTF-8"
    return None


def shown(text):
    """``text`` as an error echoes it: in full up to 40 characters, else its
    first 40 and its length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def shown_int(value):
    """An integer as an error echoes it: in full up to 40 digits, else its
    sign, first 40 digits and digit count."""
    text = str(value)
    digits = text.lstrip("-")
    if len(digits) <= 40:
        return text
    return f"{text[:len(text) - len(digits) + 40]}... ({len(digits)} digits)"


def int_by_builtin(text, path, line_no, what):
    """``text`` as ``int`` reads it.  Digits that ``int`` refuses are refused
    for their number alone: an integer with too many digits."""
    try:
        return int(text)
    except ValueError:
        digits = text[text.startswith("-"):].isdigit()
        reason = "is an integer with too many digits" if digits else "is not an integer"
        raise InputFormatError(path, line_no, f"{what} {shown(text)} {reason}") from None


def _resource_id_by_split(token, path, line_no, what):
    if not token:
        raise InputFormatError(path, line_no, f"empty {what}")
    if token.split() != [token]:
        raise InputFormatError(path, line_no, f"{what} {shown(token)} contains whitespace")
    return token


def texts_by_line(path):
    """The id-to-text table of a JSON Lines texts file."""
    texts = {}
    for line_no, raw in lines_of_file(path):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise InputFormatError(path, line_no, _json_fault(exc)) from exc
        if not isinstance(record, dict):
            raise InputFormatError(path, line_no, "expected a JSON object")
        rid = record.get("id")
        text = record.get("text")
        if not isinstance(rid, str) or not isinstance(text, str):
            raise InputFormatError(
                path, line_no, 'expected string fields "id" and "text"'
            )
        _resource_id_by_split(rid, path, line_no, "resource id")
        try:
            rid.encode("utf-8")
        except UnicodeEncodeError:
            raise InputFormatError(path, line_no,
                                   f"resource id {shown(rid)} is not valid in UTF-8") from None
        if "," in rid:
            raise InputFormatError(path, line_no, f"resource id {shown(rid)} contains ','")
        if rid in texts:
            raise InputFormatError(path, line_no, f"duplicate resource id {shown(rid)}")
        texts[rid] = text
    return texts


def graph_triples_by_line(path):
    """Yield ``(line_no, subject, predicate, object)`` for each triple of a
    graph file, as its line is checked."""
    for line_no, raw in lines_of_file(path):
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
        yield line_no, subject, predicate, obj


def _resolved(index, rid, role, path, line_no):
    """``rid``'s index in ``index``, else the fault of a dangling id."""
    if rid not in index:
        reason = f"{role} {shown(rid)} has no entry in the texts table"
        raise InputFormatError(path, line_no, reason)
    return index[rid]


def graph_ids_by_line(path, index):
    """The subject and object indices of a graph file's triples, in turn,
    each endpoint resolved in ``index`` as its line is checked."""
    ids = []
    for line_no, subject, _predicate, obj in graph_triples_by_line(path):
        ids.append(_resolved(index, subject, "graph subject", path, line_no))
        ids.append(_resolved(index, obj, "graph object", path, line_no))
    return ids


def serp_by_line(path):
    """The ``(line_no, [resource ids])`` of each result, in rank order."""
    rows = {}
    for line_no, raw in lines_of_file(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            raise InputFormatError(
                path, line_no, f"expected 3 tab-separated fields, got {len(fields)}"
            )
        rank_text, doc_id, mention_text = fields
        rank = int_by_builtin(rank_text, path, line_no, "rank")
        if rank < 1:
            raise InputFormatError(path, line_no, f"rank must be positive, got {shown_int(rank)}")
        if rank in rows:
            raise InputFormatError(path, line_no, f"duplicate rank {shown_int(rank)}")
        if not doc_id:
            raise InputFormatError(path, line_no, "empty document id")
        mentions = []
        if mention_text:
            for token in mention_text.split(","):
                mentions.append(_resource_id_by_split(token, path, line_no, "resource id"))
        rows[rank] = (line_no, mentions)
    expected = set(range(1, len(rows) + 1))
    if set(rows) != expected:
        missing = sorted(expected - set(rows))
        raise InputFormatError(path, 0, f"ranks are not contiguous from 1; missing {missing}")
    return [rows[r] for r in sorted(rows)]


def query_by_line(path):
    """The resource ids of a query file, each with the first line it is on."""
    resources = {}
    for line_no, raw in lines_of_file(path):
        line = raw.strip()
        if not line:
            continue
        rid = _resource_id_by_split(line, path, line_no, "resource id")
        if rid not in resources:
            resources[rid] = line_no
    return resources


def bundle_by_line(graph_path, texts_path, serp_path, query_path):
    """The fields of the bundle of four files, as lists: the texts file is
    read, then the result page, then the query file; then the graph, each
    endpoint resolved as its line is checked; then the query entries, in
    id order, and the mentions, in rank order, are resolved, each at its
    line.  With no resource at all, the texts file is at fault."""
    texts = texts_by_line(texts_path)
    serp = serp_by_line(serp_path)
    query = query_by_line(query_path)
    ids = sorted(texts)
    index = {rid: k for k, rid in enumerate(ids)}
    edges = graph_ids_by_line(graph_path, index)
    entries = sorted(_resolved(index, rid, "query resource", query_path, line_no)
                     for rid, line_no in sorted(query.items()))
    mentions = [[_resolved(index, rid, "result-page resource", serp_path, line_no), rank]
                for rank, (line_no, rids) in enumerate(serp, start=1) for rid in rids]
    if not ids:
        raise InputFormatError(texts_path, 0, "need at least one resource")
    pairs = [edges[k:k + 2] for k in range(0, len(edges), 2)]
    return ids, pairs, [texts[rid] for rid in ids], len(serp), mentions, entries


def qrels_by_line(path, valid_grades=(0, 1, 2, 3)):
    """The item-to-grade table of a qrels file."""
    grades = {}
    for line_no, line in lines_of_file(path):
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
        grade = int_by_builtin(grade_text, path, line_no, "grade")
        if grade not in valid_grades:
            raise InputFormatError(
                path, line_no, f"grade must be one of {valid_grades}, got {shown_int(grade)}"
            )
        if item in grades:
            raise InputFormatError(path, line_no, f"duplicate item {shown(item)}")
        grades[item] = grade
    return grades


def manifest_by_line(path):
    """Per manifest line, its number and five paths relative to the
    manifest's directory."""
    base = Path(path).parent
    entries = []
    for line_no, line in lines_of_file(path):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise InputFormatError(
                path, line_no, f"expected 5 tab-separated paths, got {len(fields)}"
            )
        entries.append((line_no, tuple(base / f for f in fields)))
    return entries
