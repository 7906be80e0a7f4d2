"""Crowdsourced relevance judgments: reliability, filtering, aggregation.

A judgment set is a flat list of (item, worker, grade) records, at most one
per item-worker pair, with grades on the 0..3 relevance scale and an
optional per-record worker trust value in [0, 1].  ``JudgmentSet`` holds
the records as columns: the distinct item and worker ids in order of first
use, one item code, worker code, grade and trust per record in file order,
with NaN for a missing trust.

Each rule on the records has one home: ``_checked_columns`` checks the
types of the fields, ``JudgmentSet`` their values.  ``load_judgments``, a
``types.read_objects`` chunk at a time, and ``JudgmentSet.from_records``
both run the two in turn, so they reject the same records with the same
reasons.  ``JudgmentRecord`` has no rules.

``krippendorff_alpha`` measures inter-rater reliability with one fixed
distance between grades, ``RELEVANCE_DISTANCE``; ``filter_workers`` drops
workers who disagree too often with per-item majorities; ``majority_vote``
collapses the records to one grade per item.  All three work on the
item-by-grade count matrix, built with one ``np.bincount``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .evaluation import VALID_GRADES, RelevanceJudgments
from .types import InputFormatError, integer_array, parse_int, read_objects, read_rows

__all__ = [
    "FILTER_THRESHOLD",
    "JudgmentRecord",
    "JudgmentSet",
    "RELEVANCE_DISTANCE",
    "krippendorff_alpha",
    "filter_workers",
    "majority_vote",
    "load_judgments",
    "load_qrels",
    "format_qrels",
]

#: Default majority-disagreement rate above which ``filter_workers`` drops a worker.
FILTER_THRESHOLD = 0.412

_N_GRADES = len(VALID_GRADES)


@dataclass(frozen=True)
class JudgmentRecord:
    """One judgment; a plain record, checked by ``JudgmentSet.from_records``."""

    item: str
    worker: str
    grade: int
    trust: float | None = None


@dataclass(frozen=True, eq=False)
class JudgmentSet:
    """All records of one collection task; one record per item-worker pair.

    ``item_codes[r]`` and ``worker_codes[r]`` index ``item_ids`` and
    ``worker_ids``, which hold distinct non-empty strings; every id is used
    by some record.  ``trust`` is NaN where a record has none.  The value
    rules live here: construction checks the columns, each record with
    ``_bad_record``, then that no item-worker pair repeats.
    """

    item_ids: tuple[str, ...]
    worker_ids: tuple[str, ...]
    item_codes: np.ndarray
    worker_codes: np.ndarray
    grades: np.ndarray
    trust: np.ndarray

    def __post_init__(self):
        columns = {
            name: integer_array(getattr(self, name), name).astype(np.intp)
            for name in ("item_codes", "worker_codes", "grades")
        }
        trust = np.asarray(self.trust)
        if trust.size and trust.dtype.kind not in "iuf":
            raise ValueError(f"trust must hold numbers, got {trust.dtype} values")
        columns["trust"] = trust = trust.astype(np.float64)
        n = columns["grades"].size
        if any(col.shape != (n,) for col in columns.values()):
            raise ValueError("record columns must be vectors of one length")
        for what, ids, codes in (
            ("item", self.item_ids, columns["item_codes"]),
            ("worker", self.worker_ids, columns["worker_codes"]),
        ):
            for rid in ids:
                if type(rid) is not str or not rid:
                    raise ValueError(f"{what} id {rid!r} must be a non-empty string")
            if len(set(ids)) != len(ids):
                raise ValueError(f"{what} ids must be distinct")
            if n and (codes.min() < 0 or codes.max() >= len(ids)):
                raise ValueError(f"{what} codes must index the {what} ids")
            if np.count_nonzero(np.bincount(codes, minlength=len(ids))) != len(ids):
                raise ValueError(f"every {what} id must have a record")
        bad = self._bad_record(columns["grades"], trust, ~np.isnan(trust))
        if bad is not None:
            raise ValueError(bad[1])

        items, workers = columns["item_codes"], columns["worker_codes"]
        _, first = np.unique(items * len(self.worker_ids) + workers, return_index=True)
        if first.size < n:
            r = np.setdiff1d(np.arange(n), first)[0]
            raise ValueError(
                f"duplicate judgment for item {self.item_ids[items[r]]!r} "
                f"by worker {self.worker_ids[workers[r]]!r}"
            )
        for name, col in columns.items():
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    @staticmethod
    def _bad_record(grades: np.ndarray, trust: np.ndarray, given: np.ndarray):
        """The first record whose grade lies outside 0..3, or whose trust is
        ``given`` and lies outside [0, 1], with the reason; else ``None``."""
        bad_grade = (grades < VALID_GRADES[0]) | (grades > VALID_GRADES[-1])
        bad = np.flatnonzero(bad_grade | (given & ~((trust >= 0.0) & (trust <= 1.0))))
        if not bad.size:
            return None
        r = int(bad[0])
        if bad_grade[r]:
            return r, f"grade must be one of {VALID_GRADES}, got {int(grades[r])!r}"
        return r, f"trust must lie in [0, 1], got {float(trust[r])}"

    @classmethod
    def from_records(cls, records: Iterable[JudgmentRecord]) -> "JudgmentSet":
        """The set of ``records``, in their order; a bad record raises
        ``ValueError`` with the reason ``load_judgments`` gives for it."""
        columns = _Columns()
        columns.extend(enumerate(map(vars, records)), lambda _, reason: ValueError(reason))
        return columns.build()

    @cached_property
    def records(self) -> tuple[JudgmentRecord, ...]:
        """One ``JudgmentRecord`` per record, built on first access."""
        columns = (self.item_codes, self.worker_codes, self.grades, self.trust)
        return tuple(
            JudgmentRecord(self.item_ids[i], self.worker_ids[w], g, None if math.isnan(t) else t)
            for i, w, g, t in zip(*(col.tolist() for col in columns))
        )

    def workers(self) -> set[str]:
        return set(self.worker_ids)

    def grade_counts(self) -> np.ndarray:
        """Items-by-grades matrix: how many records give item i grade g."""
        keys = self.item_codes * _N_GRADES + self.grades
        return np.bincount(keys, minlength=len(self.item_ids) * _N_GRADES).reshape(
            -1, _N_GRADES
        )

    def subset(self, keep: np.ndarray) -> "JudgmentSet":
        """The records where ``keep`` is true, ids recoded by first use."""
        item_ids, item_codes = _recode(self.item_ids, self.item_codes[keep])
        worker_ids, worker_codes = _recode(self.worker_ids, self.worker_codes[keep])
        return JudgmentSet(
            item_ids, worker_ids, item_codes, worker_codes,
            self.grades[keep], self.trust[keep],
        )


def _codes(index: dict[str, int], names: list) -> np.ndarray:
    """Codes of ``names`` in ``index``, adding new names in order of first use."""
    for name in dict.fromkeys(names):
        index.setdefault(name, len(index))
    return np.fromiter(map(index.__getitem__, names), dtype=np.intp, count=len(names))


def _recode(ids: tuple, codes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Drop the ids ``codes`` does not use; renumber the rest by first use."""
    used, first = np.unique(codes, return_index=True)
    used = used[np.argsort(first)]
    renumber = np.zeros(len(ids), dtype=np.intp)
    renumber[used] = np.arange(used.size)
    return tuple(ids[c] for c in used.tolist()), renumber[codes]


class _Columns:
    """Record columns under construction, ids coded in order of first use."""

    def __init__(self):
        self.item_index: dict[str, int] = {}
        self.worker_index: dict[str, int] = {}
        empty = np.zeros(0, dtype=np.intp)
        self.parts: list[tuple[np.ndarray, ...]] = [(empty, empty, empty, np.zeros(0))]

    def extend(self, pairs, error) -> None:
        """Append the records of ``(key, fields)`` pairs, or raise
        ``error(key, reason)`` for the first bad record.

        Values are checked on the records before the first type error, or
        before a ``ValueError`` the pairs raise as they are read, so the
        earliest bad record wins and, within a record, its type error.
        """
        keys, items, workers, grades, trusts, failure = _checked_columns(pairs, error)
        try:
            grades = np.array(grades, dtype=np.intp)
        except OverflowError:  # a grade beyond int64, which _bad_record names
            grades = np.array(grades, dtype=object)
        trust = np.array(trusts, dtype=np.float64)  # None becomes NaN
        given = np.array([t is not None for t in trusts], dtype=bool)
        bad = JudgmentSet._bad_record(grades, trust, given)
        if bad is not None:
            raise error(keys[bad[0]], bad[1])
        if failure is not None:
            raise failure
        items, workers = _codes(self.item_index, items), _codes(self.worker_index, workers)
        self.parts.append((items, workers, grades, trust))

    def build(self) -> JudgmentSet:
        columns = map(np.concatenate, zip(*self.parts))
        return JudgmentSet(tuple(self.item_index), tuple(self.worker_index), *columns)


def _checked_columns(pairs, error):
    """Keys, items, workers, grades and trusts of the ``(key, fields)``
    pairs before the first with a field of the wrong type, then
    ``error(key, reason)`` for that pair, or ``None``.  The types: non-empty
    ``str`` item and worker, ``int`` grade, and a ``trust`` absent or an
    ``int`` or ``float`` that converts to a float; a bool is neither.
    """
    columns = keys, items, workers, grades, trusts = [], [], [], [], []
    try:
        for key, fields in pairs:
            item = fields.get("item")
            worker = fields.get("worker")
            grade = fields.get("grade")
            trust = fields.get("trust")
            reason = None
            if type(item) is not str or not item:
                reason = 'missing or invalid "item"'
            elif type(worker) is not str or not worker:
                reason = 'missing or invalid "worker"'
            elif type(grade) is not int:
                reason = 'field "grade" must be an integer'
            elif trust is not None and type(trust) is not float:
                if type(trust) is not int:
                    reason = 'field "trust" must be numeric'
                else:
                    try:
                        trust = float(trust)
                    except OverflowError:
                        reason = "trust must lie in [0, 1]"
            if reason:
                return *columns, error(key, reason)
            keys.append(key)
            items.append(item)
            workers.append(worker)
            grades.append(grade)
            trusts.append(trust)
    except ValueError as exc:  # a line that is not one JSON object
        return *columns, exc
    return *columns, None


#: Distance between grades tuned to the 0..3 relevance scale, read-only:
#: confusing irrelevant (0) with perfect (3) costs 1.0, adjacent positive
#: grades only 0.25.  ``krippendorff_alpha`` weighs disagreements with it.
RELEVANCE_DISTANCE = np.array([
    [0.0, 0.5, 0.75, 1.0],
    [0.5, 0.0, 0.25, 0.5],
    [0.75, 0.25, 0.0, 0.25],
    [1.0, 0.5, 0.25, 0.0],
])
RELEVANCE_DISTANCE.setflags(write=False)


def krippendorff_alpha(judgments: JudgmentSet) -> float:
    """Inter-rater reliability with the ``RELEVANCE_DISTANCE`` between grades.

    alpha = 1 - observed/expected disagreement, computed from the grade
    coincidences within items.  Items with fewer than two judgments carry
    no coincidence information and are excluded; if nothing is pairable the
    set is unusable and this raises.  Perfect agreement gives exactly 1.0;
    zero expected disagreement (every pooled grade identical) does too.
    """
    counts = judgments.grade_counts().astype(np.float64)
    m = counts.sum(axis=1)
    counts, m = counts[m >= 2], m[m >= 2]
    if not m.size:
        raise ValueError("no item has two or more judgments; alpha is undefined")

    # Ordered within-item pairs (g, h) with distinct raters, spread over
    # the m - 1 possible partners.  The sum runs over items in order, one
    # item at a time, as a per-item loop would add them.
    pair_counts = counts[:, :, None] * counts[:, None, :]
    diagonal = np.arange(_N_GRADES)
    pair_counts[:, diagonal, diagonal] -= counts
    coincidence = (pair_counts / (m - 1.0)[:, None, None]).sum(axis=0)

    total = coincidence.sum()
    margins = coincidence.sum(axis=0)
    observed = float((coincidence * RELEVANCE_DISTANCE).sum()) / total
    expected = float((np.outer(margins, margins) * RELEVANCE_DISTANCE).sum()) / (
        total * (total - 1.0)
    )
    if expected == 0.0:
        return 1.0
    return 1.0 - observed / expected


def _tied_top_grades(counts: np.ndarray) -> np.ndarray:
    """Per item, a boolean row marking the grades with the most votes."""
    return counts == counts.max(axis=1, keepdims=True)


def filter_workers(judgments: JudgmentSet, threshold: float = FILTER_THRESHOLD) -> JudgmentSet:
    """Drop workers whose majority-disagreement rate exceeds ``threshold``.

    Majorities are computed once per item over the unfiltered records; items
    whose top grade is tied carry no signal and are skipped.  A worker's
    rate is (judgments against a strict majority) / (judgments on items
    having a strict majority); workers with rate strictly above the
    threshold are removed in a single pass.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")

    counts = judgments.grade_counts()
    has_majority = _tied_top_grades(counts).sum(axis=1) == 1
    majority = np.argmax(counts, axis=1)
    items, workers = judgments.item_codes, judgments.worker_codes
    judged = has_majority[items]
    against = judged & (judgments.grades != majority[items])
    n_workers = len(judgments.worker_ids)
    n_judged = np.bincount(workers[judged], minlength=n_workers)
    n_against = np.bincount(workers[against], minlength=n_workers)
    rate = np.divide(n_against, n_judged, out=np.zeros(n_workers), where=n_judged > 0)
    return judgments.subset(~(rate > threshold)[workers])


def majority_vote(
    judgments: JudgmentSet, tie_break: str = "highest-value"
) -> RelevanceJudgments:
    """One grade per item by modal vote.

    Ties go to the highest tied grade, or with ``tie_break="mean-trust"`` to
    the tied grade whose supporters have the highest mean trust (further
    ties again to the highest grade).  The mean-trust rule requires a trust
    value on every record.
    """
    if tie_break not in ("highest-value", "mean-trust"):
        raise ValueError(
            f'tie_break must be "highest-value" or "mean-trust", got {tie_break!r}'
        )
    trust = judgments.trust
    if tie_break == "mean-trust":
        missing = np.flatnonzero(np.isnan(trust))
        if missing.size:
            r = missing[0]
            raise ValueError(
                f"mean-trust tie-breaking needs trust values; record for item "
                f"{judgments.item_ids[judgments.item_codes[r]]!r} by worker "
                f"{judgments.worker_ids[judgments.worker_codes[r]]!r} has none"
            )

    counts = judgments.grade_counts()
    tied = _tied_top_grades(counts)
    top = _N_GRADES - 1 - np.argmax(tied[:, ::-1], axis=1)
    split = np.flatnonzero(tied.sum(axis=1) > 1)
    if tie_break == "mean-trust" and split.size:
        # Each item's records, in record order.
        by_item = np.argsort(judgments.item_codes, kind="stable")
        starts = np.concatenate(([0], np.cumsum(counts.sum(axis=1))))
        for i in split.tolist():
            recs = by_item[starts[i]:starts[i + 1]]
            grades, supporters = judgments.grades[recs], trust[recs]
            candidates = np.flatnonzero(tied[i]).tolist()
            mean_trust = {
                g: float(np.mean(supporters[grades == g])) for g in candidates
            }
            top_trust = max(mean_trust.values())
            top[i] = max(g for g in candidates if mean_trust[g] == top_trust)
    return RelevanceJudgments(grades=dict(zip(judgments.item_ids, top.tolist())))


def load_judgments(path) -> JudgmentSet:
    """Read a JSON Lines judgments file.

    Each line is an object with string ``item`` and ``worker``, integer
    ``grade`` in 0..3, and optional numeric ``trust`` in [0, 1].  The first
    bad object is reported as ``path:line: reason``, a repeated
    item-worker pair at line 0.
    """
    columns = _Columns()
    # A call per chunk, so that chunk's lists are freed before the next is read.
    for pairs in read_objects(path):
        columns.extend(pairs, lambda line_no, reason: InputFormatError(path, line_no, reason))
    try:
        return columns.build()
    except ValueError as exc:
        raise InputFormatError(path, 0, str(exc)) from exc


def load_qrels(path) -> RelevanceJudgments:
    """Read a tab-separated ``item<TAB>grade`` relevance file."""
    grades: dict[str, int] = {}
    for line_no, (item, grade_text) in read_rows(path, 2):
        if not item:
            raise InputFormatError(path, line_no, "empty item id")
        grade = parse_int(grade_text, path, line_no, "grade")
        if grade not in VALID_GRADES:
            raise InputFormatError(
                path, line_no, f"grade must be one of {VALID_GRADES}, got {grade}"
            )
        if item in grades:
            raise InputFormatError(path, line_no, f"duplicate item {item!r}")
        grades[item] = grade
    return RelevanceJudgments(grades=grades)


def format_qrels(judgments: RelevanceJudgments) -> str:
    """Serialize judgments as sorted ``item<TAB>grade`` lines."""
    lines = [f"{item}\t{grade}" for item, grade in sorted(judgments.grades.items())]
    return "\n".join(lines) + ("\n" if lines else "")
