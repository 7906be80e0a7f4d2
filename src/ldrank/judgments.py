"""Crowdsourced relevance judgments: reliability, filtering, aggregation.

A judgment set is a flat list of records, each a judgments line's mapping
(``item``, ``worker``, ``grade`` and an optional ``trust``), at most one
per item-worker pair, with grades on the 0..3 relevance scale and trust in
[0, 1].  ``JudgmentSet`` holds the records as columns: the distinct item
and worker ids in order of first use, one item code, worker code, grade
and trust per record in file order, with NaN for a missing trust.

Each record is checked once, as it is read: ``_Columns.extend`` checks
its field types, then its grade and trust ranges, then, on the first
record naming an item, the item id rule of ``RelevanceJudgments``; and
``_Columns.build`` that no item-worker pair repeats.  A bad record is
reported at its key: its line in a file, or its position in a list.
``load_judgments``, a ``types.read_objects`` chunk at a time, and
``JudgmentSet.from_records`` both build through ``_Columns``, so they
reject the same records with the same reasons.

``krippendorff_alpha`` measures inter-rater reliability with one fixed
distance between grades, ``RELEVANCE_DISTANCE``; ``filter_workers`` drops
workers who disagree too often with per-item majorities; ``majority_vote``
collapses the records to one grade per item.  All three work on the
item-by-grade count matrix, built with one ``np.bincount``.

``RelevanceJudgments`` holds one grade per item: what ``majority_vote``
gives, ``load_qrels`` reads and ``format_qrels`` writes.  Its
``grades_of`` is the one place resource ids meet judgments.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, fields

import numpy as np

from .types import InputFormatError, integer, number, parse_int, read_objects, read_rows
from .types import shown, shown_int

__all__ = [
    "FILTER_THRESHOLD",
    "JudgmentSet",
    "RELEVANCE_DISTANCE",
    "RelevanceJudgments",
    "krippendorff_alpha",
    "filter_workers",
    "majority_vote",
    "load_judgments",
    "load_qrels",
    "format_qrels",
]

#: Default majority-disagreement rate above which ``filter_workers`` drops a worker.
FILTER_THRESHOLD = 0.412

VALID_GRADES = (0, 1, 2, 3)
_N_GRADES = len(VALID_GRADES)


def _item_fault(item) -> str | None:
    """Why ``item`` is no item id, or None: the item id rule of
    ``RelevanceJudgments`` and of each judgments record."""
    if type(item) is not str or not item:
        return f"item id must be a non-empty string, got {shown(item)}"
    if "\t" in item or "\n" in item or "\r" in item:
        return f"item id {shown(item)} holds a tab or line break"
    if item.lstrip()[:1] == "#":
        return f"item id {shown(item)} starts with '#'"
    try:
        item.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        return f"item id {shown(item)} is not valid in UTF-8"
    return None


@dataclass(frozen=True, eq=False)
class RelevanceJudgments:
    """Item identifier -> relevance grade, an ``int`` on the 0..3 scale.

    Each identifier is a non-empty ``str`` that a qrels line can hold: no
    tab, line break or lone surrogate, and no ``#`` first after blanks.
    """

    grades: dict[str, int]

    def __post_init__(self):
        grades = {}
        for item, grade in self.grades.items():
            fault = _item_fault(item)
            if fault:
                raise ValueError(fault)
            if type(grade) is not int or grade not in VALID_GRADES:  # `integer` rules on a miss
                grade = integer(grade, f"grade for {shown(item)}", 0, VALID_GRADES[-1])
            grades[item] = grade
        object.__setattr__(self, "grades", grades)

    def grades_of(self, resource_ids) -> list[int]:
        """One grade per id, 0 for an unjudged one (warned once per call)."""
        missing = [rid for rid in resource_ids if rid not in self.grades]
        if missing:
            warnings.warn(
                f"{len(missing)} ranked resources have no judgment and count as grade 0 "
                f"(first: {shown(missing[0])})"
            )
        return [self.grades.get(rid, 0) for rid in resource_ids]


@dataclass(frozen=True, eq=False, init=False)
class JudgmentSet:
    """All records of one collection task; one record per item-worker pair.

    ``item_codes[r]`` and ``worker_codes[r]`` index ``item_ids`` and
    ``worker_ids``, which hold distinct non-empty strings; every id is used
    by some record.  ``trust`` is NaN where a record has none.  A set comes
    from ``from_records`` or ``load_judgments``, which check each record as
    they read it, or from ``subset``; the columns are read-only.
    """

    item_ids: tuple[str, ...]
    worker_ids: tuple[str, ...]
    item_codes: np.ndarray
    worker_codes: np.ndarray
    grades: np.ndarray
    trust: np.ndarray

    @classmethod
    def _of(cls, *values) -> "JudgmentSet":
        """The set of the checked ``values``, one per field in order."""
        judgments = object.__new__(cls)
        for field, value in zip(fields(cls), values):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(judgments, field.name, value)
        return judgments

    @classmethod
    def from_records(cls, records: Iterable[Mapping]) -> "JudgmentSet":
        """The set of ``records``, in their order; a bad record raises
        ``ValueError`` with ``load_judgments``'s reason, or its position."""
        columns = _Columns(lambda _, reason: ValueError(reason))
        columns.extend(_mappings(records))
        return columns.build()

    @property
    def records(self) -> tuple[dict, ...]:
        """One mapping per record, as ``from_records`` takes it, with
        ``trust`` None where the record has none."""
        columns = (self.item_codes, self.worker_codes, self.grades, self.trust)
        return tuple(
            {"item": self.item_ids[i], "worker": self.worker_ids[w], "grade": g,
             "trust": None if math.isnan(t) else t}
            for i, w, g, t in zip(*(col.tolist() for col in columns))
        )

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
        return JudgmentSet._of(
            item_ids, worker_ids, item_codes, worker_codes,
            self.grades[keep], self.trust[keep],
        )


def _mappings(records):
    """``enumerate(records)``, with a ``ValueError`` at a non-mapping."""
    for k, record in enumerate(records):
        if not isinstance(record, Mapping):
            raise ValueError(f"record {k}: expected a mapping, got {type(record).__name__}")
        yield k, record


def _recode(ids: tuple, codes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Drop the ids ``codes`` does not use; renumber the rest by first use."""
    used, first = np.unique(codes, return_index=True)
    used = used[np.argsort(first)]
    renumber = np.zeros(len(ids), dtype=np.intp)
    renumber[used] = np.arange(used.size)
    return tuple(ids[c] for c in used.tolist()), renumber[codes]


class _Columns:
    """Record columns under construction, ids coded in order of first use,
    with each record's key: its line in a file, or its position."""

    def __init__(self, error):
        self.error = error  # error(key, reason): the exception for a bad record
        self.item_index: dict[str, int] = {}
        self.worker_index: dict[str, int] = {}
        self.keys: list[np.ndarray] = []  # per ``extend`` call, its records' keys
        empty = np.zeros(0, dtype=np.intp)
        self.parts: list[tuple[np.ndarray, ...]] = [(empty, empty, empty, np.zeros(0))]

    def extend(self, pairs) -> None:
        """Append the records of ``(key, record)`` pairs, or raise
        ``error(key, reason)`` for the first bad record.

        A record's types are checked first: non-empty ``str`` item and
        worker, ``int`` grade, and a ``trust`` absent or an ``int`` or
        ``float`` that converts to a float; a bool is neither.  Then its
        ranges: grade in 0..3, a given trust in [0, 1].  Then, on the first
        record that names an item, the item id rule, ``_item_fault``: once
        per distinct item, not once per record.
        """
        keys, items, workers, grades, trusts = [], [], [], [], []
        item_index, worker_index = self.item_index, self.worker_index
        for key, record in pairs:
            item = record.get("item")
            worker = record.get("worker")
            grade = record.get("grade")
            trust = record.get("trust")
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
            if reason is None:
                if grade not in VALID_GRADES:
                    reason = f"grade must be one of {VALID_GRADES}, got {shown_int(grade)}"
                elif trust is not None and not 0.0 <= trust <= 1.0:
                    reason = f"trust must lie in [0, 1], got {trust}"
                else:
                    code = item_index.get(item)
                    if code is None:  # the item's first record
                        reason = _item_fault(item)
                        code = item_index[item] = len(item_index)
            if reason:
                raise self.error(key, reason)
            keys.append(key)
            items.append(code)
            workers.append(worker_index.setdefault(worker, len(worker_index)))
            grades.append(grade)
            trusts.append(trust)
        self.parts.append((
            np.array(items, dtype=np.intp),
            np.array(workers, dtype=np.intp),
            np.array(grades, dtype=np.intp),
            np.array(trusts, dtype=np.float64),  # None becomes NaN
        ))
        self.keys.append(np.array(keys, dtype=np.int64))

    def build(self) -> JudgmentSet:
        """The set of the records appended, or ``error(key, reason)`` at the
        key of the first record that repeats an earlier record's
        item-worker pair."""
        item_ids, worker_ids = tuple(self.item_index), tuple(self.worker_index)
        items, workers, grades, trust = map(np.concatenate, zip(*self.parts))
        _, first = np.unique(items * len(worker_ids) + workers, return_index=True)
        if first.size < items.size:
            r = int(np.setdiff1d(np.arange(items.size), first)[0])
            key = int(np.concatenate(self.keys)[r])
            raise self.error(key, (
                f"duplicate judgment for item {shown(item_ids[items[r]])} "
                f"by worker {shown(worker_ids[workers[r]])}"
            ))
        return JudgmentSet._of(item_ids, worker_ids, items, workers, grades, trust)


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
    number(threshold, "threshold", "must lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)

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
            f'tie_break must be "highest-value" or "mean-trust", got {shown(tie_break)}'
        )
    trust = judgments.trust
    if tie_break == "mean-trust":
        missing = np.flatnonzero(np.isnan(trust))
        if missing.size:
            r = missing[0]
            raise ValueError(
                f"mean-trust tie-breaking needs trust values; record for item "
                f"{shown(judgments.item_ids[judgments.item_codes[r]])} by worker "
                f"{shown(judgments.worker_ids[judgments.worker_codes[r]])} has none"
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
    bad object is reported as ``path:line: reason``.  A repeated item-worker
    pair is found once the whole file is read, and reported at the line of
    its second record.
    """
    columns = _Columns(lambda line_no, reason: InputFormatError(path, line_no, reason))
    # A call per chunk, so that chunk's lists are freed before the next is read.
    for pairs in read_objects(path):
        columns.extend(pairs)
    return columns.build()


def load_qrels(path) -> RelevanceJudgments:
    """Read a tab-separated ``item<TAB>grade`` relevance file."""
    grades: dict[str, int] = {}
    for line_no, (item, grade_text) in read_rows(path, 2):
        if not item:
            raise InputFormatError(path, line_no, "empty item id")
        grade = parse_int(grade_text, path, line_no, "grade")
        if grade not in VALID_GRADES:
            raise InputFormatError(
                path, line_no, f"grade must be one of {VALID_GRADES}, got {shown_int(grade)}"
            )
        if item in grades:
            raise InputFormatError(path, line_no, f"duplicate item {shown(item)}")
        grades[item] = grade
    return RelevanceJudgments(grades=grades)


def format_qrels(judgments: RelevanceJudgments) -> str:
    """Serialize judgments as sorted ``item<TAB>grade`` lines."""
    lines = [f"{item}\t{grade}" for item, grade in sorted(judgments.grades.items())]
    return "\n".join(lines) + ("\n" if lines else "")
