"""Crowdsourced relevance judgments: reliability, filtering, aggregation.

A judgment set is a flat list of (item, worker, grade) records, at most one
per item-worker pair, with grades on the 0..3 relevance scale and an
optional per-record worker trust value in [0, 1].  ``JudgmentSet`` holds
the records as columns: the distinct item and worker ids in order of first
use, one item code, worker code, grade and trust per record in file order,
with NaN for a missing trust.

``krippendorff_alpha`` measures inter-rater reliability with a pluggable
distance between grades; ``filter_workers`` drops workers who disagree too
often with per-item majorities; ``majority_vote`` collapses the records to
one grade per item.  All three work on the item-by-grade count matrix,
built with one ``np.bincount``.

``load_judgments`` reads its file with ``types.read_objects`` and checks
each object once, in line order; ``load_qrels`` reads with
``types.read_rows``.
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
    "GradeDistance",
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
    item: str
    worker: str
    grade: int
    trust: float | None = None

    def __post_init__(self):
        # As in ``load_judgments``: a float or bool grade is not an int.
        if type(self.grade) is not int or self.grade not in VALID_GRADES:
            raise ValueError(
                f"grade must be one of {VALID_GRADES}, got {self.grade!r}"
            )
        if self.trust is not None:
            if isinstance(self.trust, bool) or not isinstance(self.trust, (int, float)):
                raise ValueError(f"trust must be a number, got {self.trust!r}")
            if not 0.0 <= self.trust <= 1.0:
                raise ValueError(f"trust must lie in [0, 1], got {self.trust}")


@dataclass(frozen=True, eq=False)
class JudgmentSet:
    """All records of one collection task; one record per item-worker pair.

    ``item_codes[r]`` and ``worker_codes[r]`` index ``item_ids`` and
    ``worker_ids``; every id is used by some record.  ``trust`` is NaN
    where a record has none.  Construction checks the columns and rejects
    a repeated item-worker pair, naming the first repeat in record order.
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
        columns["trust"] = trust.astype(np.float64)
        n = columns["grades"].size
        if any(col.shape != (n,) for col in columns.values()):
            raise ValueError("record columns must be vectors of one length")
        for what, ids, codes in (
            ("item", self.item_ids, columns["item_codes"]),
            ("worker", self.worker_ids, columns["worker_codes"]),
        ):
            if len(set(ids)) != len(ids):
                raise ValueError(f"{what} ids must be distinct")
            if n and (codes.min() < 0 or codes.max() >= len(ids)):
                raise ValueError(f"{what} codes must index the {what} ids")
            if np.count_nonzero(np.bincount(codes, minlength=len(ids))) != len(ids):
                raise ValueError(f"every {what} id must have a record")
        grades, trust = columns["grades"], columns["trust"]
        bad = np.flatnonzero((grades < VALID_GRADES[0]) | (grades > VALID_GRADES[-1]))
        if bad.size:
            raise ValueError(
                f"grade must be one of {VALID_GRADES}, got {int(grades[bad[0]])!r}"
            )
        bad = np.flatnonzero(~(np.isnan(trust) | ((trust >= 0.0) & (trust <= 1.0))))
        if bad.size:
            raise ValueError(f"trust must lie in [0, 1], got {float(trust[bad[0]])}")

        items, workers = columns["item_codes"], columns["worker_codes"]
        _, first = np.unique(items * len(self.worker_ids) + workers, return_index=True)
        if first.size < n:
            repeat = np.ones(n, dtype=bool)
            repeat[first] = False
            r = int(np.argmax(repeat))
            raise ValueError(
                f"duplicate judgment for item {self.item_ids[items[r]]!r} "
                f"by worker {self.worker_ids[workers[r]]!r}"
            )
        for name, col in columns.items():
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    @classmethod
    def from_records(cls, records: Iterable[JudgmentRecord]) -> "JudgmentSet":
        """The set of ``records``, in their order."""
        records = tuple(records)
        columns = _Columns()
        columns.extend(
            [rec.item for rec in records],
            [rec.worker for rec in records],
            [rec.grade for rec in records],
            [rec.trust for rec in records],
        )
        return columns.build()

    @cached_property
    def records(self) -> tuple[JudgmentRecord, ...]:
        """One ``JudgmentRecord`` per record, built on first access."""
        return tuple(
            JudgmentRecord(
                item=self.item_ids[i],
                worker=self.worker_ids[w],
                grade=g,
                trust=None if math.isnan(t) else t,
            )
            for i, w, g, t in zip(
                self.item_codes.tolist(),
                self.worker_codes.tolist(),
                self.grades.tolist(),
                self.trust.tolist(),
            )
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
        self.parts: list[tuple[np.ndarray, ...]] = []

    def extend(self, items, workers, grades, trust) -> None:
        """Append records; a ``None`` trust becomes NaN."""
        self.parts.append((
            _codes(self.item_index, items),
            _codes(self.worker_index, workers),
            np.array(grades, dtype=np.intp),
            np.array(trust, dtype=np.float64),
        ))

    def build(self) -> JudgmentSet:
        if self.parts:
            columns = [np.concatenate(col) for col in zip(*self.parts)]
        else:
            columns = [np.zeros(0, dtype=np.intp)] * 3 + [np.zeros(0)]
        return JudgmentSet(tuple(self.item_index), tuple(self.worker_index), *columns)


@dataclass(frozen=True, eq=False)
class GradeDistance:
    """Symmetric distance table over the four grades, zero on the diagonal."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.float64)
        if t.shape != (4, 4):
            raise ValueError(f"distance table must be 4x4, got {t.shape}")
        if not np.allclose(t, t.T):
            raise ValueError("distance table must be symmetric")
        if np.any(np.diag(t) != 0):
            raise ValueError("distance table must be zero on the diagonal")
        if t.min() < 0:
            raise ValueError("distances must be non-negative")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    def __call__(self, a: int, b: int) -> float:
        return float(self.table[a, b])

    @classmethod
    def relevance_scale(cls) -> "GradeDistance":
        """Distance tuned to the 0..3 relevance scale.

        Confusing irrelevant (0) with perfect (3) costs 1.0; adjacent
        positive grades cost only 0.25.
        """
        t = np.zeros((4, 4))
        t[0, 1] = t[1, 0] = 0.5
        t[0, 2] = t[2, 0] = 0.75
        t[0, 3] = t[3, 0] = 1.0
        t[1, 2] = t[2, 1] = 0.25
        t[1, 3] = t[3, 1] = 0.5
        t[2, 3] = t[3, 2] = 0.25
        return cls(table=t)

    @classmethod
    def nominal(cls) -> "GradeDistance":
        """Plain disagreement: every distinct pair costs 1."""
        return cls(table=np.ones((4, 4)) - np.eye(4))


def krippendorff_alpha(
    judgments: JudgmentSet, distance: GradeDistance | None = None
) -> float:
    """Inter-rater reliability with a custom grade distance.

    alpha = 1 - observed/expected disagreement, computed from the grade
    coincidences within items.  Items with fewer than two judgments carry
    no coincidence information and are excluded; if nothing is pairable the
    set is unusable and this raises.  Perfect agreement gives exactly 1.0;
    zero expected disagreement (every pooled grade identical) does too.
    """
    distance = distance or GradeDistance.relevance_scale()
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
    observed = float((coincidence * distance.table).sum()) / total
    expected = float((np.outer(margins, margins) * distance.table).sum()) / (
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
        columns.extend(*_checked_columns(path, pairs))
    try:
        return columns.build()
    except ValueError as exc:
        raise InputFormatError(path, 0, str(exc)) from exc


def _checked_columns(path, pairs):
    """Item, worker, grade and trust columns of ``(line_no, object)`` pairs."""
    items, workers, grades, trusts = [], [], [], []
    for line_no, obj in pairs:
        item = obj.get("item")
        worker = obj.get("worker")
        grade = obj.get("grade")
        trust = obj.get("trust")
        # A JSON value is of exactly one of these types; bool is not int.
        if type(item) is not str or not item:
            raise InputFormatError(path, line_no, 'missing or invalid "item"')
        if type(worker) is not str or not worker:
            raise InputFormatError(path, line_no, 'missing or invalid "worker"')
        if type(grade) is not int:
            raise InputFormatError(path, line_no, 'field "grade" must be an integer')
        if trust is not None and type(trust) is not float:
            if type(trust) not in (int, bool):
                raise InputFormatError(path, line_no, 'field "trust" must be numeric')
            try:
                trust = float(trust)
            except OverflowError as exc:
                raise InputFormatError(path, line_no, "trust must lie in [0, 1]") from exc
        if grade not in VALID_GRADES:
            raise InputFormatError(
                path, line_no, f"grade must be one of {VALID_GRADES}, got {grade!r}"
            )
        if trust is not None and not 0.0 <= trust <= 1.0:
            raise InputFormatError(path, line_no, f"trust must lie in [0, 1], got {trust}")
        items.append(item)
        workers.append(worker)
        grades.append(grade)
        trusts.append(trust)
    return items, workers, grades, trusts


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
