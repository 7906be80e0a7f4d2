"""Crowdsourced relevance judgments: reliability, filtering, aggregation.

A judgment set is a flat list of (item, worker, grade) records, at most one
per item-worker pair, with grades on the 0..3 relevance scale and an
optional per-record worker trust value in [0, 1].

``krippendorff_alpha`` measures inter-rater reliability with a pluggable
distance between grades; ``filter_workers`` drops workers who disagree too
often with per-item majorities; ``majority_vote`` collapses the records to
one grade per item.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .evaluation import VALID_GRADES, RelevanceJudgments
from .types import InputFormatError, read_lines

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


@dataclass(frozen=True)
class JudgmentRecord:
    item: str
    worker: str
    grade: int
    trust: float | None = None

    def __post_init__(self):
        if self.grade not in VALID_GRADES:
            raise ValueError(
                f"grade must be one of {VALID_GRADES}, got {self.grade!r}"
            )
        if self.trust is not None and not 0.0 <= self.trust <= 1.0:
            raise ValueError(f"trust must lie in [0, 1], got {self.trust}")


@dataclass(frozen=True, eq=False)
class JudgmentSet:
    """All records of one collection task; one record per item-worker pair."""

    records: tuple[JudgmentRecord, ...]

    def __post_init__(self):
        seen = set()
        for rec in self.records:
            key = (rec.item, rec.worker)
            if key in seen:
                raise ValueError(
                    f"duplicate judgment for item {rec.item!r} by worker {rec.worker!r}"
                )
            seen.add(key)

    def by_item(self) -> dict[str, list[JudgmentRecord]]:
        grouped: dict[str, list[JudgmentRecord]] = defaultdict(list)
        for rec in self.records:
            grouped[rec.item].append(rec)
        return dict(grouped)

    def workers(self) -> set[str]:
        return {rec.worker for rec in self.records}


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
    pairable = [
        [rec.grade for rec in recs]
        for recs in judgments.by_item().values()
        if len(recs) >= 2
    ]
    if not pairable:
        raise ValueError("no item has two or more judgments; alpha is undefined")

    n_grades = len(VALID_GRADES)
    coincidence = np.zeros((n_grades, n_grades))
    for grades in pairable:
        m = len(grades)
        counts = np.bincount(grades, minlength=n_grades).astype(np.float64)
        # Ordered within-item pairs (g, h) with distinct raters, spread over
        # the m - 1 possible partners.
        pair_counts = np.outer(counts, counts) - np.diag(counts)
        coincidence += pair_counts / (m - 1)

    total = coincidence.sum()
    margins = coincidence.sum(axis=0)
    observed = float((coincidence * distance.table).sum()) / total
    expected = float((np.outer(margins, margins) * distance.table).sum()) / (
        total * (total - 1.0)
    )
    if expected == 0.0:
        return 1.0
    return 1.0 - observed / expected


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

    majority: dict[str, int] = {}
    for item, recs in judgments.by_item().items():
        counts = Counter(rec.grade for rec in recs)
        top = counts.most_common()
        if len(top) == 1 or top[0][1] > top[1][1]:
            majority[item] = top[0][0]

    judged = defaultdict(int)
    against = defaultdict(int)
    for rec in judgments.records:
        if rec.item not in majority:
            continue
        judged[rec.worker] += 1
        if rec.grade != majority[rec.item]:
            against[rec.worker] += 1

    dropped = {
        worker
        for worker in judgments.workers()
        if judged[worker] and against[worker] / judged[worker] > threshold
    }
    return JudgmentSet(
        records=tuple(rec for rec in judgments.records if rec.worker not in dropped)
    )


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
    if tie_break == "mean-trust":
        for rec in judgments.records:
            if rec.trust is None:
                raise ValueError(
                    f"mean-trust tie-breaking needs trust values; record for item "
                    f"{rec.item!r} by worker {rec.worker!r} has none"
                )

    grades: dict[str, int] = {}
    for item, recs in judgments.by_item().items():
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
    return RelevanceJudgments(grades=grades)


def load_judgments(path) -> JudgmentSet:
    """Read a JSON Lines judgments file.

    Each line is an object with string ``item`` and ``worker``, integer
    ``grade`` in 0..3, and optional numeric ``trust`` in [0, 1].
    """
    records = []
    for line_no, raw in read_lines(path):
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
            records.append(
                JudgmentRecord(
                    item=item,
                    worker=worker,
                    grade=grade,
                    trust=None if trust is None else float(trust),
                )
            )
        except ValueError as exc:
            raise InputFormatError(path, line_no, str(exc)) from exc
    try:
        return JudgmentSet(records=tuple(records))
    except ValueError as exc:
        raise InputFormatError(path, 0, str(exc)) from exc


def load_qrels(path) -> RelevanceJudgments:
    """Read a tab-separated ``item<TAB>grade`` relevance file."""
    grades: dict[str, int] = {}
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
            raise InputFormatError(
                path, line_no, f"grade {grade_text!r} is not an integer"
            )
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
