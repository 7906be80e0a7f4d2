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

``load_judgments`` parses fixed-size chunks of lines with one ``json.loads``
per chunk.  A chunk that fails any check, and a file that is not valid
UTF-8, is re-read by the per-line loop, which reports the first bad line
as ``path:line: reason``; only the error path pays for per-line parsing.
"""

from __future__ import annotations

import json
import math
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

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

_N_GRADES = len(VALID_GRADES)


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
            name: np.array(getattr(self, name), dtype=dtype)
            for name, dtype in (
                ("item_codes", np.intp),
                ("worker_codes", np.intp),
                ("grades", np.intp),
                ("trust", np.float64),
            )
        }
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


#: Lines per ``json.loads`` call; bounds the text and objects held at once.
_CHUNK_LINES = 4096
_JSON_SPACE = " \t\n\r"
_TRUST_TYPES = frozenset({float, int, bool, type(None)})


def load_judgments(path) -> JudgmentSet:
    """Read a JSON Lines judgments file.

    Each line is an object with string ``item`` and ``worker``, integer
    ``grade`` in 0..3, and optional numeric ``trust`` in [0, 1].  Lines are
    parsed in chunks; a chunk that fails any check is re-read line by line,
    so errors name the same line and reason as a per-line parse would.
    """
    columns = _Columns()
    try:
        # Universal newlines, as ``read_lines`` reads them: \r\n and \r
        # become \n, so no line holds a line break before its end.
        with open(path, encoding="utf-8") as fh:
            line_no = 1
            while chunk := list(islice(fh, _CHUNK_LINES)):
                columns.extend(*_parse_chunk(path, line_no, chunk))
                line_no += len(chunk)
    except UnicodeDecodeError:
        # A format error on a line before the undecodable bytes comes
        # first; the per-line loop finds it, or raises the decoding error.
        deque(_records_by_line(path, read_lines(path)), maxlen=0)
        raise
    try:
        return columns.build()
    except ValueError as exc:
        raise InputFormatError(path, 0, str(exc)) from exc


def _parse_chunk(path, first_line_no: int, lines: list[str]):
    """Item, worker, grade and trust columns of a chunk of raw lines."""
    body = [raw.strip(_JSON_SPACE) for raw in lines if not raw.isspace()]
    text = ",\n".join(body)
    # One "{" and one "}" per line, at its two ends, so every line holds
    # exactly one object and no object spans lines.
    n = len(body)
    if (
        n
        and text[0] == "{"
        and text[-1] == "}"
        and text.count("},\n{") == n - 1
        and text.count("{") == n
        and text.count("}") == n
    ):
        try:
            objects = json.loads(f"[{text}]")
        except ValueError:
            objects = None
        if objects is not None and len(objects) == n:
            fields = _checked_fields(objects)
            if fields is not None:
                return fields
    records = list(
        _records_by_line(
            path, enumerate((raw.rstrip("\n") for raw in lines), first_line_no)
        )
    )
    return (
        [rec.item for rec in records],
        [rec.worker for rec in records],
        [rec.grade for rec in records],
        [rec.trust for rec in records],
    )


def _checked_fields(objects: list[dict]):
    """The four fields of every object, or None if any fails a check."""
    items = [obj.get("item") for obj in objects]
    workers = [obj.get("worker") for obj in objects]
    grades = [obj.get("grade") for obj in objects]
    trusts = [obj.get("trust") for obj in objects]
    for names in (items, workers):
        if set(map(type, names)) != {str} or "" in names:
            return None
    if set(map(type, grades)) != {int} or not set(grades) <= set(VALID_GRADES):
        return None
    if not _TRUST_TYPES.issuperset(map(type, trusts)):
        return None
    try:
        trust = np.array(trusts, dtype=np.float64)
    except OverflowError:
        return None
    # A missing trust is NaN; any other value outside [0, 1] fails.
    if np.count_nonzero(~((trust >= 0.0) & (trust <= 1.0))) != trusts.count(None):
        return None
    return items, workers, grades, trust


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
