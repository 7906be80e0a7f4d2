"""Shared data model: input readers, pipeline settings, probability
vectors, result-page context, corpus bundle.

Every line-format decision is made here.  ``_chunks`` is the only code
that opens, decodes, splits and numbers an input file, a chunk of lines at
a time; ``read_rows`` reads the tab-separated files (graph, serp, qrels,
manifest), ``read_objects`` the JSON Lines files (texts, judgments) and
``data_lines`` the query file, each through it.

Everything downstream indexes resources by position in the lexicographically
sorted list of resource identifiers.  The bundle fixes that order once and
holds its graph, texts, result page and query in index form, so no stage
after ``corpus.assemble_bundle`` looks up an identifier.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import islice
from numbers import Integral

import numpy as np

#: Absolute tolerance on "entries sum to one" checks.
SUM_TOL = 1e-9


class InputFormatError(ValueError):
    """A malformed line in an input file, reported as ``path:line: reason``."""

    def __init__(self, path, line_no: int, reason: str):
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{self.path}:{line_no}: {reason}")


#: Raw lines per chunk of an input file: one ``decode`` per chunk, and in
#: ``read_objects`` one ``json.loads``; bounds the text held at once.
_CHUNK_LINES = 1024


def _chunks(path):
    """Yield ``(first_line_no, lines)`` for chunks of up to ``_CHUNK_LINES``
    raw lines of a UTF-8 text file; lines are numbered from 1.

    This is the only code that opens an input file.  Lines end at ``\\n``,
    ``\\r\\n`` or ``\\r``, as in text mode, and the endings are stripped.
    A chunk that is not valid UTF-8 is decoded one line at a time: the lines
    before the bad bytes are yielded, then ``InputFormatError`` is raised at
    line 0, so a reader reports a format error on an earlier line first.
    """
    line_no = 1
    with open(path, "rb") as fh:
        while data := b"".join(islice(fh, _CHUNK_LINES)):
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError:
                lines = []
                # bytes.splitlines ends lines at \n, \r\n and \r only; one
                # of these pieces holds the bad bytes, so this loop raises.
                for piece in data.splitlines(keepends=True):
                    try:
                        lines.append(piece.decode("utf-8").rstrip("\r\n"))
                    except UnicodeDecodeError as exc:
                        yield line_no, lines
                        reason = f"not valid UTF-8 ({exc.reason})"
                        raise InputFormatError(path, 0, reason) from exc
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            lines = text.split("\n")
            if not lines[-1]:  # the chunk ends with a line break
                lines.pop()
            yield line_no, lines
            line_no += len(lines)


def read_lines(path):
    """Yield ``(line_no, line)`` for each line of a UTF-8 text file, split
    and numbered as ``_chunks`` does: every line before undecodable bytes
    is yielded, then those bytes raise ``InputFormatError`` at line 0."""
    for first_line_no, lines in _chunks(path):
        yield from enumerate(lines, first_line_no)


def data_lines(path):
    """Yield ``(line_no, line)`` for each line of a UTF-8 text file that is
    neither blank nor a comment, whose first non-blank character is ``#``."""
    for line_no, line in read_lines(path):
        head = line.lstrip()
        if head and head[0] != "#":
            yield line_no, line


def read_rows(path, count: int, noun: str = "fields"):
    """Yield ``(line_no, fields)`` for each line of ``data_lines(path)``; it
    must split at tabs into exactly ``count`` fields, or this raises."""
    for first_line_no, lines in _chunks(path):
        # The loop of ``data_lines``, inlined: a graph file has millions of
        # lines.
        for line_no, line in enumerate(lines, first_line_no):
            head = line.lstrip()
            if not head or head[0] == "#":
                continue
            fields = line.split("\t")
            if len(fields) != count:
                reason = f"expected {count} tab-separated {noun}, got {len(fields)}"
                raise InputFormatError(path, line_no, reason)
            yield line_no, fields


_INTEGER = re.compile(r"-?[0-9]+")


def parse_int(text: str, path, line_no: int, what: str) -> int:
    """``text`` as an integer: ASCII digits after an optional ``-``, nothing else."""
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than ``int`` converts
            pass
    raise InputFormatError(path, line_no, f"{what} {text!r} is not an integer")


_JSON_SPACE = " \t\n\r"


def read_objects(path):
    """Yield, per ``_chunks`` chunk of a JSON Lines file, an iterable of
    ``(line_no, object)`` pairs, one per non-blank line.

    A chunk is parsed with one ``json.loads`` when every non-blank line in
    it frames exactly one object, else line by line, so the first bad line
    is reported as ``path:line: reason``.  A caller that takes each chunk's
    pairs before the next chunk sees them in line order with these errors,
    undecodable bytes included.
    """
    for first_line_no, lines in _chunks(path):
        yield _chunk_objects(path, first_line_no, lines)


def _chunk_objects(path, first_line_no: int, lines: list[str]):
    """``(line_no, object)`` pairs of a chunk of lines."""
    body = [line.strip(_JSON_SPACE) for line in lines if line and not line.isspace()]
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
            if n == len(lines):
                return enumerate(objects, first_line_no)
            numbers = enumerate(lines, first_line_no)
            return zip([k for k, line in numbers if line and not line.isspace()], objects)
    return _objects_by_line(path, enumerate(lines, first_line_no))


def _objects_by_line(path, numbered_lines):
    """Parse ``(line_no, line)`` pairs one line at a time."""
    for line_no, line in numbered_lines:
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputFormatError(path, line_no, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise InputFormatError(path, line_no, "expected a JSON object")
        yield line_no, obj


def integer_array(values, name: str) -> np.ndarray:
    """``values`` as an int64 array, or a ``ValueError`` naming ``name``.

    Only the dtype is tested: integers and arrays of integer dtype pass,
    bools, floats, strings and objects do not, so no value is rounded or
    parsed on the way in.  Empty input passes whatever its dtype.
    """
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got {array.dtype} values")
    return array.astype(np.int64, copy=False)


class ConvergenceWarning(UserWarning):
    """An iterative routine hit its iteration cap before reaching tolerance."""


_POSITIVE = ("must be positive and finite", lambda v: 0.0 < v < math.inf)
_COUNT = ("must be at least 1 and an integer", lambda v: isinstance(v, Integral) and v >= 1)
_PARAM_RANGES = {
    "alpha": ("must lie strictly inside (0, 1)", lambda v: 0.0 < v < 1.0),
    "ndim": _COUNT,
    "stress": _POSITIVE,
    "tol": _POSITIVE,
    "damping": ("must lie in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "consensus_epsilon": _POSITIVE,
    "consensus_max_iters": _COUNT,
    "power_max_iters": _COUNT,
}


@dataclass(frozen=True)
class PipelineParams:
    """Every setting of the pipeline: its default and its valid range.

    ``alpha`` is the walk damping, ``ndim`` the SVD dimension k, ``stress``
    the row amplification of the resources under focus, ``tol`` the L1
    tolerance of the power iteration and ``damping`` the consensus step
    lambda.  Construction rejects any out-of-range, NaN or infinite value
    with a ``ValueError`` naming the field, so no stage checks them again.
    """

    alpha: float = 0.7
    ndim: int = 1
    stress: float = 1000.0
    tol: float = 1e-10
    bidirectional: bool = False
    damping: float = 0.5
    consensus_epsilon: float = 1e-9
    consensus_max_iters: int = 10000
    power_max_iters: int = 1000

    def __post_init__(self):
        for name, (rule, ok) in _PARAM_RANGES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} {rule}, got {value}")


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over the resource index.

    ``values`` is a read-only float64 array with non-negative entries that
    sum to one within ``SUM_TOL``.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("distribution must be a non-empty 1-d vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("distribution entries must be finite")
        if v.min() < 0.0:
            raise ValueError("distribution entries must be non-negative")
        total = float(v.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"distribution entries sum to {total!r}, not 1")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size

    @staticmethod
    def uniform(n: int) -> "Distribution":
        if n < 1:
            raise ValueError("need at least one resource")
        return Distribution(np.full(n, 1.0 / n))

    @staticmethod
    def from_weights(weights) -> "Distribution":
        """Normalize a vector of non-negative weights; errors if all zero."""
        w = np.asarray(weights, dtype=np.float64)
        total = float(w.sum())
        if total <= 0.0:
            raise ValueError("weights sum to zero; cannot normalize")
        return Distribution(w / total)


@dataclass(frozen=True, eq=False)
class SerpContext:
    """A search-engine result page restricted to one query.

    ``docs`` lists document identifiers in rank order (rank of ``docs[i]``
    is ``i + 1``).  ``occurrences`` maps a resource index to the set of
    1-based ranks of the documents that mention it.
    """

    docs: tuple[str, ...]
    occurrences: dict[int, frozenset[int]]

    def __post_init__(self):
        size = len(self.docs)
        for idx, ranks in self.occurrences.items():
            if idx < 0:
                raise ValueError(f"negative resource index {idx} in occurrences")
            if not ranks:
                raise ValueError(f"resource index {idx} has an empty rank set")
            for r in ranks:
                if not 1 <= r <= size:
                    raise ValueError(
                        f"rank {r} for resource index {idx} outside 1..{size}"
                    )


@dataclass(frozen=True, eq=False)
class CorpusBundle:
    """Everything one ranking run needs, in index form.

    ``resource_ids`` is sorted lexicographically and defines the index used
    by every vector and matrix row downstream; every other field refers to
    resources by that index only.  ``graph_edges`` is an ``(m, 2)`` int64
    array with one ``(subject, object)`` row per input triple, in input
    order (predicates dropped, parallel rows kept); ``texts`` holds one text
    per resource; ``serp.occurrences`` and ``query`` index resources too.
    ``corpus.assemble_bundle`` builds bundles from resource identifiers.
    """

    resource_ids: tuple[str, ...]
    graph_edges: np.ndarray
    texts: tuple[str, ...]
    serp: SerpContext
    query: frozenset[int]

    def __post_init__(self):
        if list(self.resource_ids) != sorted(set(self.resource_ids)):
            raise ValueError("resource_ids must be sorted and free of duplicates")
        n = len(self.resource_ids)
        edges = integer_array(self.graph_edges, "graph_edges")
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"graph_edges must have shape (m, 2), got {edges.shape}")
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError(f"graph_edges hold an index outside 0..{n - 1}")
        texts = tuple(self.texts)
        if len(texts) != n:
            raise ValueError(f"{len(texts)} texts for {n} resources")
        query = frozenset(integer_array(list(self.query), "query").tolist())
        if any(not 0 <= i < n for i in query):
            raise ValueError(f"query holds an index outside 0..{n - 1}")
        if any(i >= n for i in self.serp.occurrences):  # SerpContext rejects i < 0
            raise ValueError(f"serp occurrences hold an index outside 0..{n - 1}")
        object.__setattr__(self, "graph_edges", edges)
        object.__setattr__(self, "texts", texts)
        object.__setattr__(self, "query", query)

    @property
    def n(self) -> int:
        return len(self.resource_ids)
