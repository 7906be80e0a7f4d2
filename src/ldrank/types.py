"""Shared data model: input readers, pipeline settings, probability
vectors, corpus bundle, and the one sparse matrix type.

Every line-format decision is made here.  ``_blocks`` is the only code
that opens, decodes and numbers an input file: it reads fixed-size byte
blocks, each cut after its last line break, with one ``read`` and one
``decode`` per block.  ``_chunks`` splits each block into lines;
``data_lines`` keeps those that ``_is_data`` (the query file), ``read_rows``
splits them by ``_fields``, the field rule (serp, qrels, manifest), and
``read_objects`` parses JSON Lines (texts, judgments).  The graph file,
millions of lines long, is resolved by ``corpus`` from the bytes of each
block, with array operations; each line they cannot take goes alone
through ``_is_data`` and ``_fields``.

Everything downstream indexes resources by position in the lexicographically
sorted list of resource identifiers.  The bundle fixes that order once and
holds its graph, texts, result page and query in index form, so no stage
after ``corpus`` builds it looks up an identifier.

``SparseMatrix`` holds both the walk matrix and the stem counts as entry
arrays, which ``count_pairs`` builds from index pairs.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass
from functools import partial
from numbers import Real

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


#: Bytes read per block of an input file, before the block is cut after its
#: last line break: one ``decode`` per block, and in ``read_objects`` one
#: ``json.loads``; bounds the text held at once.
_CHUNK_BYTES = 1 << 16


def _blocks(path):
    """Yield ``(first_line_no, data, text)`` for consecutive blocks of whole
    lines of a UTF-8 text file; lines are numbered from 1.

    This is the only code that opens an input file.  Each block is one
    ``read`` of ``_CHUNK_BYTES`` bytes (more while a line is longer), cut
    after its last line break, with the rest carried into the next block.
    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as in text mode; in ``data``
    every line break is ``b"\\n"``, and ``text`` is ``data`` decoded.  Only
    the last line of the file may lack a line break.  Undecodable bytes end
    the file: the block of the whole lines before them is yielded, then
    ``InputFormatError`` is raised at line 0, so a reader reports a format
    error on an earlier line first.
    """
    line_no = 1
    rest = b""
    with open(path, "rb") as fh:
        while True:
            # A line longer than a block doubles the read, so it costs
            # reads in proportion to its length, not to its square.
            block = fh.read(max(_CHUNK_BYTES, len(rest)))
            data, rest = rest + block, b""
            if block:
                # A "\r" at the end may be the first half of a "\r\n".
                end = len(data) - data.endswith(b"\r")
                cut = max(data.rfind(b"\n", 0, end), data.rfind(b"\r", 0, end)) + 1
                data, rest = data[:cut], data[cut:]
                if not data:
                    continue
            elif not data:
                return
            if b"\r" in data:
                data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                data = data[: data.rfind(b"\n", 0, exc.start) + 1]
                if data:
                    yield line_no, data, data.decode("utf-8")
                reason = f"not valid UTF-8 ({exc.reason})"
                raise InputFormatError(path, 0, reason) from exc
            yield line_no, data, text
            line_no += data.count(b"\n")


def _chunks(path):
    """Yield ``(first_line_no, lines)`` per ``_blocks`` block of a UTF-8
    text file, with the line endings stripped."""
    for first_line_no, _data, text in _blocks(path):
        lines = text.split("\n")
        if not lines[-1]:  # the block ends with a line break
            lines.pop()
        yield first_line_no, lines


def read_lines(path):
    """Yield ``(line_no, line)`` for each line of a UTF-8 text file, split
    and numbered as ``_chunks`` does: every line before undecodable bytes
    is yielded, then those bytes raise ``InputFormatError`` at line 0."""
    for first_line_no, lines in _chunks(path):
        yield from enumerate(lines, first_line_no)


def _is_data(line: str) -> bool:
    """Whether ``line`` is neither blank nor a comment (first non-blank ``#``)."""
    head = line.lstrip()
    return bool(head) and head[0] != "#"


def data_lines(path):
    """Yield ``(line_no, line)`` for each line of a UTF-8 text file that is
    neither blank nor a comment (``_is_data``)."""
    for line_no, line in read_lines(path):
        if _is_data(line):
            yield line_no, line


def _fields(path, line_no: int, line: str, count: int, noun: str = "fields") -> list[str]:
    """The field rule: ``line`` split at tabs into exactly ``count`` fields,
    or ``InputFormatError`` at ``path:line_no``."""
    fields = line.split("\t")
    if len(fields) != count:
        reason = f"expected {count} tab-separated {noun}, got {len(fields)}"
        raise InputFormatError(path, line_no, reason)
    return fields


def read_rows(path, count: int, noun: str = "fields"):
    """Yield ``(line_no, fields)`` for each line of ``data_lines(path)``,
    split by ``_fields``."""
    for line_no, line in data_lines(path):
        yield line_no, _fields(path, line_no, line, count, noun)


_INTEGER = re.compile(r"-?[0-9]+")


def shown(text: object) -> str:
    """``text`` as an error echoes it: whole up to 40 characters, else its
    first 40 and its length; a value that is not a ``str``, by its type."""
    if not isinstance(text, str):
        return type(text).__name__
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def shown_int(value: int) -> str:
    """``value`` as an error echoes an integer: unquoted, whole up to 40
    digits, else its sign, its first 40 digits and its digit count.  Only
    40 digits become text, so ``int``'s 4300-digit limit never applies."""
    sign, magnitude = "-" if value < 0 else "", abs(int(value))
    if magnitude < 10**40:
        return sign + str(magnitude)
    # log10(2) digits per bit, rounded down, never exceeds the count.
    digits = int(magnitude.bit_length() * math.log10(2))
    while 10**digits <= magnitude:
        digits += 1
    return f"{sign}{magnitude // 10 ** (digits - 40)}... ({digits} digits)"


def integer(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an ``int`` in ``low..high`` (``high`` None: no bound), or a
    ``ValueError`` naming ``name``: ``integer_array``'s scalar twin.  Python
    and numpy integers pass; a bool, float, str or None is echoed by ``shown``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {shown(value)}")
    value = int(value)
    if value < low or (high is not None and value > high):
        bound = f"be at least {low}" if high is None else f"lie in {low}..{high}"
        raise ValueError(f"{name} must {bound}, got {shown_int(value)}")
    return value


def number(value, name: str, rule: str, ok) -> Real:
    """``value`` if it is a real number that ``ok`` accepts, else a ``ValueError``
    naming ``name`` and ``rule``; a bool, str or None is echoed by ``shown``."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a number, got {shown(value)}")
    if not ok(value):
        got = shown_int(value) if isinstance(value, (int, np.integer)) else value
        raise ValueError(f"{name} {rule}, got {got}")
    return value


def boolean(value, name: str) -> bool:
    """``value`` as a ``bool``, or a ``ValueError`` naming ``name``: Python and
    numpy bools pass; anything else is echoed by ``shown``."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {shown(value)}")
    return bool(value)


def parse_int(text: str, path, line_no: int, what: str) -> int:
    """``text`` as an integer: ASCII digits after an optional ``-``, nothing
    else; the error echoes it as ``shown`` does.  Digits past ``int``'s
    limit make an integer with too many digits, as the JSON reader says."""
    if not _INTEGER.fullmatch(text):
        raise InputFormatError(path, line_no, f"{what} {shown(text)} is not an integer")
    try:
        return int(text)
    except ValueError:  # more digits than ``int`` converts
        reason = f"{what} {shown(text)} is an integer with too many digits"
        raise InputFormatError(path, line_no, reason) from None


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
        except (ValueError, RecursionError):  # reported by the line-by-line path
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
        except (ValueError, RecursionError) as exc:  # also too deep, or too many digits
            reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
            if type(exc) is ValueError:  # ``int``'s message runs to 130 characters
                reason = "an integer with too many digits"
            raise InputFormatError(path, line_no, f"invalid JSON ({reason})") from exc
        if not isinstance(obj, dict):
            raise InputFormatError(path, line_no, "expected a JSON object")
        yield line_no, obj


def integer_array(values, name: str, below: int | None = None) -> np.ndarray:
    """``values`` as an int64 array, or a ``ValueError`` naming ``name``.

    The dtype is tested: integers and arrays of integer dtype pass, bools,
    floats, strings and objects do not, so no value is rounded or parsed on
    the way in.  A bool beside ints in a list fails too, although numpy
    would read it as an int.  Empty input passes whatever its dtype.  With
    ``below``, the values are indices and must lie in ``0..below-1``.
    """
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got {array.dtype} values")
    if array.size and not isinstance(values, np.ndarray) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat
    ):
        raise ValueError(f"{name} must hold integers, got bool values")
    array = array.astype(np.int64, copy=False)
    if below is not None and array.size and (array.min() < 0 or array.max() >= below):
        raise ValueError(f"{name} hold an index outside 0..{below - 1}")
    return array


def count_pairs(major: np.ndarray, minor: np.ndarray, n_minor: int, mirror: bool = False):
    """The distinct ``(major, minor)`` pairs of two int64 index vectors in
    ascending order, as two vectors, and how often each occurs; with
    ``mirror``, each pair counts as ``(minor, major)`` too.  The keys
    ``major * n_minor + minor`` fill one array, sorted in place, and each run
    of equal keys is kept once: ``np.unique`` would copy them, and its hash
    path (numpy >= 2.3) is many times slower on millions of keys."""
    size = major.size
    keys = np.empty(2 * size if mirror else size, dtype=np.int64)
    for k, (a, b) in enumerate(((major, minor), (minor, major))[: 1 + mirror]):
        np.multiply(a, n_minor, out=keys[k * size : (k + 1) * size])
        keys[k * size : (k + 1) * size] += b
    keys.sort()
    starts = np.empty(keys.size, dtype=bool)
    starts[:1] = True  # an empty key list has no first key
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    keys = keys[starts]  # frees the sorted keys before the counts are taken
    counts = np.diff(np.flatnonzero(starts), append=starts.size)
    minors = keys % n_minor
    keys //= n_minor
    return keys, minors, counts


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """A sparse matrix as its ``nnz`` entries: ``data[e]`` at row ``rows[e]``
    and column ``cols[e]``, read-only int64 indices inside ``shape`` and
    finite float64 values; entries at one position add up.  ``A @ x`` and
    ``y @ A`` (``A.T @ y``) are one ``np.bincount`` each, in entry order."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray

    __array_ufunc__ = None  # ``ndarray @ SparseMatrix`` calls ``__rmatmul__``

    def __post_init__(self):
        if len(self.shape) != 2:
            raise ValueError(f"shape must hold 2 sizes, got {len(self.shape)}")
        m, n = (integer(d, "shape", 0) for d in self.shape)
        rows = integer_array(self.rows, "rows", m)
        cols = integer_array(self.cols, "cols", n)
        data = np.asarray(self.data)
        if rows.ndim != 1 or rows.shape != cols.shape:
            raise ValueError(
                "rows and cols must be vectors of one length, "
                f"got shapes {rows.shape} and {cols.shape}"
            )
        if data.shape != rows.shape or data.dtype.kind != "f" or not np.isfinite(data).all():
            raise ValueError(f"data must be a vector of {rows.size} finite floats")
        object.__setattr__(self, "shape", (m, n))
        data = data.astype(np.float64, copy=False)
        for name, array in (("rows", rows), ("cols", cols), ("data", data)):
            array = array.view()  # read-only, while the caller's array stays writable
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def nnz(self) -> int:
        return int(self.rows.size)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self._sum(x, self.cols, self.rows, self.shape[0])

    def __rmatmul__(self, y: np.ndarray) -> np.ndarray:
        return self._sum(y, self.rows, self.cols, self.shape[1])

    def _sum(self, v, take, into, size):
        """``data[e] * v[take[e]]`` summed into ``into[e]`` in entry order."""
        weights = np.asarray(v, dtype=np.float64)[take]
        weights *= self.data
        return np.bincount(into, weights=weights, minlength=size)


class ConvergenceWarning(UserWarning):
    """An iterative routine hit its iteration cap before reaching tolerance."""


_POSITIVE = partial(number, rule="must be positive and finite", ok=lambda v: 0.0 < v < math.inf)
_COUNT = partial(integer, low=1)
_PARAM_RULES = {
    "alpha": partial(number, rule="must lie strictly inside (0, 1)", ok=lambda v: 0.0 < v < 1.0),
    "ndim": _COUNT,
    "stress": _POSITIVE,
    "tol": _POSITIVE,
    "damping": partial(number, rule="must lie in (0, 1]", ok=lambda v: 0.0 < v <= 1.0),
    "consensus_epsilon": _POSITIVE,
    "consensus_max_iters": _COUNT,
    "power_max_iters": _COUNT,
    "bidirectional": boolean,
}


@dataclass(frozen=True)
class PipelineParams:
    """Every setting of the pipeline: its default and its valid range.

    ``alpha`` is the walk damping, ``ndim`` the SVD dimension k, ``stress``
    the row amplification of the resources under focus, ``tol`` the L1
    tolerance of the power iteration and ``damping`` the consensus step
    lambda.  Construction rejects a wrong type (a bool is not a number)
    and any out-of-range, NaN or infinite value with a ``ValueError``
    naming the field, so no stage checks them again.
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
        for name, check in _PARAM_RULES.items():
            object.__setattr__(self, name, check(getattr(self, name), name))


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


@dataclass(frozen=True, eq=False)
class CorpusBundle:
    """Everything one ranking run needs, in index form.

    ``resource_ids`` is sorted lexicographically and defines the index used
    by every vector and matrix row downstream; every other field refers to
    resources by that index only.  ``graph_edges`` is an ``(m, 2)`` int64
    array with one ``(subject, object)`` row per input triple, in input
    order (predicates dropped, parallel rows kept); ``texts`` holds one text
    per resource.  The result page has ``serp_size`` documents, and
    ``mentions`` is an ``(m, 2)`` int64 array with one ``(resource, rank)``
    row per mention of a resource by the document at that 1-based rank, in
    input order (repeats kept).  ``query`` holds resource indices too.
    ``corpus.load_bundle`` and ``corpus.assemble_bundle`` build bundles
    from resource identifiers.
    """

    resource_ids: tuple[str, ...]
    graph_edges: np.ndarray
    texts: tuple[str, ...]
    serp_size: int
    mentions: np.ndarray
    query: frozenset[int]

    def __post_init__(self):
        ids = self.resource_ids
        if not all(map(operator.lt, ids, ids[1:])):  # strictly increasing
            raise ValueError("resource_ids must be sorted and free of duplicates")
        n = len(self.resource_ids)
        size = integer(self.serp_size, "serp_size", 0)
        edges = integer_array(self.graph_edges, "graph_edges", n)
        mentions = integer_array(self.mentions, "mentions")
        for name, rows in (("graph_edges", edges), ("mentions", mentions)):
            if rows.ndim != 2 or rows.shape[1] != 2:
                raise ValueError(f"{name} must have shape (m, 2), got {rows.shape}")
        integer_array(mentions[:, 0], "mention resources", n)
        ranks = mentions[:, 1]
        if ranks.size and (ranks.min() < 1 or ranks.max() > size):
            raise ValueError(f"mention ranks lie outside 1..{size}")
        texts = tuple(self.texts)
        if len(texts) != n:
            raise ValueError(f"{len(texts)} texts for {n} resources")
        query = frozenset(integer_array(list(self.query), "query", n).tolist())
        object.__setattr__(self, "graph_edges", edges)
        object.__setattr__(self, "texts", texts)
        object.__setattr__(self, "serp_size", size)
        object.__setattr__(self, "mentions", mentions)
        object.__setattr__(self, "query", query)

    @property
    def n(self) -> int:
        return len(self.resource_ids)
