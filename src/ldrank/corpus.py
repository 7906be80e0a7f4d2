"""Corpus loading: graph triples, resource texts, result page, query set.

File formats
------------
graph     tab-separated ``subject<TAB>predicate<TAB>object`` triples, one per
          line.
texts     JSON Lines, one object per line with string fields ``id`` and
          ``text``.
serp      tab-separated ``rank<TAB>doc-id<TAB>resources`` where ``resources``
          is a comma-separated list of resource identifiers (possibly empty);
          ranks must be the contiguous range 1..N with no duplicates.  The
          doc id must be non-empty; nothing reads it, so it is not kept.
query     one resource identifier per line; the file may be empty.

The line rules shared by every input file are those of the ``types``
readers.  A resource id is non-empty, holds no whitespace and does not
start with ``#``.  The resource universe is exactly the set of ids in the
texts file; graph endpoints, result-page mentions and query entries must
all resolve inside it.  A texts-file id holds no ``,`` either, since
result pages separate mentions with it, so an endpoint or query entry
with a ``,`` is a dangling reference.  ``_record_fault`` holds these
rules for one texts record, for a texts file and for the texts table of
``assemble_bundle`` alike.  ``load_bundle`` and
``assemble_bundle`` number the ids once (``_index``) and resolve the
graph, then ``_assemble`` the query and the result page, into the index
form of ``CorpusBundle``: the result page becomes its size and one
``(resource, rank)`` row per mention.  No later stage looks up an
identifier.  An error echoes an id as ``types.shown`` does.

The graph file holds millions of lines, so ``load_bundle`` resolves it a
block of bytes at a time, with array operations on the block's UTF-8
bytes and no string per field.  They find the tabs and line breaks, take
each line with two tabs and a non-empty predicate, and look up its subject
and object in ``_IdTable``: the texts-file ids as rows of 8-byte words.  A
line passes this test when both endpoints are found.  By the id rules
above, no blank or comment line and no malformed or dangling id passes it,
so each line that fails goes alone, in line order, through
``_graph_line_ids``, the line rules: those of ``read_rows``, then the id
checks.  They skip it or report its fault exactly as a line loop would,
or resolve an id too long for the table.
"""

from __future__ import annotations

import numpy as np

from .types import CorpusBundle, InputFormatError, integer, shown, shown_int
from .types import _blocks, _fields, _is_data, data_lines, parse_int, read_objects, read_rows

__all__ = ["load_bundle", "assemble_bundle", "build_resource_text", "InputFormatError"]


def _id_fault(token: str, what: str) -> str | None:
    """Why ``token`` is no resource id, or None."""
    if token.split() == [token] and token[0] != "#":
        return None
    if not token:
        return f"empty {what}"
    if token.split() != [token]:
        return f"{what} {shown(token)} contains whitespace"
    return f"{what} {shown(token)} starts with '#'"


def _check_resource_id(token: str, path, line_no: int, what: str) -> str:
    fault = _id_fault(token, what)
    if fault:
        raise InputFormatError(path, line_no, fault)
    return token


def _record_fault(rid, text) -> str | None:
    """Why ``rid`` and ``text`` are no texts-file record, or None: the id
    and text are strings, the id a resource id, valid in UTF-8, with no
    ``,``, since result pages separate mentions with it."""
    if not isinstance(rid, str) or not isinstance(text, str):
        return 'expected string fields "id" and "text"'
    if rid.split() != [rid] or rid[0] == "#":  # ``_id_fault``'s test, without a call per id
        return _id_fault(rid, "resource id")
    if not rid.isascii():  # a flag read; JSON may spell a lone surrogate
        try:
            rid.encode("utf-8")
        except UnicodeEncodeError:
            return f"resource id {shown(rid)} is not valid in UTF-8"
    if "," in rid:
        return f"resource id {shown(rid)} contains ','"
    return None


def _predicate_fault(predicate) -> str | None:
    """Why ``predicate`` is no triple's predicate, or None: it is a
    non-empty ``str``, whether a graph file line or ``assemble_bundle``
    gives it."""
    if not isinstance(predicate, str):
        return f"predicate must be a string, got {shown(predicate)}"
    return None if predicate else "empty predicate"


def _resolve(index: dict[str, int], rid: str, role: str, path=None, line_no: int = 0) -> int:
    """``rid``'s index, else ``InputFormatError`` at ``path:line_no``, or
    ``ValueError`` with no ``path``."""
    try:
        return index[rid]
    except KeyError:
        reason = f"{role} {shown(rid)} has no entry in the texts table"
    raise ValueError(reason) if path is None else InputFormatError(path, line_no, reason)


#: ``_KEEP[k]`` keeps the low ``k`` bytes of a little-endian word.
_KEEP = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
#: Odd multipliers: for the length, and for each word and ``_mix``.
_ODD = np.array([0x9E3779B97F4A7C15, 0xFF51AFD7ED558CCD], dtype=np.uint64)
#: The widest row of ``_IdTable``, in words (512 bytes), and so of a block's fields.
_MAX_WIDTH = 64


def _words(data: bytes) -> np.ndarray:
    """The little-endian 8-byte word at every offset of ``data``, as a
    strided view of ``data`` padded with 8 zero bytes."""
    padded = data + bytes(8)
    return np.ndarray((len(data) + 1,), dtype="<u8", buffer=padded, strides=(1,))


def _mix(x: np.ndarray) -> np.ndarray:
    """Scramble a uint64 array one to one, every bit reaching the top bits;
    array arithmetic wraps where scalar arithmetic would warn."""
    x = (x ^ (x >> np.uint64(32))) * _ODD[1]
    return x ^ (x >> np.uint64(29))


def _rows(words, starts, lengths, width: int) -> np.ndarray:
    """Each field ``[start, start + length)`` as a row of ``width`` words,
    zero past its end and cut after ``width`` words, read within ``words``:
    a ``(width, fields)`` array, so one column per field."""
    step = 8 * np.arange(width)[:, None]
    rows = words[np.minimum(starts + step, words.size - 1)]
    rows &= _KEEP[np.clip(lengths - step, 0, 8)]
    return rows


class _IdTable:
    """The ids of an index by their UTF-8 bytes: each a row of ``width``
    words, zero past its end, with its length and value, in buckets by a
    hash of both, at least two buckets per id, so a lookup reads about one
    row.  A field matches a row only when its length and every word are
    equal.  ``width`` is the longest id in words, but at most ``_MAX_WIDTH``
    and four times the mean, so the rows hold at most four times the ids'
    words; a longer id has no row, and the line rules resolve it."""

    def __init__(self, index: dict[str, int]):
        encoded = [rid.encode("utf-8") for rid in index]
        lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
        sizes = (lengths + 7) // 8
        cap = min(4 * int(sizes.sum()) // max(1, sizes.size), _MAX_WIDTH)
        self._width = min(int(sizes.max(initial=0)), cap)
        kept = np.flatnonzero(sizes <= self._width)
        # The kept ids, then row -1, whose length -1 no field has and whose
        # value is -1.  int32 halves the blocks held until they are joined;
        # 2**31 ids would not fit in memory.
        lengths = np.append(lengths[kept], -1)
        values = np.fromiter(index.values(), dtype=np.int32, count=len(encoded))
        values = np.append(values[kept], np.int32(-1))
        words = _words(b"".join([encoded[k] for k in kept.tolist()]))
        rows = _rows(words, np.cumsum(lengths) - lengths, lengths, self._width)
        self._shift = np.uint64(64 - max(1, (2 * kept.size).bit_length()))
        bucket = self._bucket(rows[:, :-1], lengths[:-1])
        counts = np.bincount(bucket, minlength=1 << (64 - int(self._shift)))
        self._start = np.concatenate([[0], np.cumsum(counts)])
        order = np.append(np.argsort(bucket, kind="stable"), kept.size)
        # ``take`` keeps C order; every ``take`` from ``rows[:, order]``,
        # laid out transposed, would copy the whole table first.
        self._rows = rows.take(order, axis=1)
        self._length, self._value = lengths[order], values[order]

    def _bucket(self, rows, lengths):
        h = lengths.astype(np.uint64) * _ODD[0]
        for column in rows:
            h = (h ^ column) * _ODD[1]
        return (_mix(h) >> self._shift).astype(np.intp)

    def _differ(self, at, fields, lengths):
        """Whether each field differs in length or in a word from row ``at``."""
        return (self._length[at] != lengths) | (self._rows.take(at, axis=1) != fields).any(axis=0)

    def find(self, words, starts, lengths) -> np.ndarray:
        """The value of the id whose bytes each field holds, or -1."""
        fields = _rows(words, starts, lengths, self._width)
        bucket = self._bucket(fields, lengths)
        rows = self._start[bucket]
        # Every row with a field's bytes is in its bucket, so a field that
        # misses the first row of its bucket reads the rest of it, and a
        # field with no row gets row -1, the padding row.
        miss = np.flatnonzero(self._differ(rows, fields, lengths))
        if miss.size:
            count = np.maximum(self._start[bucket[miss] + 1] - rows[miss] - 1, 0)
            who = np.repeat(miss, count)
            step = np.arange(who.size) - np.repeat(np.cumsum(count) - count, count)
            at = rows[who] + 1 + step
            hit = ~self._differ(at, fields[:, who], lengths[who])
            rows[miss] = -1
            rows[who[hit]] = at[hit]
        return self._value[rows]


def _graph_file_ids(path, index: dict[str, int]):
    """Yield, per ``_blocks`` block of a graph file, an int32 array of the
    subject and object indices of its triples, in turn.

    ``index`` maps texts-file ids only.  Each line that fails the array
    test of the module docstring goes through ``_graph_line_ids`` on its
    own, in line order.
    """
    table = _IdTable(index)
    for first_line_no, data, _text in _blocks(path):
        yield _graph_block_ids(path, first_line_no, data, table, index)


def _graph_block_ids(path, first_line_no: int, data: bytes, table: _IdTable,
                     index: dict[str, int]) -> np.ndarray:
    """``_graph_file_ids`` of one block of whole lines."""
    # A line break before the block and after its last line, so line k
    # lies between breaks k and k + 1.
    data = b"\n" + data + (b"" if data.endswith(b"\n") else b"\n")
    codes = np.frombuffer(data, dtype=np.uint8)
    marks = np.flatnonzero((codes == 9) | (codes == 10))  # tabs and breaks
    at = np.flatnonzero(codes[marks] == 10)  # the marks that are breaks
    breaks = marks[at]
    begin, end = breaks[:-1] + 1, breaks[1:]
    # Two tabs on the line, and a predicate between them; on another line
    # the tabs read here are not its own, and an index below 0 wraps.
    tab1, tab2 = marks[at[1:] - 2], marks[at[1:] - 1]
    ok = (np.diff(at) == 3) & (tab2 > tab1 + 1)
    # Each line's subject and object, as byte fields; of length 0 where the
    # line is no triple, which ``ok`` rejects whatever they resolve to.
    starts = np.stack([begin, tab2 + 1], axis=1)
    lengths = np.where(ok[:, None], np.stack([tab1, end], axis=1) - starts, 0)
    pairs = table.find(_words(data), starts.ravel(), lengths.ravel()).reshape(-1, 2)
    ok &= (pairs >= 0).all(axis=1)
    if not ok.all():
        # The line rules skip or reject each of these lines, but for an
        # endpoint too long for the table's rows, which they resolve.
        for k in np.flatnonzero(~ok).tolist():
            line = data[breaks[k] + 1:breaks[k + 1]].decode("utf-8")
            ids = _graph_line_ids(path, first_line_no + k, line, index)
            if ids is not None:
                pairs[k] = ids
                ok[k] = True
        pairs = pairs[ok]
    return pairs.ravel()


def _graph_line_ids(path, line_no: int, line: str,
                    index: dict[str, int]) -> tuple[int, int] | None:
    """The line rules: the subject and object indices of one graph line, or
    ``None`` for a blank or comment line.  The line is checked, then its
    endpoints resolved, so a format fault is reported first; either is
    reported at ``path:line_no``."""
    if not _is_data(line):
        return None
    subject, predicate, obj = _fields(path, line_no, line, 3)
    _check_resource_id(subject, path, line_no, "subject")
    _check_resource_id(obj, path, line_no, "object")
    reason = _predicate_fault(predicate)
    if reason:
        raise InputFormatError(path, line_no, reason)
    return (_resolve(index, subject, "graph subject", path, line_no),
            _resolve(index, obj, "graph object", path, line_no))


def _read_texts_file(path) -> dict[str, str]:
    texts: dict[str, str] = {}
    for chunk in read_objects(path):
        for line_no, record in chunk:
            rid = record.get("id")
            text = record.get("text")
            reason = _record_fault(rid, text)
            if reason:
                raise InputFormatError(path, line_no, reason)
            if rid in texts:
                raise InputFormatError(path, line_no, f"duplicate resource id {shown(rid)}")
            texts[rid] = text
    return texts


def _read_serp_file(path) -> list[tuple[int, list[str]]]:
    """Each result's line number and mentioned resource ids, in rank order."""
    rows: dict[int, tuple[int, list[str]]] = {}
    for line_no, (rank_text, doc_id, mention_text) in read_rows(path, 3):
        rank = parse_int(rank_text, path, line_no, "rank")
        if rank < 1:
            raise InputFormatError(path, line_no, f"rank must be positive, got {shown_int(rank)}")
        if rank in rows:
            raise InputFormatError(path, line_no, f"duplicate rank {shown_int(rank)}")
        if not doc_id:
            raise InputFormatError(path, line_no, "empty document id")
        tokens = mention_text.split(",") if mention_text else []
        rows[rank] = line_no, [_check_resource_id(t, path, line_no, "resource id")
                               for t in tokens]
    expected = set(range(1, len(rows) + 1))
    if set(rows) != expected:
        missing = sorted(expected - set(rows))
        raise InputFormatError(
            path, 0, f"ranks are not contiguous from 1; missing {missing}"
        )
    return [rows[r] for r in sorted(rows)]


def _read_query_file(path) -> dict[str, int]:
    """Each resource id of a query file, with the line it is first on."""
    query: dict[str, int] = {}
    for line_no, line in data_lines(path):
        rid = _check_resource_id(line.strip(), path, line_no, "resource id")
        query.setdefault(rid, line_no)
    return query


def _index(texts: dict[str, str]) -> dict[str, int]:
    """Each texts-file id's index: its position in sorted order."""
    return {rid: i for i, rid in enumerate(sorted(texts))}


def _assemble(index: dict[str, int], edges: np.ndarray, texts: dict[str, str],
              serp, query, serp_path=None, query_path=None) -> CorpusBundle:
    """The bundle of ``texts``, numbered by ``index``, with ``edges`` the
    ``(m, 2)`` int64 array of subject and object indices; query entries,
    in sorted order, then result-page mentions, in rank order, are resolved
    here, each at its line (``_read_serp_file`` and ``_read_query_file``
    give the shapes) in its file, if one is given."""
    resource_ids = tuple(index)
    query_idx = frozenset(_resolve(index, rid, "query resource", query_path, line_no)
                          for rid, line_no in sorted(query.items()))
    mentions = [(_resolve(index, rid, "result-page resource", serp_path, line_no), rank)
                for rank, (line_no, rids) in enumerate(serp, start=1) for rid in rids]
    return CorpusBundle(
        resource_ids=resource_ids,
        graph_edges=edges,
        texts=tuple(map(texts.__getitem__, resource_ids)),
        serp_size=len(serp),
        mentions=np.array(mentions, dtype=np.int64).reshape(-1, 2),
        query=query_idx,
    )


def assemble_bundle(graph_edges, texts: dict[str, str], serp, query) -> CorpusBundle:
    """Build a validated bundle from already-parsed primitives.

    ``graph_edges`` is an iterable of ``(subject, predicate, object)``
    triples, consumed once (a generator works); ``serp`` is a sequence
    holding, per result in rank order, a list of the resource ids it
    mentions.  Each entry of ``texts`` must be a record a texts file can
    hold, and each predicate a non-empty ``str``, as on a graph file line,
    or the first bad one raises ``ValueError`` with the reason
    ``load_bundle`` gives.  Then an identifier with no entry in the texts
    table raises ``ValueError`` naming it; graph endpoints are resolved
    first, each triple's predicate checked before them, then query
    entries, then result-page mentions.  ``load_bundle`` maps identifiers
    to indices by the same rules.
    """
    for rid, text in texts.items():
        reason = _record_fault(rid, text)
        if reason:
            raise ValueError(reason)
    index = _index(texts)
    ids = []
    for s, p, o in graph_edges:
        reason = _predicate_fault(p)
        if reason:
            raise ValueError(reason)
        ids.append(_resolve(index, s, "graph subject"))
        ids.append(_resolve(index, o, "graph object"))
    edges = np.array(ids, dtype=np.int64).reshape(-1, 2)
    return _assemble(index, edges, texts, [(0, rids) for rids in serp], dict.fromkeys(query, 0))


def load_bundle(graph_path, texts_path, serp_path, query_path) -> CorpusBundle:
    """Load, validate and assemble the four input files into one bundle.

    Raises ``InputFormatError`` for malformed lines and for ids with no
    entry in the texts table (with file and line number), and the usual
    ``OSError`` family if a file is missing.  The graph file is read last,
    a block at a time, with its endpoints resolved as each block is read
    and no triple held; so a dangling reference on one graph line is
    reported before a format error on a later one.  Query entries, then
    result-page mentions, are resolved after it, as in ``assemble_bundle``.
    Last, a texts file with no record, and so no id in any file, is
    reported at ``texts_path:0``: a bundle needs at least one resource.
    """
    texts = _read_texts_file(texts_path)
    serp = _read_serp_file(serp_path)
    query = _read_query_file(query_path)
    index = _index(texts)
    blocks = _graph_file_ids(graph_path, index)
    edges = np.concatenate([np.empty(0, dtype=np.int32), *blocks], dtype=np.int64)
    bundle = _assemble(index, edges.reshape(-1, 2), texts, serp, query, serp_path, query_path)
    if not bundle.n:
        raise InputFormatError(texts_path, 0, "need at least one resource")
    return bundle


#: Characters of page text ``build_resource_text`` takes around each
#: surface form, half before it and half from it on.
TEXT_WINDOW = 300


def build_resource_text(abstract: str, page_text: str, surface_offsets) -> str:
    """Concatenate the abstract with fixed windows around each surface form.

    Each offset contributes the slice of ``page_text`` centred on it:
    ``TEXT_WINDOW // 2`` characters before the offset and as many from the
    offset on, clipped at the text bounds.  Offsets are integers in
    ``0..len(page_text) - 1`` (an empty text takes none), positions in the
    code-point sequence, so the arithmetic is safe for any UTF-8 input.
    Empty segments are dropped and the rest are joined with single spaces.
    """
    half = TEXT_WINDOW // 2
    n = len(page_text)
    segments = [abstract]
    for offset in surface_offsets:
        if not n:
            raise ValueError("surface offset given for an empty page text")
        offset = integer(offset, "surface offset", 0, n - 1)
        segments.append(page_text[max(0, offset - half):offset + half])
    return " ".join(seg for seg in segments if seg)
