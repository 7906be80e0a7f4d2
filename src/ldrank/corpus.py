"""Corpus loading: graph triples, resource texts, result page, query set.

File formats
------------
graph     tab-separated ``subject<TAB>predicate<TAB>object`` triples, one per
          line.
texts     JSON Lines, one object per line with string fields ``id`` and
          ``text``.
serp      tab-separated ``rank<TAB>doc-id<TAB>resources`` where ``resources``
          is a comma-separated list of resource identifiers (possibly empty);
          ranks must be the contiguous range 1..N with no duplicates.
query     one resource identifier per line; the file may be empty.

The line rules shared by every input file are those of the ``types``
readers.  A resource id is non-empty, holds no whitespace and does not
start with ``#``.  The resource universe is exactly the set of ids in the
texts file; graph endpoints, result-page mentions and query entries must
all resolve inside it.  A texts-file id holds no ``,`` either, since
result pages separate mentions with it, so an endpoint or query entry
with a ``,`` is a dangling reference.  ``load_bundle`` and
``assemble_bundle`` resolve them once, into the index form of
``CorpusBundle``; no later stage looks up an identifier.

The graph file holds millions of lines, so ``load_bundle`` resolves it a
block of bytes at a time, with array operations on the block's UTF-8
bytes and no string per field.  They find the tabs and line breaks, take
each line with two tabs and a non-empty predicate, and look up the bytes
of its subject and object in ``_IdTable``, a hash table of the texts-file
ids built once per load.  A line passes this test when both endpoints are
found.  By the id rules above, no blank or comment line and no malformed
or dangling id passes it, so each line that fails goes alone, in line
order, through ``_graph_chunk_ids``, the line rules, which skip it or
report its fault exactly as a line loop would.
"""

from __future__ import annotations

import numpy as np

from .types import CorpusBundle, InputFormatError, SerpContext
from .types import _blocks, chunk_rows, data_lines, parse_int, read_objects, read_rows

__all__ = ["load_bundle", "assemble_bundle", "build_resource_text", "InputFormatError"]


def _check_resource_id(token: str, path, line_no: int, what: str) -> str:
    if token.split() == [token] and token[0] != "#":
        return token
    if not token:
        raise InputFormatError(path, line_no, f"empty {what}")
    if token.split() != [token]:
        raise InputFormatError(path, line_no, f"{what} {token!r} contains whitespace")
    raise InputFormatError(path, line_no, f"{what} {token!r} starts with '#'")


def _resolve(index: dict[str, int], rid: str, role: str) -> int:
    try:
        return index[rid]
    except KeyError:
        raise ValueError(f"{role} {rid!r} has no entry in the texts table") from None


#: ``_KEEP[k]`` keeps the low ``k`` bytes of a little-endian word.
_KEEP = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
#: Odd multipliers for the hashes.
_ODD = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
                 0xFF51AFD7ED558CCD], dtype=np.uint64)


def _words(data: bytes) -> np.ndarray:
    """The little-endian 8-byte word at every offset of ``data``, as a
    strided view of ``data`` padded with 8 zero bytes."""
    padded = data + bytes(8)
    return np.ndarray((len(data) + 1,), dtype="<u8", buffer=padded, strides=(1,))


def _mix(x: np.ndarray) -> np.ndarray:
    """Scramble a uint64 array one to one, every bit reaching the top bits;
    array arithmetic wraps where scalar arithmetic would warn."""
    x = (x ^ (x >> np.uint64(32))) * _ODD[3]
    return x ^ (x >> np.uint64(29))


def _field_words(words, starts, lengths):
    """The bytes of each field ``[start, start + length)`` as 8-byte words,
    bytes past the field zeroed, concatenated; each word's place in its
    field; and where each field's words begin."""
    count = (lengths + 7) // 8
    begin = np.cumsum(count) - count
    k = np.arange(int(count.sum())) - np.repeat(begin, count)
    at = np.repeat(starts, count) + 8 * k
    left = np.repeat(lengths, count) - 8 * k
    return words[at] & _KEEP[np.minimum(left, 8)], k, begin


def _field_keys(words, starts, lengths):
    """Two words that, with its byte length, key each field: its first 8
    bytes and its last 8 bytes (for a field of up to 8 bytes, both are its
    bytes, zero-padded), which hold the whole of a field of up to 16 bytes.

    A longer field also mixes a hash of all its bytes into the second word,
    so ids that share their two ends and their length still differ in key,
    though not surely.  So the longer fields are returned too, as indices
    and their ``_field_words``, for ``_IdTable.find`` to compare.
    """
    keep = _KEEP[np.minimum(lengths, 8)]
    first = words[starts] & keep
    last = words[np.maximum(starts, starts + lengths - 8)] & keep
    long = np.flatnonzero(lengths > 16)
    if not long.size:  # no words, no places, no beginnings
        return first, last, (long, np.empty(0, dtype=np.uint64), long, long)
    pieces, k, begin = _field_words(words, starts[long], lengths[long])
    hashed = np.add.reduceat(_mix(pieces + k.astype(np.uint64) * _ODD[0]), begin)
    last[long] ^= _mix(hashed)
    return first, last, (long, pieces, k, begin)


class _IdTable:
    """The ids of an index by the key of their UTF-8 bytes: rows
    ``(first, last, length, value)`` grouped in buckets by a hash of the
    key, at least two buckets per id, so a lookup reads about one row."""

    def __init__(self, index: dict[str, int]):
        encoded = [rid.encode("utf-8") for rid in index]
        lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
        words = _words(b"".join(encoded))
        offsets = np.cumsum(lengths) - lengths
        first, last, (long, pieces, _, begin) = _field_keys(words, offsets, lengths)
        # The words of the ids of more than 16 bytes, and where each begins;
        # a zero word last, so a ``take`` always has a word to clip to.
        self._pieces = np.append(pieces, np.uint64(0))
        piece_at = np.zeros(len(encoded), dtype=np.int64)
        piece_at[long] = begin
        self._shift = np.uint64(64 - max(1, (2 * len(encoded)).bit_length()))
        bucket = self._bucket(first, last, lengths)
        order = np.argsort(bucket, kind="stable")
        counts = np.bincount(bucket, minlength=1 << (64 - int(self._shift)))
        self._start = np.concatenate([[0], np.cumsum(counts)])
        # An empty bucket's first row is the next bucket's, or this padding
        # row, whose length -1 matches no field and whose value is -1.
        self._first = np.append(first[order], np.uint64(0))
        self._last = np.append(last[order], np.uint64(0))
        self._length = np.append(lengths[order], -1)
        self._piece_at = np.append(piece_at[order], 0)
        # int32 halves the blocks held until they are joined; an index of
        # 2**31 ids would not fit in memory.
        values = np.fromiter(index.values(), dtype=np.int32, count=len(encoded))
        self._value = np.append(values[order], np.int32(-1))

    def _bucket(self, first, last, lengths):
        h = first * _ODD[0] ^ last * _ODD[1] ^ lengths.astype(np.uint64) * _ODD[2]
        return (_mix(h) >> self._shift).astype(np.intp)

    def find(self, words, starts, lengths) -> np.ndarray:
        """The value of the id whose bytes each field holds, or -1."""
        first, last, (long, pieces, k, begin) = _field_keys(words, starts, lengths)
        bucket = self._bucket(first, last, lengths)
        rows = self._start[bucket]
        # Every row with a field's key is in its bucket, so a field that
        # misses the first row of its bucket reads the rest of it, and a
        # field with no row gets row -1, the padding row.
        miss = np.flatnonzero(
            (self._first[rows] != first) | (self._last[rows] != last)
            | (self._length[rows] != lengths)
        )
        if miss.size:
            count = np.maximum(self._start[bucket[miss] + 1] - rows[miss] - 1, 0)
            who = np.repeat(miss, count)
            step = np.arange(who.size) - np.repeat(np.cumsum(count) - count, count)
            at = rows[who] + 1 + step
            hit = (
                (self._first[at] == first[who]) & (self._last[at] == last[who])
                & (self._length[at] == lengths[who])
            )
            rows[miss] = -1
            rows[who[hit]] = at[hit]
        # The key is the whole of a field of up to 16 bytes; a longer field
        # must match its row's id word for word, so byte for byte.  A row
        # that matched has the field's length, so its words are in range.
        if long.size:
            at = np.repeat(self._piece_at[rows[long]], np.diff(begin, append=k.size)) + k
            theirs = self._pieces.take(at, mode="clip")
            differ = np.bitwise_or.reduceat(pieces ^ theirs, begin) != 0
            rows[long[differ]] = -1
        return self._value[rows]


def _graph_file_ids(path, index: dict[str, int]):
    """Yield, per ``_blocks`` block of a graph file, an int32 array of the
    subject and object indices of its triples, in turn.

    ``index`` maps texts-file ids only.  Each line that fails the array
    test of the module docstring goes through ``_graph_chunk_ids`` on its
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
        # The line rules skip or reject each of these lines, but for a long
        # endpoint whose key another id shares, which they resolve.
        for k in np.flatnonzero(~ok).tolist():
            line = data[breaks[k] + 1:breaks[k + 1]].decode("utf-8")
            ids = _graph_chunk_ids(path, first_line_no + k, [line], index)
            if ids:
                pairs[k] = ids
                ok[k] = True
        pairs = pairs[ok]
    return pairs.ravel()


def _graph_chunk_ids(path, first_line_no: int, lines: list[str],
                     index: dict[str, int]) -> list[int]:
    """The line rules: the endpoint indices of ``lines``, numbered from
    ``first_line_no``, line by line.  Each line is checked, then its
    endpoints resolved, so the first fault in line order raises."""
    ids = []
    for line_no, (subject, predicate, obj) in chunk_rows(path, first_line_no, lines, 3):
        _check_resource_id(subject, path, line_no, "subject")
        _check_resource_id(obj, path, line_no, "object")
        if not predicate:
            raise InputFormatError(path, line_no, "empty predicate")
        ids.append(_resolve(index, subject, "graph subject"))
        ids.append(_resolve(index, obj, "graph object"))
    return ids


def _read_texts_file(path) -> dict[str, str]:
    texts: dict[str, str] = {}
    for chunk in read_objects(path):
        for line_no, record in chunk:
            rid = record.get("id")
            text = record.get("text")
            if not isinstance(rid, str) or not isinstance(text, str):
                raise InputFormatError(
                    path, line_no, 'expected string fields "id" and "text"'
                )
            _check_resource_id(rid, path, line_no, "resource id")
            if "," in rid:  # result pages separate mentions with ","
                raise InputFormatError(path, line_no, f"resource id {rid!r} contains ','")
            if rid in texts:
                raise InputFormatError(path, line_no, f"duplicate resource id {rid!r}")
            texts[rid] = text
    return texts


def _read_serp_file(path) -> list[tuple[str, list[str]]]:
    rows: dict[int, tuple[str, list[str]]] = {}
    for line_no, (rank_text, doc_id, mention_text) in read_rows(path, 3):
        rank = parse_int(rank_text, path, line_no, "rank")
        if rank < 1:
            raise InputFormatError(path, line_no, f"rank must be positive, got {rank}")
        if rank in rows:
            raise InputFormatError(path, line_no, f"duplicate rank {rank}")
        if not doc_id:
            raise InputFormatError(path, line_no, "empty document id")
        mentions = []
        if mention_text:
            for token in mention_text.split(","):
                mentions.append(
                    _check_resource_id(token, path, line_no, "resource id")
                )
        rows[rank] = (doc_id, mentions)
    expected = set(range(1, len(rows) + 1))
    if set(rows) != expected:
        missing = sorted(expected - set(rows))
        raise InputFormatError(
            path, 0, f"ranks are not contiguous from 1; missing {missing}"
        )
    return [rows[r] for r in sorted(rows)]


def _read_query_file(path) -> set[str]:
    return {
        _check_resource_id(line.strip(), path, line_no, "resource id")
        for line_no, line in data_lines(path)
    }


def _assemble(graph_edges, texts: dict[str, str], serp_docs, query) -> CorpusBundle:
    """The bundle of ``texts``, with ``graph_edges(index)`` giving the
    ``(m, 2)`` int64 array of subject and object indices; query entries,
    then result-page mentions, are resolved after it."""
    resource_ids = tuple(sorted(texts))
    index = {rid: i for i, rid in enumerate(resource_ids)}
    edges = graph_edges(index)
    query_idx = frozenset(_resolve(index, rid, "query resource") for rid in query)

    occurrences: dict[int, set[int]] = {}
    docs = []
    for rank, (doc_id, mentions) in enumerate(serp_docs, start=1):
        docs.append(doc_id)
        for rid in mentions:
            i = _resolve(index, rid, "result-page resource")
            occurrences.setdefault(i, set()).add(rank)

    serp = SerpContext(
        docs=tuple(docs),
        occurrences={i: frozenset(r) for i, r in occurrences.items()},
    )
    return CorpusBundle(
        resource_ids=resource_ids,
        graph_edges=edges,
        texts=tuple(map(texts.__getitem__, resource_ids)),
        serp=serp,
        query=query_idx,
    )


def assemble_bundle(graph_edges, texts: dict[str, str], serp_docs, query) -> CorpusBundle:
    """Build a validated bundle from already-parsed primitives.

    ``graph_edges`` is an iterable of ``(subject, predicate, object)``
    triples, consumed once (a generator works); ``serp_docs`` is a sequence
    of ``(doc_id, [resource ids])`` in rank order.  An identifier with no
    entry in the texts table raises ``ValueError`` naming it; graph
    endpoints are resolved first, then query entries, then result-page
    mentions.  ``load_bundle`` maps identifiers to indices by the same
    rules.
    """

    def graph_ids(index):
        for s, _p, o in graph_edges:
            yield _resolve(index, s, "graph subject")
            yield _resolve(index, o, "graph object")

    def edges(index):
        return np.fromiter(graph_ids(index), dtype=np.int64).reshape(-1, 2)

    return _assemble(edges, texts, serp_docs, query)


def load_bundle(graph_path, texts_path, serp_path, query_path) -> CorpusBundle:
    """Load, validate and assemble the four input files into one bundle.

    Raises ``InputFormatError`` for malformed lines (with file and line
    number), ``ValueError`` for dangling resource references, and the usual
    ``OSError`` family if a file is missing.  The graph file is read last,
    a block at a time, with its endpoints resolved as each block is read
    and no triple held; so a dangling reference on one graph line
    is reported before a format error on a later one.  Query entries, then
    result-page mentions, are resolved after it, as in ``assemble_bundle``.
    """
    texts = _read_texts_file(texts_path)
    serp_docs = _read_serp_file(serp_path)
    query = _read_query_file(query_path)

    def edges(index):
        blocks = [np.empty(0, dtype=np.int32), *_graph_file_ids(graph_path, index)]
        return np.concatenate(blocks, dtype=np.int64).reshape(-1, 2)

    return _assemble(edges, texts, serp_docs, query)


def build_resource_text(
    abstract: str,
    page_text: str,
    surface_offsets,
    window: int = 300,
) -> str:
    """Concatenate the abstract with fixed windows around each surface form.

    Each offset contributes the slice of ``page_text`` centred on it:
    ``window // 2`` characters before the offset and the remaining
    ``window - window // 2`` from the offset on, clipped at the text
    bounds.  Offsets are positions in the code-point sequence, so the
    arithmetic is safe for any UTF-8 input.  Empty segments are dropped and
    the rest are joined with single spaces.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    n = len(page_text)
    segments = [abstract]
    for offset in surface_offsets:
        if not 0 <= offset < n:
            raise ValueError(
                f"surface offset {offset} outside page text of length {n}"
            )
        start = max(0, offset - window // 2)
        end = min(n, offset + (window - window // 2))
        segments.append(page_text[start:end])
    return " ".join(seg for seg in segments if seg)
