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
with a ``,`` is a dangling reference.  ``assemble_bundle`` resolves them
once, into the index form of ``CorpusBundle``; no later stage looks up an
identifier.
"""

from __future__ import annotations

import numpy as np

from .types import CorpusBundle, InputFormatError, SerpContext
from .types import data_lines, parse_int, read_objects, read_rows

__all__ = ["load_bundle", "assemble_bundle", "build_resource_text", "InputFormatError"]


def _check_resource_id(token: str, path, line_no: int, what: str) -> str:
    if token.split() == [token] and token[0] != "#":
        return token
    if not token:
        raise InputFormatError(path, line_no, f"empty {what}")
    if token.split() != [token]:
        raise InputFormatError(path, line_no, f"{what} {token!r} contains whitespace")
    raise InputFormatError(path, line_no, f"{what} {token!r} starts with '#'")


def _read_graph_file(path):
    """Yield the ``(subject, predicate, object)`` triples of a graph file."""
    for line_no, (subject, predicate, obj) in read_rows(path, 3):
        _check_resource_id(subject, path, line_no, "subject")
        _check_resource_id(obj, path, line_no, "object")
        if not predicate:
            raise InputFormatError(path, line_no, "empty predicate")
        yield subject, predicate, obj


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


def assemble_bundle(graph_edges, texts: dict[str, str], serp_docs, query) -> CorpusBundle:
    """Build a validated bundle from already-parsed primitives.

    This is the only place that maps resource identifiers to indices.
    ``graph_edges`` is an iterable of ``(subject, predicate, object)``
    triples, consumed once (a generator works); ``serp_docs`` is a sequence
    of ``(doc_id, [resource ids])`` in rank order.  An identifier with no
    entry in the texts table raises ``ValueError`` naming it; graph
    endpoints are resolved first, then query entries, then result-page
    mentions.
    """
    resource_ids = tuple(sorted(texts))
    index = {rid: i for i, rid in enumerate(resource_ids)}

    def resolve(rid: str, role: str) -> int:
        try:
            return index[rid]
        except KeyError:
            raise ValueError(f"{role} {rid!r} has no entry in the texts table") from None

    def endpoints():
        for s, _p, o in graph_edges:
            yield resolve(s, "graph subject")
            yield resolve(o, "graph object")

    edges = np.fromiter(endpoints(), dtype=np.int64).reshape(-1, 2)
    query_idx = frozenset(resolve(rid, "query resource") for rid in query)

    occurrences: dict[int, set[int]] = {}
    docs = []
    for rank, (doc_id, mentions) in enumerate(serp_docs, start=1):
        docs.append(doc_id)
        for rid in mentions:
            occurrences.setdefault(resolve(rid, "result-page resource"), set()).add(rank)

    serp = SerpContext(
        docs=tuple(docs),
        occurrences={i: frozenset(r) for i, r in occurrences.items()},
    )
    return CorpusBundle(
        resource_ids=resource_ids,
        graph_edges=edges,
        texts=tuple(texts[rid] for rid in resource_ids),
        serp=serp,
        query=query_idx,
    )


def load_bundle(graph_path, texts_path, serp_path, query_path) -> CorpusBundle:
    """Load, validate and assemble the four input files into one bundle.

    Raises ``InputFormatError`` for malformed lines (with file and line
    number), ``ValueError`` for dangling resource references, and the usual
    ``OSError`` family if a file is missing.  The graph file is read last
    and streamed into ``assemble_bundle`` without holding its triples, so a
    dangling reference on one graph line is reported before a format error
    on a later one.
    """
    texts = _read_texts_file(texts_path)
    serp_docs = _read_serp_file(serp_path)
    query = _read_query_file(query_path)
    return assemble_bundle(_read_graph_file(graph_path), texts, serp_docs, query)


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
