import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldrank.corpus as corpus_module
from ldrank import CorpusBundle, InputFormatError, build_resource_text, load_bundle
from ldrank.corpus import TEXT_WINDOW, assemble_bundle


def test_load_bundle_basic(basic_bundle):
    b = basic_bundle
    assert b.resource_ids == ("Berlin", "City", "Europe", "Germany", "Museum", "River")
    assert b.n == 6
    # 9 triple lines survive as edges; the walk layer dedups pairs later.
    assert len(b.graph_edges) == 9
    assert b.serp_size == 3
    # Berlin is mentioned by the documents at ranks 1 and 2.
    assert [rank for i, rank in b.mentions.tolist() if i == 0] == [1, 2]
    assert {b.resource_ids[i] for i in b.query} == {"Germany"}


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _bundle_files(tmp_path, graph=None, texts=None, serp=None, query=None):
    graph_p = _write(tmp_path / "g.tsv", graph if graph is not None else "a\tp\tb\n")
    texts_p = _write(
        tmp_path / "t.jsonl",
        texts
        if texts is not None
        else '{"id": "a", "text": "alpha"}\n{"id": "b", "text": "beta"}\n',
    )
    serp_p = _write(tmp_path / "s.tsv", serp if serp is not None else "1\td1\ta\n")
    query_p = _write(tmp_path / "q.txt", query if query is not None else "b\n")
    return graph_p, texts_p, serp_p, query_p


# 64 bytes with its line break, so a 64 KiB block holds 1024 such lines.
_TRIPLE = "a\t" + "p" * 59 + "\tb"


def _many_chunk_graph(n_lines, bad):
    """``n_lines`` of ``a<TAB>ppp...<TAB>b``, with ``bad`` mapping line
    numbers to the lines that replace them."""
    return "".join(bad.get(k, _TRIPLE) + "\n" for k in range(1, n_lines + 1))


def test_clean_graph_chunks_are_taken_in_bulk(tmp_path):
    files = _bundle_files(tmp_path, graph=_many_chunk_graph(4000, {}))
    with mock.patch.object(corpus_module, "_graph_line_ids", side_effect=AssertionError):
        assert load_bundle(*files).graph_edges.tolist() == [[0, 1]] * 4000
    commented = _many_chunk_graph(4000, {1: "# a comment", 2000: "", 3999: "  # b"})
    files = _bundle_files(tmp_path, graph=commented)
    rules = corpus_module._graph_line_ids
    with mock.patch.object(corpus_module, "_graph_line_ids", wraps=rules) as seen:
        assert load_bundle(*files).graph_edges.tolist() == [[0, 1]] * 3997
    # Only the lines that are not triples reach the line rules, one at a time.
    assert [c.args[1:3] for c in seen.call_args_list] == [
        (1, "# a comment"), (2000, ""), (3999, "  # b"),
    ]


def test_long_ids_that_share_their_ends_are_taken_in_bulk(tmp_path):
    # DBpedia-like ids: one prefix, one suffix, some of one length.
    names = ["A_1000", "B_1000", "A_10000", "Ab_1000", "A", "A_1001", "\xe9_1000"]
    ids = [f"http://dbpedia.org/resource/{name}_(film)" for name in names]
    texts = "".join(f'{{"id": "{rid}", "text": "t"}}\n' for rid in ids)
    pairs = [(s, o) for s in range(len(ids)) for o in range(len(ids))]
    graph = "".join(f"{ids[s]}\tp\t{ids[o]}\n" for s, o in pairs)
    files = _bundle_files(tmp_path, graph=graph, texts=texts,
                          serp=f"1\td1\t{ids[0]}\n", query=f"{ids[1]}\n")
    with mock.patch.object(corpus_module, "_graph_line_ids", side_effect=AssertionError):
        bundle = load_bundle(*files)
    rank = {rid: k for k, rid in enumerate(sorted(ids))}
    assert bundle.graph_edges.tolist() == [[rank[ids[s]], rank[ids[o]]] for s, o in pairs]


@pytest.mark.parametrize("rid, others", [
    ("a", ["a\x00", "a\x00\x00", ""]),
    ("a\x00", ["a", "a\x00\x00", ""]),
    ("\x00", ["", "\x00\x00"]),
])
def test_id_table_finds_a_field_only_at_its_own_length(rid, others):
    # The same words at other lengths.  With one id in four buckets, a field
    # whose bucket comes before the id's reads the id's row, and only the
    # length tells them apart.
    fields = [rid, *others]
    data = "\n".join(fields).encode("utf-8")
    lengths = np.array([len(field.encode("utf-8")) for field in fields])
    starts = np.cumsum(lengths + 1) - lengths - 1
    found = corpus_module._IdTable({rid: 7}).find(corpus_module._words(data), starts, lengths)
    assert found.tolist() == [7] + [-1] * len(others)


def test_an_id_too_long_for_the_table_rows_goes_through_the_line_rules(tmp_path):
    # 10k short ids and one of 1 MiB: rows as wide as the long id would
    # take 10k x 1 MiB, so the long id has no row.
    ids = [f"r{k}" for k in range(10_000)] + ["L" * (1 << 20)]
    texts = "".join(f'{{"id": "{rid}", "text": "t"}}\n' for rid in ids)
    n = len(ids)
    long_pairs = [(n - 1, 3), (5, n - 1), (n - 1, n - 1)]
    pairs = [(k, 7919 * k % (n - 1)) for k in range(n - 1)]
    pairs[5000:5000] = long_pairs
    graph = "".join(f"{ids[s]}\tp\t{ids[o]}\n" for s, o in pairs)
    files = _bundle_files(tmp_path, graph=graph, texts=texts, serp="1\td1\tr1\n",
                          query="r2\n")
    rules = corpus_module._graph_line_ids
    with mock.patch.object(corpus_module, "_graph_line_ids", wraps=rules) as seen:
        bundle = load_bundle(*files)
    rank = {rid: k for k, rid in enumerate(sorted(ids))}
    assert bundle.graph_edges.tolist() == [[rank[ids[s]], rank[ids[o]]] for s, o in pairs]
    assert [c.args[1] for c in seen.call_args_list] == [5001, 5002, 5003]

    index = {rid: rank[rid] for rid in ids}
    tracemalloc.start()
    try:
        table = corpus_module._IdTable(index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The rows hold at most four times the ids' own words, and making them
    # takes three arrays of that size.
    words = 8 * sum((len(rid.encode()) + 7) // 8 for rid in ids)
    assert table._rows.nbytes <= 4 * words
    assert peak < 16 * words


def test_basic_fixture_loads_alike_in_bulk_and_line_by_line(basic_bundle, basic_dir, tmp_path):
    # The fixture's comment line goes through the line rules; without it,
    # every line is taken in bulk.
    lines = (basic_dir / "graph.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[0].startswith("#")
    graph = tmp_path / "graph.tsv"
    graph.write_text("".join(lines[1:]), encoding="utf-8")
    with mock.patch.object(corpus_module, "_graph_line_ids", side_effect=AssertionError):
        bulk = load_bundle(
            graph, basic_dir / "texts.jsonl", basic_dir / "serp.tsv", basic_dir / "query.txt"
        )
    assert bulk.resource_ids == basic_bundle.resource_ids
    assert bulk.graph_edges.dtype == basic_bundle.graph_edges.dtype
    assert np.array_equal(bulk.graph_edges, basic_bundle.graph_edges)
    assert bulk.texts == basic_bundle.texts
    assert bulk.serp_size == basic_bundle.serp_size
    assert np.array_equal(bulk.mentions, basic_bundle.mentions)
    assert bulk.query == basic_bundle.query


def test_assemble_orders_ids_lexicographically():
    bundle = assemble_bundle(
        [("z", "p", "m")],
        {"z": "", "m": "", "a": ""},
        [["m"]],
        set(),
    )
    assert bundle.resource_ids == ("a", "m", "z")
    assert bundle.serp_size == 1
    assert bundle.mentions.tolist() == [[1, 1]]


# ------------------------------------------------- index-form properties

_NAMES = st.text(alphabet="abc", min_size=1, max_size=3)


@st.composite
def _parsed_bundles(draw):
    """Parsed primitives of a small bundle: triples, texts, serp, query."""
    ids = draw(st.lists(_NAMES, min_size=1, max_size=6, unique=True))
    known = st.sampled_from(ids)
    triples = draw(st.lists(st.tuples(known, st.sampled_from(("p", "q")), known), max_size=12))
    texts = {rid: draw(st.text(alphabet="xyz ", max_size=8)) for rid in ids}
    serp = draw(st.lists(st.lists(known, max_size=3), max_size=4))
    query = draw(st.sets(known))
    return triples, texts, serp, query


@settings(max_examples=200, deadline=None)
@given(_parsed_bundles())
def test_assemble_bundle_maps_every_id_to_its_index(parsed):
    triples, texts, serp, query = parsed
    bundle = assemble_bundle(iter(triples), texts, serp, query)
    ids = bundle.resource_ids
    assert bundle.graph_edges.shape == (len(triples), 2)
    for k, (s, _p, o) in enumerate(triples):
        assert (ids[bundle.graph_edges[k, 0]], ids[bundle.graph_edges[k, 1]]) == (s, o)
    for i, rid in enumerate(ids):
        assert bundle.texts[i] == texts[rid]
    assert {ids[i] for i in bundle.query} == set(query)
    assert bundle.serp_size == len(serp)
    assert bundle.mentions.shape == (sum(map(len, serp)), 2)
    mentioned = [(ids[i], r) for i, r in bundle.mentions.tolist()]
    assert mentioned == [(rid, r) for r, rids in enumerate(serp, start=1) for rid in rids]


@settings(max_examples=200, deadline=None)
@given(
    _parsed_bundles(),
    st.sampled_from(("subject", "object", "query", "serp")),
    st.integers(min_value=0, max_value=12),
    st.text(alphabet="abcz", min_size=1, max_size=3).filter(lambda x: "z" in x),
)
def test_assemble_bundle_names_an_unknown_id_in_any_role(parsed, role, at, unknown):
    triples, texts, serp, query = parsed
    triples, serp, query = list(triples), list(serp), set(query)
    if role == "subject":
        triples.insert(at % (len(triples) + 1), (unknown, "p", next(iter(texts))))
    elif role == "object":
        triples.insert(at % (len(triples) + 1), (next(iter(texts)), "p", unknown))
    elif role == "query":
        query.add(unknown)
    else:
        serp.insert(at % (len(serp) + 1), [unknown])
    # With no file to point at, the error names the id alone.
    what = {"subject": "graph subject", "object": "graph object", "query": "query resource",
            "serp": "result-page resource"}[role]
    with pytest.raises(ValueError) as exc:
        assemble_bundle(triples, texts, serp, query)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"{what} {unknown!r} has no entry in the texts table"


@pytest.mark.parametrize("predicate, reason", [
    ("", "empty predicate"), (5, "predicate must be a string, got int"),
    (None, "predicate must be a string, got NoneType"),
])
def test_assemble_bundle_takes_the_predicates_a_graph_file_takes(predicate, reason):
    # A graph file line with an empty predicate gets the same reason (row
    # graph-line-empty-predicate of the CLI table).
    with pytest.raises(ValueError, match=f"^{reason}$"):
        assemble_bundle([("a", predicate, "b")], {"a": "", "b": ""}, [], [])


def _mostly(good, bad):
    """Draw from ``good`` three times in four, else from ``bad``."""
    return st.integers(0, 3).flatmap(lambda k: bad if k == 0 else good)


# Ids and texts of records a texts file may or may not hold: each record
# rule is broken by some, and about a third of the tables build.
_RECORD_IDS = _mostly(
    _NAMES, st.sampled_from(["", "#a", "a b", "a\x85", "a,b", "Zed\ud800", "\xe9", 0, None]),
)
_RECORD_TEXTS = _mostly(st.text(alphabet="xyz ", max_size=4), st.sampled_from([1, None, ["t"]]))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_RECORD_IDS, _RECORD_TEXTS, min_size=1, max_size=4))
def test_assemble_bundle_takes_the_records_load_bundle_takes(tmp_path_factory, texts):
    # The same records as a texts file: the same bundle, or the loader's
    # reason without its "path:line: " prefix.
    lines = "".join(json.dumps({"id": rid, "text": text}) + "\n" for rid, text in texts.items())
    files = _bundle_files(tmp_path_factory.mktemp("texts"), graph="", texts=lines, serp="",
                          query="")
    try:
        loaded = load_bundle(*files)
    except InputFormatError as exc:
        with pytest.raises(ValueError) as built:
            assemble_bundle([], texts, [], [])
        assert type(built.value) is ValueError and str(built.value) == exc.reason
        return
    built = assemble_bundle([], texts, [], [])
    assert (built.resource_ids, built.texts) == (loaded.resource_ids, loaded.texts)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    offset=st.integers(min_value=0, max_value=2**40),
    below=st.booleans(),
    field=st.sampled_from(("subject", "object", "query", "mentioned", "rank")),
)
def test_corpus_bundle_rejects_out_of_range_indices(n, offset, below, field):
    # n resources, and a result page of n documents, ranked 1..n.
    bad = -1 - offset if below else n + offset
    edges = [[0, 0]]
    query = {0}
    mentions = [[0, 1]]
    if field == "query":
        query = {bad}
    elif field == "mentioned":
        mentions = [[bad, 1]]
    elif field == "rank":
        mentions = [[0, bad + 1]]
    else:
        edges = [[bad, 0]] if field == "subject" else [[0, bad]]
    with pytest.raises(ValueError, match="outside"):
        CorpusBundle(
            resource_ids=tuple(f"r{i}" for i in range(n)),
            graph_edges=np.array(edges, dtype=np.int64),
            texts=("",) * n,
            serp_size=n,
            mentions=np.array(mentions, dtype=np.int64),
            query=frozenset(query),
        )


@pytest.mark.parametrize("index", [3, 99])
def test_corpus_bundle_rejects_out_of_range_serp_index(index):
    with pytest.raises(ValueError, match=r"^mention resources hold an index outside 0\.\.2$"):
        CorpusBundle(
            resource_ids=("a", "b", "c"),
            graph_edges=np.zeros((0, 2), dtype=np.int64),
            texts=("", "", ""),
            serp_size=1,
            mentions=[[0, 1], [index, 1]],
            query=frozenset(),
        )


@pytest.mark.parametrize(
    "edges, texts, message",
    [
        (np.zeros((1, 3), dtype=np.int64), ("", ""), "shape"),
        (np.zeros(2, dtype=np.int64), ("", ""), "shape"),
        (np.zeros((0, 2), dtype=np.int64), ("",), "1 texts for 2 resources"),
        (np.zeros((0, 2), dtype=np.int64), ("", "", ""), "3 texts for 2 resources"),
    ],
)
def test_corpus_bundle_rejects_malformed_arrays(edges, texts, message):
    with pytest.raises(ValueError, match=message):
        CorpusBundle(
            resource_ids=("a", "b"),
            graph_edges=edges,
            texts=texts,
            serp_size=0,
            mentions=np.zeros((0, 2), dtype=np.int64),
            query=frozenset(),
        )


# ------------------------------------------------------- resource text


def test_build_resource_text_windows():
    assert TEXT_WINDOW == 300
    page = "x" * 350 + "y" * 300 + "z" * 350
    out = build_resource_text("ABSTRACT", page, [500])
    # Window is [500-150, 500+150) over the page.
    assert out == "ABSTRACT " + page[350:650]
    assert len(out) == len("ABSTRACT") + 1 + 300


def test_build_resource_text_clips_at_bounds():
    page = "abcdefghij" * 100  # 1000 chars
    out = build_resource_text("A", page, [10])
    assert out == "A " + page[0:160]
    out_end = build_resource_text("A", page, [995])
    assert out_end == "A " + page[845:1000]


def test_build_resource_text_abstract_only():
    assert build_resource_text("just the abstract", "page", []) == "just the abstract"


def test_build_resource_text_empty_segments_dropped():
    out = build_resource_text("", "hello world", [1])
    # Empty abstract vanishes instead of leaving a stray leading space;
    # the window is [1-150, 1+150) clipped to the page.
    assert out == "hello world"


def test_build_resource_text_length_bound():
    page = "p" * 2000
    abstract = "a" * 57
    offsets = [0, 500, 1999, 1000]
    out = build_resource_text(abstract, page, offsets)
    assert len(out) <= len(abstract) + len(offsets) * (TEXT_WINDOW + 1)


def test_build_resource_text_rejects_bad_offsets():
    with pytest.raises(ValueError):
        build_resource_text("a", "page", [4])
    with pytest.raises(ValueError):
        build_resource_text("a", "page", [-1])


def test_build_resource_text_offsets_are_code_points():
    # Multi-byte characters count as single positions.
    page = "é" * 200 + "ñ" * 200
    out = build_resource_text("A", page, [200])
    assert out == "A " + "é" * 150 + "ñ" * 150
