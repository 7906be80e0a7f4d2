import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldrank import CorpusBundle, InputFormatError, SerpContext, build_resource_text, load_bundle
from ldrank.corpus import assemble_bundle


def test_load_bundle_basic(basic_bundle):
    b = basic_bundle
    assert b.resource_ids == ("Berlin", "City", "Europe", "Germany", "Museum", "River")
    assert b.n == 6
    # 9 triple lines survive as edges; the walk layer dedups pairs later.
    assert len(b.graph_edges) == 9
    assert b.serp.docs == ("doc-a", "doc-b", "doc-c")
    # Berlin is mentioned by the documents at ranks 1 and 2.
    assert b.serp.occurrences[0] == frozenset({1, 2})
    assert {b.resource_ids[i] for i in b.query} == {"Germany"}


def test_load_bundle_is_deterministic(basic_dir):
    paths = (
        basic_dir / "graph.tsv",
        basic_dir / "texts.jsonl",
        basic_dir / "serp.tsv",
        basic_dir / "query.txt",
    )
    a = load_bundle(*paths)
    b = load_bundle(*paths)
    assert a.resource_ids == b.resource_ids
    assert np.array_equal(a.graph_edges, b.graph_edges)
    assert a.texts == b.texts
    assert a.serp.docs == b.serp.docs
    assert a.serp.occurrences == b.serp.occurrences
    assert a.query == b.query


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


def test_graph_line_field_count_error(tmp_path):
    files = _bundle_files(tmp_path, graph="a\tp\n")
    with pytest.raises(InputFormatError) as exc:
        load_bundle(*files)
    assert "g.tsv" in str(exc.value)
    assert ":1:" in str(exc.value)


def test_graph_comments_and_blank_lines_skipped(tmp_path):
    files = _bundle_files(tmp_path, graph="# comment\n\na\tp\tb\n")
    bundle = load_bundle(*files)
    assert bundle.graph_edges.tolist() == [[0, 1]]


def test_resource_id_with_whitespace_rejected(tmp_path):
    files = _bundle_files(tmp_path, graph="a b\tp\tb\n")
    with pytest.raises(InputFormatError):
        load_bundle(*files)


def test_texts_bad_json_reports_line(tmp_path):
    files = _bundle_files(tmp_path, texts='{"id": "a", "text": "x"}\n{oops\n')
    with pytest.raises(InputFormatError) as exc:
        load_bundle(*files)
    assert ":2:" in str(exc.value)


def test_texts_duplicate_id_rejected(tmp_path):
    files = _bundle_files(
        tmp_path,
        texts='{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n',
        graph="",
        serp="",
        query="",
    )
    with pytest.raises(InputFormatError):
        load_bundle(*files)


def test_texts_missing_field_rejected(tmp_path):
    files = _bundle_files(tmp_path, texts='{"id": "a"}\n')
    with pytest.raises(InputFormatError):
        load_bundle(*files)


def test_serp_duplicate_rank_rejected(tmp_path):
    files = _bundle_files(tmp_path, serp="1\td1\ta\n1\td2\tb\n")
    with pytest.raises(InputFormatError) as exc:
        load_bundle(*files)
    assert "duplicate rank" in str(exc.value)


def test_serp_gap_in_ranks_rejected(tmp_path):
    files = _bundle_files(tmp_path, serp="1\td1\ta\n3\td2\tb\n")
    with pytest.raises(InputFormatError) as exc:
        load_bundle(*files)
    assert "contiguous" in str(exc.value)


def test_serp_empty_mention_list_ok(tmp_path):
    files = _bundle_files(tmp_path, serp="1\td1\t\n2\td2\ta\n")
    bundle = load_bundle(*files)
    assert bundle.serp.occurrences == {0: frozenset({2})}


def test_dangling_references_rejected(tmp_path):
    # Graph endpoint not present in the texts table.
    files = _bundle_files(tmp_path, graph="a\tp\tzzz\n")
    with pytest.raises(ValueError) as exc:
        load_bundle(*files)
    assert "zzz" in str(exc.value)

    # Query entry not present in the texts table.
    files = _bundle_files(tmp_path, query="zzz\n")
    with pytest.raises(ValueError):
        load_bundle(*files)

    # Result-page mention not present in the texts table.
    files = _bundle_files(tmp_path, serp="1\td1\tzzz\n")
    with pytest.raises(ValueError):
        load_bundle(*files)


def test_empty_query_file_ok(tmp_path):
    files = _bundle_files(tmp_path, query="")
    bundle = load_bundle(*files)
    assert bundle.query == frozenset()


def test_non_utf8_file_rejected(tmp_path):
    files = _bundle_files(tmp_path)
    files[0].write_bytes(b"a\tp\tb\xff\n")
    with pytest.raises(InputFormatError):
        load_bundle(*files)


@pytest.mark.parametrize("rank", ["0_1", " 1", "١"])
def test_serp_rank_must_be_ascii_digits(tmp_path, rank):
    files = _bundle_files(tmp_path, serp=f"{rank}\td1\ta\n")
    message = re.escape(f"s.tsv:1: rank {rank!r} is not an integer") + "$"
    with pytest.raises(InputFormatError, match=message):
        load_bundle(*files)


def test_serp_negative_rank_message_is_kept(tmp_path):
    files = _bundle_files(tmp_path, serp="-1\td1\ta\n")
    with pytest.raises(InputFormatError, match=r"s.tsv:1: rank must be positive, got -1$"):
        load_bundle(*files)


def test_texts_id_starting_with_hash_is_rejected(tmp_path):
    files = _bundle_files(
        tmp_path,
        graph="#a\tp\tb\nb\tp\t#a\n",
        texts='{"id": "b", "text": "beta"}\n{"id": "#a", "text": "alpha"}\n',
        serp="",
        query="",
    )
    with pytest.raises(InputFormatError, match=r"t.jsonl:2: resource id '#a' starts with '#'$"):
        load_bundle(*files)


def test_texts_id_with_comma_is_rejected(tmp_path):
    files = _bundle_files(
        tmp_path,
        graph="a\tp\ta\n",
        texts='{"id": "a", "text": "alpha"}\n{"id": "a,b", "text": "beta"}\n',
        serp="1\td1\ta,b\n",
        query="",
    )
    with pytest.raises(InputFormatError, match=r"t.jsonl:2: resource id 'a,b' contains ','$"):
        load_bundle(*files)


@pytest.mark.parametrize("graph, query, role", [
    ("a,b\tp\ta\n", "a\n", "graph subject"),
    ("a\tp\ta\n", "a,b\n", "query resource"),
])
def test_reference_with_comma_is_dangling(tmp_path, graph, query, role):
    files = _bundle_files(tmp_path, graph=graph, serp="", query=query)
    with pytest.raises(ValueError, match=f"^{role} 'a,b' has no entry in the texts table$"):
        load_bundle(*files)


@pytest.mark.parametrize("graph, serp, where", [
    ("a\tp\t#b\n", "1\td1\ta\n", r"g.tsv:1: object '#b'"),
    ("a\tp\tb\n", "1\td1\ta,#b\n", r"s.tsv:1: resource id '#b'"),
])
def test_reference_starting_with_hash_is_rejected(tmp_path, graph, serp, where):
    files = _bundle_files(tmp_path, graph=graph, serp=serp)
    with pytest.raises(InputFormatError, match=where + " starts with '#'$"):
        load_bundle(*files)


def test_hash_line_is_a_comment_in_a_query_file(tmp_path):
    files = _bundle_files(tmp_path, query="# the query\n  #b\nb\n")
    assert load_bundle(*files).query == frozenset({1})


def test_missing_file_raises_oserror(tmp_path):
    files = _bundle_files(tmp_path)
    with pytest.raises(OSError):
        load_bundle(tmp_path / "nope.tsv", files[1], files[2], files[3])


def test_assemble_orders_ids_lexicographically():
    bundle = assemble_bundle(
        [("z", "p", "m")],
        {"z": "", "m": "", "a": ""},
        [("d1", ["m"])],
        set(),
    )
    assert bundle.resource_ids == ("a", "m", "z")
    assert bundle.serp.occurrences == {1: frozenset({1})}


# ------------------------------------------------- index-form properties

_NAMES = st.text(alphabet="abc", min_size=1, max_size=3)


@st.composite
def _parsed_bundles(draw):
    """Parsed primitives of a small bundle: triples, texts, serp, query."""
    ids = draw(st.lists(_NAMES, min_size=1, max_size=6, unique=True))
    known = st.sampled_from(ids)
    triples = draw(st.lists(st.tuples(known, st.sampled_from(("p", "q")), known), max_size=12))
    texts = {rid: draw(st.text(alphabet="xyz ", max_size=8)) for rid in ids}
    serp = draw(st.lists(st.tuples(st.just("d"), st.lists(known, max_size=3)), max_size=4))
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
    mentioned = {(ids[i], r) for i, ranks in bundle.serp.occurrences.items() for r in ranks}
    assert mentioned == {(rid, r) for r, (_d, rids) in enumerate(serp, start=1) for rid in rids}


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
        serp.insert(at % (len(serp) + 1), ("d", [unknown]))
    with pytest.raises(ValueError, match=repr(unknown)):
        assemble_bundle(triples, texts, serp, query)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    offset=st.integers(min_value=0, max_value=2**40),
    below=st.booleans(),
    field=st.sampled_from(("subject", "object", "query")),
)
def test_corpus_bundle_rejects_out_of_range_indices(n, offset, below, field):
    bad = -1 - offset if below else n + offset
    edges = [[0, 0]]
    query = {0}
    if field == "query":
        query = {bad}
    else:
        edges = [[bad, 0]] if field == "subject" else [[0, bad]]
    with pytest.raises(ValueError, match="outside"):
        CorpusBundle(
            resource_ids=tuple(f"r{i}" for i in range(n)),
            graph_edges=np.array(edges, dtype=np.int64),
            texts=("",) * n,
            serp=SerpContext(docs=(), occurrences={}),
            query=frozenset(query),
        )


@pytest.mark.parametrize("index", [3, 99])
def test_corpus_bundle_rejects_out_of_range_serp_index(index):
    with pytest.raises(ValueError, match=r"^serp occurrences hold an index outside 0\.\.2$"):
        CorpusBundle(
            resource_ids=("a", "b", "c"),
            graph_edges=np.zeros((0, 2), dtype=np.int64),
            texts=("", "", ""),
            serp=SerpContext(docs=("d1",), occurrences={0: frozenset({1}), index: frozenset({1})}),
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
            serp=SerpContext(docs=(), occurrences={}),
            query=frozenset(),
        )


# ------------------------------------------------------- resource text


def test_build_resource_text_windows():
    page = "x" * 350 + "y" * 300 + "z" * 350
    out = build_resource_text("ABSTRACT", page, [500], window=300)
    # Window is [500-150, 500+150) over the page.
    assert out == "ABSTRACT " + page[350:650]
    assert len(out) == len("ABSTRACT") + 1 + 300


def test_build_resource_text_clips_at_bounds():
    page = "abcdefghij" * 100  # 1000 chars
    out = build_resource_text("A", page, [10], window=300)
    assert out == "A " + page[0:160]
    out_end = build_resource_text("A", page, [995], window=300)
    assert out_end == "A " + page[845:1000]


def test_build_resource_text_abstract_only():
    assert build_resource_text("just the abstract", "page", []) == "just the abstract"


def test_build_resource_text_empty_segments_dropped():
    out = build_resource_text("", "hello world", [1], window=4)
    # Empty abstract vanishes instead of leaving a stray leading space;
    # the window is [1-2, 1+2) clipped to the page.
    assert out == "hel"


def test_build_resource_text_length_bound():
    page = "p" * 2000
    abstract = "a" * 57
    offsets = [0, 500, 1999, 1000]
    out = build_resource_text(abstract, page, offsets, window=120)
    assert len(out) <= len(abstract) + len(offsets) * (120 + 1)


def test_build_resource_text_rejects_bad_offsets():
    with pytest.raises(ValueError):
        build_resource_text("a", "page", [4])
    with pytest.raises(ValueError):
        build_resource_text("a", "page", [-1])
    with pytest.raises(ValueError):
        build_resource_text("a", "page", [0], window=0)


def test_build_resource_text_offsets_are_code_points():
    # Multi-byte characters count as single positions.
    page = "ééééé niño ñandú"
    out = build_resource_text("A", page, [6], window=4)
    assert out == "A " + page[4:8]
