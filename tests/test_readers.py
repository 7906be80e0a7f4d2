"""The shared line readers against the per-file loops they replaced, and the
rules every line-based input file now shares."""

import json
from itertools import chain
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ldrank.types as types_module
from ldrank import InputFormatError, load_qrels
from ldrank.cli import _read_manifest
from ldrank.corpus import _graph_file_ids, _read_query_file, _read_serp_file, _read_texts_file
from ldrank.types import parse_int, read_lines, read_rows

import oracles


def _outcome(load, path):
    try:
        return load(path)
    except ValueError as exc:  # InputFormatError
        return type(exc), str(exc)


def _mostly(valid, flawed):
    """Draw from ``valid`` nine times in ten, else from ``flawed``."""
    return st.integers(0, 9).flatmap(lambda k: flawed if k == 0 else valid)


def _join(lines, ends, last_end):
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and not last_end:
        text = text[: -len(ends[len(lines) - 1])]
    return text


_ENDS = st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=14, max_size=14)


# ------------------------------------------------------ texts vs line loop

_IDS = _mostly(
    st.sampled_from(["a", "b", "c", "a\x85b", "p q", "x y"]),
    st.sampled_from(["", 7, None, True, "{b}", "[c]", "e\x1cf", "a,b"]),
)
_TEXT_VALUES = _mostly(
    st.sampled_from(["", "alpha beta", "x}y", "{z", "{}", "}, {", "a\x85b", "p q"]),
    st.sampled_from([None, 3, ["t"], {"t": "}"}]),
)


@st.composite
def _text_objects(draw):
    obj = {"id": draw(_IDS), "text": draw(_TEXT_VALUES)}
    if not draw(st.integers(0, 19)):
        del obj[draw(st.sampled_from(sorted(obj)))]
    if not draw(st.integers(0, 19)):
        obj["meta"] = {"tags": [1, {"x": "}"}]}
    separators = draw(st.sampled_from([None, (",", ":")]))
    return json.dumps(obj, ensure_ascii=False, separators=separators)


_MERGED_A = '{"id": "a", "text": "x", "z": [{}'
_MERGED_B = '{}]}'
_CUT_A = '{"id": "a"'
_CUT_B = '"text": "x"}'
_TWO = '{"id": "b", "text": "y"}, {"id": "c", "text": "z"}'

_TEXT_LINES = _mostly(
    _text_objects(),
    st.one_of(
        st.sampled_from([
            "", "   ", "\t", "\x1c", "\x85", " ", " \x85 ",
            "not json", "{", "}", "[1]", "3", '"s"', "null", "NaN",
            "\x85" + '{"id": "a", "text": "x"}',
            '{"id": "a",\x1c "text": "x"}',
            '{"id": "a\x1cb", "text": "x"}',
            _MERGED_A, _MERGED_B, _CUT_A, _CUT_B, _TWO,
            "9" * 5000, "[" * 100_000, '{"text": ' + "[" * 100_000 + "}",
        ]),
        st.tuples(_text_objects(), _text_objects()).map(", ".join),
    ),
)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(_TEXT_LINES, max_size=14),
    _ENDS,
    st.booleans(),
    st.booleans(),
    st.sampled_from([1, 2, 3, 7, 1 << 16]),
)
@example(  # a duplicate id, then a format error: the duplicate comes first
    lines=[
        '{"id": "a", "text": "x"}',
        '{"id": "a", "text": "y"}',
        '{"id": "b", "text": 7}',
    ],
    ends=["\n"] * 14, last_end=True, bad_bytes=False, chunk=4096,
)
@example(  # a format error, then bytes that are not UTF-8
    lines=['{"id": "a", "text": "x"}', "{oops", '{"id": "b", "text": "y"}'],
    ends=["\n"] * 14, last_end=True, bad_bytes=True, chunk=2,
)
@example(  # an id with a ",", which would split a result page's mention list
    lines=['{"id": "a", "text": "x"}', '{"id": "a,b", "text": "y"}'],
    ends=["\n"] * 14, last_end=True, bad_bytes=False, chunk=4096,
)
@example(  # a duplicate id, a format error and bytes that are not UTF-8, in one block
    lines=['{"id": "a", "text": "x"}', '{"id": "a", "text": "y"}', "{oops"],
    ends=["\n"] * 14, last_end=True, bad_bytes=True, chunk=1 << 16,
)
@example(  # an id that JSON spells with a lone surrogate, then a duplicate id
    lines=['{"id": "a", "text": "x"}', '{"id": "Zed\\ud800", "text": "x"}',
           '{"id": "a", "text": "y"}'],
    ends=["\n"] * 14, last_end=True, bad_bytes=False, chunk=4096,
)
@example(lines=[_MERGED_A, _MERGED_B, _TWO], ends=["\n"] * 14, last_end=True,
         bad_bytes=False, chunk=4096)
@example(lines=[_CUT_A, _CUT_B, _TWO], ends=["\n"] * 14, last_end=True,
         bad_bytes=False, chunk=4096)
def test_texts_reader_matches_line_loop(tmp_path_factory, lines, ends, last_end,
                                        bad_bytes, chunk):
    data = _join(lines, ends, last_end).encode("utf-8")
    if bad_bytes:
        data += b"\xff\n"
    path = tmp_path_factory.mktemp("texts") / "t.jsonl"
    path.write_bytes(data)
    with mock.patch.object(types_module, "_CHUNK_BYTES", chunk):
        got = _outcome(_read_texts_file, path)
    assert got == _outcome(oracles.texts_by_line, path)


# ---------------------------------------- tab-separated files vs line loops

# No field here starts with "#", and every integer is spelled as int() and
# the ASCII rule both read it: the loops differ from the readers only there.
_FIELDS = st.sampled_from([
    "a", "b", "c", "", "x y", "a\x85b", "p q", "e\x1cf", "d1", "p",
    "0", "1", "2", "3", "4", "-1", "-0", "007", "10", "9" * 5000, "1.5", "one",
    "a,b", "a,,b", ",", "a#",
])
_BLANKS = st.sampled_from(["", "   ", "\t", "\x1c", "\x85", " ", " \x85 "])
_COMMENTS = st.sampled_from(["#", "# note", "#a\tp\tb", "#\t1"])
_INDENTED_COMMENTS = st.sampled_from(["  # note", "\t#x", "\x85#"])


def _rows(count, fields, comments):
    row = st.integers(1, 6).flatmap(lambda k: st.lists(fields, min_size=k, max_size=k))
    row = _mostly(st.lists(fields, min_size=count, max_size=count), row)
    return st.one_of(row.map("\t".join), _BLANKS, comments)


# The ids of a texts file, which the graph reader resolves endpoints in:
# every well-formed id of _FIELDS but "c", so most drawn files reach their
# later lines, while "c" and the ids holding "," still dangle.  The rest
# sit at the edges of the bulk path's rows of 8-byte words: "a\x00" beside
# "a", which differ only in length, pairs of 8 to 17 bytes, or longer, that
# differ in one byte of one word, and "9" * 5000, too long for a row.
_GRAPH_INDEX = {rid: k for k, rid in enumerate([
    "0", "1", "2", "3", "4", "-1", "-0", "007", "10", "9" * 5000, "1.5", "one",
    "a", "a#", "b", "d1", "p", "\xe9", "a\x00",
    "abcdefgh", "abcdefghi", "abcdefghj", "abcdefghijklmnop", "abcdefghijklmnoq",
    "\xe9" * 8, "abcdefgh_ijklmnop", "abcdefgh-ijklmnop",
    "http://dbpedia.org/resource/A_1000_(film)",
    "http://dbpedia.org/resource/B_1000_(film)",
])}


def _graph_ids(path):
    """The endpoint indices of a graph file, as ``load_bundle`` reads them."""
    return list(chain.from_iterable(_graph_file_ids(path, _GRAPH_INDEX)))


def _graph_ids_by_line(path):
    return oracles.graph_ids_by_line(path, _GRAPH_INDEX)


_TSV_FORMATS = {
    "graph": (_graph_ids, _graph_ids_by_line,
              _rows(3, _FIELDS, st.one_of(_COMMENTS, _INDENTED_COMMENTS))),
    "serp": (_read_serp_file, oracles.serp_by_line,
             _rows(3, _FIELDS, st.one_of(_COMMENTS, _INDENTED_COMMENTS))),
    "qrels": (lambda p: load_qrels(p).grades, oracles.qrels_by_line,
              _rows(2, _FIELDS, _COMMENTS)),
    "manifest": (_read_manifest, oracles.manifest_by_line,
                 _rows(5, _FIELDS.filter(bool), _COMMENTS)),
    # A query line is one id; "  a  " and "a\tb" are lines of it too.
    "query": (_read_query_file, oracles.query_by_line,
              _rows(1, st.one_of(_FIELDS, st.just("  a  ")), st.nothing())),
}


@pytest.mark.parametrize("fmt", sorted(_TSV_FORMATS))
@settings(max_examples=300, deadline=None)
@given(data=st.data(), ends=_ENDS, last_end=st.booleans())
def test_tab_separated_readers_match_line_loops(tmp_path_factory, fmt, data, ends,
                                                last_end):
    read, by_line, lines = _TSV_FORMATS[fmt]
    drawn = data.draw(st.lists(lines, max_size=14), label="lines")
    path = tmp_path_factory.mktemp(fmt) / "f.tsv"
    path.write_bytes(_join(drawn, ends, last_end).encode("utf-8"))
    assert _outcome(read, path) == _outcome(by_line, path)


# --------------------------------------------- graph chunks vs line loop

_GOOD_IDS = st.sampled_from(sorted(_GRAPH_INDEX))
# Dangling, empty, spaced or comma-holding ids.  None starts with "#": the
# oracle does not check that rule, and a line whose subject starts with "#"
# is a comment.
_BAD_IDS = st.sampled_from(["", "c", "a#b", "x y", " a", "a ", "a\x85b", "e\x1cf", "a,b", ","])
_GRAPH_LINE = st.tuples(_GOOD_IDS, st.sampled_from(["p", "p q", "#", ",", " "]), _GOOD_IDS)
_FLAWED_GRAPH_LINE = st.one_of(
    _BLANKS,
    _COMMENTS,
    _INDENTED_COMMENTS,
    st.tuples(_mostly(_GOOD_IDS, _BAD_IDS), st.sampled_from(["", "p"]),
              _mostly(_GOOD_IDS, _BAD_IDS)).map("\t".join),
    st.lists(st.one_of(_GOOD_IDS, _BAD_IDS, st.just("p")), min_size=1, max_size=5)
    .map("\t".join),
)


# Flaws are few, so many files and chunks are clean and taken in bulk; a
# flaw may fall anywhere, with a clean chunk before or after it.
@settings(max_examples=400, deadline=None)
@given(
    st.lists(_GRAPH_LINE.map("\t".join), max_size=11),
    st.lists(st.tuples(st.integers(0, 11), _FLAWED_GRAPH_LINE), max_size=3),
    _ENDS,
    st.booleans(),
    st.sampled_from([1, 2, 3, 7, 1 << 16]),
)
@example(  # a dangling id, then a format error, in one chunk
    lines=["a\tp\tb", "a\tp\tc", "a\tp"], flaws=[], ends=["\n"] * 14, last_end=True,
    chunk=4096,
)
@example(  # four fields, then two: three per line on the whole, all resolving
    lines=["a\tp\tb\tp", "b\tp"], flaws=[], ends=["\n"] * 14, last_end=True, chunk=4096,
)
def test_graph_chunks_resolve_as_line_loop(tmp_path_factory, lines, flaws, ends, last_end,
                                           chunk):
    lines = list(lines)
    for at, line in flaws:
        lines.insert(at, line)
    path = tmp_path_factory.mktemp("graph") / "g.tsv"
    path.write_bytes(_join(lines, ends, last_end).encode("utf-8"))
    with mock.patch.object(types_module, "_CHUNK_BYTES", chunk):
        got = _outcome(_graph_ids, path)
    assert got == _outcome(_graph_ids_by_line, path)


# --------------------------------------------------- the shared line rules


def test_read_rows_yields_every_row_before_bad_bytes(tmp_path):
    # 30000 rows: the bad bytes lie blocks into the file, and the rows of the
    # block that holds them must be yielded, none skipped or repeated.
    path = tmp_path / "f.tsv"
    path.write_bytes("".join(f"a{k}\tb\n" for k in range(30000)).encode() + b"\xff\n")
    got = []
    with pytest.raises(InputFormatError) as exc:
        got.extend(read_rows(path, 2))
    assert str(exc.value) == f"{path}:0: not valid UTF-8 (invalid start byte)"
    assert got == [(k + 1, [f"a{k}", "b"]) for k in range(30000)]


# \x85, \x1c and \u2028 end a line for str.splitlines, not for text mode.
_LINE_TEXT = st.text(st.sampled_from("ab #\t{}\x85\x1c\u2028\xe9"), max_size=6)


# Text mode is the oracle here: every other reader's oracle reads through
# ``read_lines``, and so through the same ``_chunks``.
@settings(max_examples=300, deadline=None)
@given(
    st.lists(_LINE_TEXT, max_size=14), _ENDS, st.booleans(), st.sampled_from([1, 2, 3, 7, 1 << 16])
)
def test_read_lines_splits_as_text_mode_and_yields_lines_before_bad_bytes(
    tmp_path_factory, lines, ends, last_end, chunk
):
    text = _join(lines, ends, last_end)
    path = tmp_path_factory.mktemp("lines") / "f.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        want = [(k, line.rstrip("\n")) for k, line in enumerate(fh, 1)]
    with mock.patch.object(types_module, "_CHUNK_BYTES", chunk):
        assert list(read_lines(path)) == want
    # Bad bytes appended to an unterminated last line take that line with them.
    path.write_bytes(text.encode("utf-8") + b"\xff\n")
    got = []
    with (
        mock.patch.object(types_module, "_CHUNK_BYTES", chunk),
        pytest.raises(InputFormatError) as exc,
    ):
        got.extend(read_lines(path))
    assert str(exc.value) == f"{path}:0: not valid UTF-8 (invalid start byte)"
    assert got == (want if text.endswith(("\n", "\r")) or not text else want[:-1])


@pytest.mark.parametrize("text", ["0_1", " 1", "1 ", "+1", "٣", "1\x85", "", "-", "1e3"])
def test_parse_int_takes_ascii_digits_only(text):
    with pytest.raises(InputFormatError) as exc:
        parse_int(text, "p", 3, "n")
    assert str(exc.value) == f"p:3: n {text!r} is not an integer"


def test_parse_int_reads_a_sign_and_leading_zeros():
    assert [parse_int(t, "p", 1, "n") for t in ("0", "-1", "-0", "007", "12")] == [
        0, -1, 0, 7, 12,
    ]
    with pytest.raises(InputFormatError, match="is an integer with too many digits$") as exc:
        parse_int("9" * 5000, "p", 1, "n")
    # A long text is echoed by its start and its length only.
    assert len(str(exc.value)) < 120 and "5000" in str(exc.value)
    with pytest.raises(InputFormatError) as exc:
        parse_int("x" * 40, "p", 1, "n")
    assert str(exc.value) == f"p:1: n {'x' * 40!r} is not an integer"
