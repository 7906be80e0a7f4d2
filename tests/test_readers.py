"""The shared line readers against the per-file loops they replaced, and the
rules every line-based input file now shares."""

import json
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ldrank.types as types_module
from ldrank import InputFormatError, load_judgments, load_qrels
from ldrank.cli import _read_manifest
from ldrank.corpus import _read_graph_file, _read_query_file, _read_serp_file, _read_texts_file
from ldrank.types import parse_int, read_lines, read_rows

import oracles


def _outcome(load, path):
    try:
        return load(path)
    except ValueError as exc:  # InputFormatError, or json's digit limit
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
            "9" * 5000,
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
    st.sampled_from([1, 2, 3, 4096]),
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
    with mock.patch.object(types_module, "_CHUNK_LINES", chunk):
        got = _outcome(_read_texts_file, path)
    assert got == _outcome(oracles.texts_by_line, path)


# Line 8500 lies in the chunk that holds the bad bytes, so it is reached
# only when that chunk is decoded line by line.
@pytest.mark.parametrize("bad", [4, 8500])
def test_texts_reader_reports_format_error_before_bad_bytes(tmp_path, bad):
    good = '{"id": "r%d", "text": "x"}\n'
    path = tmp_path / "t.jsonl"
    path.write_bytes(
        "".join(good % k for k in range(bad - 1)).encode()
        + b'{"id": "r0", "text": "again"}\n'
        + "".join(good % k for k in range(bad - 1, 9000)).encode()
        + b"\xff\n"
    )
    with pytest.raises(InputFormatError, match=f":{bad}: duplicate resource id 'r0'"):
        _read_texts_file(path)
    assert _outcome(_read_texts_file, path) == _outcome(oracles.texts_by_line, path)


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


_TSV_FORMATS = {
    "graph": (lambda p: list(_read_graph_file(p)), oracles.graph_triples_by_line,
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


# --------------------------------------------------- the shared line rules


def test_read_rows_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "f.tsv"
    path.write_text("a\tb\n\n   \n# c\n  # d\n\t#e\nc\td\n", encoding="utf-8")
    assert list(read_rows(path, 2)) == [(1, ["a", "b"]), (7, ["c", "d"])]
    path.write_text("a\tb\n\nc\n", encoding="utf-8")
    with pytest.raises(InputFormatError, match=r":3: expected 2 tab-separated pairs, got 1$"):
        list(read_rows(path, 2, "pairs"))


def test_read_rows_yields_every_row_before_bad_bytes(tmp_path):
    # 3000 rows: the bad bytes lie chunks into the file, and the rows of the
    # chunk that holds them must be yielded, none skipped or repeated.
    path = tmp_path / "f.tsv"
    path.write_bytes("".join(f"a{k}\tb\n" for k in range(3000)).encode() + b"\xff\n")
    got = []
    with pytest.raises(InputFormatError) as exc:
        got.extend(read_rows(path, 2))
    assert str(exc.value) == f"{path}:0: not valid UTF-8 (invalid start byte)"
    assert got == [(k + 1, [f"a{k}", "b"]) for k in range(3000)]


# \x85, \x1c and \u2028 end a line for str.splitlines, not for text mode.
_LINE_TEXT = st.text(st.sampled_from("ab #\t{}\x85\x1c\u2028\xe9"), max_size=6)


# Text mode is the oracle here: every other reader's oracle reads through
# ``read_lines``, and so through the same ``_chunks``.
@settings(max_examples=300, deadline=None)
@given(
    st.lists(_LINE_TEXT, max_size=14), _ENDS, st.booleans(), st.sampled_from([1, 2, 3, 4096])
)
def test_read_lines_splits_as_text_mode_and_yields_lines_before_bad_bytes(
    tmp_path_factory, lines, ends, last_end, chunk
):
    text = _join(lines, ends, last_end)
    path = tmp_path_factory.mktemp("lines") / "f.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        want = [(k, line.rstrip("\n")) for k, line in enumerate(fh, 1)]
    with mock.patch.object(types_module, "_CHUNK_LINES", chunk):
        assert list(read_lines(path)) == want
    # Bad bytes appended to an unterminated last line take that line with them.
    path.write_bytes(text.encode("utf-8") + b"\xff\n")
    got = []
    with (
        mock.patch.object(types_module, "_CHUNK_LINES", chunk),
        pytest.raises(InputFormatError) as exc,
    ):
        got.extend(read_lines(path))
    assert str(exc.value) == f"{path}:0: not valid UTF-8 (invalid start byte)"
    assert got == (want if text.endswith(("\n", "\r")) or not text else want[:-1])


# Bad bytes in the same chunk as an earlier malformed line.
@pytest.mark.parametrize("name, load, data, reason", [
    ("t.jsonl", _read_texts_file,
     b'{"id": "a", "text": "x"}\n{oops\n\xff\n',
     "invalid JSON (Expecting property name enclosed in double quotes)"),
    ("g.tsv", lambda p: list(_read_graph_file(p)),
     b"a\tp\ta\nb\tp\n\xff\n",
     "expected 3 tab-separated fields, got 2"),
    ("j.jsonl", load_judgments,
     b'{"item": "i", "worker": "w", "grade": 1}\n{"item": "i"\n\xff\n',
     "invalid JSON (Expecting ',' delimiter)"),
])
def test_format_error_before_bad_bytes_in_one_block(tmp_path, name, load, data, reason):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(InputFormatError) as exc:
        load(path)
    assert str(exc.value) == f"{path}:2: {reason}"


@pytest.mark.parametrize("text", ["0_1", " 1", "1 ", "+1", "٣", "1\x85", "", "-", "1e3"])
def test_parse_int_takes_ascii_digits_only(text):
    with pytest.raises(InputFormatError) as exc:
        parse_int(text, "p", 3, "n")
    assert str(exc.value) == f"p:3: n {text!r} is not an integer"


def test_parse_int_reads_a_sign_and_leading_zeros():
    assert [parse_int(t, "p", 1, "n") for t in ("0", "-1", "-0", "007", "12")] == [
        0, -1, 0, 7, 12,
    ]
    with pytest.raises(InputFormatError, match="is not an integer"):
        parse_int("9" * 5000, "p", 1, "n")
