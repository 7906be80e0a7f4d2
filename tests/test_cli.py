import contextlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldrank.cli as cli_module
from ldrank import STRATEGIES, strategy
from ldrank.cli import main

from oracles import shown
from test_cli_runs import Row, _mismatch


def _rank_args(basic_dir, *extra):
    return [
        "rank",
        str(basic_dir / "graph.tsv"),
        str(basic_dir / "texts.jsonl"),
        str(basic_dir / "serp.tsv"),
        str(basic_dir / "query.txt"),
        *extra,
    ]


# The 6 output lines in chunks of 1, of 4 and 2, and in one chunk.
@pytest.mark.parametrize("chunk", [1, 4, cli_module._RANK_CHUNK_LINES])
@pytest.mark.parametrize("name", STRATEGIES)
def test_rank_output_matches_library(basic_dir, basic_bundle, capsys, monkeypatch, name, chunk):
    monkeypatch.setattr(cli_module, "_RANK_CHUNK_LINES", chunk)
    assert main(_rank_args(basic_dir, "--strategy", name)) == 0
    out = capsys.readouterr().out
    result = strategy(name, basic_bundle)
    lines = out.splitlines()
    assert len(lines) == basic_bundle.n
    for pos, line in enumerate(lines, start=1):
        rank_s, rid, score_s = line.split("\t")
        idx = result.order[pos - 1]
        assert int(rank_s) == pos
        assert rid == basic_bundle.resource_ids[idx]
        assert score_s == format(result.scores.values[idx], ".12g")


@pytest.mark.parametrize("text", ["0.5", " 0.5\n", "5e-1", "0_5", "-0", "nan", "-Infinity",
                                  "1e999", "\u0665"])
def test_float_flags_take_what_float_takes(text):
    assert repr(cli_module._real(text)) == repr(float(text))


# ``rank`` over the fixture with its graph, result page and query mutated:
# lines that are blank or comments (with tabs), CRLF or lone CR line ends,
# wrong field counts, an empty predicate, a rank of 5,000 digits, bytes that
# are not UTF-8, dangling ids, an id too wide for the graph reader's id
# table, and files with no data line.  The texts file may hold a duplicate
# id or undecodable bytes, or be empty, and a pipeline flag may lie at or
# beyond the edge of its range.  Each faulty line carries the error it must
# raise: "format" for ``path:line: ...``, "utf-8" for ``path:0: not valid
# UTF-8``, else the dangling reference, at its ``path:line``.

_GONE = "Atlantis"
#: Appended to an id, makes it more than four times as wide as the mean id.
_WIDE = "_" * 120
_NO_ENTRY = "has no entry in the texts table"
_FILLERS = ["", "  ", "\t", "\t\t", "# c\tp\to", "  #\tx\t", "#\t\t"]
#: Faults found while a file is read, before any id is resolved.
_READ_FAULTS = ("format", "utf-8")
#: An undecodable byte (0xff) in a ``str``, written with ``surrogateescape``.
_BAD_BYTE = "\udcff"


def _graph_faults(line):
    s, p, o = line.split("\t")
    return [
        (f"{s}\t{o}", "format"),
        (f"{line}\tx", "format"),
        (f"{s}\t\t{o}", "format"),
        (f"{_GONE}\t\t{o}", "format"),  # checked before it is resolved
        (f"{s}\t{p}{_BAD_BYTE}\t{o}", "utf-8"),
        (f"{_GONE}\t{p}\t{o}", f"graph subject {shown(_GONE)} {_NO_ENTRY}"),
        (f"{s}\t{p}\t{_GONE}{_WIDE}", f"graph object {shown(_GONE + _WIDE)} {_NO_ENTRY}"),
    ]


def _serp_faults(line):
    rank, doc, mentions = line.split("\t")
    return [
        (f"{rank}\t{doc}", "format"),
        (f"{line}\tx", "format"),
        (f"{'1' * 5000}\t{doc}\t{mentions}", "format"),
        (f"-{_DIGITS}\t{doc}\t{mentions}", "format"),  # parsed, then echoed
        (f"{rank}\t{_BAD_BYTE}{doc}\t{mentions}", "utf-8"),
        (f"{line},{_GONE}", f"result-page resource {shown(_GONE)} {_NO_ENTRY}"),
    ]


def _query_faults(line):
    return [
        (f"{line}\t{line}", "format"),
        (line + _BAD_BYTE, "utf-8"),
        (_GONE, f"query resource {shown(_GONE)} {_NO_ENTRY}"),
    ]


def _first_reference(name, line):
    """The error for the first id of data ``line`` of file ``name`` when
    the texts file holds no id at all, or None if the line names none."""
    fields = line.split("\t")
    if name == "graph":
        return f"graph subject {shown(fields[0])} {_NO_ENTRY}"
    if name == "query":
        return f"query resource {shown(line.strip())} {_NO_ENTRY}"
    mention = fields[2].split(",")[0]
    return f"result-page resource {shown(mention)} {_NO_ENTRY}" if mention else None


@st.composite
def _mutated(draw, lines, faults):
    """``lines`` with filler lines inserted and, if drawn, one or two data
    lines replaced by a fault, or every data line dropped: ``(text,
    numbered)``, where ``numbered`` holds ``(line_no, line, fault)`` for each
    data line left, ``fault`` None for a sound one, and a line number counts
    ``\r\n``, ``\r`` and ``\n`` as one line break each."""
    items = []
    data = [k for k, line in enumerate(lines) if not line.startswith("#")]
    # Half the files stay sound; the rest get format faults, dangling
    # references or no data line, so every order of the checks is reached.
    kind = draw(st.sampled_from([None, None, None, "format", "dangling", "empty"]))
    faulty = (draw(st.sampled_from([*([k] for k in data), data[:1] + data[-1:]]))
              if kind in ("format", "dangling") else [])
    for k, line in enumerate(lines):
        items += [(filler, False, None) for filler in draw(st.lists(st.sampled_from(_FILLERS),
                                                                    max_size=2))]
        if k not in data:
            items.append((line, False, None))
        elif k in faulty:
            line, fault = draw(st.sampled_from([
                (text, fault) for text, fault in faults(line)
                if (fault in _READ_FAULTS) == (kind == "format")
            ]))
            items.append((line, True, fault))
        elif kind != "empty":
            items.append((line, True, None))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(items), max_size=len(items)))
    if ends and draw(st.booleans()):
        ends[-1] = ""
    text, numbered = "", []
    for (line, is_data, fault), end in zip(items, ends):
        if is_data:
            line_no = text.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
            numbered.append((line_no, line, fault))
        text += line + end
    return text, numbered


@st.composite
def _mutated_texts(draw, lines):
    """The texts file's ``lines``, sound or with one fault: ``(text, fault)``,
    where ``fault`` is None, ``"empty"`` for a file with no object, or the
    ``(line_no, reason)`` that reading it must raise."""
    kind = draw(st.sampled_from([None, None, None, None, "duplicate", "utf-8", "empty"]))
    fault = kind if kind == "empty" else None
    lines = list(lines)
    if kind == "empty":
        lines = draw(st.lists(st.sampled_from(["", "  "]), max_size=2))
    elif kind == "duplicate":
        k = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(k + 1, len(lines)))
        lines.insert(at, lines[k])
        fault = (at + 1, f"duplicate resource id {shown(json.loads(lines[k])['id'])}")
    elif kind == "utf-8":
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = _BAD_BYTE + lines[k]
        fault = (0, "not valid UTF-8")
    return "".join(f"{line}\n" for line in lines), fault


#: Pipeline flags at or beyond the edges of their ranges: the first six are
#: rejected before any file is read, the rest rank.  Three runs in four set
#: no flag.
_FLAGS = [
    (["--alpha", "0"], "alpha must lie strictly inside (0, 1), got 0.0"),
    (["--alpha", "1"], "alpha must lie strictly inside (0, 1), got 1.0"),
    (["--ndim", "0"], "ndim must be at least 1, got 0"),
    (["--ndim", "-1"], "ndim must be at least 1, got -1"),
    (["--tol", "nan"], "tol must be positive and finite, got nan"),
    (["--stress", "inf"], "stress must be positive and finite, got inf"),
    (["--ndim", "1"], None),
    (["--stress", "1e-300"], None),
    (["--tol", "1e-300"], None),
]


def _expected_error(paths, files, texts_fault, flag_error):
    """The start of the one error line that ``rank`` must print, or None.
    The flags are checked, then the files read, then resolved, in this
    order: the texts file, read faults of the result page, then of the
    query, then the graph's faults in line order, then the query's and the
    result page's dangling references, each named by its file and line.
    Undecodable bytes end their file: no line after them is read.  With no
    texts every id dangles, and with no id anywhere either the texts file
    is reported at line 0: no resource is left to rank."""
    def error(name, line_no, fault):
        if fault == "utf-8":
            return f"error: {paths[name]}:0: not valid UTF-8"
        reason = "" if fault == "format" else fault  # else a dangling reference
        return f"error: {paths[name]}:{line_no}: {reason}"

    if flag_error:
        return f"error: {flag_error}"
    if texts_fault not in (None, "empty"):
        line_no, reason = texts_fault
        return f"error: {paths['texts']}:{line_no}: {reason}"
    faults = {}
    for name, numbered in files.items():
        faults[name] = []
        for line_no, line, fault in numbered:
            if texts_fault == "empty" and fault not in _READ_FAULTS:
                fault = _first_reference(name, line)
            if fault:
                faults[name].append((line_no, fault))
            if fault == "utf-8":
                break
    for name in ("serp", "query"):
        for line_no, fault in faults[name]:
            if fault in _READ_FAULTS:
                return error(name, line_no, fault)
    for name in ("graph", "query", "serp"):
        for line_no, fault in faults[name]:
            return error(name, line_no, fault)
    if texts_fault == "empty":
        return f"error: {paths['texts']}:0: need at least one resource"
    return None


_MUTATED_FILES = {"graph": ("graph.tsv", _graph_faults), "serp": ("serp.tsv", _serp_faults),
                  "query": ("query.txt", _query_faults)}


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    wide=st.booleans(),
    name=st.sampled_from(["HIT", "LDRANK"]),
    bidirectional=st.booleans(),
    flags=st.sampled_from([*[([], None)] * 3 * len(_FLAGS), *_FLAGS]),
)
def test_rank_on_mutated_bundles_ranks_or_reports_the_first_fault(
    basic_dir, tmp_path_factory, data, wide, name, bidirectional, flags
):
    def lines(file):
        text = (basic_dir / file).read_text(encoding="utf-8")
        return text.replace("Museum", "Museum" + _WIDE).splitlines() if wide else text.splitlines()

    out = tmp_path_factory.mktemp("mutated")
    texts = lines("texts.jsonl")
    text, texts_fault = data.draw(_mutated_texts(texts), label="texts")
    (out / "texts.jsonl").write_bytes(text.encode("utf-8", "surrogateescape"))
    paths, files = {"texts": str(out / "texts.jsonl")}, {}
    for key, (file, mutations) in _MUTATED_FILES.items():
        text, files[key] = data.draw(_mutated(lines(file), mutations), label=key)
        (out / file).write_bytes(text.encode("utf-8", "surrogateescape"))
        paths[key] = str(out / file)

    argv = ["rank", *(paths[key] for key in ("graph", "texts", "serp", "query"))]
    argv += ["--strategy", name] + ["--bidirectional"] * bidirectional + flags[0]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    want = _expected_error(paths, files, texts_fault, flags[1])
    if want is None:
        assert code == 0, stderr.getvalue()
        rows = [line.split("\t") for line in stdout.getvalue().splitlines()]
        assert [int(r[0]) for r in rows] == list(range(1, len(texts) + 1))
        assert sorted(r[1] for r in rows) == sorted(json.loads(t)["id"] for t in texts)
        assert math.fsum(float(r[2]) for r in rows) == pytest.approx(1.0, rel=0, abs=1e-9)
        # Fillers and line ends change nothing, nor does a wide id that
        # keeps the ids' order.
        suffix = "_bidirectional" if bidirectional else ""
        if not flags[0] and all(files.values()):
            golden = "\n".join(lines(f"expected/rank_{name}{suffix}.tsv")) + "\n"
            assert stdout.getvalue() == golden
    else:
        row = Row("rank", tuple(argv), want, prefix=True)
        mismatch = _mismatch(row, out, code, stdout.getvalue().encode("utf-8"), stderr.getvalue())
        assert mismatch is None, mismatch


_DIGITS = "1" * 4000
#: 40 digits of ``_DIGITS`` and its digit count, as an error echoes it.
_SHOWN_DIGITS = f"{_DIGITS[:40]}... (4000 digits)"
_GRADES = "grade must be one of (0, 1, 2, 3), got"


_DEEP = "[" * 100_000
#: Lines ``json`` cannot decode: nested too deep (alone, and inside one
#: object, so the chunk's single parse fails too) and an integer with more
#: digits than ``int`` converts.
_UNDECODABLE = [_DEEP, '{"item": ' + _DEEP + "}", '{"id": "x", "text": ' + "1" * 5000 + "}"]


# ``agg`` and ``alpha`` over the fixture's judgments with lines inserted,
# copied or changed.  Each line that ``load_judgments`` must reject carries
# the start of its reason; "utf-8" marks undecodable bytes.

_JUDGMENT_FAULTS = [
    *((line, "invalid JSON (") for line in _UNDECODABLE),
    ('{"item": "a", "worker": "w", "grade": 1, "trust": NaN}',
     "trust must lie in [0, 1], got nan"),
    ('{"item": "a", "worker": "w", "grade": 1, "trust": -Infinity}',
     "trust must lie in [0, 1], got -inf"),
    ('{"item": "a", "worker": "w", "grade": 1, "trust": true}',
     'field "trust" must be numeric'),
    ('{"item": "a", "worker": "w", "grade": ' + "9" * 30 + "}",
     "grade must be one of (0, 1, 2, 3), got 999"),
    ('{"item": "a", "worker": "w", "grade": ' + _DIGITS + "}", f"{_GRADES} {_SHOWN_DIGITS}"),
    (b'{"item": "\xff", "worker": "w", "grade": 1}', "utf-8"),
    # The item id rule, applied on the first record that names an item.
    ('{"item": "a\\tb", "worker": "w", "grade": 1}', "item id 'a\\tb' holds a tab or line break"),
    ('{"item": " #a", "worker": "w", "grade": 1}', "item id ' #a' starts with '#'"),
    ('{"item": "a\\ud800", "worker": "w", "grade": 1}', "item id 'a\\ud800' is not valid in UTF-8"),
]

#: The errors a well-formed judgments file may still end in: a threshold out
#: of range, and per command, mean-trust ties without trust (``agg``) or
#: nothing to measure alpha on, a fault of the whole file (``alpha``).
_BAD_THRESHOLD_ERROR = "error: threshold must lie in [0, 1], got "
_FILE_ERRORS = {
    "agg": "error: mean-trust tie-breaking needs trust values; ",
    "alpha": "error: {path}:0: no item has two or more judgments; alpha is undefined",
}


_BAD_THRESHOLDS = ("1.5", "-0.25", "nan")


@st.composite
def _mutated_judgments(draw, lines):
    """``(data, faults)``: the bytes of ``lines`` mutated, and per line
    that ``load_judgments`` must reject, ``(line_no, reason)``, with the
    reason ``"duplicate"`` on the line where an item-worker pair repeats."""
    items = [] if not draw(st.integers(0, 9)) else [(line, None) for line in lines]
    if items and not draw(st.integers(0, 3)):  # a second grade for one item and worker
        record = json.loads(draw(st.sampled_from(lines)))
        record["grade"] = draw(st.integers(0, 3))
        items.insert(draw(st.integers(0, len(items))), (json.dumps(record), "duplicate"))
    if items and draw(st.booleans()):  # a record without trust
        k = draw(st.integers(0, len(items) - 1))
        record = json.loads(items[k][0])
        del record["trust"]
        items[k] = (json.dumps(record), items[k][1])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        items.insert(draw(st.integers(0, len(items))), draw(st.sampled_from(_JUDGMENT_FAULTS)))
    for _ in range(draw(st.integers(0, 3))):
        blank = draw(st.sampled_from(["", " ", "\t"]))
        items.insert(draw(st.integers(0, len(items))), (blank, None))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(items), max_size=len(items)))
    if ends and draw(st.booleans()):
        ends[-1] = ""
    data, faults, pairs = b"", [], set()
    for (line, fault), end in zip(items, ends):
        # "\r" then "\n" is one line break.
        line_no = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        if fault in (None, "duplicate") and line.strip():  # a record
            record = json.loads(line)
            pair = record["item"], record["worker"]
            fault = "duplicate" if pair in pairs else None
            pairs.add(pair)
        if fault:
            faults.append((line_no, fault))
        data += (line if isinstance(line, bytes) else line.encode("utf-8")) + end.encode()
    return data, faults


def _first_judgment_fault(faults):
    """``(line_no, reason)`` that ``load_judgments`` must report, or None.
    The first line fault wins; undecodable bytes end the file, reported at
    line 0; a repeated pair is found once the whole file is read, and
    reported at the first line that repeats one."""
    for line_no, fault in faults:
        if fault == "utf-8":
            return 0, "not valid UTF-8"
        if fault != "duplicate":
            return line_no, fault
    if faults:
        return faults[0][0], "duplicate judgment for item "
    return None


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    command=st.sampled_from(["agg", "alpha"]),
    threshold=st.sampled_from([None, None, "", "0", "1", *_BAD_THRESHOLDS]),
    mean_trust=st.booleans(),
)
def test_judgments_commands_on_mutated_files_report_the_first_fault(
    basic_dir, tmp_path_factory, data, command, threshold, mean_trust
):
    lines = (basic_dir / "judgments.jsonl").read_text(encoding="utf-8").splitlines()
    content, faults = data.draw(_mutated_judgments(lines))
    path = tmp_path_factory.mktemp("judgments") / "judgments.jsonl"
    path.write_bytes(content)
    argv = [command, str(path)]
    if threshold is not None:
        argv += ["--filter-threshold", *([threshold] if threshold else [])]
    if command == "agg" and mean_trust:
        argv += ["--tie-break", "mean-trust"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    want = _first_judgment_fault(faults)
    if code == 1:
        if want is not None:
            line = f"error: {path}:{want[0]}: {want[1]}"
        elif threshold in _BAD_THRESHOLDS:
            line = _BAD_THRESHOLD_ERROR
        else:
            line = _FILE_ERRORS[command].format(path=path)
        row = Row(command, tuple(argv), line, prefix=True)
        mismatch = _mismatch(row, path.parent, code, out.encode("utf-8"), err)
        assert mismatch is None, mismatch
        return
    assert code == 0 and want is None and threshold not in _BAD_THRESHOLDS, (code, err, want)
    assert err == ""
    if command == "agg":
        rows = [line.split("\t") for line in out.splitlines()]
        assert all(len(row) == 2 and row[1] in ("0", "1", "2", "3") for row in rows)
        assert [item for item, _ in rows] == sorted({item for item, _ in rows})
    else:
        assert out.endswith("\n") and out.count("\n") == 1
        assert math.isfinite(float(out)) and float(out) <= 1.0


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "rank" in out and "eval" in out


# ``eval`` over a manifest of one to three entries for the fixture bundle,
# with the manifest, the qrels file and the cutoffs mutated.  Each fault
# carries the error line it must end in.

#: Cutoff lists and the error each must raise; the sound ones are drawn
#: most often, so that the files are read.
_CUTOFF_LISTS = [
    ("1,3,5", None), ("3", None), (" 5 ,1,,2 ", None),
    ("0", "cutoff must be at least 1, got 0"),
    ("3,0", "cutoff must be at least 1, got 0"),
    ("3,3", "cutoff 3 is given more than once"),
    ("", "at least one cutoff required"),
    ("1_0", "invalid cutoff list '1_0'"),
]
_QRELS_GRADES = [
    ("9", "grade must be one of (0, 1, 2, 3), got 9"),
    (_DIGITS, f"{_GRADES} {_SHOWN_DIGITS}"),
    ("x", "grade 'x' is not an integer"),
    ("\u0663", "grade '\u0663' is not an integer"),
    ("1" * 5000,
     f"grade {'1' * 40!r}... (5000 characters) is an integer with too many digits"),
]
_MANIFEST_FILLERS = ["", "  ", "# bundles", "  # note", "\t# x\ty"]
_BUNDLE_NAMES = ("graph.tsv", "texts.jsonl", "serp.tsv", "query.txt")


@st.composite
def _eval_inputs(draw, fixture, out):
    """Write a mutated qrels file and manifest to ``out``; return the
    manifest's path and the error lines ``eval`` meets once its cutoffs are
    read: the manifest's own, alone, or else each entry's load error or
    None, in manifest order."""
    qrels = out / "qrels.tsv"
    grades = (fixture / "qrels.tsv").read_text(encoding="utf-8").splitlines()
    qrels_fault = None
    kind = draw(st.sampled_from([None, "grade", "duplicate"]))
    if kind == "grade":
        k = draw(st.integers(0, len(grades) - 1))
        grade, reason = draw(st.sampled_from(_QRELS_GRADES))
        grades[k] = grades[k].split("\t")[0] + "\t" + grade
        qrels_fault = f"error: {qrels}:{k + 1}: {reason}"
    elif kind == "duplicate":
        k = draw(st.integers(0, len(grades) - 1))
        at = draw(st.integers(k + 1, len(grades)))
        item = grades[k].split("\t")[0]
        grades.insert(at, f"{item}\t{draw(st.integers(0, 3))}")
        qrels_fault = f"error: {qrels}:{at + 1}: duplicate item {shown(item)}"
    qrels.write_text("".join(line + "\n" for line in grades), encoding="utf-8")

    # Per entry its five paths, and the error loading it must raise.  The
    # first entry names the mutated qrels file.
    entries = []
    for k in range(draw(st.integers(1, 3))):
        mutated = k == 0 or draw(st.booleans())
        paths = [str(fixture / name) for name in _BUNDLE_NAMES]
        paths.append(str(qrels if mutated else fixture / "qrels.tsv"))
        entries.append((paths, qrels_fault if mutated else None))
    fault = draw(st.sampled_from([None, None, "count", "empty", "missing"]))
    j = draw(st.integers(0, len(entries) - 1))
    paths, _ = entries[j]
    k = draw(st.integers(0, 4))
    if fault == "count":
        paths[k:k + 1] = draw(st.sampled_from([[], [paths[k], paths[k]]]))
    elif fault == "empty":
        paths[k] = ""
    elif fault == "missing":
        paths[k] = str(out / "missing.tsv")

    lines, data = [], []
    for paths, _ in entries:
        lines += draw(st.lists(st.sampled_from(_MANIFEST_FILLERS), max_size=2))
        data.append(len(lines))
        lines.append("\t".join(paths))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    text, numbers = "", []
    for line, end in zip(lines, ends):  # "\r" then "\n" is one line break
        numbers.append(text.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1)
        text += line + end
    manifest = out / "manifest.tsv"
    manifest.write_text(text, encoding="utf-8", newline="")

    # The whole manifest is read before any bundle; then bundle by bundle,
    # a file that cannot be opened named by its manifest line.
    at = f"error: {manifest}:{numbers[data[j]]}:"
    if fault in ("count", "empty"):
        paths = entries[j][0]
        reason = ("empty path" if len(paths) == 5
                  else f"expected 5 tab-separated paths, got {len(paths)}")
        return manifest, [f"{at} {reason}"]
    if fault == "missing":
        missing = str(out / "missing.tsv")
        entries[j] = (entries[j][0], f"{at} cannot open {shown(missing)}: No such file or directory")
    return manifest, [error for _, error in entries]


#: A ranking fault: the stressed counts of the fixture overflow.
_STRESS = ("--stress", "1e300")
_STRESS_ERROR = "error: stress 1e+300 is too large: the squared stressed counts overflow"


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       cutoffs=st.sampled_from([*[c for c in _CUTOFF_LISTS if not c[1]] * 5, *_CUTOFF_LISTS]),
       stress=st.sampled_from([False, False, False, True]))
def test_eval_on_mutated_inputs_reports_the_first_fault(
    basic_dir, tmp_path_factory, data, cutoffs, stress
):
    manifest, errors = data.draw(_eval_inputs(basic_dir, tmp_path_factory.mktemp("eval")))
    # The cutoffs are checked first; then each entry is loaded and ranked
    # before the next, so a ranking fault ends the first entry that loads.
    if cutoffs[1]:
        want = f"error: {cutoffs[1]}"
    elif stress:
        want = errors[0] or _STRESS_ERROR
    else:
        want = next((error for error in errors if error), None)
    argv = ["eval", str(manifest), "--cutoffs", cutoffs[0], *_STRESS * stress]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out = stdout.getvalue()
    if want is not None:
        mismatch = _mismatch(Row("eval", tuple(argv), want), manifest.parent, code,
                             out.encode("utf-8"), stderr.getvalue())
        assert mismatch is None, mismatch
        return
    assert code == 0, stderr.getvalue()
    rows = [line.split("\t") for line in out.splitlines()]
    ranks = [int(tok) for tok in cutoffs[0].split(",") if tok.strip()]
    assert rows[0] == ["strategy", *(f"ndcg@{r}" for r in ranks)]
    assert [row[0] for row in rows[1:]] == list(STRATEGIES)
    assert all(len(row) == len(rows[0]) for row in rows)
    assert all(0.0 <= float(cell) <= 1.0 for row in rows[1:] for cell in row[1:])


def test_module_entry_point(basic_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "ldrank", *_rank_args(basic_dir, "--strategy", "EQUI")],
        capture_output=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout == (basic_dir / "expected" / "rank_EQUI.tsv").read_bytes()
