"""One fixed catalogue of faults, applied to every line of the fixture's
input files, and the order in which ``rank`` and ``eval`` report faults of
different files.

Each case is one line of one of the 8 files under ``fixtures/`` with one
mutation of the catalogue: a field dropped, added or emptied; the line
duplicated or swapped with the next; a blank or ``#`` line inserted before
it; an id replaced by a dangling one, or by one holding ``,`` or
whitespace, starting with ``#``, too wide for the graph reader's id table
or spelled with a lone surrogate; an integer field holding a non-ASCII
digit, 4,301 digits, an out-of-range value or a non-integer; a manifest
path to a missing file; the line cut inside a multi-byte character, or
ended with CRLF, a lone CR or, the last line, nothing; and the file
emptied.  Each case compares the library reader with its line loop in
``oracles.py``: the same exception type and message, or an equal result.
It then runs the command of the CLI table row that reads the file
(``rank``, ``eval`` or ``agg``) and checks the run with the table's row
check: an input the loop rejects ends in its one error line, one the
loop reads to the tables of the sound file prints the row's golden bytes,
and any other runs with no error.
"""

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from ldrank import load_bundle, load_judgments, load_qrels
from ldrank.cli import _read_manifest, main

import oracles
from test_cli_runs import ROWS, Row, _mismatch, _set_up

FIXTURES = Path(__file__).parent / "fixtures"
BUNDLE = ("graph.tsv", "texts.jsonl", "serp.tsv", "query.txt")
ROW = {row.id: row for row in ROWS}


def _bundle(_name):
    bundle = load_bundle(*BUNDLE)
    return (list(bundle.resource_ids), bundle.graph_edges.tolist(), list(bundle.texts),
            bundle.serp_size, bundle.mentions.tolist(), sorted(bundle.query))


def _columns(judged):
    return (judged.item_ids, judged.worker_ids, judged.item_codes.tolist(),
            judged.worker_codes.tolist(), judged.grades.tolist(),
            [None if t != t else t for t in judged.trust.tolist()])


@dataclass(frozen=True)
class _File:
    """A fixture input file: the CLI table row that reads it, by ``name``,
    its library reader and line loop, the names of its tab-separated
    fields (a JSON line's are its keys), the fields that hold an id, an
    integer or a path, and per number field a value out of its range."""

    row: str
    name: str
    read: object
    by_line: object
    fields: tuple = ()
    ids: tuple = ()
    ints: tuple = ()
    paths: tuple = ()
    out_of_range: tuple = ()
    tables: object = lambda result: result  # what the command reads of a result


_RANKED = dict(row="rank-LDRANK", read=_bundle,
               by_line=lambda _: oracles.bundle_by_line(*BUNDLE))
_JUDGED = dict(row="agg", read=lambda name: _columns(load_judgments(name)),
               by_line=lambda name: _columns(oracles.judgments_by_line(name)),
               ids=("item", "worker"), ints=("grade",),
               out_of_range=(("grade", "4"), ("trust", "-Infinity")))
FILES = {
    "basic/graph.tsv": _File(name="graph.tsv", fields=("subject", "predicate", "object"),
                             ids=("subject", "object"), **_RANKED),
    "basic/texts.jsonl": _File(name="texts.jsonl", ids=("id",), **_RANKED),
    "basic/serp.tsv": _File(name="serp.tsv", fields=("rank", "doc", "mentions"),
                            ids=("mentions",), ints=("rank",), out_of_range=(("rank", "0"),),
                            **_RANKED),
    "basic/query.txt": _File(name="query.txt", fields=("id",), ids=("id",), **_RANKED),
    "basic/qrels.tsv": _File("eval-per-query", "qrels.tsv", lambda name: load_qrels(name).grades,
                             oracles.qrels_by_line, ("item", "grade"), ids=("item",),
                             ints=("grade",), out_of_range=(("grade", "4"),)),
    "basic/manifest.tsv": _File("eval-per-query", "manifest.tsv", _read_manifest,
                                oracles.manifest_by_line, BUNDLE + ("qrels.tsv",),
                                paths=BUNDLE + ("qrels.tsv",),
                                tables=lambda entries: [paths for _, paths in entries]),
    "basic/judgments.jsonl": _File(name="judgments.jsonl", **_JUDGED),
    "judgments.jsonl": _File(name="small.jsonl", **{**_JUDGED, "row": "agg-small"}),
}

#: Rules of the readers that their line loops lack, and the cases that
#: would meet them; rows of the CLI table pin them instead.  No resource
#: id starts with "#" (``_resource_id_by_split``; rows
#: ``{texts-id,graph-object,serp-mention}-starts-with-hash``); an integer
#: field holds ASCII digits only (``int_by_builtin`` reads "٣"; rows
#: ``serp-rank-arabic-4``, ``qrels-grade-arabic-3``); a query file has
#: comment lines (row ``rank-query-comment-lines``); no manifest path is
#: empty (row ``manifest-empty-path``).
LEFT_TO_ROWS = {
    "hash-": ("graph.tsv", "texts.jsonl", "serp.tsv", "query.txt"),
    "non-ascii-digit-": ("serp.tsv", "qrels.tsv"),
    "comment-before": ("query.txt",),
    "empty-": ("manifest.tsv",),
}

_WIDE = "_" * 600  # an id over 512 bytes, the widest row of ``corpus._IdTable``
_INT_KINDS = {"non-ascii-digit": "٣", "4301-digits": "1" * 4301, "non-integer": "1.5"}


def _line(fields, json_line):
    if json_line:
        return "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in fields.items()) + "}"
    return "\t".join(fields.values())


def _field_cases(spec, line, json_line):
    """``(label, line)`` for each field mutation of a data line, whose
    fields are its tab-separated fields, or the JSON texts of its keys'
    values, by name."""
    if json_line:
        fields = {key: json.dumps(value) for key, value in json.loads(line).items()}
    else:
        fields = dict(zip(spec.fields, line.split("\t")))

    def changed(name, text):
        return _line({**fields, name: text}, json_line)

    for name in fields:
        yield f"drop-{name}", _line({k: v for k, v in fields.items() if k != name}, json_line)
        yield f"empty-{name}", changed(name, '""' if json_line else "")
    yield "add-field", _line({**fields, "x": "1"}, json_line)
    gap = "\t" if json_line else " "
    for name in spec.ids:
        text = json.loads(fields[name]) if json_line else fields[name]
        rid, comma, rest = text.partition(",")  # a mention list: its first id
        ids = {"dangling": "Atlantis", "comma": f"{rid[:3]},{rid[3:]}",
               "whitespace": f"{rid[:3]}{gap}{rid[3:]}", "hash": "#" + rid, "wide": rid + _WIDE}
        if json_line:
            ids["surrogate"] = rid + "\ud800"
        for kind, new in ids.items():
            new += comma + rest
            yield f"{kind}-{name}", changed(name, json.dumps(new) if json_line else new)
    for name in spec.ints:
        for kind, text in _INT_KINDS.items():
            yield f"{kind}-{name}", changed(name, text)
    for name, text in spec.out_of_range:
        yield f"out-of-range-{name}", changed(name, text)
    for name in spec.paths:
        yield f"missing-{name}", changed(name, "absent.tsv")


def _cases(file):
    """``(label, id, data)`` for each mutation of each line of ``file``."""
    spec, json_line = FILES[file], file.endswith(".jsonl")
    lines = (FIXTURES / file).read_text(encoding="utf-8").splitlines()
    for k, line in enumerate(lines):
        def data(*new, end=b"\n", span=1):
            out = [old.encode() + b"\n" for old in lines]
            out[k:k + span] = [(n if isinstance(n, bytes) else n.encode()) + end for n in new]
            return b"".join(out)

        mutated = [
            ("duplicate", data(line, line)),
            ("blank-before", data(" \t", line)),
            ("comment-before", data("# x\ty", line)),
            ("cut-multibyte", data(line.encode()[:len(line) // 2] + "é".encode()[:1])),
            ("crlf", data(line, end=b"\r\n")),
            ("cr", data(line, end=b"\r")),
        ]
        if k + 1 < len(lines):
            mutated.append(("swap", data(lines[k + 1], line, span=2)))
        else:
            mutated.append(("unterminated", data(line, end=b"")))
        if k == 0:
            mutated.append(("emptied", b""))
        if not line.startswith("#"):
            mutated += [(label, data(new)) for label, new in _field_cases(spec, line, json_line)]
        for label, mutation in mutated:
            if not any(label.startswith(kind) and spec.name in names
                       for kind, names in LEFT_TO_ROWS.items()):
                yield label, f"{file}:{k + 1}-{label}", mutation


def _outcome(read, name):
    """``(result, None)``, or the type and message of the error raised."""
    try:
        return read(name), None
    except ValueError as exc:  # InputFormatError
        return type(exc), str(exc)


def _miss(spec, label, data, sound):
    """How one case misses, or None.  It runs in a working directory that
    holds its row's files; ``sound`` is what the line loop reads from the
    sound file."""
    row = ROW[spec.row]
    Path(spec.name).write_bytes(data)
    got, want = _outcome(spec.read, spec.name), _outcome(spec.by_line, spec.name)
    if got != want:
        return f"the reader gives {got!r:.300}, its line loop {want!r:.300}"
    code, out, err = _run(row.argv)
    result, error = want
    if error is not None:
        row = Row(row.argv[0], row.argv, f"error: {error}")
    elif label.startswith("missing-"):
        row = Row(row.argv[0], row.argv,
                  "error: manifest.tsv:1: cannot open 'absent.tsv': No such file or directory")
    elif spec.tables(result) != sound:
        # Other tables: the command still runs, with no error.
        return None if code == 0 and "error:" not in err else f"exit {code}, {err[-300:]!r}"
    return _mismatch(row, Path.cwd(), code, out, err)


def test_fault_sweep(tmp_path, monkeypatch):
    misses = []
    for k, (file, spec) in enumerate(FILES.items()):
        _set_up(ROW[spec.row], tmp_path / str(k))
        monkeypatch.chdir(tmp_path / str(k))
        sound = spec.tables(spec.by_line(spec.name))
        for label, case_id, data in _cases(file):  # each writes the one file it changes
            miss = _miss(spec, label, data, sound)
            if miss:
                misses.append(f"{case_id}: {miss}")
    assert not misses, "\n".join(misses)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().encode("utf-8"), err.getvalue()


# ------------------------------------------------------ faults of two files

#: One fault per bundle file and kind, ``(file, line, text)``, in the order
#: ``rank`` reports them: the texts file; the read faults of the result page,
#: then of the query; the graph's faults in line order, a dangling id or a
#: read fault; the dangling query entries, then mentions; and last, no
#: resource at all (None: every line of the four files blank).
RANK_ORDER = [
    ("texts.jsonl", 3, "{oops"),
    ("serp.tsv", 2, "2\tdoc-b"),
    ("query.txt", 1, "Ger many"),
    ("graph.tsv", 3, "Atlantis\ttype\tCity"),
    ("graph.tsv", 5, "Museum\tlocatedIn"),
    ("query.txt", 2, "Atlantis"),
    ("serp.tsv", 1, "1\tdoc-a\tAtlantis"),
    None,
]
#: ``eval`` reads the whole manifest before it loads any bundle.
EVAL_ORDER = [("manifest.tsv", 2, "graph.tsv\ttexts.jsonl"), ("qrels.tsv", 2, "City\t9")]
#: ``(row, line loop, first, then)``: the row's command over both faults
#: must report the first, as the line loop does over it alone.
PAIRS = [(row, by_line, first, then)
         for row, by_line, order in [
             ("rank-LDRANK", lambda: oracles.bundle_by_line(*BUNDLE), RANK_ORDER),
             ("eval-per-query", lambda: oracles.manifest_by_line("manifest.tsv"), EVAL_ORDER)]
         for k, first in enumerate(order) for then in order[k + 1:]]


def _with(*faults):
    """A row that writes the bundle files, and the file of each fault, as
    the fixture has them but with ``faults`` in place: with None among
    them, every line blank but the faults'."""
    names = set(BUNDLE) | {fault[0] for fault in faults if fault}
    files = {name: (FIXTURES / "basic" / name).read_text(encoding="utf-8").splitlines()
             for name in names}
    if None in faults:
        files = {name: [""] * len(lines) for name, lines in files.items()}
    for name, line_no, text in filter(None, faults):
        lines = files[name]
        lines += [""] * (line_no - len(lines))
        lines[line_no - 1] = text
    return Row("", (), files={name: "".join(f"{line}\n" for line in lines)
                              for name, lines in files.items()})


def _label(fault):
    return "no-resource" if fault is None else f"{fault[0]}:{fault[1]}"


@pytest.mark.parametrize("row, by_line, first, then", PAIRS,
                         ids=[f"{_label(p[2])}-before-{_label(p[3])}" for p in PAIRS])
def test_the_first_fault_of_a_pair_is_reported(row, by_line, first, then, tmp_path,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    _set_up(_with(first), tmp_path)
    with pytest.raises(ValueError) as alone:
        by_line()
    _set_up(_with(first, then), tmp_path)
    with pytest.raises(ValueError) as both:
        by_line()
    assert str(both.value) == str(alone.value)
    argv = ROW[row].argv
    mismatch = _mismatch(Row(argv[0], argv, f"error: {alone.value}"), tmp_path, *_run(argv))
    assert mismatch is None, mismatch
