"""Every pinned CLI run, in one table run by two runners.

Each row runs one command in a fresh directory that holds a copy of the
basic fixture and is the working directory, so every file is named by a
relative path.  A row may first write files there whole: a fixture file
with one line inserted or replaced or every id rewritten, or a file of
its own.

A success row (exit code 0), or a ``--strict`` row that exits 2, must
print its stdout byte for byte: a golden output under
``fixtures/basic/expected/``, that golden with each id rewritten as the
row's inputs were, or a literal.  It must write each of its files with the
given bytes and print exactly its stderr lines, a ``timing:`` line's
seconds aside, none of which says ``error:``.

An error row (exit code 1) must print nothing on stdout and end stderr
with its line, or with a line that starts with it for a prefix row, under
200 bytes.  Only that line says ``error:``; a bare ``error:`` line is all
of stderr, and argparse's ``ldrank ...: error:`` line follows its usage.
The fault sweep of ``test_fault_sweep.py`` and the properties of
``test_cli.py`` check their runs with the same ``_mismatch``.

``test_cli_run_in_process`` runs each row through ``cli.main``;
``test_cli_runs_through_the_installed_script`` runs the whole table
through the ``ldrank`` script on PATH, outside any ``PYTHONPATH``, and
skips when there is none.  ``test_no_command_imports_scipy`` runs every
row that does not exit 1 once more in one fresh interpreter.
"""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from unittest import mock

import pytest

import ldrank.corpus as corpus_module
from ldrank import STRATEGIES
from ldrank.cli import main

from oracles import shown

FIXTURE = Path(__file__).parent / "fixtures" / "basic"
#: The longest last stderr line any input may give, in bytes.
LINE_BYTES = 200


@dataclass(frozen=True)
class Row:
    id: str
    argv: tuple
    line: str = ""  # the last stderr line of an error row, or its start if ``prefix``
    files: dict = field(default_factory=dict)  # name -> text or bytes, written whole
    code: int = 1
    prefix: bool = False
    out: bytes = b""  # stdout, byte for byte
    written: dict = field(default_factory=dict)  # name -> the bytes the command writes
    err: tuple = ()  # every stderr line of a row that exits 0 or 2, a timing's seconds as "*"


def _text(lines):
    return "".join(f"{line}\n" for line in lines)


def _lines(name):
    return (FIXTURE / name).read_text(encoding="utf-8").splitlines()


def inserted(name, at, line):
    """Fixture file ``name`` with ``line`` inserted as its line ``at``."""
    old = _lines(name)
    return _text(old[:at - 1] + [line] + old[at - 1:])


def appended(name, *lines):
    """Fixture file ``name`` with ``lines`` after its last line."""
    return (FIXTURE / name).read_text(encoding="utf-8") + _text(lines)


def golden(name):
    """The bytes of golden output ``name``."""
    return (FIXTURE / "expected" / name).read_bytes()


def uri(rid):
    """``rid`` as a DBpedia-style URI; ``Museum`` gets 5000 ``_`` more, too
    long for the graph reader's id table.  The shared prefix keeps the sort
    order of the ids, so every score stays the same."""
    return "http://dbpedia.org/resource/" + rid + "_" * 5000 * (rid == "Museum")


def uri_golden(name):
    """Golden ranking ``name`` with each id rewritten by ``uri``."""
    rows = [line.split("\t") for line in golden(name).decode("utf-8").splitlines()]
    return _text(f"{r}\t{uri(i)}\t{x}" for r, i, x in rows).encode("utf-8")


def _uri_triple(line):
    s, p, o = line.split("\t")
    return f"{uri(s)}\t{p}\t{uri(o)}"


def _uri_result(line):
    rank, doc, mentions = line.split("\t")
    return f"{rank}\t{doc}\t{','.join(map(uri, mentions.split(',')))}"


def _uri_text(line):
    record = json.loads(line)
    return json.dumps({**record, "id": uri(record["id"])})


def _many_texts(at):
    """The fixture's texts and records ``r7``... after them, 9,000 lines in
    all, with a second ``Berlin`` record inserted as line ``at``."""
    lines = _lines("texts.jsonl") + [f'{{"id": "r{k}", "text": "x"}}' for k in range(7, 9000)]
    return _text(lines[:at - 1] + ['{"id": "Berlin", "text": "again"}'] + lines[at - 1:])


#: The rank inputs with every id rewritten by ``uri``.
URI_FILES = {
    "graph.tsv": _text(line if line.startswith("#") else _uri_triple(line)
                       for line in _lines("graph.tsv")),
    "texts.jsonl": _text(map(_uri_text, _lines("texts.jsonl"))),
    "serp.tsv": _text(map(_uri_result, _lines("serp.tsv"))),
    "query.txt": _text(map(uri, _lines("query.txt"))),
}


RANK = ("rank", "graph.tsv", "texts.jsonl", "serp.tsv", "query.txt")
EVAL = ("eval", "manifest.tsv", "--cutoffs")
ENTRY = "graph.tsv\ttexts.jsonl\tserp.tsv\tquery.txt\tqrels.tsv"
NOT_UTF8 = b"\xff\xfe not text\n"
UTF8_FAULT = "0: not valid UTF-8 (invalid start byte)"
NO_ENTRY = "has no entry in the texts table"
GRADES = "grade must be one of (0, 1, 2, 3), got"
DIGITS = "1" * 5000
#: 40 digits of a 4,000-digit integer and its digit count, as an error echoes it.
SHOWN_4000 = f"{DIGITS[:40]}... (4000 digits)"
LONG_ID = "Atlantis" * 625  # 5,000 characters, in no texts file
SPACED_ID = LONG_ID[:2500] + " " + LONG_ID[2500:]
XS = "x" * 5000
DEEP = "[" * 100_000
#: Lines ``json`` cannot decode: nested too deep (alone, and inside one
#: object, so the chunk's single parse fails too) and an integer with more
#: digits than ``int`` converts.
UNDECODABLE = {"deep": DEEP, "deep-in-object": '{"item": ' + DEEP + "}",
               "long-integer": '{"id": "x", "text": ' + DIGITS + "}"}
INT_FLAGS = ("--ndim", "--consensus-max-iters", "--max-iters")
FLOAT_FLAGS = ("--alpha", "--stress", "--tol", "--lambda", "--consensus-eps")
JUDGMENT = '{"item": "%s", "worker": "%s", "grade": %s}'
MISSING = "No such file or directory"
LONG_PATH = "d/" * 1496 + "serp.tsv"  # 3,000 characters
EDGES = [("", ()), ("-bidirectional", ("--bidirectional",))]
EVAL_TABLE = golden("eval.tsv").split(b"\n\n")[0] + b"\n"  # the table without --per-query
TIMINGS = tuple(f"timing: {name} mean *s" for name in STRATEGIES)
#: A second judgments file: Museum splits 1 vs 2, and its grade-1 judge
#: carries more trust (0.9 vs 0.6); w2 disagrees with the City majority on
#: 1 of its 2 counted items, so the 0.412 filter threshold drops it.
SMALL = {"small.jsonl": (FIXTURE.parent / "judgments.jsonl").read_text(encoding="utf-8")}
STRESS_ERROR = "error: stress {} is too large: the squared stressed counts overflow"
#: The fixture's texts, each empty or stopwords only: the text matrix has no
#: column, so the SVD prior is uniform.
STOPWORD_TEXTS = {"texts.jsonl": _text(
    json.dumps({"id": json.loads(line)["id"], "text": "the of and" if k % 2 else ""})
    for k, line in enumerate(_lines("texts.jsonl")))}
#: The priors ``--emit-priors`` writes over ``STOPWORD_TEXTS``: svd is equi.
STOPWORD_PRIORS = _text([
    "resource\tequi\thit\tsvd\tfinal",
    *(f"{rid}\t0.166666666667\t{hit}\t0.166666666667\t{final}" for rid, hit, final in [
        ("Berlin", "0.357142857143", "0.261904761905"),
        ("City", "0.0714285714286", "0.119047619048"),
        ("Europe", "0.0714285714286", "0.119047619048"),
        ("Germany", "0.214285714286", "0.190476190476"),
        ("Museum", "0.142857142857", "0.154761904762"),
        ("River", "0.142857142857", "0.154761904762"),
    ])]).encode()


def uniform_svd_warning(k, shape="6x31"):
    """The warning of an SVD prior left uniform: ``k`` is --ndim as echoed."""
    return (f"warning: k={k} exceeds the rank bound of the {shape} text matrix; "
            "svd prior falls back to uniform")


def ranking(*rows):
    """The ``rank`` output of ``(id, score)`` rows, ranked in order."""
    return _text(f"{k}\t{rid}\t{score}" for k, (rid, score) in enumerate(rows, 1)).encode()


#: LDRANK on the fixture with the SVD prior uniform.
LDRANK_UNIFORM_SVD = ranking(
    ("Germany", "0.314878863193"), ("Europe", "0.263247603304"), ("Berlin", "0.182506975196"),
    ("Museum", "0.0982670796324"), ("City", "0.0854173599201"), ("River", "0.0556821187533"))
#: ``eval --per-query`` with Berlin, City and Europe graded 0, or not judged:
#: SVD scores as EQUI does, and LDRANK as HIT.
UNJUDGED_NDCG = dict(zip(STRATEGIES, ["1\t0.532771696912\t0.609255790466",
                                      "1\t0.532771696912\t0.62156697973"] * 2))
UNJUDGED_EVAL = _text([
    "strategy\tndcg@1\tndcg@3\tndcg@5", *(f"{n}\t{x}" for n, x in UNJUDGED_NDCG.items()), "",
    "query\tstrategy\tndcg@1\tndcg@3\tndcg@5",
    *(f"1\t{n}\t{x}" for n, x in UNJUDGED_NDCG.items()),
]).encode()

ROWS = [
    # Flags, each checked before any file is read.
    Row("ndim-0", (*RANK, "--ndim", "0"), "error: ndim must be at least 1, got 0"),
    *(Row(f"int-flag{flag}-{label}", (*RANK, flag, value),
          f"ldrank rank: error: argument {flag}: invalid int value: {shown(value)}")
      for flag in INT_FLAGS
      for label, value in [("underscore", "1_0"), ("arabic-3", "٣"),
                           ("arabic-10", "١٠"), ("5000-digits", DIGITS),
                           ("5000-xs", XS)]),
    *(Row(f"float-flag{flag}-{label}", (*RANK, flag, value),
          f"ldrank rank: error: argument {flag}: invalid float value: {shown(value)}")
      for flag in FLOAT_FLAGS
      for label, value in [("5000-xs", XS), ("4999-digits-x", DIGITS[1:] + "x"),
                           ("abc", "abc")]),
    *(Row(f"{command}-filter-threshold-5000-xs",
          (command, "judgments.jsonl", "--filter-threshold", XS),
          f"ldrank {command}: error: argument --filter-threshold: invalid float value: "
          f"{shown(XS)}")
      for command in ("agg", "alpha")),
    Row("eval-strategy-flag", (*EVAL, "1", "--strategy", "HIT"),
        "ldrank: error: unrecognized arguments: --strategy HIT"),
    *(Row(f"stress-{stress}", (*RANK, "--stress", stress),
          STRESS_ERROR.format(float(stress)))
      for stress in ("1e200", "1e300", "1e308")),
    # A value out of range fails before the files, absent here, are read,
    # whether or not the strategy uses it; eval runs every strategy.
    *(Row(f"{command}-{flag[2:]}-{value}-before-any-file",
          (*argv, *strategy * (command == "rank"), flag, value), f"error: {reason}")
      for strategy, flag, value, reason in [
          (("--strategy", "HIT"), "--stress", "-5", "stress must be positive and finite, got -5.0"),
          (("--strategy", "EQUI"), "--ndim", "0", "ndim must be at least 1, got 0"),
          (("--strategy", "HIT"), "--lambda", "7", "damping must lie in (0, 1], got 7.0"),
          ((), "--tol", "nan", "tol must be positive and finite, got nan"),
          ((), "--consensus-eps", "nan", "consensus_epsilon must be positive and finite, got nan"),
          ((), "--max-iters", "0", "power_max_iters must be at least 1, got 0"),
          ((), "--consensus-max-iters", "0", "consensus_max_iters must be at least 1, got 0"),
      ]
      for command, argv in [("rank", ("rank", *["absent.tsv"] * 4)),
                            ("eval", ("eval", "absent.tsv", "--cutoffs", "1"))]),
    # Usage errors; how argparse lists the choices differs across versions.
    Row("rank-without-files", ("rank",),
        "ldrank rank: error: the following arguments are required: graph, texts, serp, query"),
    Row("unknown-command", ("frobnicate",),
        "ldrank: error: argument command: invalid choice: 'frobnicate'", prefix=True),
    # Cutoff lists, checked before the manifest is read.
    Row("cutoffs-empty", (*EVAL, ""), "error: at least one cutoff required"),
    *(Row(f"cutoffs-{label}", (*EVAL, cutoffs), f"error: invalid cutoff list {shown(cutoffs)}")
      for label, cutoffs in [("x", "x"), ("underscore", "1_0"), ("arabic-3", "٣"),
                             ("mixed", "1_0,٣, 2"), ("plus", "3,+4"), ("hex", "0x3"),
                             ("5000-nines", "9" * 5000), ("5000-xs", XS),
                             ("5000-list", "1," * 2499 + "x_")]),
    Row("cutoffs-0", (*EVAL, "0"), "error: cutoff must be at least 1, got 0"),
    *(Row(f"cutoffs-{cutoffs}-before-a-missing-manifest",
          ("eval", "missing.tsv", "--cutoffs", cutoffs), "error: cutoff must be at least 1, got 0")
      for cutoffs in ("0", "3,0")),
    *(Row(f"cutoffs-{cutoffs}-repeat", (*EVAL, cutoffs),
          f"error: cutoff {repeated} is given more than once")
      for cutoffs, repeated in [("3,3", 3), ("1, 5,2,5,1", 5), ("2,02", 2)]),
    # Files that cannot be opened, to read or to write.
    *(Row(id, (*head, name, *tail), f"error: cannot open {shown(name)}: {MISSING}")
      for id, head, name, tail in [
          ("rank-missing-graph", ("rank",), "absent.tsv", RANK[2:]),
          ("rank-missing-200-character-graph", ("rank",), "g" * 196 + ".tsv", RANK[2:]),
          ("rank-emit-priors-into-a-missing-directory", (*RANK, "--emit-priors"), "nodir/p.tsv",
           ()),
          ("eval-missing-manifest", ("eval",), "absent.tsv", ("--cutoffs", "1")),
          ("agg-missing-file", ("agg",), "absent.jsonl", ()),
          ("alpha-missing-file", ("alpha",), "absent.jsonl", ()),
      ]),
    # Bundle files: each fault named at its path and line.
    Row("rank-two-field-graph", ("rank", "bad.tsv", *RANK[2:]),
        "error: bad.tsv:1: expected 3 tab-separated fields, got 2",
        {"bad.tsv": "only-two\tfields\n"}),
    *(Row(f"graph-line-{label}", ("rank", "graph_bad.tsv", *RANK[2:]),
          f"error: graph_bad.tsv:3: {reason}", {"graph_bad.tsv": inserted("graph.tsv", 3, line)})
      for label, line, reason in [("two-fields", "a\tb", "expected 3 tab-separated fields, got 2"),
                                  ("empty-predicate", "x\t\ty", "empty predicate")]),
    Row("rank-empty-bundle", ("rank", "graph_empty.tsv", "texts_empty.jsonl", "serp_empty.tsv",
                              "query_empty.txt"),
        "error: texts_empty.jsonl:0: need at least one resource",
        dict.fromkeys(["graph_empty.tsv", "texts_empty.jsonl", "serp_empty.tsv",
                       "query_empty.txt"], "")),
    Row("query-5000-xs", (*RANK[:4], "query_long.txt"),
        f"error: query_long.txt:1: query resource {shown(XS)} {NO_ENTRY}",
        {"query_long.txt": XS + "\n"}),
    Row("query-long-id", RANK, f"error: query.txt:2: query resource {shown(LONG_ID)} {NO_ENTRY}",
        {"query.txt": appended("query.txt", LONG_ID)}),
    Row("query-long-spaced-id", RANK,
        f"error: query.txt:2: resource id {shown(SPACED_ID)} contains whitespace",
        {"query.txt": appended("query.txt", SPACED_ID)}),
    Row("serp-long-id", RANK,
        f"error: serp.tsv:4: result-page resource {shown(LONG_ID)} {NO_ENTRY}",
        {"serp.tsv": appended("serp.tsv", f"4\td\t{LONG_ID}")}),
    Row("graph-long-id", RANK, f"error: graph.tsv:11: graph object {shown(LONG_ID)} {NO_ENTRY}",
        {"graph.tsv": appended("graph.tsv", f"Berlin\tp\t{LONG_ID}")}),
    Row("serp-4000-digit-negative-rank", RANK,
        f"error: serp.tsv:4: rank must be positive, got -{SHOWN_4000}",
        {"serp.tsv": appended("serp.tsv", f"-{DIGITS[:4000]}\td\tBerlin")}),
    Row("serp-4000-digit-duplicate-rank", RANK, f"error: serp.tsv:5: duplicate rank {SHOWN_4000}",
        {"serp.tsv": appended("serp.tsv", *[f"{DIGITS[:4000]}\td\tBerlin"] * 2)}),
    *(Row(f"serp-{n}-digit-rank", (*RANK[:3], "serp_long.tsv", "query.txt"),
          f"error: serp_long.tsv:2: {reason}",
          {"serp_long.tsv": f"1\td\tBerlin\n-{DIGITS[:n]}\td\tCity\n"})
      for n, reason in [(5000, f"rank {shown('-' + DIGITS)} is an integer with too many digits"),
                        (4000, f"rank must be positive, got -{SHOWN_4000}")]),
    Row("texts-id-lone-surrogate", RANK,
        f"error: texts.jsonl:7: resource id {shown('Zed' + chr(0xD800))} is not valid in UTF-8",
        {"texts.jsonl": appended("texts.jsonl", '{"id": "Zed\\ud800", "text": "x"}')}),
    *(Row(f"texts-undecodable-{label}", RANK, "error: texts.jsonl:3: invalid JSON (",
          {"texts.jsonl": inserted("texts.jsonl", 3, line)}, prefix=True)
      for label, line in UNDECODABLE.items()),
    # Rules that no reader's line loop in oracles.py has: no id starts with
    # "#", a rank is ASCII digits, and the first dangling query entry in id
    # order, or mention in rank order, is named, at the first line it is on;
    # query entries are resolved before mentions.  A gap in the ranks the
    # serp property's random files reach too seldom.
    *(Row(f"{label}-starts-with-hash", RANK,
          f"error: {name}:{line_no}: {what} '#b' starts with '#'", {name: appended(name, line)})
      for label, name, line_no, line, what in [
          ("texts-id", "texts.jsonl", 7, '{"id": "#b", "text": "x"}', "resource id"),
          ("graph-object", "graph.tsv", 11, "Berlin\tp\t#b", "object"),
          ("serp-mention", "serp.tsv", 4, "4\td\tBerlin,#b", "resource id"),
      ]),
    *(Row(f"serp-rank-{label}", RANK, f"error: serp.tsv:4: rank {shown(rank)} is not an integer",
          {"serp.tsv": appended("serp.tsv", f"{rank}\td\tBerlin")})
      for label, rank in [("underscore", "0_4"), ("space", " 4"), ("arabic-4", "\u0664")]),
    Row("serp-rank-gap", RANK, "error: serp.tsv:0: ranks are not contiguous from 1; missing [4]",
        {"serp.tsv": appended("serp.tsv", "5\td\tBerlin")}),
    Row("query-dangling-in-id-order", RANK,
        f"error: query.txt:3: query resource 'Apollo' {NO_ENTRY}",
        {"query.txt": appended("query.txt", "Zeus", "Apollo")}),
    Row("query-dangling-twice", RANK, f"error: query.txt:2: query resource 'Zeus' {NO_ENTRY}",
        {"query.txt": appended("query.txt", "Zeus", "", "Zeus")}),
    Row("query-dangling-before-mention", RANK,
        f"error: query.txt:2: query resource 'Zeus' {NO_ENTRY}",
        {"query.txt": appended("query.txt", "Zeus"),
         "serp.tsv": appended("serp.tsv", "4\td\tApollo")}),
    Row("serp-dangling-in-rank-order", RANK,
        f"error: serp.tsv:2: result-page resource 'Apollo' {NO_ENTRY}",
        {"serp.tsv": _text(["2\td\tZeus", "1\td\tApollo"])}),
    # One fault of each reader rule at a fixed line, which the reader
    # properties of test_readers.py reach only on some random files.
    *(Row(label, RANK, f"error: {name}:{line_no}: {reason}",
          {name: inserted(name, line_no, line)})
      for label, name, line_no, line, reason in [
          ("graph-subject-with-whitespace", "graph.tsv", 11, "Ber lin\tp\tCity",
           "subject 'Ber lin' contains whitespace"),
          ("graph-subject-with-comma", "graph.tsv", 11, "Berlin,City\tp\tCity",
           f"graph subject 'Berlin,City' {NO_ENTRY}"),
          ("graph-dangling-subject", "graph.tsv", 2, "Zeus\tp\tCity",
           f"graph subject 'Zeus' {NO_ENTRY}"),
          ("query-entry-with-comma", "query.txt", 2, "Berlin,City",
           f"query resource 'Berlin,City' {NO_ENTRY}"),
          ("texts-invalid-json", "texts.jsonl", 3, "{oops",
           "invalid JSON (Expecting property name enclosed in double quotes)"),
          ("texts-duplicate-id", "texts.jsonl", 7, '{"id": "Berlin", "text": "y"}',
           "duplicate resource id 'Berlin'"),
          ("texts-missing-text", "texts.jsonl", 3, '{"id": "Zed"}',
           'expected string fields "id" and "text"'),
          ("texts-id-with-comma", "texts.jsonl", 7, '{"id": "a,b", "text": "x"}',
           "resource id 'a,b' contains ','"),
          ("serp-duplicate-rank", "serp.tsv", 4, "3\td\tBerlin", "duplicate rank 3"),
          ("serp-negative-rank", "serp.tsv", 4, "-1\td\tBerlin", "rank must be positive, got -1"),
      ]),
    # With no texts record, the first graph line is dangling.
    Row("graph-dangling-over-empty-texts", RANK,
        f"error: graph.tsv:2: graph subject 'Berlin' {NO_ENTRY}", {"texts.jsonl": ""}),
    Row("serp-dangling-mention-after-comment", RANK,
        f"error: serp.tsv:5: result-page resource 'Zeus' {NO_ENTRY}",
        {"serp.tsv": appended("serp.tsv", "# c", "4\td\tCity,Zeus")}),
    # Bad bytes after a faulty line: the fault is reported, in the block
    # of the bad bytes (the fixture files), or in an earlier one.
    *(Row(f"{name.split('.')[0]}-{label}-before-bad-bytes", RANK,
          f"error: {name}:{line_no}: {reason}", {name: text.encode() + b"\xff\n"})
      for label, name, line_no, text, reason in [
          ("two-fields", "graph.tsv", 11, appended("graph.tsv", "Berlin\tp"),
           "expected 3 tab-separated fields, got 2"),
          ("invalid-json", "texts.jsonl", 7, appended("texts.jsonl", "{oops"),
           "invalid JSON (Expecting property name enclosed in double quotes)"),
          *((f"duplicate-id-{at}", "texts.jsonl", at, _many_texts(at),
             "duplicate resource id 'Berlin'") for at in (4, 8500)),
      ]),
    # A graph of 4,000 lines of 64 bytes, 1,024 to a 64 KiB block, in which
    # lines 3500 and 3501, in the fourth block, both hold a fault: line
    # 3500's is reported.
    *(Row(f"graph-chunk-{label}-first", RANK, f"error: graph.tsv:3500: {reason}",
          {"graph.tsv": _text(bad.get(k, f"Berlin\t{'p' * 52}\tCity") for k in range(1, 4001))})
      for label, bad, reason in [
          ("dangling-object", {3500: "Berlin\tp\tZeus", 3501: "Berlin\tp"},
           f"graph object 'Zeus' {NO_ENTRY}"),
          ("two-fields", {3500: "Berlin\tp", 3501: "Berlin\tp\tZeus"},
           "expected 3 tab-separated fields, got 2"),
          ("dangling-subject", {3500: "Zeus\tp\tCity", 3501: "Berlin\t\tCity"},
           f"graph subject 'Zeus' {NO_ENTRY}"),
          ("empty-predicate", {3500: "Berlin\t\tCity", 3501: "Zeus\tp\tCity"}, "empty predicate"),
      ]),
    # Judgments files, for agg and alpha alike.
    *(Row(f"judgments-undecodable-{label}", ("agg", "judgments.jsonl"),
          "error: judgments.jsonl:3: invalid JSON (",
          {"judgments.jsonl": inserted("judgments.jsonl", 3, line)}, prefix=True)
      for label, line in UNDECODABLE.items()),
    *(Row(f"{command}-judgments-line-{label}", (command, "judgments_bad.jsonl"),
          f"error: judgments_bad.jsonl:3: {reason}",
          {"judgments_bad.jsonl": inserted("judgments.jsonl", 3, line)})
      for command in ("agg", "alpha")
      for label, line, reason in [
          ("text-trust", '{"item": "x", "worker": "w1", "grade": 1, "trust": "high"}',
           'field "trust" must be numeric'),
          ("grade-7", '{"item": "x", "worker": "w1", "grade": 7, "trust": 0.5}', f"{GRADES} 7"),
          ("invalid-json", "not json", "invalid JSON (Expecting value)"),
          ("missing-worker", '{"item": "x", "grade": 1}', 'missing or invalid "worker"'),
          ("trust-true", '{"item": "x", "worker": "w1", "grade": 1, "trust": true}',
           'field "trust" must be numeric'),
          ("trust-nan", '{"item": "x", "worker": "w1", "grade": 1, "trust": NaN}',
           "trust must lie in [0, 1], got nan"),
          ("401-digit-trust", '{"item": "x", "worker": "w1", "grade": 1, "trust": 1%s}' % (
              "0" * 400), "trust must lie in [0, 1]"),
          ("grade-below-int64-and-trust-2",
           '{"item": "x", "worker": "w1", "grade": -9223372036854775809, "trust": 2}',
           f"{GRADES} -9223372036854775809"),
      ]),
    *(Row(f"{command}-judgments-invalid-json-before-bad-bytes", (command, "judgments.jsonl"),
          "error: judgments.jsonl:19: invalid JSON (Expecting ',' delimiter)",
          {"judgments.jsonl": appended("judgments.jsonl", '{"item": "i"').encode() + b"\xff\n"})
      for command in ("agg", "alpha")),
    *(Row(f"{command}-judgments-item-with-a-tab", (command, "judgments.jsonl"),
          "error: judgments.jsonl:3: item id 'a\\tb' holds a tab or line break",
          {"judgments.jsonl": _text([JUDGMENT % ("c", "w1", 2), "", JUDGMENT % ("a\\tb", "w1", 1),
                                     JUDGMENT % ("a\\tb", "w2", 1)])})
      for command in ("agg", "alpha")),
    *(Row(f"{command}-judgments-repeated-pair{label}", (command, "j.jsonl"),
          f"error: j.jsonl:{line_no}: duplicate judgment for item 'a' by worker 'w'",
          {"j.jsonl": _text([JUDGMENT % ("a", "w", 1), *blanks, JUDGMENT % ("a", "w", 2)])})
      for command in ("agg", "alpha")
      for label, blanks, line_no in [("", [], 2), ("-after-blanks", ["", " "], 4)]),
    Row("alpha-no-item-judged-twice", ("alpha", "j.jsonl"),
        "error: j.jsonl:0: no item has two or more judgments; alpha is undefined",
        {"j.jsonl": _text([JUDGMENT % ("a", "w", 1)])}),
    *(Row(f"judgments-{n}-digit-grade", ("agg", "judgments_long.jsonl"),
          f"error: judgments_long.jsonl:1: {reason}",
          {"judgments_long.jsonl": _text([JUDGMENT % ("Berlin", "w9", DIGITS[:n])])})
      for n, reason in [(5000, "invalid JSON (an integer with too many digits)"),
                        (4000, f"{GRADES} {SHOWN_4000}")]),
    Row("judgments-4000-digit-grade-appended", ("agg", "judgments.jsonl"),
        f"error: judgments.jsonl:19: {GRADES} {SHOWN_4000}",
        {"judgments.jsonl": appended("judgments.jsonl",
                                     JUDGMENT % ("Museum", "w9", DIGITS[:4000]))}),
    *(Row(f"{command}-judgments-not-utf-8", (command, "judgments.jsonl"),
          f"error: judgments.jsonl:{UTF8_FAULT}", {"judgments.jsonl": NOT_UTF8})
      for command in ("agg", "alpha")),
    # Manifests: read whole first, then each entry loaded as it is reached.
    Row("manifest-three-paths", ("eval", "m.tsv", "--cutoffs", "1"),
        "error: m.tsv:1: expected 5 tab-separated paths, got 3", {"m.tsv": "too\tfew\tfields\n"}),
    Row("manifest-empty-path", ("eval", "m.tsv", "--cutoffs", "1"), "error: m.tsv:3: empty path",
        {"m.tsv": _text(["# bundles", ENTRY, ENTRY.rsplit("\t", 1)[0] + "\t"])}),
    Row("manifest-not-utf-8", (*EVAL, "1"), f"error: manifest.tsv:{UTF8_FAULT}",
        {"manifest.tsv": NOT_UTF8}),
    Row("manifest-missing-qrels", (*EVAL, "1"),
        f"error: manifest.tsv:2: cannot open 'missing.tsv': {MISSING}",
        {"manifest.tsv": _text([ENTRY, ENTRY.replace("qrels.tsv", "missing.tsv")])}),
    *(Row(f"manifest-unopenable-serp-{label}", ("eval", "m.tsv", "--cutoffs", "1"),
          f"error: m.tsv:3: cannot open {shown(name)}: {reason}",
          {"m.tsv": _text(["# bundles", ENTRY, ENTRY.replace("serp.tsv", name)])})
      for label, name, reason in [("missing", "nowhere.tsv", MISSING),
                                  ("directory", ".", "Is a directory"),
                                  ("3000-characters", LONG_PATH, MISSING)]),
    # The first entry is ranked before the second is loaded.
    *(Row(f"manifest-ranking-fault-first{label}", ("eval", "m.tsv", "--cutoffs", "1", *flags),
          line, {"m.tsv": _text([ENTRY, ENTRY.replace("serp.tsv", "missing.tsv")])})
      for label, flags, line in [
          ("", ("--stress", "1e300"), STRESS_ERROR.format(1e300)),
          ("-else-the-missing-file", (), f"error: m.tsv:2: cannot open 'missing.tsv': {MISSING}"),
      ]),
    Row("manifest-empty-texts-entry", ("eval", "m.tsv", "--cutoffs", "1"),
        "error: t.jsonl:0: need at least one resource",
        {**dict.fromkeys(["g.tsv", "t.jsonl", "s.tsv", "q.txt"], ""),
         "m.tsv": _text([ENTRY, "g.tsv\tt.jsonl\ts.tsv\tq.txt\tqrels.tsv", ENTRY])}),
    Row("qrels-4000-digit-grade", (*EVAL, "1"), f"error: qrels.tsv:7: {GRADES} {SHOWN_4000}",
        {"qrels.tsv": appended("qrels.tsv", f"Museum\t{DIGITS[:4000]}")}),
    Row("qrels-not-utf-8", (*EVAL, "1"), f"error: qrels.tsv:{UTF8_FAULT}", {"qrels.tsv": NOT_UTF8}),
    # A repeated item, which the qrels property's random files reach too
    # seldom, and grades that are not ASCII digits, which its oracle reads.
    Row("qrels-repeated-item", (*EVAL, "1"), "error: qrels.tsv:7: duplicate item 'Museum'",
        {"qrels.tsv": appended("qrels.tsv", "Museum\t2")}),
    *(Row(f"qrels-grade-{label}", (*EVAL, "1"),
          f"error: qrels.tsv:7: grade {shown(grade)} is not an integer",
          {"qrels.tsv": appended("qrels.tsv", f"Atlantis\t{grade}")})
      for label, grade in [("underscore", "0_3"), ("space", " 3"), ("arabic-3", "\u0663")]),
    *(Row(f"qrels-{label}", (*EVAL, "1"), f"error: qrels.tsv:7: {reason}",
          {"qrels.tsv": appended("qrels.tsv", line)})
      for label, line, reason in [
          ("grade-9", "Atlantis\t9", f"{GRADES} 9"),
          ("one-field", "Atlantis 1", "expected 2 tab-separated fields, got 1"),
      ]),
    # Success runs: rank, every strategy with and without --bidirectional,
    # on the fixture and on its ids rewritten as long URIs.
    *(Row(f"rank-{name}{label}", (*RANK, "--strategy", name, *flags), code=0,
          out=golden(f"rank_{name}{label.replace('-', '_')}.tsv"))
      for name in STRATEGIES for label, flags in EDGES),
    *(Row(f"rank-uri-{name}{label}", (*RANK, "--strategy", name, *flags), files=URI_FILES,
          code=0, out=uri_golden(f"rank_{name}{label.replace('-', '_')}.tsv"))
      for name in STRATEGIES for label, flags in EDGES),
    # CRLF line ends and a comment line after every graph line change nothing.
    Row("rank-HIT-bidirectional-crlf-comments", (*RANK, "--strategy", "HIT", "--bidirectional"),
        files={"graph.tsv": "".join(f"{line}\r\n# comment\r\n" for line in _lines("graph.tsv"))},
        code=0, out=golden("rank_HIT_bidirectional.tsv")),
    Row("rank-emit-priors", (*RANK, "--emit-priors", "priors.tsv"), code=0,
        out=golden("rank_LDRANK.tsv"), written={"priors.tsv": golden("priors.tsv")}),
    # An --ndim above the text matrix's rank, or texts of stopwords only,
    # leave the SVD prior uniform: SVD ranks like EQUI.
    Row("rank-SVD-ndim-50", (*RANK, "--strategy", "SVD", "--ndim", "50"), code=0,
        out=golden("rank_EQUI.tsv"), err=(uniform_svd_warning(50),)),
    *(Row(f"rank-{label}", (*RANK, *flags), code=0, out=LDRANK_UNIFORM_SVD,
          err=(uniform_svd_warning(k),))
      for label, flags, k in [
          ("ascii-digit-flags", ("--ndim", "10", "--max-iters", "100",
                                 "--consensus-max-iters", "100"), 10),
          ("ndim-301-digits", ("--ndim", "1" * 301), f"{'1' * 40}... (301 digits)"),
      ]),
    *(Row(f"rank-stopword-texts-{name}", (*RANK, "--strategy", name), files=STOPWORD_TEXTS,
          code=0, out=out, err=(uniform_svd_warning(1, "6x0"),))
      for name, out in [("SVD", golden("rank_EQUI.tsv")), ("LDRANK", LDRANK_UNIFORM_SVD)]),
    Row("rank-stopword-texts-HIT-emit-priors",
        (*RANK, "--strategy", "HIT", "--emit-priors", "priors.tsv"), files=STOPWORD_TEXTS,
        code=0, out=golden("rank_HIT.tsv"), written={"priors.tsv": STOPWORD_PRIORS},
        err=(uniform_svd_warning(1, "6x0"),)),
    # A result that mentions no resource still counts in the page size.
    Row("rank-HIT-result-without-mentions", (*RANK, "--strategy", "HIT"),
        files={"serp.tsv": appended("serp.tsv", "4\td\t")}, code=0, out=ranking(
            ("Germany", "0.309856906737"), ("Europe", "0.250954897209"),
            ("Berlin", "0.206569054214"), ("Museum", "0.0992820396857"),
            ("City", "0.0822545084516"), ("River", "0.0510825937023"))),
    # Blank lines and comment lines, indented or not, change nothing.
    Row("rank-HIT-graph-blank-and-comment-lines", (*RANK, "--strategy", "HIT"),
        files={"graph.tsv": _text(line for pair in zip(_lines("graph.tsv"),
                                                       ["", "   ", "  # d", "\t#e"] * 3)
                                  for line in pair)},
        code=0, out=golden("rank_HIT.tsv")),
    Row("rank-query-comment-lines", RANK, files={"query.txt": "# the query\n  #b\n\nGermany\n"},
        code=0, out=golden("rank_LDRANK.tsv")),
    # An empty query amplifies the top HIT resource alone: Berlin, as the
    # query "Berlin" does.
    Row("rank-empty-query", RANK, files={"query.txt": ""}, code=0, out=ranking(
        ("Berlin", "0.289186982661"), ("Germany", "0.269057363245"),
        ("Europe", "0.21454549527"), ("Museum", "0.100504921159"),
        ("City", "0.0936823036508"), ("River", "0.0330229340143"))),
    # The largest --stress below the overflow (from 1e200, an error row).
    Row("rank-stress-1e150", (*RANK, "--stress", "1e150"), code=0, out=ranking(
        ("Germany", "0.357834210775"), ("Europe", "0.276789095843"),
        ("Berlin", "0.186628896002"), ("Museum", "0.0762213245237"),
        ("City", "0.0698518907327"), ("River", "0.0326745821234"))),
    # A walk cut off before it converges warns, and with --strict exits 2.
    *(Row(f"rank-EQUI-one-iteration{label}",
          (*RANK, "--strategy", "EQUI", "--max-iters", "1", "--tol", "1e-30", *flags),
          code=code, out=ranking(
              ("Germany", "0.283333333333"), ("Berlin", "0.244444444444"),
              ("Europe", "0.186111111111"), ("City", "0.108333333333"),
              ("Museum", "0.108333333333"), ("River", "0.0694444444444")),
          err=("warning: power iteration still above tolerance after 1 iterations",))
      for label, flags, code in [("", (), 0), ("-strict", ("--strict",), 2)]),
    # eval: the per-query golden, its first table, and manifests without bundles.
    Row("eval-per-query", (*EVAL, "1,3,5", "--per-query"), code=0, out=golden("eval.tsv"),
        err=TIMINGS),
    Row("eval-spaced-cutoffs", (*EVAL, " 1 , 3,,5 "), code=0, out=EVAL_TABLE, err=TIMINGS),
    Row("eval-indented-comment", ("eval", "m.tsv", "--cutoffs", "1,3,5"),
        files={"m.tsv": _text(["  # note", ENTRY])}, code=0, out=EVAL_TABLE, err=TIMINGS),
    Row("eval-qrels-blank-and-comment-lines", (*EVAL, "1,3,5"),
        files={"qrels.tsv": _text(["  # note", "", *_lines("qrels.tsv"), "   ", "#x\t3"])},
        code=0, out=EVAL_TABLE, err=TIMINGS),
    *(Row(f"eval-no-bundles{label}", ("eval", "m.tsv", "--cutoffs", "1,3", *flags),
          files={"m.tsv": "# no bundles yet\n"}, code=0, out=b"strategy\tndcg@1\tndcg@3\n")
      for label, flags in [("", ()), ("-per-query", ("--per-query",))]),
    Row("eval-zero-ideal-gain", ("eval", "m.tsv", "--cutoffs", "1,3,5"),
        files={"zero.tsv": _text(line.split("\t")[0] + "\t0" for line in _lines("qrels.tsv")),
               "m.tsv": _text([ENTRY.replace("qrels.tsv", "zero.tsv")] * 2)},
        code=0, out=_text(["strategy\tndcg@1\tndcg@3\tndcg@5",
                           *(f"{name}\t1\t1\t1" for name in STRATEGIES)]).encode(),
        err=(*TIMINGS, *["warning: ideal ranking has zero gain; returning 1.0"] * 2)),
    # Resources left out of the qrels score as if judged grade 0, with one
    # warning per bundle.
    *(Row(f"eval-{label}", ("eval", "m.tsv", "--cutoffs", "1,3,5", "--per-query"),
          files={"q.tsv": _text(grades + _lines("qrels.tsv")[3:]),
                 "m.tsv": _text([ENTRY.replace("qrels.tsv", "q.tsv")])},
          code=0, out=UNJUDGED_EVAL, err=(*TIMINGS, *warned))
      for label, grades, warned in [
          ("unjudged-resources", [], ["warning: 3 ranked resources have no judgment and count "
                                      "as grade 0 (first: 'Berlin')"]),
          ("resources-graded-0", [line.split("\t")[0] + "\t0" for line in _lines("qrels.tsv")[:3]],
           []),
      ]),
    # agg and alpha: the judgments fixture has a split vote that trust
    # decides (Museum), a mean-trust tie (City), a worker above the 0.412
    # filter threshold (w4) and a single-judgment item (Europe).
    *(Row(f"{command}{label}", (command, "judgments.jsonl", *flags), code=0, out=golden(name))
      for command, label, flags, name in [
          ("agg", "", (), "agg.tsv"),
          ("agg", "-filter-mean-trust", ("--filter-threshold", "--tie-break", "mean-trust"),
           "agg_filter_mean_trust.tsv"),
          ("alpha", "", (), "alpha.txt"),
          ("alpha", "-filter", ("--filter-threshold",), "alpha_filter.txt"),
      ]),
    *(Row(f"{command}-small{label}", (command, "small.jsonl", *flags), files=SMALL, code=0,
          out=out)
      for command, label, flags, out in [
          ("agg", "", (), b"Berlin\t3\nCity\t0\nMuseum\t2\nRiver\t2\n"),
          ("agg", "-mean-trust", ("--tie-break", "mean-trust"),
           b"Berlin\t3\nCity\t0\nMuseum\t1\nRiver\t2\n"),
          ("agg", "-filter", ("--filter-threshold",), b"Berlin\t3\nCity\t0\nMuseum\t1\nRiver\t2\n"),
          ("alpha", "", (), b"0.461538461538\n"),
          ("alpha", "-filter", ("--filter-threshold",), b"0.8\n"),
      ]),
]


def _set_up(row, directory):
    """Copy the fixture's files to ``directory``, then write the row's."""
    directory.mkdir(exist_ok=True)
    for path in FIXTURE.iterdir():
        if path.is_file():
            shutil.copy(path, directory)
    for name, content in row.files.items():
        if isinstance(content, bytes):
            (directory / name).write_bytes(content)
        else:
            (directory / name).write_text(content, encoding="utf-8")


def _mismatch(row, directory, code, out, err):
    """How a run in ``directory`` misses the row, or None; ``out`` is the
    stdout bytes."""
    lines = err.splitlines()
    last = lines[-1] if lines else ""
    if code != row.code or out != row.out:
        return f"exit {code}, stdout {out[:80]!r}, last stderr line {last!r}"
    if row.code != 1:
        if any("error:" in line for line in lines):
            return f"stderr says error: {err[:300]!r}"
        seen = [re.sub(r" mean \d+\.\d{6}s$", " mean *s", line) for line in lines]
        if seen != list(row.err):
            return f"stderr lines {seen!r}, want {list(row.err)!r}"
        for name, want in row.written.items():
            if (directory / name).read_bytes() != want:
                return f"{name} differs from its golden"
        return None
    if not (last.startswith(row.line) if row.prefix else last == row.line):
        return f"last stderr line {last!r}, want {row.line!r}"
    if len(last.encode("utf-8")) >= LINE_BYTES:
        return f"last stderr line of {len(last.encode('utf-8'))} bytes"
    earlier = lines[:-1]
    if any("error:" in line for line in earlier) or (earlier and last.startswith("error:")):
        return f"stderr has more than its error line: {err[:300]!r}"
    return None


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_cli_run_in_process(row, tmp_path, monkeypatch):
    _set_up(row, tmp_path)
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(row.argv))
    mismatch = _mismatch(row, tmp_path, code, out.getvalue().encode("utf-8"), err.getvalue())
    assert mismatch is None, mismatch


def test_cli_runs_through_the_installed_script(tmp_path):
    script = shutil.which("ldrank")
    if script is None:
        pytest.skip("no ldrank script on PATH")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    failures = []
    for k, row in enumerate(ROWS):
        directory = tmp_path / str(k)
        _set_up(row, directory)
        proc = subprocess.run([script, *row.argv], cwd=directory, env=env, capture_output=True,
                              timeout=120, check=False)
        err = proc.stderr.decode("utf-8", errors="replace")
        mismatch = _mismatch(row, directory, proc.returncode, proc.stdout, err)
        if mismatch:
            failures.append(f"{row.id}: {mismatch}")
    assert not failures, "\n".join(failures)


def test_no_command_imports_scipy(tmp_path):
    # The runtime needs numpy alone: importing the CLI and running every
    # row that does not exit 1 leaves scipy unloaded, and each row still
    # passes.  So a run with scipy made unimportable is this run.
    rows = [row for row in ROWS if row.code != 1]
    directories = [tmp_path / str(k) for k in range(len(rows))]
    for row, directory in zip(rows, directories):
        _set_up(row, directory)
    runs = [(str(directory), list(row.argv)) for row, directory in zip(rows, directories)]
    script = f"""
import contextlib, io, json, os, sys
import ldrank.cli
loaded, results = ["scipy" in sys.modules], []
for directory, argv in {runs!r}:
    os.chdir(directory)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ldrank.cli.main(argv)
    loaded.append("scipy" in sys.modules)
    results.append((code, out.getvalue(), err.getvalue()))
print(json.dumps([loaded, results]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    loaded, results = json.loads(proc.stdout)
    assert loaded == [False] * (len(rows) + 1)
    failures = []
    for row, directory, (code, out, err) in zip(rows, directories, results):
        mismatch = _mismatch(row, directory, code, out.encode("utf-8"), err)
        if mismatch:
            failures.append(f"{row.id}: {mismatch}")
    assert not failures, "\n".join(failures)


def test_graph_line_rules_see_only_the_lines_that_need_them(tmp_path, monkeypatch):
    # Over the long-URI inputs only the comment line and the two lines that
    # name the long id reach the line rules; the rest resolve in bulk.
    row = next(row for row in ROWS if row.id == "rank-uri-LDRANK")
    _set_up(row, tmp_path)
    monkeypatch.chdir(tmp_path)
    rules = corpus_module._graph_line_ids
    with mock.patch.object(corpus_module, "_graph_line_ids", wraps=rules) as seen:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(row.argv)) == 0
    lines = [call.args[2] for call in seen.call_args_list]
    assert lines[0].startswith("#")
    assert len(lines) == 3 and all(uri("Museum") in line for line in lines[1:])
