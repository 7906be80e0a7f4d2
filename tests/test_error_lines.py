"""The CLI's error lines, pinned in one table and run by two runners.

Each row runs one command in a fresh directory that holds a copy of the
basic fixture and is the working directory, so every file is named by a
relative path.  A row may first write files there whole: a fixture file
with one line inserted or replaced, or a file of its own.  The command
must exit with the row's code, print nothing on stdout and end stderr
with the row's line, or with a line that starts with it for a prefix
row, under 200 bytes.  Only that line says ``error:``; a bare ``error:``
line is all of stderr, and argparse's ``ldrank ...: error:`` line follows
its usage.

``test_error_line_in_process`` runs each row through ``cli.main``;
``test_error_lines_through_the_installed_script`` runs the whole table
through the ``ldrank`` script on PATH, outside any ``PYTHONPATH``, and
skips when there is none.
"""

import contextlib
import io
import os
import shutil
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from ldrank.cli import main

from oracles import shown

FIXTURE = Path(__file__).parent / "fixtures" / "basic"
#: The longest last stderr line any input may give, in bytes.
LINE_BYTES = 200


@dataclass(frozen=True)
class Row:
    id: str
    argv: tuple
    line: str  # the last stderr line, or its start if ``prefix``
    files: dict = field(default_factory=dict)  # name -> text or bytes, written whole
    code: int = 1
    prefix: bool = False


def _text(lines):
    return "".join(f"{line}\n" for line in lines)


def inserted(name, at, line):
    """Fixture file ``name`` with ``line`` inserted as its line ``at``."""
    old = (FIXTURE / name).read_text(encoding="utf-8").splitlines()
    return _text(old[:at - 1] + [line] + old[at - 1:])


def appended(name, *lines):
    """Fixture file ``name`` with ``lines`` after its last line."""
    return (FIXTURE / name).read_text(encoding="utf-8") + _text(lines)


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
STRESS_ERROR = "error: stress {} is too large: the squared stressed counts overflow"

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
    # Bundle files: each fault named at its path and line.
    Row("rank-missing-graph", ("rank", "absent.tsv", *RANK[2:]),
        f"error: [Errno 2] {MISSING}: 'absent.tsv'"),
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
      for n, reason in [(5000, f"rank {shown('-' + DIGITS)} is not an integer"),
                        (4000, f"rank must be positive, got -{SHOWN_4000}")]),
    *(Row(f"texts-undecodable-{label}", RANK, "error: texts.jsonl:3: invalid JSON (",
          {"texts.jsonl": inserted("texts.jsonl", 3, line)}, prefix=True)
      for label, line in UNDECODABLE.items()),
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
      ]),
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
          f"error: m.tsv:3: cannot open {name!r}: {reason}",
          {"m.tsv": _text(["# bundles", ENTRY, ENTRY.replace("serp.tsv", name)])})
      for label, name, reason in [("missing", "nowhere.tsv", MISSING),
                                  ("directory", ".", "Is a directory")]),
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


def _mismatch(row, code, out, err):
    """How the run's exit code, stdout and stderr miss the row, or None."""
    lines = err.splitlines()
    last = lines[-1] if lines else ""
    if code != row.code or out:
        return f"exit {code}, stdout {out[:80]!r}, last stderr line {last!r}"
    if not (last.startswith(row.line) if row.prefix else last == row.line):
        return f"last stderr line {last!r}, want {row.line!r}"
    if len(last.encode("utf-8")) >= LINE_BYTES:
        return f"last stderr line of {len(last.encode('utf-8'))} bytes"
    earlier = lines[:-1]
    if any("error:" in line for line in earlier) or (earlier and last.startswith("error:")):
        return f"stderr has more than its error line: {err[:300]!r}"
    return None


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_error_line_in_process(row, tmp_path, monkeypatch):
    _set_up(row, tmp_path)
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(row.argv))
    mismatch = _mismatch(row, code, out.getvalue(), err.getvalue())
    assert mismatch is None, mismatch


def test_error_lines_through_the_installed_script(tmp_path):
    script = shutil.which("ldrank")
    if script is None:
        pytest.skip("no ldrank script on PATH")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    failures = []
    for k, row in enumerate(ROWS):
        _set_up(row, tmp_path / str(k))
        proc = subprocess.run([script, *row.argv], cwd=tmp_path / str(k), env=env,
                              capture_output=True, encoding="utf-8", errors="replace",
                              timeout=120, check=False)
        mismatch = _mismatch(row, proc.returncode, proc.stdout, proc.stderr)
        if mismatch:
            failures.append(f"{row.id}: {mismatch}")
    assert not failures, "\n".join(failures)
