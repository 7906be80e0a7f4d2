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


#: Pipeline flags at or beyond the edges of their ranges that no row of the
#: CLI table pins: the first four are rejected before any file is read, the
#: rest rank.
_FLAGS = [
    (["--alpha", "0"], "alpha must lie strictly inside (0, 1), got 0.0"),
    (["--alpha", "1"], "alpha must lie strictly inside (0, 1), got 1.0"),
    (["--ndim", "-1"], "ndim must be at least 1, got -1"),
    (["--stress", "inf"], "stress must be positive and finite, got inf"),
    (["--ndim", "1"], None),
    (["--stress", "1e-300"], None),
    (["--tol", "1e-300"], None),
]


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["HIT", "LDRANK"]), bidirectional=st.booleans(),
       flags=st.sampled_from(_FLAGS))
def test_rank_with_flags_at_the_edges_of_their_ranges(basic_dir, name, bidirectional, flags):
    argv = _rank_args(basic_dir, "--strategy", name, *["--bidirectional"] * bidirectional,
                      *flags[0])
    code, out, err = _run(argv)
    if flags[1]:
        row = Row("rank", tuple(argv), f"error: {flags[1]}")
        mismatch = _mismatch(row, basic_dir, code, out.encode("utf-8"), err)
        assert mismatch is None, mismatch
        return
    assert code == 0, err
    rows = [line.split("\t") for line in out.splitlines()]
    texts = (basic_dir / "texts.jsonl").read_text(encoding="utf-8").splitlines()
    ids = [json.loads(text)["id"] for text in texts]
    assert [int(r[0]) for r in rows] == list(range(1, len(ids) + 1))
    assert sorted(r[1] for r in rows) == sorted(ids)
    assert math.fsum(float(r[2]) for r in rows) == pytest.approx(1.0, rel=0, abs=1e-9)


# ``agg`` and ``alpha`` over the fixture's judgments, one record perhaps
# without its trust, with the flags of both.  The faults of the file's lines
# are cases of the fault sweep (``test_fault_sweep.py``).

_BAD_THRESHOLDS = ("1.5", "-0.25", "nan")
#: The errors the file may still end in: a threshold out of range, and per
#: command, mean-trust ties without trust (``agg``) or nothing to measure
#: alpha on, a fault of the whole file (``alpha``).
_BAD_THRESHOLD_ERROR = "error: threshold must lie in [0, 1], got "
_FILE_ERRORS = {
    "agg": "error: mean-trust tie-breaking needs trust values; ",
    "alpha": "error: {path}:0: no item has two or more judgments; alpha is undefined",
}


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["agg", "alpha"]),
    threshold=st.sampled_from([None, None, "", "0", "1", *_BAD_THRESHOLDS]),
    mean_trust=st.booleans(),
    untrusted=st.sampled_from([None, *range(18)]),
)
def test_judgments_commands_with_flags_report_the_first_fault(
    basic_dir, tmp_path_factory, command, threshold, mean_trust, untrusted
):
    lines = (basic_dir / "judgments.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    if untrusted is not None:
        del records[untrusted]["trust"]
    path = tmp_path_factory.mktemp("judgments") / "judgments.jsonl"
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    argv = [command, str(path)]
    if threshold is not None:
        argv += ["--filter-threshold", *([threshold] if threshold else [])]
    if command == "agg" and mean_trust:
        argv += ["--tie-break", "mean-trust"]
    code, out, err = _run(argv)
    if code == 1:
        line = (_BAD_THRESHOLD_ERROR if threshold in _BAD_THRESHOLDS
                else _FILE_ERRORS[command].format(path=path))
        row = Row(command, tuple(argv), line, prefix=True)
        mismatch = _mismatch(row, path.parent, code, out.encode("utf-8"), err)
        assert mismatch is None, mismatch
        return
    assert code == 0 and threshold not in _BAD_THRESHOLDS, (code, err)
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


# ``eval`` over the fixture's manifest with the cutoff lists that no row of
# the CLI table pins: one cutoff, and cutoffs out of order, with spaces and
# an empty item.  The faults of the manifest's and the qrels file's lines
# are cases of the fault sweep.

@settings(max_examples=10, deadline=None)
@given(cutoffs=st.sampled_from(["3", " 5 ,1,,2 "]))
def test_eval_prints_the_cutoffs_in_the_order_given(basic_dir, cutoffs):
    code, out, err = _run(["eval", str(basic_dir / "manifest.tsv"), "--cutoffs", cutoffs])
    assert code == 0, err
    rows = [line.split("\t") for line in out.splitlines()]
    ranks = [int(tok) for tok in cutoffs.split(",") if tok.strip()]
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
