"""Output checks for each ldrank command the benchmark runs.

Each check takes the command's stdout and returns ``(error, digest)``:
``error`` is None when the output is valid, and ``digest`` fingerprints the
result so that the outputs for the reference seed can be compared with the
stored reference.  Rank digests cover the top 50 ids and their scores
rounded to 9 significant digits, so a change in the last printed digits
from a different summation order still matches.
"""

from __future__ import annotations

import hashlib
import math

__all__ = ["check_process", "check_rank", "check_eval", "check_agg", "check_alpha"]

TOP = 50
SUM_TOL = 1e-9
STRATEGIES = ("EQUI", "HIT", "SVD", "LDRANK")
# Majority votes of ~12 mostly reliable workers recover the planted grade
# for nearly every item; far fewer means the aggregation is wrong.
MIN_AGG_ACCURACY = 0.95


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _round9(x: float) -> str:
    return format(x, ".9g")


def check_process(returncode: int, stderr: str) -> str | None:
    if returncode != 0:
        return f"exit code {returncode}"
    if "Traceback (most recent call last)" in stderr:
        return "traceback on stderr"
    return None


def check_rank(stdout: str, resource_ids) -> tuple[str | None, str]:
    """The ranking lists every resource once, best first, and its scores
    form a distribution."""
    ids, scores = [], []
    for pos, line in enumerate(stdout.splitlines(), start=1):
        fields = line.split("\t")
        if len(fields) != 3 or fields[0] != str(pos):
            return f"malformed rank line {pos}: {line!r}", ""
        try:
            score = float(fields[2])
        except ValueError:
            return f"score is not a number on line {pos}", ""
        ids.append(fields[1])
        scores.append(score)
    if len(ids) != len(resource_ids) or set(ids) != set(resource_ids):
        return "ranking is not a permutation of the resources", ""
    if min(scores) < 0.0 or not all(math.isfinite(s) for s in scores):
        return "negative or non-finite score", ""
    if abs(math.fsum(scores) - 1.0) > SUM_TOL:
        return f"scores sum to {math.fsum(scores)!r}, not 1", ""
    if any(a < b for a, b in zip(scores, scores[1:])):
        return "scores are not in descending order", ""
    return None, _digest(f"{rid}\t{_round9(s)}" for rid, s in zip(ids[:TOP], scores[:TOP]))


def check_eval(stdout: str, cutoffs) -> tuple[str | None, str]:
    """One NDCG row per strategy, one column per cutoff, values in [0, 1]."""
    lines = stdout.splitlines()
    header = "strategy\t" + "\t".join(f"ndcg@{r}" for r in cutoffs)
    if not lines or lines[0] != header:
        return "missing or wrong eval header", ""
    rows = [line.split("\t") for line in lines[1:]]
    if [r[0] for r in rows] != list(STRATEGIES) or any(len(r) != len(cutoffs) + 1 for r in rows):
        return "eval table does not have one row per strategy", ""
    try:
        values = [float(v) for r in rows for v in r[1:]]
    except ValueError:
        return "NDCG is not a number", ""
    if not all(0.0 <= v <= 1.0 for v in values):
        return "NDCG outside [0, 1]", ""
    return None, _digest(_round9(v) for v in values)


def check_agg(stdout: str, planted: dict[str, int]) -> tuple[str | None, str]:
    """One grade in 0..3 per judged item, mostly equal to the planted grade."""
    grades = {}
    for line in stdout.splitlines():
        fields = line.split("\t")
        if len(fields) != 2 or fields[1] not in ("0", "1", "2", "3") or fields[0] in grades:
            return f"malformed qrels line {line!r}", ""
        grades[fields[0]] = int(fields[1])
    if set(grades) != set(planted):
        return "aggregated items differ from the judged items", ""
    hits = sum(grades[k] == v for k, v in planted.items())
    if hits < MIN_AGG_ACCURACY * len(planted):
        return f"only {hits} of {len(planted)} aggregated grades match the planted ones", ""
    return None, _digest([stdout])


def check_alpha(stdout: str) -> tuple[str | None, str]:
    """A single finite agreement coefficient of at most 1."""
    try:
        alpha = float(stdout.strip())
    except ValueError:
        return f"alpha output is not a number: {stdout[:40]!r}", ""
    if not math.isfinite(alpha) or not -1.0 <= alpha <= 1.0:
        return f"alpha {alpha} outside [-1, 1]", ""
    return None, _digest([_round9(alpha)])
