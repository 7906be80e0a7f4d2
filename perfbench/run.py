"""The ldrank benchmark: seeded synthetic workloads run through the ldrank CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up generates the workload's inputs from the seed, at least three times
and for at least three seconds; the median is ``setup_s``.  Then one
closed-loop client runs ops for S seconds: each op is one
``python3 -m ldrank ...`` process per command, and the next op starts only
after the previous one exits.  Children see ``src/`` of this
checkout and run with every BLAS/OpenMP pool pinned to one thread, and
nothing runs in parallel, so the numbers measure the program and not the
scheduler.  Every output is checked; a failed check counts the process as
failed.

With ``--trace 1`` each op runs twice, first as above and then through
``traced_op.py``, which calls ``ldrank.cli.main`` in-process with timing
wrappers around the public functions of every module.  The run prints
per-layer metrics and the tracing overhead instead of end-to-end ones.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import checks
import generate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# Set-up repeats at least this often and for at least this long, so that a
# small set-up takes a median over as many samples as its noise needs.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
EVAL_CUTOFFS = (1, 5, 10)
# Every process must end inside the 180 s a run may take.
RUN_LIMIT_S = 150.0
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
# Outputs for this seed are compared with the digests in reference.json.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Command:
    """One ldrank invocation and the check of its stdout."""

    kind: str
    argv: tuple[str, ...]
    check: object  # stdout -> (error or None, digest)
    key: str  # reference-digest key


@dataclass
class Outcome:
    kind: str
    traced: bool
    wall_s: float
    rss_mb: float
    stdout_bytes: int
    error: str | None
    digest: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    return env


def op_pool(workload: str, inputs) -> list[list[Command]]:
    """The op pool of a workload; the client cycles through it."""
    if workload == "eval-suite":
        judgments = inputs.judgments.name
        return [[
            Command("agg", ("agg", judgments, "--filter-threshold", "--tie-break", "mean-trust"),
                    partial(checks.check_agg, planted=inputs.planted), "agg"),
            Command("alpha", ("alpha", judgments), checks.check_alpha, "alpha"),
            Command("eval", ("eval", inputs.manifest.name, "--cutoffs",
                             ",".join(map(str, EVAL_CUTOFFS))),
                    partial(checks.check_eval, cutoffs=EVAL_CUTOFFS), "eval"),
        ]]
    bundle = inputs.bundles[0]
    extra = ("--strategy", "HIT", "--bidirectional", "--alpha", "0.85") \
        if workload == "graph-sweep" else ()
    check = partial(checks.check_rank, resource_ids=bundle.resource_ids)
    return [
        [Command("rank", ("rank", bundle.graph.name, bundle.texts.name, q.serp.name,
                          q.query.name, *extra), check, f"rank/{i}")]
        for i, q in enumerate(bundle.queries)
    ]


def run_process(cmd, cwd: Path, env, check, timeout: float, kind: str = "",
                traced: bool = False) -> Outcome:
    """Run one child to completion and check what it printed."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    error = checks.check_process(proc.returncode, stderr)
    digest = ""
    if error is None:
        error, digest = check(stdout)
    return Outcome(kind, traced, wall, usage.ru_maxrss / 1024.0, out_path.stat().st_size,
                   error, digest)


def tail(values: list[float]) -> tuple[str, float]:
    """The highest of TAIL_PERCENTILES with at least ten samples above it
    (nearest rank), or the maximum when there are fewer than 20 samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", ordered[max(0, math.ceil(p / 100 * n) - 1)]
    return "max", ordered[-1]


def load_reference(seed: int, scale: float, workload: str) -> dict[str, str]:
    """Reference digests, for the reference seed at full scale only."""
    if scale != 1.0 or not REFERENCE.is_file():
        return {}
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if seed != ref.get("seed"):
        return {}
    return ref.get("digests", {}).get(workload, {})


class Client:
    """Closed-loop client: runs one op at a time and records outcomes."""

    def __init__(self, work: Path, deadline: float, reference: dict[str, str]):
        self.work = work
        self.deadline = deadline
        self.reference = reference
        self.env = child_env()
        self.outcomes: list[Outcome] = []
        self.errors: list[str] = []

    def run(self, command: Command, traced: bool = False) -> Outcome:
        if traced:
            cmd = [sys.executable, str(HERE / "traced_op.py"), str(self.work / ".trace.json"),
                   *command.argv]
        else:
            cmd = [sys.executable, "-m", "ldrank", *command.argv]
        timeout = max(5.0, self.deadline - time.perf_counter())
        outcome = run_process(cmd, self.work, self.env, command.check, timeout, command.kind,
                              traced)
        expected = self.reference.get(command.key)
        if outcome.error is None and expected is not None and outcome.digest != expected:
            outcome.error = f"digest {outcome.digest} differs from reference {expected}"
        if outcome.error is not None:
            self.errors.append(f"{command.kind} {' '.join(command.argv)}: {outcome.error}")
        self.outcomes.append(outcome)
        return outcome


def set_up(workload: str, seed: int, scale: float, work: Path):
    times, inputs = [], None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        inputs = generate.generate(workload, seed, work, scale)
        times.append(time.perf_counter() - start)
    return inputs, times


@dataclass
class Run:
    """Everything one benchmark run measured."""

    client: Client
    setup_times: list[float]
    op_s: list[float] = field(default_factory=list)  # untraced wall time per op
    traced_op_s: list[float] = field(default_factory=list)
    traces: list[list] = field(default_factory=list)  # per op: (outcome, trace) per process


def measure(workload: str, seed: int, seconds: float, traced: bool, scale: float,
            work: Path) -> Run:
    started = time.perf_counter()
    inputs, setup_times = set_up(workload, seed, scale, work)
    sizes = " ".join(f"{k}={v}" for k, v in inputs.sizes.items())
    print(f"# {workload} seed={seed} scale={scale}: {sizes}")
    print(f"# setup_s median of {len(setup_times)}: "
          + " ".join(f"{t:.3f}" for t in setup_times))

    run = Run(Client(work, started + RUN_LIMIT_S, load_reference(seed, scale, workload)),
              setup_times)
    # Compile the package's bytecode once, as an installed copy would have.
    warm = run_process([sys.executable, "-c", "import ldrank.cli"], work, run.client.env,
                       lambda out: (None, ""), RUN_LIMIT_S)
    if warm.error is not None:
        run.client.errors.append(f"importing ldrank: {warm.error}")
        return run

    pool = op_pool(workload, inputs)
    end = time.perf_counter() + seconds
    last = 0.0
    # Start another op only if it should finish inside the measuring window
    # (the first op always runs), so a run lasts about --seconds.
    while not run.op_s or time.perf_counter() + last <= end:
        begin = time.perf_counter()
        commands = pool[len(run.op_s) % len(pool)]
        run.op_s.append(sum(run.client.run(c).wall_s for c in commands))
        if traced:
            per_process = []
            for c in commands:
                outcome = run.client.run(c, traced=True)
                per_process.append((outcome, _read_trace(work)))
            run.traced_op_s.append(sum(o.wall_s for o, _ in per_process))
            run.traces.append(per_process)
        last = time.perf_counter() - begin
    return run


def _read_trace(work: Path):
    path = work / ".trace.json"
    if not path.is_file():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    path.unlink()
    return data


def report_plain(run: Run) -> dict[str, tuple[float, str]]:
    by_kind: dict[str, list[float]] = {}
    client = run.client
    plain = [o for o in client.outcomes if not o.traced]
    for o in plain:
        by_kind.setdefault(o.kind, []).append(o.wall_s)
    for kind, walls in by_kind.items():
        label, value = tail(walls)
        print(f"# {kind}: n={len(walls)} p50={statistics.median(walls):.4f}s "
              f"{label}={value:.4f}s")
    label, value = tail(run.op_s)
    print(f"# op (one {'+'.join(by_kind)} round): n={len(run.op_s)} tail is {label}")
    attempted = len(client.outcomes)
    return {
        "op_p50_s": (statistics.median(run.op_s), "s"),
        "op_tail_s": (value, "s"),
        "peak_rss_mb": (max(o.rss_mb for o in plain), "MB"),
        "ok_rate": ((attempted - len(client.errors)) / attempted, "ratio"),
        "setup_s": (statistics.median(run.setup_times), "s"),
    }


def report_traced(run: Run) -> dict[str, tuple[float, str]]:
    per_op, layer_self = [], []
    for per_process in run.traces:
        metrics, selfs = [], {}
        for outcome, trace in per_process:
            if trace is None:
                continue
            metrics.append(spans.layer_metrics(trace, outcome.stdout_bytes))
            for layer, s in spans.layer_self_seconds(trace).items():
                selfs[layer] = selfs.get(layer, 0.0) + s
        if metrics:
            per_op.append(spans.combine(metrics))
            layer_self.append(selfs)
    if not per_op:
        return {}
    out = {key: (statistics.median(op[key] for op in per_op), _unit(key)) for key in per_op[0]}
    overhead = 100.0 * (statistics.median(run.traced_op_s) / statistics.median(run.op_s) - 1.0)
    out["trace.overhead_pct"] = (overhead, "%")
    op_s = out["trace.op_s"][0]
    print(f"# traced ops: {len(per_op)}; in-process op time {op_s:.4f}s; "
          f"tracing overhead {overhead:+.1f}% of untraced process wall time")
    layers = sorted({k for s in layer_self for k in s})
    for layer in layers:
        s = statistics.median(sel.get(layer, 0.0) for sel in layer_self)
        print(f"#   {layer:<11} self {s:9.4f}s  {100 * s / op_s if op_s else 0:5.1f}% of op")
    return out


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_bytes"):
        return "bytes"
    if key.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(generate.WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier (tests use a tiny scale)")
    args = parser.parse_args(argv)
    if not (SRC / "ldrank" / "__init__.py").is_file():
        print(f"error: no ldrank sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    for error in run.client.errors:
        print(f"# FAILED {error}")
    if not run.op_s:
        return 1
    metrics = report_plain(run)
    if args.trace:
        metrics = report_traced(run)
    result = {
        "correct": not run.client.errors,
        "attempted": len(run.client.outcomes),
        "failed": len(run.client.errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
