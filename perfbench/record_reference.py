"""Record the reference output digests that run.py checks for its default seed.

Usage, from the root of a checkout:  python3 perfbench/record_reference.py

Runs every command in each workload's op pool once on the default seed and
stores the digests in reference.json, keeping the file's other entries.
Record only from a commit whose outputs are known to be right.
"""

import json
import shutil
import sys
import time

import generate
import run


def main() -> int:
    seed = run.REFERENCE_SEED
    ref = json.loads(run.REFERENCE.read_text(encoding="utf-8")) if run.REFERENCE.is_file() else {}
    digests = {}
    for workload in generate.WORKLOADS:
        work = run.ROOT / ".perfbench_work" / f"reference-{workload}"
        try:
            inputs = generate.generate(workload, seed, work)
            client = run.Client(work, time.perf_counter() + 3600, {})
            for commands in run.op_pool(workload, inputs):
                for command in commands:
                    outcome = client.run(command)
                    if outcome.error is not None:
                        print(f"{workload} {command.key}: {outcome.error}", file=sys.stderr)
                        return 1
                    digests.setdefault(workload, {})[command.key] = outcome.digest
                    print(f"{workload} {command.key} {outcome.digest} {outcome.wall_s:.2f}s")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    ref["seed"] = seed
    ref["digests"] = digests
    run.REFERENCE.write_text(json.dumps(ref, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
