"""Run one ldrank command in-process with the timing wrappers installed.

Usage: python3 traced_op.py TRACE_JSON ARG...

Behaves like ``python3 -m ldrank ARG...`` (same stdout, stderr and exit
code) and, when the command returns, writes the import time of ``ldrank``
and the recorded spans to TRACE_JSON.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import ldrank.cli
    import_s = time.perf_counter() - start

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    code = ldrank.cli.main(argv)
    sys.stdout.flush()
    Path(trace_path).write_text(
        json.dumps({"import_s": import_s, **tracer.to_json()}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
