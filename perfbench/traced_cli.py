"""Run one weylflow command with the per-layer tracer installed.

Usage: python3 perfbench/traced_cli.py TRACE_FILE WEYLFLOW_ARGS...

Behaves like ``python3 -m weylflow WEYLFLOW_ARGS...`` (same exit code, same
output, an escaping exception still ends the process with a traceback) and
writes the tracer's totals and spans to TRACE_FILE when the command ends.
"""

import sys
import time

from tracer import Tracer


def main() -> None:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.time_scipy_imports()
    start = time.perf_counter()
    import weylflow.cli
    import_s = time.perf_counter() - start
    tracer.install()
    try:
        code = weylflow.cli.main(argv)
    finally:
        tracer.write(trace_file, import_s=import_s)
    sys.exit(code)


if __name__ == "__main__":
    main()
