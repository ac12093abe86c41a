"""Run one ``dpda`` CLI op with span tracing.

Usage: ``python3 bench/trace_driver.py SPAWN_NS OP_ID SPAN_FILE -- ARGV...``

``SPAWN_NS`` is the parent's ``time.monotonic_ns()`` taken just before it
spawned this process, so ``startup_ns`` covers interpreter start, imports
and wrapping.  The op's stdout and exit code are the CLI's own.
"""

import sys
import time
from pathlib import Path

from tracing import Tracer


def main() -> int:
    spawn_ns, op_id, span_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_driver.py SPAWN_NS OP_ID SPAN_FILE -- ARGV...")
    import dpda.cli

    tracer = Tracer()
    tracer.install()
    startup_ns = time.monotonic_ns() - int(spawn_ns)
    try:
        return dpda.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(Path(span_file), int(op_id), argv, startup_ns)


if __name__ == "__main__":
    sys.exit(main())
