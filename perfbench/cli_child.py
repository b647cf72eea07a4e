"""Run one `ptnu` command under the tracer and report its counts.

Usage: python cli_child.py spans|alloc <ptnu arguments...>

The command's stdout and exit code are passed through; the tracer's
counts go to stderr as one line that starts with tracer.MARKER.
"""
import json
import sys
import tracemalloc

import ptnu.cli

import tracer


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.Tracer(alloc=mode == "alloc")
    spans.install()
    if spans.alloc:
        tracemalloc.start()
    try:
        return ptnu.cli.main(argv)
    finally:
        spans.uninstall()
        sys.stdout.flush()
        print(tracer.MARKER + json.dumps(spans.raw()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
