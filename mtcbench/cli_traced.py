"""Run one mtckit CLI query under the Tracer.

Usage: python3 cli_traced.py COUNTERS_PATH CLI_ARGS...

Behaves like ``python -m mtckit.cli CLI_ARGS...`` (same stdout and exit
code) and writes the Tracer's counters as JSON to COUNTERS_PATH.
"""

import json
import sys

import mtckit.cli

from spans import Tracer


def main() -> int:
    path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = mtckit.cli.main(args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(tracer.counters(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
