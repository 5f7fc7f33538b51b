"""Fresh-interpreter probes, each printing one elapsed time in seconds.

Usage: python3 probe.py setup|setup-cli|import-cli

``setup`` imports mtckit and builds what the in-process workloads start
from (the rank-12 catalog fixture, which validates and runs Verlinde, and
its center); ``setup-cli`` is the load work every CLI query on that
fixture pays before its command; ``import-cli`` is a bare import of the CLI.
"""

import sys
import time

HAAGERUP = "haagerup-center"


def main(kind: str) -> None:
    start = time.perf_counter()
    if kind == "import-cli":
        import mtckit.cli  # noqa: F401
    elif kind == "setup-cli":
        import mtckit.cli  # noqa: F401
        from mtckit import dataio

        dataio.catalog(HAAGERUP)
        dataio.catalog_ring(HAAGERUP)
    elif kind == "setup":
        from mtckit import center, dataio

        center.center_for(dataio.catalog(HAAGERUP), dataio.catalog_ring(HAAGERUP))
    else:
        raise SystemExit(f"unknown probe {kind!r}")
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1])
