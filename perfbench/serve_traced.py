"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_JSON serve [args...]``.
Spans are tagged with the correlation id (``REPRO_RUN_ID``) the service
exports around each job, and written to SPANS_JSON when the service
stops (on SIGINT).
"""

import json
import os
import sys

import layers
from repro.__main__ import main


def _run(spans_path: str, argv) -> int:
    layers.TRACER.op_source = lambda: os.environ.get("REPRO_RUN_ID")
    layers.install()
    try:
        return main(argv)
    finally:
        layers.uninstall()
        with open(spans_path, "w", encoding="utf-8") as stream:
            json.dump([span.to_tuple() for span in layers.TRACER.spans],
                      stream)


if __name__ == "__main__":
    sys.exit(_run(sys.argv[1], sys.argv[2:]))
