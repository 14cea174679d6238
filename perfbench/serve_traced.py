"""``repro-experiments serve`` with per-layer tracing, for traced rounds.

    python3 perfbench/serve_traced.py TABLE_OUT SERVE_ARGS...

Installs the tracer's wrappers and an obs registry in this process, then
serves exactly as ``repro-experiments serve SERVE_ARGS...`` does until
SIGINT stops it, and writes the layer table as JSON to ``TABLE_OUT``.
"""

from __future__ import annotations

import json
import sys

from repro.planner.cli import serve_main
from tracer import TracedRun


def main() -> int:
    table_out, serve_args = sys.argv[1], sys.argv[2:]
    traced = TracedRun()
    code = serve_main(serve_args)
    with open(table_out, "w", encoding="utf-8") as fh:
        json.dump(traced.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
