"""perfbench's tracer still finds every name it wraps.

``perfbench/tracer.py`` times the program's layers by replacing entry
points by module and attribute name (``repro.search.sweep.run_sweep``,
``repro.planner.core.Planner._neighbor_seed``, ...), and raises on a
name that is gone.  A rename or deletion in ``src/`` would otherwise
surface only in a traced benchmark run.  The install runs in a fresh
interpreter so its wrappers never leak into this test session.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_name_resolves():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "from tracer import Tracer, install; install(Tracer(), [])",
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
