"""The sanctioned timing primitives for instrumented modules.

The repo linter (rule L501, :mod:`repro.verify.lint`) bans direct
``time.time()`` / ``time.perf_counter()`` calls in instrumented modules:
ad-hoc wall-clock reads are exactly how timing attribution fragments
into incompatible sidecars.  Modules that legitimately need a clock call
these wrappers instead, so every measurement in the system shares one
definition of "now" — and tests can monkeypatch a single seam.

Semantics are identical to the stdlib functions they wrap:

- :func:`perf` — high-resolution monotonic seconds for *durations*
  (``time.perf_counter``).  Never compare across processes.
- :func:`wall` — epoch seconds for *timestamps* that must line up
  across processes (``time.time``): cell start times, trace anchors,
  trajectory entries.
"""

from __future__ import annotations

import time

__all__ = ["perf", "wall"]


def perf() -> float:
    """Monotonic high-resolution seconds; use for measuring durations."""
    return time.perf_counter()


def wall() -> float:
    """Epoch seconds; use for cross-process/cross-machine timestamps."""
    return time.time()
