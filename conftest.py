"""Settings shared by ``tests/`` and ``benchmarks/``.

Hypothesis runs without its per-example deadline: a deadline is a
wall-clock assertion, and a loaded host can fail it with no fault in
the code.
"""

from hypothesis import settings

settings.register_profile("repro", deadline=None)
settings.load_profile("repro")
