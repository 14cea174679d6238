"""Process-local metrics registry and nestable spans.

One recorder is active per process (:func:`get_recorder`); by default it
is the :data:`NULL_RECORDER`, whose every method is a no-op — the
instrumentation calls sprinkled through the search pipeline, the event
engine and the sweep service cost nothing but a method dispatch when
observability is off.  Hot loops that would pay per-iteration
instrumentation gate it on ``recorder.enabled`` once and skip the work
entirely when disabled (``benchmarks/test_engine_perf.py`` counts the
calls a disabled search cell makes: none per candidate).

:class:`MetricsRegistry` is the real implementation:

- **Counters** (monotonic sums), **gauges** (last-wins values, plus
  :meth:`MetricsRegistry.gauge_max` for high-water marks), and
  **histograms** (raw observations, summarized at snapshot time).
- **Spans**: nestable named intervals opened with
  :meth:`MetricsRegistry.span` as a context manager.  Nesting is
  tracked through an explicit stack, so a span's depth and parent are
  recorded without any thread-local machinery; durations come from the
  perf clock, while start/end are *anchored to the epoch* (one wall
  reading at construction) so spans from different workers merge onto
  one sweep-level Chrome trace (:mod:`repro.viz.sweep_trace`).
- **Timers**: ``with registry.timer("x"):`` records the block's
  duration as a histogram observation — a span without trace output.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-serializable
dicts, round-tripped by :func:`snapshot_from_json` and appended as one
JSONL line per actor by :func:`write_snapshot_line`.  Metrics are
*never* part of checkpoint content hashes: nothing in this module is
imported by :mod:`repro.search.service.serialize`, and the golden-key
suite (``tests/test_checkpoint_keys.py``) pins that byte-for-byte.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "NULL_RECORDER",
    "MetricsRegistry",
    "NullRecorder",
    "Recorder",
    "SNAPSHOT_FORMAT",
    "get_recorder",
    "install",
    "merge_snapshot",
    "read_snapshots",
    "recording",
    "snapshot_from_json",
    "uninstall",
    "write_snapshot_line",
]

#: Version tag carried by every snapshot payload.
SNAPSHOT_FORMAT = 1


class Recorder:
    """The instrumentation API every module codes against.

    ``enabled`` lets hot loops skip per-iteration work wholesale; all
    other methods must be safe to call unconditionally.
    """

    enabled: bool = False

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the counter ``name``."""

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` (last write wins)."""

    def gauge_max(self, name: str, value: float) -> None:
        """Raise the gauge ``name`` to ``value`` if larger (high-water)."""

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""

    def span(self, name: str, **attrs):
        """A context manager bracketing one named, nestable interval."""
        return _NULL_CONTEXT

    def timer(self, name: str):
        """A context manager recording the block's seconds into a histogram."""
        return _NULL_CONTEXT


class _NullContext:
    """Reusable no-op context manager (one shared instance, no allocation)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullRecorder(Recorder):
    """The disabled recorder: every method inherited, every one a no-op."""

    __slots__ = ()


#: The process-wide disabled recorder (shared; never mutated).
NULL_RECORDER = NullRecorder()

_ACTIVE: Recorder = NULL_RECORDER


def get_recorder() -> Recorder:
    """The process's active recorder (the no-op one unless installed)."""
    return _ACTIVE


def install(recorder: Recorder) -> None:
    """Make ``recorder`` the process-wide active recorder."""
    global _ACTIVE
    _ACTIVE = recorder


def uninstall() -> None:
    """Restore the no-op recorder."""
    global _ACTIVE
    _ACTIVE = NULL_RECORDER


@contextmanager
def recording(registry: "MetricsRegistry | None" = None):
    """Install a registry for the duration of a block; yields it.

    The previous recorder — usually the no-op one — is restored on exit
    even when the block raises, so tests and one-shot CLI runs can never
    leak an enabled recorder into later work.
    """
    global _ACTIVE
    if registry is None:
        registry = MetricsRegistry()
    previous = _ACTIVE
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous


class _SpanHandle:
    """Context manager for one open span of a :class:`MetricsRegistry`."""

    __slots__ = ("registry", "name", "attrs", "_index")

    def __init__(self, registry: "MetricsRegistry", name: str, attrs: dict):
        self.registry = registry
        self.name = name
        self.attrs = attrs
        self._index = -1

    def __enter__(self) -> "_SpanHandle":
        self._index = self.registry._open_span(self.name, self.attrs)
        return self

    def __exit__(self, *exc_info) -> bool:
        self.registry._close_span(self._index)
        return False


class _TimerHandle:
    """Context manager recording a block's duration into a histogram."""

    __slots__ = ("registry", "name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self.registry = registry
        self.name = name
        self._start = 0.0

    def __enter__(self) -> "_TimerHandle":
        self._start = self.registry._clock()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.registry.observe(self.name, self.registry._clock() - self._start)
        return False


class MetricsRegistry(Recorder):
    """The enabled recorder: counters, gauges, histograms, spans, timers.

    Args:
        actor: Name stamped into snapshots (defaults to ``pid-<pid>``);
            the sweep trace uses it to assign spans to worker lanes.
        clock: Duration clock (monotonic seconds).  Injectable so tests
            can drive time by hand; defaults to ``time.perf_counter``.
        wall_clock: Epoch clock read **once** at construction to anchor
            span times to the epoch; defaults to ``time.time``.
    """

    enabled = True

    def __init__(
        self,
        *,
        actor: str | None = None,
        clock=time.perf_counter,
        wall_clock=time.time,
    ) -> None:
        self.actor = actor if actor is not None else f"pid-{os.getpid()}"
        self._clock = clock
        # Anchor: epoch_time(t) = _wall_anchor + (t - _perf_anchor).
        self._wall_anchor = wall_clock()
        self._perf_anchor = clock()
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, list[float]] = {}
        #: Closed-span records: {name, start, end, depth, attrs} with
        #: start/end in epoch seconds.  Open spans live in _span_stack.
        self.spans: list[dict] = []
        self._span_stack: list[dict] = []

    # ------------------------------------------------------------- metrics

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        self.histograms.setdefault(name, []).append(value)

    # --------------------------------------------------------------- spans

    def span(self, name: str, **attrs) -> _SpanHandle:
        return _SpanHandle(self, name, attrs)

    def timer(self, name: str) -> _TimerHandle:
        return _TimerHandle(self, name)

    def _to_epoch(self, t: float) -> float:
        return self._wall_anchor + (t - self._perf_anchor)

    def _open_span(self, name: str, attrs: dict) -> int:
        record = {
            "name": name,
            "start": self._to_epoch(self._clock()),
            "end": None,
            "depth": len(self._span_stack),
            "attrs": attrs,
        }
        self._span_stack.append(record)
        return len(self._span_stack) - 1

    def _close_span(self, index: int) -> None:
        # Close out-of-order defensively: a crashed inner block may have
        # skipped its own __exit__; everything above `index` is closed at
        # the same instant so the record set stays well-nested.
        end = self._to_epoch(self._clock())
        while len(self._span_stack) > index:
            record = self._span_stack.pop()
            record["end"] = end
            self.spans.append(record)

    # --------------------------------------------------------- serialization

    def snapshot(self, *, meta: dict | None = None) -> dict:
        """The registry's full state as one JSON-serializable dict.

        Histograms are exported with summary statistics *and* their raw
        values, so downstream aggregation (the report, quantiles across
        workers) loses nothing.  Timer durations are monotonic by
        construction (the perf clock never runs backward), which
        ``tests/test_obs.py`` pins under a fake clock.
        """
        histograms = {}
        for name, values in sorted(self.histograms.items()):
            histograms[name] = {
                "count": len(values),
                "sum": sum(values),
                "min": min(values),
                "max": max(values),
                "values": list(values),
            }
        payload = {
            "format": SNAPSHOT_FORMAT,
            "kind": "obs-snapshot",
            "actor": self.actor,
            "recorded_at": self._to_epoch(self._clock()),
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": histograms,
            "spans": [dict(s) for s in self.spans],
        }
        if meta:
            payload["meta"] = dict(meta)
        return payload


def snapshot_from_json(payload: dict) -> dict:
    """Validate and normalize one snapshot payload; raises ``ValueError``.

    The inverse of :meth:`MetricsRegistry.snapshot` for the fields the
    report and the trace consume; unknown extra keys are preserved.
    """
    if not isinstance(payload, dict):
        raise ValueError("snapshot is not a JSON object")
    if payload.get("kind") != "obs-snapshot":
        raise ValueError(f"not an obs snapshot: kind={payload.get('kind')!r}")
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(
            f"snapshot format {payload.get('format')!r} != {SNAPSHOT_FORMAT}"
        )
    for key, kind in (
        ("counters", dict), ("gauges", dict), ("histograms", dict),
        ("spans", list),
    ):
        if not isinstance(payload.get(key, kind()), kind):
            raise ValueError(f"snapshot field {key!r} has the wrong type")
    return payload


def merge_snapshot(recorder: Recorder, snapshot: dict) -> None:
    """Fold another process's snapshot into ``recorder``.

    How a sweep coordinator keeps what its pool workers recorded:
    counters add, histogram observations append, and gauges merge as
    high-water marks.  Spans are left out.
    """
    for name, value in snapshot.get("counters", {}).items():
        recorder.count(name, value)
    for name, value in snapshot.get("gauges", {}).items():
        recorder.gauge_max(name, value)
    for name, hist in snapshot.get("histograms", {}).items():
        for value in hist["values"]:
            recorder.observe(name, value)


def write_snapshot_line(path: str | os.PathLike, snapshot: dict) -> Path:
    """Append one snapshot as a JSONL line; returns the path written.

    One file per actor is the multi-writer convention (mirroring the
    queue's ``events/`` logs): callers pass their own file, so appends
    never interleave across processes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(snapshot, sort_keys=True) + "\n")
    return path


def read_snapshots(path: str | os.PathLike) -> list[dict]:
    """Every valid snapshot under ``path`` (a ``.jsonl`` file or a directory).

    Directories are read as ``*.jsonl`` files in sorted order — the
    layout ``--metrics-out DIR`` produces, one file per actor.  Invalid
    or truncated lines are skipped: metrics are advisory, and a killed
    worker's half-written line must never take down the report.
    """
    path = Path(path)
    files = (
        sorted(path.glob("*.jsonl")) if path.is_dir()
        else [path] if path.is_file()
        else []
    )
    out: list[dict] = []
    for file in files:
        try:
            text = file.read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        for line in text.splitlines():
            try:
                out.append(snapshot_from_json(json.loads(line)))
            except (json.JSONDecodeError, ValueError):
                continue
    return out
