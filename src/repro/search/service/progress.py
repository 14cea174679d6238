"""Progress and ETA reporting for sweeps.

The reporter prints ``done/total``, the rate and an ETA to stderr
(never stdout: the experiment tables own stdout) at a bounded
frequency, so logs stay readable even when cells finish in
milliseconds.  The ETA counts cells: the cells left, at the rate the
computed ones took.  A sweep starts each method's biggest cells first,
so the ETA tends to run long early and then shrink.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Callable
from typing import TextIO

__all__ = ["ProgressReporter"]


def _format_duration(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class ProgressReporter:
    """Counts completed cells and prints ``done/total, rate, ETA`` lines."""

    def __init__(
        self,
        total: int,
        *,
        label: str = "sweep",
        stream: TextIO | None = None,
        min_interval: float = 1.0,
        clock: Callable[[], float] = time.monotonic,  # lint: direct-clock-ok
    ) -> None:
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._clock = clock
        self._start = clock()
        self._last_emit = float("-inf")
        self.done = 0
        self.skipped = 0

    def skip(self, n: int = 1) -> None:
        """Record cells satisfied from checkpoints (counted, not timed)."""
        self.skipped += n
        self.done += n
        self._maybe_emit()

    def update(self, n: int = 1) -> None:
        """Record freshly computed cells."""
        self.done += n
        self._maybe_emit()

    def _maybe_emit(self) -> None:
        now = self._clock()
        if self.done < self.total and now - self._last_emit < self.min_interval:
            return
        self._last_emit = now
        self.stream.write(self.render(now) + "\n")
        self.stream.flush()

    def eta_seconds(self, now: float | None = None) -> float | None:
        """Estimated seconds to completion, or None before a cell is computed.

        The cells left, at the rate of the cells computed so far (cells
        taken from checkpoints cost no time, so they do not count).
        """
        if now is None:
            now = self._clock()
        elapsed = max(now - self._start, 1e-9)
        computed = self.done - self.skipped
        if computed <= 0:
            return None
        rate = computed / elapsed
        return (self.total - self.done) / rate

    def render(self, now: float | None = None) -> str:
        """The current status line (exposed for tests)."""
        if now is None:
            now = self._clock()
        elapsed = max(now - self._start, 1e-9)
        computed = self.done - self.skipped
        rate = computed / elapsed
        pct = 100.0 * self.done / self.total if self.total else 100.0
        line = f"[{self.label}] {self.done}/{self.total} cells ({pct:.0f}%)"
        if self.skipped:
            line += f", {self.skipped} from checkpoints"
        if self.done >= self.total:
            return line + f" — done in {_format_duration(elapsed)}"
        eta = self.eta_seconds(now)
        if eta is not None:
            line += f" | {rate:.1f} cells/s | ETA {_format_duration(eta)}"
        return line
