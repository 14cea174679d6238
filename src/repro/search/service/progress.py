"""Progress and ETA reporting for long sweeps.

A full-paper grid is thousands of simulations across hours; the reporter
prints rate and a smoothed ETA to stderr (never stdout — the experiment
tables own stdout) at a bounded frequency so logs stay readable even
when cells finish in milliseconds.

Cell costs are wildly skewed — a batch-4096 cell can take hundreds of
times longer than a batch-1 cell, and the longest-first scheduler
front-loads the giants — so a naive completed-cell-count ETA starts out
absurdly pessimistic (every remaining small cell priced like the giant
that just finished).  When the caller registers per-cell cost estimates
(:meth:`ProgressReporter.expect`, fed from the checkpoint store's timing
sidecars via the sweep's longest-cell-first estimator) and reports each
completion's estimated cost (``update(cost=...)``), the ETA scales the
*remaining estimated seconds* by the observed seconds-per-estimated-
second rate instead of counting cells.  Without estimates the reporter
falls back to the naive rate.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Callable, Iterable
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
        self._expected_cost = 0.0
        self._completed_cost = 0.0

    def expect(self, costs: Iterable[float]) -> None:
        """Register estimated costs (seconds) for the cells to be computed.

        Enables the cost-weighted ETA; call before the first ``update``.
        Costs are relative — any consistent unit works — and cells
        satisfied from checkpoints (``skip``) should not be included.
        """
        self._expected_cost += sum(max(0.0, c) for c in costs)

    def skip(self, n: int = 1) -> None:
        """Record cells satisfied from checkpoints (counted, not timed)."""
        self.skipped += n
        self.done += n
        self._maybe_emit()

    def update(self, n: int = 1, *, cost: float | None = None) -> None:
        """Record freshly computed cells.

        ``cost`` is the completed cell's *estimated* cost as registered
        via :meth:`expect`; reporting it moves that share of the
        expected work into the ETA's "done" column.
        """
        self.done += n
        if cost is not None:
            self._completed_cost += max(0.0, cost)
        self._maybe_emit()

    def _maybe_emit(self) -> None:
        now = self._clock()
        if self.done < self.total and now - self._last_emit < self.min_interval:
            return
        self._last_emit = now
        self.stream.write(self.render(now) + "\n")
        self.stream.flush()

    def eta_seconds(self, now: float | None = None) -> float | None:
        """Estimated seconds to completion, or None before any signal.

        Cost-weighted when estimates were registered: remaining
        estimated seconds, scaled by how actual wall-clock has tracked
        the estimates so far.  Falls back to the naive completed-cell
        rate when no estimates (or no costed completions) exist.
        """
        if now is None:
            now = self._clock()
        elapsed = max(now - self._start, 1e-9)
        if self._completed_cost > 0.0:
            remaining = max(0.0, self._expected_cost - self._completed_cost)
            return remaining * (elapsed / self._completed_cost)
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
        if rate > 0 and eta is not None:
            line += f" | {rate:.1f} cells/s | ETA {_format_duration(eta)}"
        return line
