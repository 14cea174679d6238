"""Aggregate obs snapshots into a human-readable attribution report.

``repro-experiments report`` feeds one or more metric snapshots (the
JSONL files ``--metrics-out`` produces) through :func:`build_report` and
prints where a run's time and pruning power actually went:

- **Stage-time attribution** — wall seconds and candidate counts for
  each stage of the staged search pipeline (memory filter → analytical
  bound → simulate), the measurement substrate the ROADMAP's
  vectorization and planner-service items are judged against.
- **Bound tightness** — the distribution of ``lower_bound.step_time /
  simulated.step_time`` per schedule method.  This records, as data,
  the ROADMAP's claim that the analytical bound is loosest (~0.16x) on
  deep non-looped pipelines — the premise of the drain-side-certificate
  work.
- **Warm starts** — the share of each cell's stage-time families that an
  earlier cell or a seed had already priced
  (``search.batch.families_{priced,cached}``).
- **Engine** — wavefront runs, ordered runs, events popped and
  wavefront sweeps per wavefront run.
- **Service** — the sweep coordinator's cell counts: cells in the
  sweep, cells taken from checkpoints and cells computed.

The report is advisory output over advisory data: snapshots are merged
tolerantly (missing sections simply leave their report section empty),
and :attr:`AttributionReport.ok` tells the CI smoke step whether the
*required* sections (stage times and bound tightness) actually carry
data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.utils.tables import ascii_table

__all__ = [
    "AttributionReport",
    "REQUIRED_SECTIONS",
    "build_report",
    "quantile",
]

#: Sections that must be non-empty for ``report`` to exit 0 (the CI
#: smoke contract): a metrics file from any search-backed run carries
#: both; their absence means instrumentation silently broke.
REQUIRED_SECTIONS = ("stage_times", "bound_tightness")

#: Pipeline stages in execution order -> the histogram holding their
#: per-cell wall seconds.
_STAGE_SECONDS = {
    "memory_filter": "search.stage.memory_filter.seconds",
    "bound_order": "search.stage.bound_order.seconds",
    "simulate": "search.stage.simulate.seconds",
}

_TIGHTNESS_PREFIX = "search.bound.tightness."


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty list (q in [0, 1])."""
    if not values:
        raise ValueError("quantile of an empty list")
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _merged_counters(snapshots: list[dict]) -> dict[str, float]:
    total: dict[str, float] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            if isinstance(value, (int, float)):
                total[name] = total.get(name, 0.0) + float(value)
    return total


def _merged_histogram_values(snapshots: list[dict]) -> dict[str, list[float]]:
    merged: dict[str, list[float]] = {}
    for snap in snapshots:
        for name, hist in snap.get("histograms", {}).items():
            values = hist.get("values") if isinstance(hist, dict) else None
            if isinstance(values, list):
                merged.setdefault(name, []).extend(
                    float(v) for v in values if isinstance(v, (int, float))
                )
    return merged


def _distribution(values: list[float]) -> dict:
    return {
        "count": len(values),
        "mean": sum(values) / len(values),
        "min": min(values),
        "p10": quantile(values, 0.10),
        "p50": quantile(values, 0.50),
        "p90": quantile(values, 0.90),
        "max": max(values),
    }


@dataclass(frozen=True)
class AttributionReport:
    """One run's aggregated metrics, ready to print or serialize.

    Attributes mirror the report sections; each is an already-shaped
    plain structure so ``to_json`` is trivial and the text renderer
    holds no logic of its own.
    """

    n_snapshots: int
    stage_times: list[dict]
    bound_tightness: dict[str, dict]
    warm_start: dict
    engine: dict
    service: dict

    @property
    def ok(self) -> bool:
        """True when every required section carries data."""
        return bool(self.stage_times) and bool(self.bound_tightness)

    def to_json(self) -> dict:
        return {
            "n_snapshots": self.n_snapshots,
            "stage_times": self.stage_times,
            "bound_tightness": self.bound_tightness,
            "warm_start": self.warm_start,
            "engine": self.engine,
            "service": self.service,
            "ok": self.ok,
        }

    def format(self) -> str:
        """The human-readable report (stdout of ``repro-experiments report``)."""
        blocks: list[str] = [f"obs report over {self.n_snapshots} snapshot(s)"]

        if self.stage_times:
            total = sum(s["seconds"] for s in self.stage_times) or 1.0
            rows = [
                (
                    s["stage"],
                    f"{s['seconds']:.3f}",
                    f"{100.0 * s['seconds'] / total:.1f}%",
                    str(s["candidates_in"]),
                    str(s["candidates_out"]),
                    str(s["cells"]),
                )
                for s in self.stage_times
            ]
            blocks.append(ascii_table(
                ["Stage", "Seconds", "Share", "Cand in", "Cand out", "Cells"],
                rows,
                title="Stage-time attribution (memory filter -> bound -> simulate)",
            ))
        else:
            blocks.append("stage-time attribution: NO DATA")

        if self.bound_tightness:
            rows = [
                (
                    method,
                    str(d["count"]),
                    f"{d['min']:.3f}",
                    f"{d['p10']:.3f}",
                    f"{d['p50']:.3f}",
                    f"{d['p90']:.3f}",
                    f"{d['max']:.3f}",
                )
                for method, d in sorted(self.bound_tightness.items())
            ]
            blocks.append(ascii_table(
                ["Method", "N", "Min", "P10", "Median", "P90", "Max"],
                rows,
                title="Bound tightness: lower_bound.step_time / simulated.step_time",
            ))
        else:
            blocks.append("bound-tightness distribution: NO DATA")

        if self.warm_start.get("lookups"):
            blocks.append(
                "warm starts: {hits:.0f}/{lookups:.0f} stage-time families "
                "already priced ({rate:.1f}%)".format(
                    hits=self.warm_start["hits"],
                    lookups=self.warm_start["lookups"],
                    rate=100.0 * self.warm_start["hit_rate"],
                )
            )
        if self.engine.get("runs") or self.engine.get("ordered_runs"):
            blocks.append(
                "engine: {runs:.0f} runs, {ordered:.0f} ordered runs, "
                "{popped:.0f} events popped, {per_run:.1f} sweeps per "
                "run".format(
                    runs=self.engine["runs"],
                    ordered=self.engine["ordered_runs"],
                    popped=self.engine["events_popped"],
                    per_run=self.engine["sweeps_per_run"],
                )
            )
        if self.service:
            parts = [
                f"{name}={value:.0f}"
                for name, value in sorted(self.service.items())
            ]
            blocks.append("service: " + ", ".join(parts))
        return "\n\n".join(blocks)


def build_report(snapshots: list[dict]) -> AttributionReport:
    """Aggregate validated snapshots into one :class:`AttributionReport`."""
    counters = _merged_counters(snapshots)
    histograms = _merged_histogram_values(snapshots)

    stage_times: list[dict] = []
    feasible = counters.get("search.candidates.enumerated", 0.0) - counters.get(
        "search.candidates.excluded", 0.0
    )
    stage_candidates = {
        "memory_filter": (
            counters.get("search.candidates.enumerated", 0.0),
            feasible,
        ),
        "bound_order": (
            feasible,
            feasible - counters.get("search.candidates.pruned", 0.0),
        ),
        "simulate": (
            counters.get("search.candidates.simulated", 0.0),
            counters.get("search.candidates.simulated", 0.0),
        ),
    }
    for stage, histogram in _STAGE_SECONDS.items():
        values = histograms.get(histogram, [])
        if not values:
            continue
        cand_in, cand_out = stage_candidates[stage]
        stage_times.append({
            "stage": stage,
            "seconds": sum(values),
            "cells": len(values),
            "candidates_in": int(cand_in),
            "candidates_out": int(cand_out),
        })

    bound_tightness = {
        name[len(_TIGHTNESS_PREFIX):]: _distribution(values)
        for name, values in sorted(histograms.items())
        if name.startswith(_TIGHTNESS_PREFIX) and values
    }

    # A family lookup of the vectorized pricing pass hits when an earlier
    # cell (or a seed) already priced the family, and misses when the
    # pass prices it.
    hits = counters.get("search.batch.families_cached", 0.0)
    misses = counters.get("search.batch.families_priced", 0.0)
    lookups = hits + misses
    warm_start = {
        "hits": hits,
        "misses": misses,
        "lookups": lookups,
        "hit_rate": hits / lookups if lookups else 0.0,
    }

    # Sweeps are counted on full runs and delta replays alike; an ordered
    # run sweeps nothing, so it is counted apart and not averaged in.
    sweeps = counters.get("engine.sweeps", 0.0)
    core_runs = counters.get("engine.runs", 0.0) + counters.get(
        "engine.delta.runs", 0.0
    )
    engine = {
        "runs": counters.get("engine.runs", 0.0),
        "ordered_runs": counters.get("engine.ordered_runs", 0.0),
        "events_popped": counters.get("engine.events_popped", 0.0),
        "sweeps": sweeps,
        "sweeps_per_run": sweeps / core_runs if core_runs else 0.0,
    }

    service = {
        name.split(".", 1)[1]: value
        for name, value in sorted(counters.items())
        if name.startswith("sweep.")
    }

    return AttributionReport(
        n_snapshots=len(snapshots),
        stage_times=stage_times,
        bound_tightness=bound_tightness,
        warm_start=warm_start,
        engine=engine,
        service=service,
    )


def report_to_json_text(report: AttributionReport) -> str:
    """The report as pretty-printed JSON (the ``--json`` output)."""
    return json.dumps(report.to_json(), indent=2, sort_keys=True)
