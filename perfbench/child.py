"""One repetition of a batch workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD TRACE SPAWNED_AT

``run.py`` starts this with ``PYTHONPATH`` at the checkout's ``src/`` so
that every repetition starts with cold process-wide caches, as a CLI
user's does.  ``SPAWNED_AT`` is the parent's ``time.monotonic()`` just
before the spawn (the clock is system-wide on Linux), so set-up time
covers interpreter start and imports.  The workload runs through the
command-line entry point a user types, with its output discarded, and
the repetition's measurements go to stdout as one JSON line.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import time

import repro.experiments.runner as runner

#: Set-up ends here: the interpreter is up and the CLI's imports are done.
_READY = time.monotonic()


def _timed_calls(module, name: str, seconds: list[float]) -> None:
    """Record the wall time of every call to ``module.name``."""
    fn = getattr(module, name)

    def timed(*args, **kwargs):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds.append(time.perf_counter() - started)
        return result

    setattr(module, name, timed)


def _captured(module, name: str, results: list) -> None:
    """Keep every return value of ``module.name``."""
    fn = getattr(module, name)

    def capture(*args, **kwargs):
        result = fn(*args, **kwargs)
        results.append(result)
        return result

    setattr(module, name, capture)


def _run_cli(argv: list[str]) -> tuple[int, float]:
    """``repro-experiments ARGV`` with its report discarded; (code, seconds)."""
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        started = time.perf_counter()
        code = runner.main(argv)
        return code, time.perf_counter() - started


def fig7_grid(op_seconds: list[float]) -> dict:
    """``repro-experiments fig7 --full --jobs 1``: all 64 cells, serially."""
    from repro.search.service import executors
    from repro.search.service.serialize import canonical_dumps, outcome_to_json

    panels: list = []
    _captured(runner, "run_fig7", panels)
    _timed_calls(executors, "best_configuration", op_seconds)
    code, wall = _run_cli(["fig7", "--full", "--jobs", "1"])
    digests = {}
    work = {"cells": 0, "enumerated": 0, "excluded": 0, "pruned": 0,
            "simulated": 0}
    for panel in panels:
        for outcomes in panel.outcomes.values():
            for outcome in outcomes:
                key = f"{panel.name}/{outcome.method.value}/{outcome.batch_size}"
                text = canonical_dumps(outcome_to_json(outcome))
                digests[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
                work["cells"] += 1
                work["enumerated"] += (
                    outcome.n_tried + outcome.n_excluded + outcome.n_pruned
                )
                work["excluded"] += outcome.n_excluded
                work["pruned"] += outcome.n_pruned
                work["simulated"] += outcome.n_tried
    return {"exit_code": code, "wall_s": wall, "ops": work["cells"],
            "outputs": {"cells": digests}, "work": work}


def calibrate_quick(op_seconds: list[float]) -> dict:
    """``repro-experiments calibrate --quick``: the CI-budget fit."""
    from repro.fit import residuals

    fits: list = []
    _captured(runner, "fit_calibration", fits)
    _timed_calls(residuals, "simulate", op_seconds)
    code, wall = _run_cli(["calibrate", "--quick"])
    (result,) = fits
    calibration = result.fitted_calibration
    outputs = {
        "throughput_error_before": result.throughput_error_before,
        "throughput_error_after": result.throughput_error_after,
        "fitted": {p.name: getattr(calibration, p.name)
                   for p in result.parameters},
    }
    work = {"simulations": len(op_seconds),
            "evaluations": result.n_evaluations}
    return {"exit_code": code, "wall_s": wall, "ops": len(op_seconds),
            "outputs": outputs, "work": work}


WORKLOADS = {"fig7-grid": fig7_grid, "calibrate-quick": calibrate_quick}


def _peak_rss_mb() -> float:
    """This process's VmHWM.

    Not ``ru_maxrss``, which keeps the high-water mark of the parent's
    image this process was forked from; and not ``run.peak_rss_mb``,
    whose module's imports would raise the peak being measured.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def main() -> int:
    workload, trace, spawned_at = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    traced = None
    if trace:
        from tracer import TracedRun

        traced = TracedRun()
    op_seconds: list[float] = []
    report = WORKLOADS[workload](op_seconds)
    if traced is not None:
        report.update(traced.summary())
    report["setup_s"] = _READY - float(spawned_at)
    report["op_seconds"] = op_seconds
    report["rss_mb"] = _peak_rss_mb()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
