"""Write ``perfbench/golden.json`` from the program at the current checkout.

    python3 perfbench/make_golden.py

Runs fig7-grid and calibrate-quick once untraced and once traced, and
records the 64 cell-outcome digests (sha256 of the canonical outcome
JSON), the calibrate fit's errors and parameter vector, and each
workload's exact work counts.  plan-stream searches the same 64 cells
once each, so its search work counts are fig7-grid's.  Refuses to write
if the two runs of a workload disagree.
"""

from __future__ import annotations

import json
import sys
import time

from run import GOLDEN, layer_values, run_child, traced_work


def measure(workload: str) -> dict:
    reports = []
    for traced in (False, True):
        report = run_child(workload, traced, time.monotonic() + 600)
        if report is None or report["exit_code"] != 0:
            sys.exit(f"{workload} ({'traced' if traced else 'untraced'}) failed")
        reports.append(report)
    untraced, traced = reports
    if untraced["outputs"] != traced["outputs"] or untraced["work"] != traced["work"]:
        sys.exit(f"{workload}: traced and untraced runs disagree")
    work = dict(untraced["work"])
    work.update(traced_work(
        layer_values(traced["layers"], traced["counts"], traced["wall_s"])
    ))
    return {"ops": untraced["ops"], "outputs": untraced["outputs"], "work": work}


def main() -> int:
    fig7 = measure("fig7-grid")
    calibrate = measure("calibrate-quick")
    plan_work = {"misses": fig7["work"]["cells"]}
    plan_work.update({
        name: fig7["work"][name]
        for name in ("enumerated", "excluded", "pruned", "simulated",
                     "candidates", "instructions", "events", "simulator_calls")
    })
    golden = {
        "cells": fig7["outputs"]["cells"],
        "calibrate": calibrate["outputs"],
        "ops": {"fig7-grid": fig7["ops"], "calibrate-quick": calibrate["ops"]},
        "work": {
            "fig7-grid": fig7["work"],
            "plan-stream": plan_work,
            "calibrate-quick": calibrate["work"],
        },
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
