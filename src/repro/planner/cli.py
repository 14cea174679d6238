"""CLI entry points for the planner: ``serve`` and ``plan``.

Dispatched from ``repro-experiments`` (see
:func:`repro.experiments.runner.main`); kept here so the experiments
runner only imports the planner stack when one of these subcommands is
actually invoked.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.planner.core import Planner
from repro.planner.http import DEFAULT_HOST, DEFAULT_PORT, serve
from repro.planner.protocol import (
    CLUSTER_ALIASES,
    PlanRequest,
    answer_to_json,
)
from repro.sim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.utils import create_output_dir

__all__ = ["plan_main", "serve_main"]


def _load_calibration(
    parser: argparse.ArgumentParser, path: str | None
) -> Calibration:
    if path is None:
        return DEFAULT_CALIBRATION
    from repro.fit import load_calibration

    try:
        return load_calibration(path)
    except OSError as exc:
        parser.error(f"cannot read calibration file {path}: {exc.strerror}")
    except ValueError as exc:
        parser.error(str(exc))


def _port(text: str) -> int:
    """A TCP port number, checked when arguments are parsed."""
    port = int(text)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"must be in 0-65535, got {port}")
    return port


def serve_main(argv: Sequence[str] | None = None) -> int:
    """``repro-experiments serve``: run the HTTP planner until killed."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description="Serve best-configuration plan queries over HTTP, "
        "memoized in a shared checkpoint/memo directory.",
    )
    parser.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="memo-store directory (a sweep checkpoint dir works as-is)",
    )
    parser.add_argument("--host", default=DEFAULT_HOST)
    parser.add_argument("--port", type=_port, default=DEFAULT_PORT)
    parser.add_argument(
        "--calibration",
        default=None,
        metavar="PATH",
        help="calibration JSON (e.g. fitted_calibration.json); "
        "default: hand-tuned constants",
    )
    args = parser.parse_args(argv)
    calibration = _load_calibration(parser, args.calibration)
    create_output_dir(parser, "--store", Path(args.store))
    with Planner(args.store, calibration=calibration) as planner:
        try:
            asyncio.run(serve(planner, args.host, args.port))
        except KeyboardInterrupt:
            print("planner stopped", file=sys.stderr)
    return 0


def plan_main(argv: Sequence[str] | None = None) -> int:
    """``repro-experiments plan``: one query through an in-process planner."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments plan",
        description="Answer one best-configuration query from the memo "
        "store (searching, and memoizing, whatever is missing).",
    )
    parser.add_argument("--store", required=True, metavar="DIR")
    parser.add_argument("--model", required=True, help="model preset name")
    parser.add_argument(
        "--cluster",
        required=True,
        choices=sorted(CLUSTER_ALIASES),
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        action="append",
        required=True,
        dest="batch_sizes",
        metavar="N",
        help="global batch size (repeatable)",
    )
    parser.add_argument("--objective", default="throughput")
    parser.add_argument("--memory-headroom", type=float, default=None)
    parser.add_argument("--include-hybrid", action="store_true")
    parser.add_argument(
        "--method",
        action="append",
        dest="methods",
        default=None,
        metavar="NAME",
        help="method to search, e.g. 'Breadth-first' (repeatable; "
        "default: all four)",
    )
    parser.add_argument("--calibration", default=None, metavar="PATH")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the raw answer JSON instead of the summary table",
    )
    args = parser.parse_args(argv)
    try:
        request = PlanRequest(
            model=args.model,
            cluster=args.cluster,
            batch_sizes=tuple(args.batch_sizes),
            objective=args.objective,
            memory_headroom=args.memory_headroom,
            include_hybrid=args.include_hybrid,
            methods=tuple(args.methods or ()),
        )
        request.resolve()  # unknown names and bad objectives, up front
    except ValueError as exc:
        parser.error(str(exc))
    calibration = _load_calibration(parser, args.calibration)
    create_output_dir(parser, "--store", Path(args.store))
    with Planner(args.store, calibration=calibration) as planner:
        answer = asyncio.run(planner.plan(request))
    if args.json:
        print(json.dumps(answer_to_json(answer), indent=2, sort_keys=True))
        return 0
    print(f"query {answer.query_key}")
    for key, source, outcome in zip(
        answer.cell_keys, answer.sources, answer.outcomes
    ):
        if outcome.best is None:
            summary = "infeasible"
        else:
            best = outcome.best
            summary = (
                f"{best.throughput_per_gpu / 1e12:7.2f} Tflop/s/GPU  "
                f"{best.config.describe()}"
            )
        print(
            f"  {outcome.method.value:<14} B={outcome.batch_size:<5} "
            f"[{source:>9}] {summary}  (cell {key})"
        )
    if answer.best is not None:
        print(
            f"best overall: {answer.best.throughput_per_gpu / 1e12:.2f} "
            f"Tflop/s/GPU with {answer.best.config.describe()}"
        )
    return 0
