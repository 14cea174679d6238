"""CLI driver: ``repro-experiments [names...] [--full] [--jobs N] [...]``.

Runs the requested experiments (all by default) and prints the paper's
rows/series as text.  ``--full`` uses the complete batch sweeps for the
search-backed experiments (Figures 1, 7, 8 and the Appendix E tables),
which takes substantially longer.  Those four render the three Figure 7
panel searches, and one invocation searches each panel at most once.

The search-backed experiments fan their (method, batch) cells out over
the sweep service (:mod:`repro.search.service`): ``--jobs`` sizes its
process pool (``--jobs 1`` searches in this process),
``--checkpoint-dir`` persists every completed cell, and ``--resume``
skips cells already checkpointed — an interrupted ``--full`` grid picks
up where it left off.  ``--objective`` / ``--memory-headroom`` select
what every search cell optimizes (:mod:`repro.search.objective`);
``repro-experiments frontier`` runs the Pareto-front search of the
Figure-7 grid.  ``--trace-out`` additionally exports the Figure 4
schedule timelines as a ``chrome://tracing`` JSON file, and
``repro-experiments sweep-trace`` exports a *sweep's* per-worker cell
timeline from its checkpoint directory.

Two calibration hooks (see ``docs/calibration.md``):

- ``repro-experiments calibrate [--quick] [--out PATH]`` least-squares
  fits the :class:`~repro.sim.calibration.Calibration` constants to the
  published Appendix E anchor rows and reports per-anchor residuals
  before/after; it exits non-zero if the fit fails to strictly improve
  on the hand-tuned constants (the CI smoke contract).
- ``--calibration PATH`` runs any experiment under a calibration loaded
  from JSON (e.g. the committed ``fitted_calibration.json``) instead of
  the hand-tuned default.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import format_fig3
from repro.experiments.fig4 import format_fig4, run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import Fig7Panel, run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import format_fig9
from repro.experiments.frontier import format_frontier, run_frontier
from repro.experiments.hybrid_search import (
    format_hybrid_search,
    run_hybrid_search,
)
from repro.experiments.table41 import run_table41
from repro.experiments.table51 import format_table51
from repro.experiments.tableE import format_table_e
from repro.fit import fit_calibration, format_fit_result, load_calibration, save_calibration
from repro.obs import (
    MetricsRegistry,
    read_snapshots,
    recording,
    write_snapshot_line,
)
from repro.obs.report import build_report, report_to_json_text
from repro.search.cell import SearchSettings
from repro.search.objective import OBJECTIVE_KINDS, parse_objective
from repro.search.service import SweepOptions
from repro.sim.calibration import DEFAULT_CALIBRATION
from repro.utils import create_output_dir, create_output_file
from repro.utils.tables import ascii_table
from repro.viz.chart import ascii_line_chart
from repro.viz.chrome_trace import write_chrome_trace
from repro.viz.sweep_trace import write_sweep_trace


@dataclass
class Invocation:
    """One CLI run's experiment settings and the panels it has searched.

    Figures 1, 7 and 8 and the Appendix E tables all render the Figure 7
    panel searches, so a run searches each panel at most once.
    """

    full: bool
    options: SweepOptions
    panels: dict[str, Fig7Panel] = field(default_factory=dict, init=False)

    def fig7_panel(self, name: str) -> Fig7Panel:
        """Panel ``name``'s Figure 7 search, run on its first request."""
        if name not in self.panels:
            # Looked up in this module on each call: perfbench's
            # fig7-grid workload replaces ``runner.run_fig7`` to capture
            # the panels it searches.
            self.panels[name] = run_fig7(
                name, quick=not self.full, options=self.options
            )
        return self.panels[name]


def _print_fig1(run: Invocation) -> None:
    bars = run_fig1(run.fig7_panel("52B"))
    rows = [
        (b.label, f"{b.training_days:.1f}", f"{b.memory_gb:.2f}",
         f"{b.beta:.3f}", f"{b.utilization * 100:.1f}%")
        for b in bars
    ]
    print(ascii_table(
        ["Method", "Training time (days)", "Memory (GB)", "beta", "Utilization"],
        rows,
        title="Figure 1: 52B model on 4096 V100s",
    ))


def _print_fig2(run: Invocation) -> None:
    del run
    for overlap, panel in ((True, "(a) with overlap"), (False, "(b) without overlap")):
        curves = run_fig2(overlap=overlap)
        print(ascii_line_chart(
            curves, title=f"Figure 2{panel}: theoretical efficiency (%)",
            y_label="max GPU utilization (%)",
        ))
        print()


def _print_fig5(run: Invocation) -> None:
    del run
    for panel in ("52B", "6.6B"):
        curves = run_fig5(panel)
        print(ascii_line_chart(
            curves, title=f"Figure 5 ({panel}): utilization vs beta",
            y_label="GPU utilization (%)",
        ))
        print()


def _print_fig6(run: Invocation) -> None:
    del run
    for batch in (16, 64):
        curves = run_fig6(batch)
        print(ascii_line_chart(
            {k: [(float(x), y) for x, y in v] for k, v in curves.items()},
            title=f"Figure 6 (B={batch}): utilization vs stages per device",
            y_label="GPU utilization (%)",
        ))
        print()


def _print_fig7(run: Invocation) -> None:
    for panel in ("52B", "6.6B", "6.6B-ethernet"):
        result = run.fig7_panel(panel)
        print(ascii_line_chart(
            result.curves(),
            title=f"Figure 7 ({panel}): best utilization vs beta",
            y_label="GPU utilization (%)",
        ))
        print()


def _print_fig8(run: Invocation) -> None:
    for panel in ("52B", "6.6B"):
        results = run_fig8(run.fig7_panel(panel))
        rows = []
        for method, points in results.items():
            for p in points:
                rows.append(
                    (method, p.n_gpus, f"{p.beta:.3f}", f"{p.time_days:.1f}",
                     f"{p.cost_gpu_days:.0f}")
                )
        print(ascii_table(
            ["Method", "GPUs", "beta", "Time (days)", "Cost (GPU-days)"],
            rows,
            title=f"Figure 8 ({panel}): cost/time trade-off",
        ))
        print()


def _print_table41(run: Invocation) -> None:
    del run
    rows = [
        (r.method, f"{r.bubble:.3f}", f"{r.state_memory:.1f}",
         f"{r.activation_memory:.1f}", f"{r.dp_network:.1f}",
         f"{r.dp_overlap:.3f}", f"{r.pp_network:.1f}",
         "yes" if r.flexible_nmb else "no")
        for r in run_table41()
    ]
    print(ascii_table(
        ["Method", "Bubble", "State mem", "Act mem", "DP net", "DP overlap",
         "PP net", "Flexible Nmb"],
        rows,
        title="Table 4.1 at the reference setting (N_layers=64, N_PP=8, "
              "N_loop=4, N_mb=8)",
    ))


def _print_table_e(run: Invocation) -> None:
    for panel in ("52B", "6.6B", "6.6B-ethernet"):
        print(format_table_e(run.fig7_panel(panel)))
        print()


def _print_hybrid(run: Invocation) -> None:
    for panel in ("52B", "6.6B", "6.6B-ethernet"):
        comparisons = run_hybrid_search(
            panel, quick=not run.full, options=run.options
        )
        print(format_hybrid_search(comparisons))
        switched = sum(c.winner_is_hybrid for c in comparisons)
        print(f"hybrid wins {switched}/{len(comparisons)} cells ({panel})")
        print()


EXPERIMENTS: dict[str, Callable[[Invocation], None]] = {
    "fig1": _print_fig1,
    "fig2": _print_fig2,
    "fig3": lambda run: print(format_fig3()),
    "fig4": lambda run: print(format_fig4()),
    "fig5": _print_fig5,
    "fig6": _print_fig6,
    "fig7": _print_fig7,
    "fig8": _print_fig8,
    "fig9": lambda run: print(format_fig9()),
    "table4.1": _print_table41,
    "table5.1": lambda run: print(format_table51()),
    "tableE": _print_table_e,
    # Extension (not a paper figure): the Section 4.2 hybrid axis
    # searched Figure-7-style.  Not part of 'all' — it widens the search
    # space beyond the paper's grids and is opt-in like --full.
    "hybrid": _print_hybrid,
}

#: Experiments run by default / by the literal name "all" — the paper's
#: own figures and tables.
PAPER_EXPERIMENTS = [name for name in EXPERIMENTS if name != "hybrid"]


def _export_trace(path: str) -> None:
    """Write the Figure 4 schedule timelines as one chrome://tracing file."""
    panels = run_fig4()
    written = write_chrome_trace(
        path, {p.name: p.result.timeline for p in panels}
    )
    total = sum(len(p.result.timeline) for p in panels)
    print(f"wrote {total} events ({len(panels)} timelines) to {written} — "
          "load at chrome://tracing or ui.perfetto.dev")


def build_sweep_options(args: argparse.Namespace) -> SweepOptions:
    """Sweep-service settings from the experiments parser's flags."""
    calibration = DEFAULT_CALIBRATION
    if args.calibration is not None:
        calibration = load_calibration(args.calibration)
    settings = SearchSettings(
        bound_pruning=not args.no_bound_pruning,
        objective=parse_objective(
            args.objective, memory_headroom=args.memory_headroom
        ),
    )
    return SweepOptions(
        processes=args.jobs,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        progress=args.progress,
        settings=settings,
        calibration=calibration,
    )


def calibrate_main(argv: Sequence[str] | None = None) -> int:
    """``repro-experiments calibrate``: fit the calibration to the anchors.

    Prints the parameter table, per-anchor residuals before/after, and
    the headline weighted mean relative throughput error.  Exit status 0
    means the fit *strictly* reduced that error versus the starting
    (hand-tuned) calibration; 1 means it did not — the property the CI
    smoke step asserts.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments calibrate",
        description="Least-squares fit of the cost-model calibration "
        "constants to the paper's Appendix E anchor rows.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small iteration budget (CI smoke mode; still deterministic, "
        "just less converged than the default full fit)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the fitted calibration (plus fit provenance) as JSON "
        "to PATH — the file format --calibration consumes",
    )
    args = parser.parse_args(argv)
    if args.out:
        create_output_file(parser, "--out", Path(args.out))

    start = time.time()
    result = fit_calibration(quick=args.quick)
    print(format_fit_result(result))
    print(f"--- calibrate done in {time.time() - start:.1f}s "
          f"({'quick' if args.quick else 'full'} budget) ---")
    if args.out:
        written = save_calibration(
            args.out, result.fitted_calibration, result=result
        )
        print(f"wrote fitted calibration to {written}")
    if not result.improved:
        print(
            "FAIL: fit did not strictly improve on the hand-tuned "
            "calibration in both metrics (objective "
            f"{result.objective_before:.3e} -> {result.objective_after:.3e}, "
            f"mean relative throughput error "
            f"{result.throughput_error_before:.2%} -> "
            f"{result.throughput_error_after:.2%})",
            file=sys.stderr,
        )
        return 1
    return 0


def frontier_main(argv: Sequence[str] | None = None) -> int:
    """``repro-experiments frontier``: the Pareto-front search.

    Re-runs the Figure-7 grid (hybrid axis enabled) under
    :class:`~repro.search.objective.ParetoFrontObjective` and reports
    each batch size's combined throughput/peak-memory frontier.  Exit
    status 0 means at least one *non-breadth-first* configuration
    (hybrid or depth-first) sits on a combined frontier — a point no
    breadth-first configuration dominates; 1 means none did — the
    property the CI smoke step asserts.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments frontier",
        description="Search the throughput/peak-memory Pareto frontier of "
        "a Figure 7 panel (all methods, hybrid axis enabled).",
    )
    parser.add_argument(
        "--panel",
        default="6.6B",
        choices=("52B", "6.6B", "6.6B-ethernet"),
        help="Figure 7 panel to search (default: 6.6B)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced batch list (CI smoke mode)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker processes (default: one per CPU)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist each completed search cell as JSON under DIR",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip cells already checkpointed under --checkpoint-dir",
    )
    parser.add_argument(
        "--no-chart", action="store_true",
        help="tables only, skip the ASCII frontier scatter",
    )
    args = parser.parse_args(argv)
    # Built before --checkpoint-dir is created: a usage error creates nothing.
    try:
        options = SweepOptions(
            processes=args.jobs,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
    except ValueError as exc:
        parser.error(str(exc))
    if args.checkpoint_dir is not None:
        create_output_dir(parser, "--checkpoint-dir", Path(args.checkpoint_dir))

    start = time.time()
    cells = run_frontier(args.panel, quick=args.quick, options=options)
    print(format_frontier(cells, chart=not args.no_chart))
    footholds = sum(len(c.hybrid_or_depth_first) for c in cells)
    print(
        f"--- frontier ({args.panel}) done in {time.time() - start:.1f}s: "
        f"{footholds} hybrid/depth-first frontier point(s) across "
        f"{len(cells)} batch size(s) ---"
    )
    if footholds == 0:
        print(
            "FAIL: no hybrid or depth-first configuration reached the "
            "combined frontier — breadth-first dominated everywhere",
            file=sys.stderr,
        )
        return 1
    return 0


def sweep_trace_main(argv: Sequence[str] | None = None) -> int:
    """``repro-experiments sweep-trace``: export a sweep's worker timeline.

    Builds a ``chrome://tracing`` / Perfetto file from a sweep
    directory's timing sidecars — one process row per worker, one slice
    per computed cell.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep-trace",
        description="Export a sweep's per-worker cell timeline as a "
        "chrome://tracing JSON file (see repro.viz.sweep_trace).",
    )
    parser.add_argument("--checkpoint-dir", required=True, metavar="DIR")
    parser.add_argument(
        "--metrics", default=None, metavar="DIR",
        help="merge obs spans from this --metrics-out directory (or "
        "snapshot file) as nested slices",
    )
    parser.add_argument("--out", required=True, metavar="PATH")
    args = parser.parse_args(argv)
    # The checkpoint directory is only read: a missing one would be
    # created empty and exported as an empty trace.
    if not Path(args.checkpoint_dir).is_dir():
        parser.error(
            f"--checkpoint-dir {args.checkpoint_dir} is not an existing "
            "directory"
        )
    create_output_file(parser, "--out", Path(args.out))

    written = write_sweep_trace(args.out, args.checkpoint_dir, args.metrics)
    n_events = len(json.loads(written.read_text())["traceEvents"])
    print(
        f"wrote {n_events} events to {written} — load at chrome://tracing "
        "or ui.perfetto.dev"
    )
    if n_events == 0:
        print(
            "note: no attributable cells found (no timing sidecar under "
            "--checkpoint-dir names its worker and start time)",
            file=sys.stderr,
        )
    return 0


def _parse_cell(cell_arg: str, parser: argparse.ArgumentParser) -> tuple:
    """``--cell PANEL:METHOD:BATCH`` as ``(spec, cluster, method, batch)``."""
    from repro.parallel.config import Method

    from repro.experiments.fig7 import panel_setup

    parts = cell_arg.split(":")
    if len(parts) != 3:
        parser.error(
            f"--cell must be PANEL:METHOD:BATCH (e.g. 52B:DEPTH_FIRST:64), "
            f"got {cell_arg!r}"
        )
    panel, method_name, batch_text = parts
    try:
        method = Method[method_name.upper().replace("-", "_")]
        batch = int(batch_text)
        spec, cluster = panel_setup(panel)
    except (KeyError, ValueError) as exc:
        parser.error(f"bad --cell {cell_arg!r}: {exc}")
    if batch < 1:
        parser.error(f"bad --cell {cell_arg!r}: the batch size must be >= 1")
    return spec, cluster, method, batch


def _search_cell_snapshot(spec, cluster, method, batch: int) -> dict:
    """Search one Figure-7 cell under a fresh registry; return its snapshot."""
    from repro.search.grid import best_configuration

    registry = MetricsRegistry(actor="report-cell")
    with recording(registry):
        best_configuration(spec, cluster, method, batch)
    return registry.snapshot()


def report_main(argv: Sequence[str] | None = None) -> int:
    """``repro-experiments report``: aggregate obs metrics into attribution.

    Consumes the snapshots a run wrote with ``--metrics-out`` (or
    searches one Figure-7 cell live with ``--cell``) and prints the
    stage-time / bound-tightness / warm-start / engine / service report
    (see :mod:`repro.obs.report`).  Exit status 0 requires the required
    sections (stage-time attribution and bound tightness) to carry data
    — the property the CI metrics smoke step asserts.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments report",
        description="Aggregate observability metrics into a stage-time "
        "and bound-tightness attribution report.",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="a --metrics-out directory (or one snapshot .jsonl file) "
        "to aggregate",
    )
    parser.add_argument(
        "--cell",
        default=None,
        metavar="PANEL:METHOD:BATCH",
        help="instead of --metrics: search one Figure-7 cell now "
        "(e.g. 52B:DEPTH_FIRST:64) and report its metrics",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the JSON report to PATH",
    )
    args = parser.parse_args(argv)
    if (args.metrics is None) == (args.cell is None):
        parser.error("exactly one of --metrics or --cell is required")
    # A bad --cell is refused before --out is created.
    cell = None if args.cell is None else _parse_cell(args.cell, parser)
    if args.out:
        create_output_file(parser, "--out", Path(args.out))

    if cell is not None:
        snapshots = [_search_cell_snapshot(*cell)]
    else:
        snapshots = read_snapshots(args.metrics)
        if not snapshots:
            print(
                f"no metric snapshots found under {args.metrics}",
                file=sys.stderr,
            )
            return 1
    report = build_report(snapshots)
    print(report_to_json_text(report) if args.json else report.format())
    if args.out:
        Path(args.out).write_text(report_to_json_text(report) + "\n")
    if not report.ok:
        print(
            "FAIL: required report sections are empty (stage-time "
            "attribution / bound tightness) — did the recorded run "
            "actually search any cells?",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``repro-experiments`` console script."""
    if argv is None:
        argv = sys.argv[1:]
    # Subcommand dispatch before experiment parsing: `calibrate` and
    # friends have their own flags the experiments parser must not see.
    if argv and argv[0] == "calibrate":
        return calibrate_main(list(argv[1:]))
    if argv and argv[0] == "frontier":
        return frontier_main(list(argv[1:]))
    if argv and argv[0] == "sweep-trace":
        return sweep_trace_main(list(argv[1:]))
    if argv and argv[0] == "report":
        return report_main(list(argv[1:]))
    if argv and argv[0] == "verify":
        # Lazy: the verifier pulls in the full search/sim stack only
        # when actually invoked.
        from repro.verify.cli import main as verify_main

        return verify_main(list(argv[1:]))
    if argv and argv[0] == "serve":
        # Lazy: the planner service is only needed when serving.
        from repro.planner.cli import serve_main

        return serve_main(list(argv[1:]))
    if argv and argv[0] == "plan":
        from repro.planner.cli import plan_main

        return plan_main(list(argv[1:]))
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's figures and tables.  "
        "Subcommands: `calibrate` fits the cost model to the paper's "
        "anchors, `frontier` searches the throughput/memory Pareto "
        "frontier, `sweep-trace` exports a sweep's worker timeline, "
        "`report` aggregates --metrics-out observability metrics, "
        "`verify` runs the static schedule verifier and repo linter, "
        "`serve` runs the HTTP best-configuration planner, `plan` "
        "answers one planner query in-process."
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"experiments to run: {', '.join(EXPERIMENTS)}, or 'all' "
             "(default: all)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the full batch sweeps (slower, matches the paper exactly)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="pool worker processes for the search-backed experiments "
             "(default: one per CPU, capped at the cells; 1 searches in "
             "this process)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="persist each completed search cell as JSON under DIR",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already checkpointed under --checkpoint-dir",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print sweep progress and ETA to stderr",
    )
    parser.add_argument(
        "--no-bound-pruning",
        action="store_true",
        help="disable the branch-and-bound stage of the search (simulate "
             "every memory-feasible candidate; the winners are identical, "
             "only slower — the escape hatch for validating the bound)",
    )
    parser.add_argument(
        "--objective",
        choices=sorted(OBJECTIVE_KINDS),
        default="throughput",
        help="search objective for the search-backed experiments "
             "(default: throughput, the paper's argmax; "
             "memory-constrained takes --memory-headroom; pareto reports "
             "the full throughput/memory frontier per cell)",
    )
    parser.add_argument(
        "--memory-headroom",
        type=float,
        default=None,
        metavar="FRACTION",
        help="peak-memory budget as a fraction of device HBM for "
             "--objective=memory-constrained (default: 0.5)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="also export the Figure 4 schedule timelines as a "
             "chrome://tracing JSON file at PATH",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="DIR",
        help="record observability metrics (stage times, prune counters, "
             "bound tightness, ...) and write JSONL snapshots under DIR — "
             "one file per actor; aggregate with `repro-experiments "
             "report --metrics DIR`",
    )
    parser.add_argument(
        "--calibration",
        default=None,
        metavar="PATH",
        help="run the search-backed experiments under the calibration in "
             "this JSON file (e.g. the committed fitted_calibration.json "
             "produced by `calibrate --out`) instead of the hand-tuned "
             "default",
    )
    args = parser.parse_args(argv)
    # Validate by hand: argparse (<=3.11) checks nargs="*" defaults
    # against `choices`, rejecting the empty list.
    unknown = [n for n in args.names if n not in EXPERIMENTS and n != "all"]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    try:
        options = build_sweep_options(args)
    except OSError as exc:
        parser.error(
            f"cannot read calibration file {exc.filename}: {exc.strerror}"
        )
    except ValueError as exc:
        parser.error(str(exc))
    if args.metrics_out is not None:
        create_output_dir(parser, "--metrics-out", Path(args.metrics_out))
    if args.checkpoint_dir is not None:
        create_output_dir(parser, "--checkpoint-dir", Path(args.checkpoint_dir))
    if args.trace_out:
        create_output_file(parser, "--trace-out", Path(args.trace_out))
    names = (
        list(PAPER_EXPERIMENTS)
        if not args.names or "all" in args.names
        else args.names
    )
    # With --metrics-out, everything run in-process (serial cells, the
    # pool coordinator, resume bookkeeping) records into one coordinator
    # registry, and the pool workers' per-cell snapshots merge into it.
    registry = (
        MetricsRegistry(actor="coordinator")
        if args.metrics_out is not None
        else None
    )
    run = Invocation(full=args.full, options=options)
    try:
        with recording(registry) if registry is not None else nullcontext():
            for name in names:
                start = time.time()
                print(f"=== {name} ===")
                EXPERIMENTS[name](run)
                print(f"--- {name} done in {time.time() - start:.1f}s ---\n")
    finally:
        if registry is not None:
            written = write_snapshot_line(
                Path(args.metrics_out) / "coordinator.jsonl",
                registry.snapshot(),
            )
            print(f"wrote metrics snapshot to {written}", file=sys.stderr)
    if args.trace_out:
        _export_trace(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
