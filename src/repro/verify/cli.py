"""Command-line driver for the static verifier and repo linter.

Invoked as ``python -m repro.verify`` or ``repro-experiments verify``:

- ``--lint``: Level-2 repo contract linter over the working tree.
- ``--zoo``: Level-1 program verifier over the full schedule zoo (all
  five schedule kinds plus hybrid sequence sizes) across a small
  (n_pp, n_microbatches, n_loop) grid.
- ``--winner PANEL[:BATCH]``: search one Figure-7 cell (the paper's
  breadth-first method) and statically verify the winning program —
  the CI smoke contract.
- ``--self-test``: the mutation harness; every seeded corruption must
  be flagged.

With no selection, ``--lint --zoo`` run.  Exit status is non-zero when
any error-severity finding fires (or a mutation goes undetected), so
CI jobs can gate on it directly.
"""

from __future__ import annotations

import argparse
from collections.abc import Iterator
from pathlib import Path

from repro.parallel.config import ParallelConfig, ScheduleKind
from repro.verify.report import VerifyReport

__all__ = ["main", "zoo_configs"]

#: (n_pp, n_microbatches, n_loop) grid the zoo sweeps per schedule kind.
ZOO_GRID: tuple[tuple[int, int, int], ...] = (
    (2, 4, 1),
    (2, 4, 2),
    (2, 8, 2),
    (4, 8, 1),
    (4, 8, 2),
)


def zoo_configs() -> Iterator[ParallelConfig]:
    """Every valid (kind, n_pp, n_mb, n_loop[, seq]) zoo configuration."""
    for kind in ScheduleKind:
        for n_pp, n_mb, n_loop in ZOO_GRID:
            if not kind.is_looped and n_loop != 1:
                continue
            if kind is ScheduleKind.HYBRID:
                sequence_sizes = sorted(
                    {
                        seq
                        for seq in (n_pp, n_mb)
                        if n_pp <= seq <= n_mb and n_mb % seq == 0
                    }
                )
            else:
                sequence_sizes = [None]
            for seq in sequence_sizes:
                yield ParallelConfig(
                    n_dp=2,
                    n_pp=n_pp,
                    n_tp=2,
                    microbatch_size=1,
                    n_microbatches=n_mb,
                    n_loop=n_loop,
                    schedule=kind,
                    sequence_size=seq,
                )


def _run_zoo() -> list[VerifyReport]:
    from repro.hardware.cluster import DGX1_CLUSTER_64
    from repro.models.presets import MODEL_6_6B
    from repro.verify.program import verify_config

    return [
        verify_config(MODEL_6_6B, config, DGX1_CLUSTER_64)
        for config in zoo_configs()
    ]


def _run_lint(root: Path) -> VerifyReport:
    from repro.verify.lint import lint_repo

    return VerifyReport(
        subject=f"repo contracts ({root})",
        findings=tuple(lint_repo(root)),
    )


def _parse_winner(selector: str) -> tuple[str, int]:
    """``PANEL[:BATCH]`` as (panel, batch); ValueError names the problem."""
    from repro.experiments.fig7 import PANEL_BATCHES, QUICK_BATCHES

    panel, _, batch_text = selector.partition(":")
    if panel not in PANEL_BATCHES:
        raise ValueError(
            f"--winner: unknown panel {panel!r}; choose from "
            f"{', '.join(sorted(PANEL_BATCHES))}"
        )
    if not batch_text:
        return panel, QUICK_BATCHES[panel][0]
    if not batch_text.isdigit() or int(batch_text) < 1:
        raise ValueError(
            f"--winner: batch must be a positive integer, got {batch_text!r}"
        )
    return panel, int(batch_text)


def _run_winner(panel: str, batch: int) -> VerifyReport:
    from repro.experiments.fig7 import panel_setup
    from repro.parallel.config import Method
    from repro.search.grid import best_configuration
    from repro.verify.program import verify_outcome

    spec, cluster = panel_setup(panel)
    outcome = best_configuration(
        spec, cluster, Method.BREADTH_FIRST, batch
    )
    report = verify_outcome(spec, cluster, outcome)
    return VerifyReport(
        subject=f"Figure 7 {panel} B={batch}: {report.subject}",
        findings=report.findings,
    )


def _run_self_test(root: Path) -> int:
    from repro.verify.mutation import run_mutation_tests

    results = run_mutation_tests(root)
    missed = [r for r in results if not r.detected]
    print(f"self-test: {len(results)} seeded corruptions")
    for result in results:
        print("  " + result.format())
    return len(missed)


def _default_root() -> Path:
    return Path(__file__).resolve().parents[3]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.verify",
        description="Static schedule verifier and repo contract linter.",
    )
    parser.add_argument(
        "--lint", action="store_true", help="run the repo contract linter"
    )
    parser.add_argument(
        "--zoo",
        action="store_true",
        help="verify every schedule kind across the zoo grid",
    )
    parser.add_argument(
        "--winner",
        metavar="PANEL[:BATCH]",
        help="search one Figure-7 cell and verify the winning program",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the mutation harness (every corruption must be flagged)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repo root for the linter (default: this checkout)",
    )
    args = parser.parse_args(argv)
    root = args.root or _default_root()
    winner: tuple[str, int] | None = None
    if args.winner:
        try:
            winner = _parse_winner(args.winner)
        except ValueError as exc:
            parser.error(str(exc))

    if not (args.lint or args.zoo or args.winner or args.self_test):
        args.lint = args.zoo = True

    failures = 0
    reports: list[VerifyReport] = []
    if args.lint:
        reports.append(_run_lint(root))
    if args.zoo:
        zoo = _run_zoo()
        clean = sum(1 for r in zoo if r.ok)
        print(f"zoo: {clean}/{len(zoo)} programs verify clean")
        reports += [r for r in zoo if not r.ok]
    if winner is not None:
        reports.append(_run_winner(*winner))
    for report in reports:
        print(report.format())
        if not report.ok:
            failures += 1
    if args.self_test:
        failures += _run_self_test(root)

    if failures:
        print(f"verify: FAILED ({failures} failing subject(s))")
        return 1
    print("verify: OK")
    return 0
