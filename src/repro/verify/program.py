"""Level-1 static program verifier.

Operates on the *lowered* program — the per-(rank, stream)
:class:`~repro.sim.engine.Instruction` queues that
:func:`repro.sim.program.build_program` produces — and proves the
paper's schedule invariants without simulating:

- **Completeness and placement** (P1xx): every (stage, micro-batch)
  forward and backward appears exactly once, on the compute stream of
  the rank that owns the stage (``stage mod N_PP``), and each
  micro-batch's backward follows its forward.
- **Schedule-kind ordering** (P2xx): the compute stream of every rank
  must follow its :class:`~repro.parallel.config.ScheduleKind`'s
  ordering rules — GPipe/breadth-first phase structure and loop order,
  1F1B warm-up/steady interleaving, depth-first/hybrid sequence
  boundaries.  The canonical order is re-derived here from the paper's
  rules (Section 4.1/4.2), *independently* of the generators in
  :mod:`repro.core.schedules`, so a bug or corruption on either side
  surfaces as a first-divergence finding instead of silently agreeing.
- **Deadlock freedom and p2p matching** (P3xx): delegated to
  :mod:`repro.verify.deadlock`.
- **Static memory** (P4xx): delegated to
  :mod:`repro.verify.memory_static` when the model context is known.

Entry points: :func:`verify_program` for a program + schedule already
in hand, :func:`verify_config` to build and verify a configuration end
to end, and :func:`verify_outcome` for a search winner (used by the
``--verify-winners`` post-check in :mod:`repro.search.grid`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

from repro.core.schedules.base import Schedule
from repro.parallel.config import ScheduleKind
from repro.sim.engine import Instruction
from repro.verify.deadlock import check_dependency_graph
from repro.verify.labels import op_label
from repro.verify.report import Finding, VerifyReport

if TYPE_CHECKING:
    from repro.hardware.cluster import ClusterSpec
    from repro.models.spec import TransformerSpec
    from repro.parallel.config import ParallelConfig
    from repro.search.grid import SearchOutcome
    from repro.sim.calibration import Calibration
    from repro.sim.implementation import ImplementationProfile
    from repro.sim.simulator import SimulationResult

__all__ = [
    "check_completeness",
    "compute_ops_of",
    "verify_config",
    "verify_outcome",
    "verify_program",
]

#: Compute-op uid tags, as emitted by the program builder.
_FORWARD, _BACKWARD = "F", "B"


def compute_ops_of(
    streams: Mapping[tuple[int, str], Sequence[Instruction]], rank: int
) -> list[tuple[str, int, int]]:
    """The (tag, microbatch, stage) compute ops of one rank, in order."""
    queue = streams.get((rank, "compute"), ())
    ops: list[tuple[str, int, int]] = []
    for instr in queue:
        uid = instr.uid
        if isinstance(uid, tuple) and len(uid) == 3 and uid[0] in (_FORWARD, _BACKWARD):
            ops.append((uid[0], uid[1], uid[2]))
    return ops


# ------------------------------------------------- completeness / placement


def check_completeness(
    streams: Mapping[tuple[int, str], Sequence[Instruction]],
    schedule: Schedule,
) -> list[Finding]:
    """P101-P105 findings for the compute streams of a lowered program.

    Also the structural check of :func:`repro.core.validation
    .analyze_schedule`, which raises the first finding.
    """
    findings: list[Finding] = []
    n_pp = schedule.n_pp
    n_stages = schedule.n_stages
    n_mb = schedule.n_microbatches

    seen: dict[tuple[str, int, int], tuple[int, int]] = {}
    for rank in range(n_pp):
        for position, (tag, mb, stage) in enumerate(compute_ops_of(streams, rank)):
            label = op_label(tag, mb, stage, rank=rank, position=position)
            if not (0 <= mb < n_mb and 0 <= stage < n_stages):
                findings.append(
                    Finding(
                        rule="P104",
                        location=f"rank {rank}/compute[{position}]",
                        message=(
                            f"{label} is outside the schedule's "
                            f"{n_mb} micro-batches x {n_stages} stages"
                        ),
                    )
                )
                continue
            if stage % n_pp != rank:
                findings.append(
                    Finding(
                        rule="P103",
                        location=f"rank {rank}/compute[{position}]",
                        message=(
                            f"{label} placed on rank {rank}, but stage "
                            f"{stage} lives on rank {stage % n_pp}"
                        ),
                    )
                )
            key = (tag, mb, stage)
            if key in seen:
                prev_rank, prev_pos = seen[key]
                findings.append(
                    Finding(
                        rule="P102",
                        location=f"rank {rank}/compute[{position}]",
                        message=(
                            f"duplicate op {label}; first computed at "
                            f"rank {prev_rank}/compute[{prev_pos}]"
                        ),
                    )
                )
            else:
                seen[key] = (rank, position)

    missing = [
        (tag, mb, stage)
        for tag in (_FORWARD, _BACKWARD)
        for stage in range(n_stages)
        for mb in range(n_mb)
        if (tag, mb, stage) not in seen
    ]
    for tag, mb, stage in sorted(missing)[:8]:
        findings.append(
            Finding(
                rule="P101",
                location=f"rank {stage % n_pp}/compute",
                message=f"missing op {op_label(tag, mb, stage, rank=stage % n_pp)}",
            )
        )
    if len(missing) > 8:
        findings.append(
            Finding(
                rule="P101",
                location="program",
                message=f"... and {len(missing) - 8} more missing ops",
            )
        )

    # Forward-before-backward within each rank's queue.
    for rank in range(n_pp):
        forward_pos: dict[tuple[int, int], int] = {}
        for position, (tag, mb, stage) in enumerate(compute_ops_of(streams, rank)):
            if tag == _FORWARD:
                forward_pos.setdefault((mb, stage), position)
            elif (mb, stage) not in forward_pos:
                findings.append(
                    Finding(
                        rule="P105",
                        location=f"rank {rank}/compute[{position}]",
                        message=(
                            f"{op_label(tag, mb, stage, rank=rank, position=position)} "
                            "runs before its forward"
                        ),
                    )
                )
    return findings


# ------------------------------------------------- canonical per-kind order


def _canonical_order(
    schedule: Schedule, rank: int
) -> list[tuple[str, int, int]]:
    """Re-derive rank's canonical compute order from the paper's rules.

    Intentionally written from the Section 4.1/4.2 descriptions rather
    than by calling the generators in :mod:`repro.core.schedules` — the
    point of a verifier is an independent second derivation.
    """
    kind = schedule.kind
    n_pp = schedule.n_pp
    n_mb = schedule.n_microbatches
    n_loop = schedule.n_loop

    if kind is ScheduleKind.GPIPE:
        order = [(_FORWARD, mb, rank) for mb in range(n_mb)]
        order += [(_BACKWARD, mb, rank) for mb in range(n_mb)]
        return order

    if kind is ScheduleKind.BREADTH_FIRST:
        # All micro-batches of a stage chunk before the next chunk
        # (breadth), full forward phase then reversed backward phase.
        order = [
            (_FORWARD, mb, rank + chunk * n_pp)
            for chunk in range(n_loop)
            for mb in range(n_mb)
        ]
        order += [
            (_BACKWARD, mb, rank + chunk * n_pp)
            for chunk in reversed(range(n_loop))
            for mb in range(n_mb)
        ]
        return order

    if kind is ScheduleKind.ONE_F_ONE_B:
        # Warm-up of N_PP - rank - 1 forwards, then strict 1F1B
        # alternation, then the backward drain.
        warmup = min(n_pp - rank - 1, n_mb)
        order = [(_FORWARD, mb, rank) for mb in range(warmup)]
        for i in range(n_mb - warmup):
            order.append((_FORWARD, warmup + i, rank))
            order.append((_BACKWARD, i, rank))
        order += [(_BACKWARD, mb, rank) for mb in range(n_mb - warmup, n_mb)]
        return order

    if kind in (ScheduleKind.DEPTH_FIRST, ScheduleKind.HYBRID):
        # Depth-first advances micro-batches in sequences of S (= N_PP
        # for depth-first, = sequence_size for the Section 4.2 hybrid):
        # virtual slot k maps to sequence k // (S * N_loop), chunk
        # (k mod S*N_loop) // S (mirrored for backward) and micro-batch
        # offset k mod S, with 1F1B-style warm-up and alternation.
        seq = n_pp if kind is ScheduleKind.DEPTH_FIRST else schedule.sequence_size
        if seq is None:
            raise ValueError("hybrid schedule metadata lacks sequence_size")
        total = n_mb * n_loop

        def fwd(slot: int) -> tuple[str, int, int]:
            group, within = divmod(slot, seq * n_loop)
            chunk, offset = divmod(within, seq)
            return (_FORWARD, group * seq + offset, rank + chunk * n_pp)

        def bwd(slot: int) -> tuple[str, int, int]:
            group, within = divmod(slot, seq * n_loop)
            chunk, offset = divmod(within, seq)
            return (
                _BACKWARD,
                group * seq + offset,
                rank + (n_loop - 1 - chunk) * n_pp,
            )

        if n_mb == seq:
            warmup = total
        else:
            warmup = min(total, (n_pp - rank - 1) * 2 + (n_loop - 1) * seq)
        order = [fwd(slot) for slot in range(warmup)]
        for i in range(total - warmup):
            order.append(fwd(warmup + i))
            order.append(bwd(i))
        order += [bwd(slot) for slot in range(total - warmup, total)]
        return order

    raise ValueError(f"no ordering rules for schedule kind {kind!r}")


_KIND_RULE = {
    ScheduleKind.GPIPE: ("P201", "GPipe phase order"),
    ScheduleKind.BREADTH_FIRST: ("P202", "breadth-first loop order"),
    ScheduleKind.ONE_F_ONE_B: ("P203", "1F1B interleaving"),
    ScheduleKind.DEPTH_FIRST: ("P204", "depth-first sequence order"),
    ScheduleKind.HYBRID: ("P205", "hybrid sequence boundaries"),
}


def _check_ordering(
    streams: Mapping[tuple[int, str], Sequence[Instruction]],
    schedule: Schedule,
) -> list[Finding]:
    findings: list[Finding] = []
    rule, rule_name = _KIND_RULE[schedule.kind]
    for rank in range(schedule.n_pp):
        actual = compute_ops_of(streams, rank)
        expected = _canonical_order(schedule, rank)
        if actual == expected:
            continue
        # Report the first divergence only: one reordering shifts every
        # later position, and a flood of follow-on findings would bury
        # the actual defect.
        position = next(
            (
                i
                for i, (a, e) in enumerate(zip(actual, expected))
                if a != e
            ),
            min(len(actual), len(expected)),
        )
        got = (
            op_label(*actual[position])
            if position < len(actual)
            else "end of stream"
        )
        want = (
            op_label(*expected[position])
            if position < len(expected)
            else "end of stream"
        )
        findings.append(
            Finding(
                rule=rule,
                location=f"rank {rank}/compute[{position}]",
                message=(
                    f"{rule_name} violated: got {got}, expected {want} "
                    f"({len(actual)} ops vs {len(expected)} canonical)"
                ),
            )
        )
    return findings


# ----------------------------------------------------------- entry points


def verify_program(
    streams: Mapping[tuple[int, str], Sequence[Instruction]],
    schedule: Schedule,
) -> list[Finding]:
    """Statically verify one lowered program against its schedule metadata.

    Runs completeness/placement (P1xx), schedule-kind ordering (P2xx)
    and the dependency-graph deadlock/p2p proof (P3xx).  The memory
    cross-check needs the model context — use :func:`verify_config`.
    """
    findings = check_completeness(streams, schedule)
    # Ordering diagnostics on a structurally broken stream would just
    # repeat the completeness findings at the first missing/duplicated
    # position; they still run, because a *pure* reorder leaves
    # completeness clean.
    findings += _check_ordering(streams, schedule)
    findings += check_dependency_graph(streams)
    return findings


def verify_config(
    spec: "TransformerSpec",
    config: "ParallelConfig",
    cluster: "ClusterSpec",
    implementation: "ImplementationProfile | None" = None,
    calibration: "Calibration | None" = None,
) -> VerifyReport:
    """Build and statically verify one configuration end to end.

    Lowers the configuration's schedule to a program exactly as
    :func:`repro.sim.simulate` would, then runs every Level-1 check
    including the static-memory cross-check against
    :func:`repro.analytical.memory.memory_model`.
    """
    from repro.core.schedules.base import schedule_for
    from repro.sim.calibration import DEFAULT_CALIBRATION
    from repro.sim.cost import CostModel
    from repro.sim.implementation import default_implementation_for
    from repro.sim.program import build_program
    from repro.verify.memory_static import check_static_memory

    if implementation is None:
        implementation = default_implementation_for(config.schedule)
    schedule = schedule_for(config)
    cost = CostModel(
        spec=spec,
        config=config,
        cluster=cluster,
        implementation=implementation,
        calibration=calibration or DEFAULT_CALIBRATION,
    )
    streams = build_program(cost, schedule, record_events=False)
    findings = verify_program(streams, schedule)
    findings += check_static_memory(streams, schedule, spec, config, implementation)
    subject = (
        f"{spec.name} {config.schedule.value} n_pp={config.n_pp} "
        f"n_mb={config.n_microbatches} n_loop={config.n_loop}"
        + (
            f" seq={config.sequence_size}"
            if config.sequence_size is not None
            else ""
        )
    )
    return VerifyReport(subject=subject, findings=tuple(findings))


def verify_outcome(
    spec: "TransformerSpec",
    cluster: "ClusterSpec",
    outcome: "SearchOutcome",
    calibration: "Calibration | None" = None,
) -> VerifyReport:
    """Verify a search cell's winner (and frontier, if any).

    The ``--verify-winners`` post-check: every configuration a search
    reports — the single winner and each Pareto-frontier point — is
    rebuilt and statically verified.  An empty cell verifies trivially.
    """
    from repro.implementations import MEGATRON_LM, OUR_IMPLEMENTATION

    by_name = {
        impl.name: impl for impl in (OUR_IMPLEMENTATION, MEGATRON_LM)
    }
    results: list["SimulationResult"] = []
    if outcome.best is not None:
        results.append(outcome.best)
    for point in outcome.frontier or ():
        if point is not outcome.best:
            results.append(point)

    findings: list[Finding] = []
    for result in results:
        implementation = by_name.get(result.implementation_name)
        if implementation is None:
            findings.append(
                Finding(
                    rule="P106",
                    location="outcome",
                    message=(
                        f"winner names unknown implementation "
                        f"{result.implementation_name!r}"
                    ),
                )
            )
            continue
        report = verify_config(
            spec, result.config, cluster, implementation, calibration
        )
        findings += report.findings
    subject = (
        f"{outcome.method.value} B={outcome.batch_size} winner"
        + (f" (+{len(results) - 1} frontier)" if len(results) > 1 else "")
    )
    return VerifyReport(subject=subject, findings=tuple(findings))
