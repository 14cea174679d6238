"""Lower a pipeline schedule to per-stream instruction queues.

This is where the paper's policy differences become concrete:

- **Pipeline transfers** go on the dedicated "pp" stream when the
  implementation overlaps them (ours), or inline on the compute stream
  with the synchronization penalty when it does not (Megatron-LM).
- **Data-parallel operations** go on the "dp" stream per stage as soon as
  the stage's gradients are complete (ours — the Figure 4 odd rows), or
  as one serial block after the whole backward pass (Megatron-LM).
- **DP_FS repetition** follows Eqs. (24)-(26): once per micro-batch for
  non-looped schedules, once per sequence of ``N_PP`` micro-batches for
  depth-first, once per stage pass for breadth-first.

Data-parallel collectives proceed layer by layer in a real system (the
paper's Appendix D double-buffers reconstruction against compute), so each
gather/reduce is split into a one-layer *head* — the only part that truly
gates or trails compute — and a *bulk* that pipelines against it on the
DP stream, which provides backpressure when the network, not compute, is
the bottleneck.
"""

from __future__ import annotations

from repro.core.ops import ComputeOp, OpKind
from repro.core.schedules.base import Schedule, dpfs_repetition_key as _rep_key
from repro.parallel.config import Sharding
from repro.sim.cost import CostModel
from repro.sim.engine import Instruction

#: Stream names.
COMPUTE, PP, DP = "compute", "pp", "dp"

#: Builds an instruction from a ``(uid, duration, deps, label, category)``
#: tuple without re-running ``Instruction.__new__``'s duration check: the
#: builder checks each distinct duration once per build instead.
_new = tuple.__new__


def _uid_of(op: ComputeOp) -> tuple:
    return (op.kind.value, op.microbatch, op.stage)


def _checked(durations: list[float]) -> list[float]:
    """Reject a negative duration with :class:`Instruction`'s own message."""
    for duration in durations:
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
    return durations


def _split(durations: tuple, fractions: list[float]) -> list[tuple]:
    """Per-stage ``(head, bulk)`` parts of a DP collective, or ``(whole,)``.

    A stage of one layer has nothing to pipeline, so its collective is a
    single instruction; otherwise the head carries one layer's share.
    """
    parts = [
        (d,) if frac >= 1.0 else (d * frac, d * (1.0 - frac))
        for d, frac in zip(durations, fractions)
    ]
    _checked([d for part in parts for d in part])
    return parts


class _ProgramBuilder:
    """Accumulates instruction queues for one configuration.

    Every distinct duration is computed and checked once per build, up
    front, from the memoized family tables: ``forward[s]`` and
    ``backward[s]`` (with the send launch overhead on sending stages),
    the pipeline transfer, and each stage's gather and reduce head and
    bulk.  The per-op loop then only picks values from these tables and
    creates instructions without re-checking them.  With
    ``record_events=False`` no label strings are built either, so
    search-mode programs allocate nothing that only a timeline would read.
    """

    def __init__(
        self, cost: CostModel, schedule: Schedule, *, record_events: bool = True
    ) -> None:
        self.cost = cost
        self.schedule = schedule
        self.record_events = record_events
        self.config = cost.config
        self.impl = cost.implementation
        self.n_stages = schedule.n_stages
        self.dp_active = self.config.n_dp > 1
        self.overlap_dp = self.dp_active and self.impl.dp_overlap
        self.sharded_full = (
            self.config.sharding is Sharding.FULL and self.dp_active
        )
        # Per-stage durations come from the memoized family table
        # (repro.sim.cost.stage_time_table): candidates differing only in
        # n_dp / n_mb / sharding / schedule share one computation, within
        # a search cell and across adjacent batch-size cells of a sweep.
        # Issuing an overlapped transfer still costs the compute stream
        # its launch overhead, on every stage that sends: all forwards
        # but the last stage's, all backwards but the first stage's.
        times = cost.stage_times()
        stages = range(self.n_stages)
        last_stage = self.n_stages - 1
        pp_launch = times.pp_launch
        self.forward_durations = _checked([
            times.forward[s] + pp_launch if s < last_stage else times.forward[s]
            for s in stages
        ])
        self.backward_durations = _checked([
            times.backward[s] + pp_launch if s > 0 else times.backward[s]
            for s in stages
        ])
        self.pp_time = times.pp_transfer
        if last_stage > 0:
            _checked([self.pp_time])
        if self.dp_active:
            # DP-collective durations come from the memoized comm-family
            # table (repro.sim.cost.comm_time_table): one gather/reduce
            # pricing pass per (n_pp, n_loop, n_tp, n_dp, sharding)
            # family serves every schedule, micro-batch shape and batch
            # size that shares it.  Each gather/reduce splits into a
            # one-layer head and the bulk (see _emit_split).
            comm = cost.comm_times()
            head_fractions = [
                1.0 / cost.placement.n_layers_of_stage(s) for s in stages
            ]
            if self.overlap_dp:
                if self.sharded_full:
                    self.gather_parts = _split(comm.gather, head_fractions)
                self.reduce_parts = _split(comm.reduce, head_fractions)
            self.post_gather_times = comm.post_gather
            self.dp_serial_times = comm.dp_serial
        self.streams: dict[tuple[int, str], list[Instruction]] = {}

    # ----------------------------------------------------------- helpers

    def _emit_split(
        self,
        queue: list[Instruction],
        prefix: str,
        stage: int,
        key: int,
        parts: tuple,
        category: str,
        *,
        head_deps: tuple = (),
        bulk_deps: tuple = (),
        head_last: bool = False,
    ) -> tuple[tuple, tuple]:
        """Emit a head+bulk pair on ``queue``; return (head, tail) uids.

        The *head* is one layer's worth of traffic — the only part that
        strictly gates (gathers) or trails (reductions) compute; the
        *bulk* pipelines layer-by-layer against compute.  With
        ``head_last=False`` the head comes first (gathers: compute can
        start once the first layer arrived); with ``head_last=True`` it
        comes last (reductions: only the final layer's reduce trails the
        last backward).  Single-layer stages emit one instruction, the
        whole of ``parts``.
        """
        labelled = self.record_events
        head_uid = (prefix + "H", stage, key)
        if len(parts) == 1:
            queue.append(_new(Instruction, (
                head_uid,
                parts[0],
                head_deps,
                f"{prefix}(s={stage}, g={key})" if labelled else "",
                category,
            )))
            return head_uid, head_uid
        bulk_uid = (prefix + "R", stage, key)
        head = _new(Instruction, (
            head_uid,
            parts[0],
            head_deps,
            f"{prefix}-head(s={stage}, g={key})" if labelled else "",
            category,
        ))
        bulk = _new(Instruction, (
            bulk_uid,
            parts[1],
            bulk_deps,
            f"{prefix}-bulk(s={stage}, g={key})" if labelled else "",
            category,
        ))
        if head_last:
            queue.extend((bulk, head))
            return head_uid, head_uid
        queue.extend((head, bulk))
        return head_uid, bulk_uid

    # ------------------------------------------------------------- build

    def build(self) -> dict[tuple[int, str], list[Instruction]]:
        for rank in range(self.schedule.n_pp):
            self.streams[(rank, COMPUTE)] = []
            if self.impl.pp_overlap:
                self.streams[(rank, PP)] = []
            if self.overlap_dp:
                self.streams[(rank, DP)] = []
        for rank in range(self.schedule.n_pp):
            self._build_rank(rank)
        return self.streams

    def _build_rank(self, rank: int) -> None:
        cost, config = self.cost, self.config
        order = self.schedule.ops_of(rank)
        compute_q = self.streams[(rank, COMPUTE)]
        pp_q = self.streams.get((rank, PP), compute_q)
        dp_q = self.streams.get((rank, DP))
        overlap_dp = self.overlap_dp

        # The op loop below runs once per instruction of every simulated
        # configuration — the search's hottest Python.  Attribute lookups
        # are hoisted, durations come precomputed and checked from the
        # per-stage tables, and instructions skip Instruction.__new__.
        new, instruction = _new, Instruction
        forward_kind = OpKind.FORWARD
        forward_durations = self.forward_durations
        backward_durations = self.backward_durations
        last_stage = self.n_stages - 1
        pp_time = self.pp_time
        labelled = self.record_events
        sharded_full = self.sharded_full
        sharded_overlap = sharded_full and overlap_dp
        compute_append = compute_q.append
        pp_append = pp_q.append
        # Only DP_FS repeats its network operations per group (Eqs.
        # 24-26); with DP0/DP_PS gradients accumulate locally and each
        # stage reduces exactly once per batch.  One list, computed once,
        # keys both the last-use prefill and the emission loop below.
        schedule_kind = self.schedule.kind
        n_pp = self.schedule.n_pp
        seq = self.schedule.sequence_size
        if sharded_full:
            group_keys = [
                (op.stage, _rep_key(schedule_kind, op.microbatch, n_pp, seq))
                for op in order
            ]
        else:
            group_keys = [(op.stage, 0) for op in order]

        # Positions of each DP group's last forward/backward: the last use
        # must wait for the *whole* gather (Eq. 29 — a pass's
        # reconstruction can only hide behind other micro-batches), and
        # the reduction follows the last backward.
        last_fwd_of_group: dict[tuple[int, int], int] = {}
        last_bwd_of_group: dict[tuple[int, int], int] = {}
        if overlap_dp:
            for position, op in enumerate(order):
                if op.kind is forward_kind:
                    last_fwd_of_group[group_keys[position]] = position
                else:
                    last_bwd_of_group[group_keys[position]] = position

        gather_uids_fwd: dict[tuple[int, int], tuple[tuple, tuple]] = {}
        gather_uids_bwd: dict[tuple[int, int], tuple[tuple, tuple]] = {}
        reduce_heads: list[tuple] = []

        for position, op in enumerate(order):
            stage = op.stage
            microbatch = op.microbatch
            group = group_keys[position]
            if op.kind is forward_kind:
                uid = ("F", microbatch, stage)
                deps = (("XA", microbatch, stage - 1),) if stage > 0 else ()
                if sharded_overlap:
                    if group not in gather_uids_fwd:
                        gather_uids_fwd[group] = self._emit_split(
                            dp_q,
                            "GF",
                            stage,
                            group[1],
                            self.gather_parts[stage],
                            "gather",
                        )
                    head, tail = gather_uids_fwd[group]
                    deps += (head,)
                    if last_fwd_of_group.get(group) == position:
                        deps += (tail,)
                compute_append(new(instruction, (
                    uid,
                    forward_durations[stage],
                    deps,
                    str(op) if labelled else "",
                    "forward",
                )))
                if stage < last_stage:
                    pp_append(new(instruction, (
                        ("XA", microbatch, stage),
                        pp_time,
                        (uid,),
                        f"send-act(mb={microbatch}, s={stage})"
                        if labelled
                        else "",
                        "pp_comm",
                    )))
            else:
                uid = ("B", microbatch, stage)
                if stage < last_stage:
                    deps = (
                        ("F", microbatch, stage),
                        ("XG", microbatch, stage + 1),
                    )
                else:
                    deps = (("F", microbatch, stage),)
                if sharded_overlap:
                    if group not in gather_uids_bwd:
                        gather_uids_bwd[group] = self._emit_split(
                            dp_q,
                            "GB",
                            stage,
                            group[1],
                            self.gather_parts[stage],
                            "gather",
                        )
                    head, tail = gather_uids_bwd[group]
                    deps += (head,)
                    if last_bwd_of_group.get(group) == position:
                        deps += (tail,)
                compute_append(new(instruction, (
                    uid,
                    backward_durations[stage],
                    deps,
                    str(op) if labelled else "",
                    "backward",
                )))
                if stage > 0:
                    pp_append(new(instruction, (
                        ("XG", microbatch, stage),
                        pp_time,
                        (uid,),
                        f"send-grad(mb={microbatch}, s={stage})"
                        if labelled
                        else "",
                        "pp_comm",
                    )))

                # Gradient reduction once the group's last backward ran:
                # the bulk may overlap that backward (real reductions
                # trail the per-layer backward front), only the head
                # strictly follows it.
                if overlap_dp and last_bwd_of_group.get(group) == position:
                    bulk_deps = (
                        (_uid_of(order[position - 1]),) if position else ()
                    )
                    head, _ = self._emit_split(
                        dp_q,
                        "RED",
                        stage,
                        group[1],
                        self.reduce_parts[stage],
                        "reduce",
                        head_deps=(uid,),
                        bulk_deps=bulk_deps,
                        head_last=True,
                    )
                    reduce_heads.append(head)

        # Tail: serial DP block (Megatron mode), optimizer, post-step gather.
        opt_deps: list[tuple] = list(reduce_heads)
        if self.dp_active and not overlap_dp:
            compute_q.append(
                Instruction(
                    uid=("DPALL", rank),
                    duration=self.dp_serial_times[rank],
                    deps=(),
                    label=f"dp-all(rank={rank})",
                    category="dp_comm",
                )
            )
            opt_deps.append(("DPALL", rank))

        compute_q.append(
            Instruction(
                uid=("OPT", rank),
                duration=cost.optimizer_time(rank),
                deps=tuple(opt_deps),
                label=f"optimizer(rank={rank})",
                category="optimizer",
            )
        )

        if overlap_dp and config.sharding is Sharding.PARTIAL:
            dp_q.append(
                Instruction(
                    uid=("POST", rank),
                    duration=self.post_gather_times[rank],
                    deps=(("OPT", rank),),
                    label=f"post-gather(rank={rank})",
                    category="gather",
                )
            )


def build_program(
    cost: CostModel, schedule: Schedule, *, record_events: bool = True
) -> dict[tuple[int, str], list[Instruction]]:
    """Build the instruction queues for every rank and stream.

    Args:
        cost: Durations for every operation.
        schedule: The pipeline schedule to lower.
        record_events: Set False to skip human-readable labels — the grid
            search never renders timelines, and label construction is a
            measurable share of search time.  Durations, uids and
            dependencies are identical either way.
    """
    return _ProgramBuilder(cost, schedule, record_events=record_events).build()
