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

A build is one walk over the schedule that reads every duration by
*slot*, its index in one flat duration table (:func:`_duration_table`).
:func:`build_program` walks over the cost model's durations.
:func:`lower_program` runs the same walk over a table whose entries are
the slot numbers themselves, which gives a calibration-free
:class:`ProgramLowering` with the program's execution order recorded;
``build_program(..., lowering=...)`` then only fills the table and
materializes the instructions, and the engine replays them along the
order, so a program that is re-priced under many calibrations (the
calibration fit) is walked and ordered once.
"""

from __future__ import annotations

import sys
from itertools import repeat
from typing import NamedTuple

from repro.core.ops import ComputeOp, OpKind
from repro.core.schedules.base import Schedule, dpfs_repetition_key as _rep_key
from repro.parallel.config import Sharding
from repro.sim.cost import CostModel
from repro.sim.engine import ExecutionOrder, Instruction, record_order

#: Stream names.
COMPUTE, PP, DP = "compute", "pp", "dp"

#: Builds an instruction from a ``(uid, duration, deps, label, category)``
#: tuple without re-running ``Instruction.__new__``'s duration check: the
#: builder checks each distinct duration once per build instead.
_new = tuple.__new__

#: The lowering's duration table: entry ``i`` is ``i``, the slot number.
_SLOTS = range(sys.maxsize)


def _uid_of(op: ComputeOp) -> tuple:
    return (op.kind.value, op.microbatch, op.stage)


def _checked(durations: list[float]) -> list[float]:
    """Reject a negative or NaN duration with :class:`Instruction`'s own
    message."""
    for duration in durations:
        if not duration >= 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
    return durations


class _Layout(NamedTuple):
    """Everything the walk reads of a cost model besides durations.

    Two cost models with equal layouts lower a schedule to the same
    streams, uids, dependencies and slots, so a lowering made with one
    prices under the other.
    """

    pp_overlap: bool
    dp_active: bool
    overlap_dp: bool
    sharding: Sharding
    #: Layers per stage when DP collectives run on their own stream (a
    #: one-layer stage's collective is one instruction, not head+bulk).
    stage_layers: tuple[int, ...]

    @property
    def sharded_full(self) -> bool:
        """DP_FS: weights are gathered before use (once per group)."""
        return self.dp_active and self.sharding is Sharding.FULL

    @property
    def dp_serial(self) -> bool:
        """Each rank ends with one serial DP block on its compute stream."""
        return self.dp_active and not self.overlap_dp

    @property
    def post_gather(self) -> bool:
        """DP_PS: each rank's weights are gathered after its optimizer."""
        return self.overlap_dp and self.sharding is Sharding.PARTIAL


def _layout(cost: CostModel, schedule: Schedule) -> _Layout:
    config = cost.config
    dp_active = config.n_dp > 1
    overlap_dp = dp_active and cost.implementation.dp_overlap
    stage_layers = ()
    if overlap_dp:
        stage_layers = tuple(
            map(cost.placement.n_layers_of_stage, range(schedule.n_stages))
        )
    return _Layout(
        cost.implementation.pp_overlap,
        dp_active,
        overlap_dp,
        config.sharding,
        stage_layers,
    )


def _split(durations: tuple, stage_layers: tuple[int, ...]) -> list[float]:
    """Per-stage ``head, bulk`` parts of a DP collective, flat, checked.

    A stage of one layer has nothing to pipeline, so its collective is a
    single instruction; otherwise the head carries one layer's share.
    """
    parts: list[float] = []
    for d, layers in zip(durations, stage_layers):
        if layers == 1:
            parts.append(d)
        else:
            frac = 1.0 / layers
            parts += (d * frac, d * (1.0 - frac))
    return _checked(parts)


def _duration_table(
    cost: CostModel, schedule: Schedule, layout: _Layout
) -> list[float]:
    """Every distinct duration of one build, in slot order, checked once.

    Slot order is: each stage's forward, then each stage's backward (both
    with the send launch overhead on sending stages: all forwards but the
    last stage's, all backwards but the first stage's), the pipeline
    transfer when there are two stages or more, each stage's gather parts
    (fully sharded) and reduce parts when DP collectives overlap, then per
    rank its serial DP block (non-overlapped DP), optimizer and post-step
    gather (partially sharded), whichever the layout has.  Sections are
    checked in that order, the order builds have always checked them in,
    so a cost with several negative durations reports the same one on
    every path.
    """
    # Per-stage durations come from the memoized family table
    # (repro.sim.cost.stage_time_table): candidates differing only in
    # n_dp / n_mb / sharding / schedule share one computation, within
    # a search cell and across adjacent batch-size cells of a sweep.
    times = cost.stage_times()
    stages = range(schedule.n_stages)
    last_stage = schedule.n_stages - 1
    pp_launch = times.pp_launch
    table = _checked([
        times.forward[s] + pp_launch if s < last_stage else times.forward[s]
        for s in stages
    ])
    table += _checked([
        times.backward[s] + pp_launch if s > 0 else times.backward[s]
        for s in stages
    ])
    if last_stage > 0:
        table += _checked([times.pp_transfer])
    # DP-collective durations come from the memoized comm-family table
    # (repro.sim.cost.comm_time_table): one gather/reduce pricing pass per
    # (n_pp, n_loop, n_tp, n_dp, sharding) family serves every schedule,
    # micro-batch shape and batch size that shares it.
    comm = cost.comm_times() if layout.dp_active else None
    if layout.overlap_dp:
        if layout.sharded_full:
            table += _split(comm.gather, layout.stage_layers)
        table += _split(comm.reduce, layout.stage_layers)
    dp_serial, post_gather = layout.dp_serial, layout.post_gather
    tail = []
    for rank in range(schedule.n_pp):
        if dp_serial:
            tail.append(comm.dp_serial[rank])
        tail.append(cost.optimizer_time(rank))
        if post_gather:
            tail.append(comm.post_gather[rank])
    return table + _checked(tail)


def _parts(table, slot: int, stage_layers: tuple[int, ...]) -> tuple[list, int]:
    """Per-stage ``(head, bulk)`` or ``(whole,)`` views from ``slot`` on.

    Returns the views and the slot after them.
    """
    parts = []
    for layers in stage_layers:
        width = 1 if layers == 1 else 2
        parts.append(tuple(table[slot:slot + width]))
        slot += width
    return parts, slot


class _ProgramBuilder:
    """Accumulates instruction queues for one walk over a schedule.

    Every duration comes from ``table`` by slot (see
    :func:`_duration_table`): the per-op loop only picks values from
    per-stage views of the table and creates instructions without
    re-checking them.  With ``labelled=False`` no label strings are built
    either, so search-mode programs allocate nothing that only a
    timeline would read.
    """

    def __init__(
        self,
        schedule: Schedule,
        layout: _Layout,
        table,
        *,
        labelled: bool,
    ) -> None:
        self.schedule = schedule
        self.layout = layout
        self.labelled = labelled
        self.n_stages = n_stages = schedule.n_stages
        self.forward_durations = table[:n_stages]
        self.backward_durations = table[n_stages:2 * n_stages]
        slot = 2 * n_stages
        # A one-stage pipeline sends nothing, so it has no transfer slot.
        self.pp_time = None
        if n_stages > 1:
            self.pp_time = table[slot]
            slot += 1
        if layout.overlap_dp:
            if layout.sharded_full:
                self.gather_parts, slot = _parts(table, slot, layout.stage_layers)
            self.reduce_parts, slot = _parts(table, slot, layout.stage_layers)
        self.tail = table[slot:]
        self.tail_width = 1 + layout.dp_serial + layout.post_gather
        self.streams: dict[tuple[int, str], list] = {}

    # ----------------------------------------------------------- helpers

    def _emit_split(
        self,
        queue: list,
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
        labelled = self.labelled
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

    def build(self) -> dict[tuple[int, str], list]:
        for rank in range(self.schedule.n_pp):
            self.streams[(rank, COMPUTE)] = []
            if self.layout.pp_overlap:
                self.streams[(rank, PP)] = []
            if self.layout.overlap_dp:
                self.streams[(rank, DP)] = []
        for rank in range(self.schedule.n_pp):
            self._build_rank(rank)
        return self.streams

    def _build_rank(self, rank: int) -> None:
        order = self.schedule.ops_of(rank)
        compute_q = self.streams[(rank, COMPUTE)]
        pp_q = self.streams.get((rank, PP), compute_q)
        dp_q = self.streams.get((rank, DP))
        overlap_dp = self.layout.overlap_dp

        # The op loop below runs once per instruction of every simulated
        # configuration — the search's hottest Python.  Attribute lookups
        # are hoisted, durations come precomputed and checked from the
        # per-stage views of the table, and instructions skip
        # Instruction.__new__.
        new, instruction = _new, Instruction
        forward_kind = OpKind.FORWARD
        forward_durations = self.forward_durations
        backward_durations = self.backward_durations
        last_stage = self.n_stages - 1
        pp_time = self.pp_time
        labelled = self.labelled
        sharded_full = self.layout.sharded_full
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

        # Tail: serial DP block (Megatron mode), optimizer, post-step
        # gather, from this rank's slots of the table's last section.
        # Their labels are set even in label-free builds.
        slot = rank * self.tail_width
        opt_deps: list[tuple] = list(reduce_heads)
        if self.layout.dp_serial:
            compute_q.append(new(instruction, (
                ("DPALL", rank),
                self.tail[slot],
                (),
                f"dp-all(rank={rank})",
                "dp_comm",
            )))
            opt_deps.append(("DPALL", rank))
            slot += 1

        compute_q.append(new(instruction, (
            ("OPT", rank),
            self.tail[slot],
            tuple(opt_deps),
            f"optimizer(rank={rank})",
            "optimizer",
        )))

        if self.layout.post_gather:
            dp_q.append(new(instruction, (
                ("POST", rank),
                self.tail[slot + 1],
                (("OPT", rank),),
                f"post-gather(rank={rank})",
                "gather",
            )))


class ProgramLowering(NamedTuple):
    """A label-free program without durations, made by :func:`lower_program`.

    Each stream holds, column by column, its instructions' uids, *slots*
    (indices into the flat duration table a build fills from the cost
    model), dependency tuples, labels and categories.  Nothing here
    depends on a calibration, so pricing it under any cost model with the
    same stream layout gives exactly the program a fresh label-free
    :func:`build_program` would, and the recorded execution order holds
    for every such pricing.

    Attributes:
        schedule: The schedule that was lowered.
        layout: What the walk read of the cost model: overlap flags,
            ``n_dp > 1``, sharding and, when DP collectives overlap, the
            layers per stage.
        streams: ``(key, uids, slots, deps, labels, categories)`` per
            stream, in the build's stream order.
        order: The program's execution order
            (:func:`repro.sim.engine.record_order`): pass it to
            ``run_streams(..., order=...)`` with a priced program, which
            then runs in one pass instead of on the wavefront.
    """

    schedule: Schedule
    layout: _Layout
    streams: tuple[tuple, ...]
    order: ExecutionOrder

    def _price(
        self, table: list[float]
    ) -> dict[tuple[int, str], list[Instruction]]:
        """Materialize the instructions with ``table``'s durations."""
        new, instruction = _new, Instruction
        duration_of = table.__getitem__
        return {
            key: list(map(
                new,
                repeat(instruction),
                zip(uids, map(duration_of, slots), deps, labels, categories),
            ))
            for key, uids, slots, deps, labels, categories in self.streams
        }


def lower_program(cost: CostModel, schedule: Schedule) -> ProgramLowering:
    """Walk ``schedule`` once, without durations, for repeated pricing.

    Runs :func:`build_program`'s walk, label-free, over a table whose
    entries are the slot numbers, so each emitted duration is its slot.
    Only the stream layout of ``cost`` is read (its implementation's
    overlap flags, ``n_dp``, sharding and placement), never a duration,
    so the calibration ``cost`` was built with does not matter.  Price
    the result with ``build_program(cost, schedule, record_events=False,
    lowering=...)`` and run it with ``run_streams(..., order=
    lowering.order)``, as ``simulate(..., lowering=...)`` does.

    The execution order is recorded here, once per lowering
    (:func:`repro.sim.engine.record_order`), so a lowering whose program
    cannot complete is rejected here, with the engine's messages:
    ``ValueError`` on a duplicate uid, ``EngineDeadlock`` otherwise.
    """
    layout = _layout(cost, schedule)
    streams = _ProgramBuilder(schedule, layout, _SLOTS, labelled=False).build()
    # A dependency names its uid with a tuple of its own; point it at the
    # instruction's uid object instead, which keeps the lowering smaller
    # (and lets the engine's uid lookups match by identity).
    uid_of = {row[0]: row[0] for queue in streams.values() for row in queue}
    columns = []
    for key, queue in streams.items():
        uids, slots, deps, labels, categories = (
            zip(*queue) if queue else ((),) * 5
        )
        deps = tuple(tuple(map(uid_of.get, row, row)) for row in deps)
        columns.append((key, uids, slots, deps, labels, categories))
    return ProgramLowering(
        schedule, layout, tuple(columns), record_order(streams)
    )


def build_program(
    cost: CostModel,
    schedule: Schedule,
    *,
    record_events: bool = True,
    lowering: ProgramLowering | None = None,
) -> dict[tuple[int, str], list[Instruction]]:
    """Build the instruction queues for every rank and stream.

    Args:
        cost: Durations for every operation.
        schedule: The pipeline schedule to lower.
        record_events: Set False to skip human-readable labels — the grid
            search never renders timelines, and label construction is a
            measurable share of search time.  Durations, uids and
            dependencies are identical either way.
        lowering: A :func:`lower_program` result for ``schedule`` and a
            cost with this stream layout.  When given, the schedule is not
            walked again: the durations are computed and checked as in a
            fresh build and placed by slot, which gives the same program
            as a fresh label-free build, one that ``lowering.order`` runs
            in.  It requires ``record_events=False``; another schedule or
            stream layout raises ``ValueError``.  The search passes none:
            each of its program shapes serves a handful of builds, too few
            to repay a kept lowering and its order.
    """
    layout = _layout(cost, schedule)
    if lowering is None:
        return _ProgramBuilder(
            schedule,
            layout,
            _duration_table(cost, schedule, layout),
            labelled=record_events,
        ).build()
    if record_events:
        raise ValueError(
            "a lowering is label-free: price it with record_events=False"
        )
    if lowering.schedule is not schedule and lowering.schedule != schedule:
        raise ValueError("the lowering was made for another schedule")
    if lowering.layout != layout:
        raise ValueError(
            "the lowering was made for another stream layout: "
            f"{lowering.layout} != {layout}"
        )
    return lowering._price(_duration_table(cost, schedule, layout))
