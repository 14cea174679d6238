"""Schedule container and dispatching constructor."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.ops import ComputeOp, OpKind
from repro.parallel.config import ParallelConfig, ScheduleKind


@dataclass(frozen=True)
class Schedule:
    """A complete pipeline schedule: per-rank instruction streams.

    Attributes:
        kind: Which schedule generated this.
        n_pp: Pipeline devices.
        n_microbatches: Sequential micro-batches ``N_mb``.
        n_loop: Stages per device.
        device_orders: ``device_orders[rank]`` is the ordered tuple of
            compute ops rank executes.  Stage ``s`` lives on rank
            ``s mod n_pp``.
        sequence_size: Micro-batches per depth-first sequence for the
            hybrid schedule (Section 4.2); ``None`` for every other kind.
    """

    kind: ScheduleKind
    n_pp: int
    n_microbatches: int
    n_loop: int
    device_orders: tuple[tuple[ComputeOp, ...], ...] = field(repr=False)
    sequence_size: int | None = None

    def __post_init__(self) -> None:
        if len(self.device_orders) != self.n_pp:
            raise ValueError(
                f"expected {self.n_pp} device streams, got {len(self.device_orders)}"
            )

    @property
    def n_stages(self) -> int:
        return self.n_pp * self.n_loop

    @property
    def total_ops(self) -> int:
        """Total compute instructions across all ranks."""
        return sum(len(order) for order in self.device_orders)

    def ops_of(self, rank: int) -> tuple[ComputeOp, ...]:
        """The instruction stream of one pipeline rank."""
        return self.device_orders[rank]

    def all_ops(self) -> Iterator[tuple[int, int, ComputeOp]]:
        """Yield ``(rank, position, op)`` for every instruction."""
        for rank, order in enumerate(self.device_orders):
            for position, op in enumerate(order):
                yield rank, position, op

    def max_in_flight(self, rank: int) -> int:
        """Peak number of micro-batch activations held live on ``rank``.

        Counts (micro-batch, stage) forwards whose backward has not yet
        run — the quantity that drives activation/checkpoint memory and
        differs between schedules (Table 4.1).
        """
        live = 0
        peak = 0
        for op in self.device_orders[rank]:
            if op.kind is OpKind.FORWARD:
                live += 1
                peak = max(peak, live)
            else:
                live -= 1
        return peak

    def peak_in_flight(self) -> int:
        """Maximum :meth:`max_in_flight` over all ranks."""
        return max(self.max_in_flight(rank) for rank in range(self.n_pp))


#: The kinds that advance micro-batches in sequences.
_SEQUENCED = (ScheduleKind.DEPTH_FIRST, ScheduleKind.HYBRID)


def _sequence_length(
    kind: ScheduleKind, n_pp: int, sequence_size: int | None
) -> int:
    """Micro-batches per sequence of a depth-first or hybrid schedule.

    ``N_PP`` for depth-first and ``sequence_size`` for the Section 4.2
    hybrid, which is depth-first at ``S = N_PP``.
    """
    if kind is ScheduleKind.DEPTH_FIRST:
        return n_pp
    if sequence_size is None:
        raise ValueError("the hybrid schedule's sequences need sequence_size")
    return sequence_size


def build_schedule(
    kind: ScheduleKind,
    n_pp: int,
    n_microbatches: int,
    n_loop: int = 1,
    sequence_size: int | None = None,
) -> Schedule:
    """Generate the per-rank instruction streams for ``kind``.

    Non-looped schedules require ``n_loop == 1``; the depth-first schedule
    additionally requires ``N_mb`` to be a multiple of ``N_PP``
    (Section 4.1).  The hybrid schedule requires ``sequence_size``
    (``N_PP <= S <= N_mb``, dividing ``N_mb``); every other kind rejects
    it.  Three generators cover the five kinds: GPipe is breadth-first at
    ``N_loop = 1``, and depth-first is the hybrid at ``S = N_PP``.
    """
    # Import here to avoid a cycle (generators import this module's Schedule).
    from repro.core.schedules.breadth_first import breadth_first_order
    from repro.core.schedules.hybrid import hybrid_order
    from repro.core.schedules.one_f_one_b import one_f_one_b_order

    if n_pp < 1:
        raise ValueError(f"n_pp must be >= 1, got {n_pp}")
    if n_microbatches < 1:
        raise ValueError(f"n_microbatches must be >= 1, got {n_microbatches}")
    if n_loop < 1:
        raise ValueError(f"n_loop must be >= 1, got {n_loop}")
    if not kind.is_looped and n_loop != 1:
        raise ValueError(f"{kind.value} requires n_loop == 1, got {n_loop}")
    if kind is ScheduleKind.HYBRID:
        if sequence_size is None:
            raise ValueError("the hybrid schedule requires sequence_size")
    elif sequence_size is not None:
        raise ValueError(
            f"sequence_size only applies to the hybrid schedule, not "
            f"{kind.value}"
        )
    if kind is ScheduleKind.DEPTH_FIRST and n_microbatches % n_pp != 0:
        raise ValueError(
            f"depth-first requires N_mb % N_PP == 0, got {n_microbatches} % {n_pp}"
        )

    def phased(rank: int) -> list[ComputeOp]:
        return breadth_first_order(rank, n_pp, n_microbatches, n_loop)

    def sequenced(rank: int) -> list[ComputeOp]:
        seq = _sequence_length(kind, n_pp, sequence_size)
        return hybrid_order(rank, n_pp, n_microbatches, n_loop, seq)

    generators = {
        ScheduleKind.GPIPE: phased,
        ScheduleKind.ONE_F_ONE_B: lambda r: one_f_one_b_order(r, n_pp, n_microbatches),
        ScheduleKind.DEPTH_FIRST: sequenced,
        ScheduleKind.BREADTH_FIRST: phased,
        ScheduleKind.HYBRID: sequenced,
    }
    orders = tuple(tuple(generators[kind](rank)) for rank in range(n_pp))
    return Schedule(
        kind=kind,
        n_pp=n_pp,
        n_microbatches=n_microbatches,
        n_loop=n_loop,
        device_orders=orders,
        sequence_size=sequence_size,
    )


def schedule_for(config: ParallelConfig) -> Schedule:
    """Build the schedule described by a :class:`ParallelConfig`."""
    return build_schedule(
        config.schedule,
        config.n_pp,
        config.n_microbatches,
        config.n_loop,
        config.sequence_size,
    )


def max_in_flight_closed(
    kind: ScheduleKind,
    rank: int,
    n_pp: int,
    n_microbatches: int,
    n_loop: int = 1,
    sequence_size: int | None = None,
) -> int:
    """Closed form of :meth:`Schedule.max_in_flight` — no materialization.

    Every generator in this package has a warmup/steady/cooldown shape,
    so its peak live-forward count is a function of the warmup length
    alone: the phase-structured schedules (GPipe, breadth-first, and the
    degenerate single-sequence cases) hold every forward live at once,
    while the 1F1B-style schedules peak one above their warmup (the
    steady state's forward lands before the backward that frees its
    slot).  Proved equal to the materialized
    ``Schedule.max_in_flight(rank)`` over the full generator parameter
    space by ``tests/test_differential.py`` — which is what lets the
    search's memory filter price a candidate without building its
    schedule.
    """
    if kind is ScheduleKind.GPIPE:
        return n_microbatches
    if kind is ScheduleKind.ONE_F_ONE_B:
        return min(n_microbatches, n_pp - rank)
    if kind is ScheduleKind.BREADTH_FIRST:
        return n_loop * n_microbatches
    seq = _sequence_length(kind, n_pp, sequence_size)
    total = n_microbatches * n_loop
    if n_microbatches == seq:
        return total
    n_warmup = min(total, (n_pp - rank - 1) * 2 + (n_loop - 1) * seq)
    return total if n_warmup == total else n_warmup + 1


def dpfs_repetition_key(
    kind: ScheduleKind,
    microbatch: int,
    n_pp: int,
    sequence_size: int | None = None,
) -> int:
    """DP_FS repetition group of a micro-batch under a schedule.

    Fully sharded data parallelism repeats its weight reconstruction and
    gradient reduction once per group (Eqs. 24-26): the breadth-first
    schedule aggregates the whole pass into one group, depth-first works
    in sequences of ``N_PP`` micro-batches, the hybrid in sequences of
    ``sequence_size``, and the non-looped schedules repeat for every
    micro-batch.  Shared by the event simulator's program builder and the
    NumPy runtime's traffic accounting.
    """
    if kind is ScheduleKind.BREADTH_FIRST:
        return 0
    if kind in _SEQUENCED:
        return microbatch // _sequence_length(kind, n_pp, sequence_size)
    return microbatch


def dpfs_group_count(
    kind: ScheduleKind,
    n_microbatches: int,
    n_pp: int,
    sequence_size: int | None = None,
) -> int:
    """Number of distinct DP_FS repetition groups in one batch.

    The closed form of ``len({dpfs_repetition_key(kind, mb, ...) for mb in
    range(N_mb)})`` — how many times each stage's reconstruction and
    reduction recur under Eqs. (24)-(26).  Used by the analytical
    step-time lower bound, which must count data-parallel traffic without
    materializing a schedule.
    """
    if kind is ScheduleKind.BREADTH_FIRST:
        return 1
    if kind in _SEQUENCED:
        # Ceil: build_schedule makes a sequence divide N_mb, and a
        # partial last sequence would still be a group of its own.
        return -(-n_microbatches // _sequence_length(kind, n_pp, sequence_size))
    return n_microbatches
