"""Analytical step-time lower bound for branch-and-bound search pruning.

Section 5.3 makes the Figure 7 grids tractable by refusing to evaluate
configurations that cannot win.  The memory filter handles the "cannot
run" half; this module handles "cannot be fast enough": a cheap, provable
lower bound on the simulated step time, used by
:func:`repro.search.grid.best_configuration` to skip simulating
candidates whose *best possible* throughput is below the incumbent's.

The bound combines two families of certificates, both of which hold for
any execution the event engine can produce:

- **Stream occupancy.**  Every (rank, stream) pair executes its
  instructions serially, so the makespan is at least the summed duration
  of any single stream: the compute stream (all forwards and backwards of
  the rank's stages over all micro-batches — Eq. 11 flops over effective
  flop/s — plus launch or inline transfer overheads, the serial DP block
  and the optimizer) and the data-parallel stream (gathers and reductions
  repeated per Eqs. 24-26, counted by
  :func:`repro.core.schedules.base.dpfs_group_count`).
- **Pipeline fill.**  The first compute of rank ``r`` sits at the end of
  a dependency chain through stages ``0..r-1`` (one forward and one
  transfer per hop) — the Eq. (4)/(9) bubble written in real durations.
  Rank ``r`` therefore cannot finish before ``fill(r)`` plus its whole
  compute occupancy.
- **Drain-side fill.**  The mirror certificate, and the one that closes
  the ~0.16x tightness gap on deep non-looped pipelines (where the fill
  and occupancy certificates see only one of the two pipeline bubbles).
  In any valid schedule every forward of a micro-batch precedes its
  backward, so the *last* stage-``r`` compute op on rank ``r`` is a
  backward; its gradient still has to drain down stages ``r-1..0`` (one
  backward plus one transfer per hop), after which rank 0's optimizer
  tail (serial DP block, optimizer, post-step gather) runs FIFO-behind
  everything on its streams.  Chaining fill, stage-``r`` occupancy,
  drain and tail therefore bounds the makespan from both sides of the
  pipeline at once: for GPipe-like schedules this recovers the classic
  ``(n_mb + n_pp - 1)(f + b)`` shape and makes the bound near-tight.

No certificate inspects the instruction order, so the bound is valid
for every schedule kind, including the Section 4.2 hybrid.  It is proved
``<= simulate(...).step_time`` over the configuration space by the
property test in ``tests/test_differential.py``; a relative float margin
(:data:`FLOAT_MARGIN`) absorbs the summation-order differences between
the closed forms here and the engine's sequential additions, so exact
throughput ties can never be pruned incorrectly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytical.memory import MemoryBreakdown
from repro.core.schedules.base import dpfs_group_count
from repro.parallel.config import Sharding
from repro.sim.cost import CostModel
from repro.sim.cost_batch import bound_partials, comm_rank_sums

__all__ = [
    "FLOAT_MARGIN",
    "CandidateBound",
    "StepTimeBound",
    "candidate_bound",
    "step_time_lower_bound",
]

#: Relative slack absorbing float summation-order differences between the
#: closed-form sums below and the engine's sequential additions (~n*eps
#: with n in the hundreds; 1e-12 is ~1000x that).  Only ever *loosens*
#: the bound.
FLOAT_MARGIN = 1e-12


@dataclass(frozen=True)
class StepTimeBound:
    """Lower bound on one configuration's simulated step time.

    Attributes:
        compute_seconds: Max over ranks of fill + compute-stream busy.
        dp_seconds: Max over ranks of data-parallel stream busy.
        pp_seconds: Max over ranks of pipeline-transfer stream busy.
        drain_seconds: Max over ranks of fill + stage-``r`` occupancy +
            backward drain + rank-0 tail (the drain-side certificate).
        makespan: Largest certificate, after the float margin.
        step_time: ``makespan`` plus the fixed step overhead — the value
            compared against ``SimulationResult.step_time``.
    """

    compute_seconds: float
    dp_seconds: float
    pp_seconds: float
    drain_seconds: float
    makespan: float
    step_time: float


@dataclass(frozen=True)
class CandidateBound:
    """Dual-sided certificate for one candidate: both search axes bounded.

    Branch-and-bound pruning must stay admissible for *every* objective,
    and different objectives prune on different axes — so candidates
    carry a bound per axis:

    Attributes:
        step_time_bound: The provable step-time lower bound.
        throughput: Upper bound on per-GPU throughput — the Eq. 11
            metric evaluated at the step-time lower bound (``simulate``
            can only report less; throughput falls monotonically with
            step time).  Throughput-family objectives prune on this
            side alone.
        memory_bytes: Lower bound on peak per-GPU memory.  The
            analytical memory model is *exact* for the simulator (the
            simulation reuses the same breakdown), so this bound is
            tight — which is what makes it usable both as the
            constrained objective's feasibility test and as the second
            axis of Pareto pruning (a candidate is skipped only when
            dominated in **both** bounds).
    """

    step_time_bound: StepTimeBound
    throughput: float
    memory_bytes: float


def candidate_bound(cost: CostModel, memory: MemoryBreakdown) -> CandidateBound:
    """Bound both objective axes of one candidate in O(n_stages)."""
    step = step_time_lower_bound(cost)
    return CandidateBound(
        step_time_bound=step,
        throughput=cost.throughput_per_gpu(step.step_time),
        memory_bytes=memory.total,
    )


def step_time_lower_bound(cost: CostModel) -> StepTimeBound:
    """Provable lower bound on ``simulate(...).step_time`` for ``cost``.

    Runs in O(n_pp) multiply-adds per candidate given the family-cached
    ingredients — the memoized stage-time and comm-time tables plus the
    per-rank partials of :func:`repro.sim.cost_batch.bound_partials` —
    with no schedule materialization, no program build and no engine,
    which is what lets the search rank every memory-feasible candidate
    best-bound-first before simulating any of them.

    Three certificates per rank, assembled term-for-term in the float
    order of the scalar ``CostModel`` methods the partials mirror
    (``rank_compute_seconds``, ``rank_fill_seconds``,
    ``rank_drain_seconds``; parity pinned in
    ``tests/test_differential.py``):

    - **Compute occupancy**: fill plus the rank's whole compute-stream
      busy (all forwards/backwards, send overheads, the serial DP block
      of non-overlapping implementations, the optimizer).
    - **Drain-side fill**: fill, plus the serial occupancy of stage
      ``rank``'s own ops — all ``n_mb`` forwards and backwards plus
      their send overheads (the launch charged into op durations when
      transfers overlap; the inline transfers themselves when they do
      not, minus the last gradient send, which belongs to the drain
      chain) — plus the backward drain down to stage 0.  Every
      stage-``rank`` op precedes the last stage-``rank`` backward in
      its FIFO queue, so the segments compose additively for any
      schedule.
    - **DP-stream occupancy** (overlap mode): mirrors the program
      builder's emissions — DP_FS gathers twice per (stage, repetition
      group), once before the group's first forward and once before its
      first backward (Eq. 26); every mode reduces each stage once per
      group (once per batch for DP0/DP_PS, whose gradients accumulate
      locally); DP_PS all-gathers the updated weights after the
      optimizer.
    """
    config = cost.config
    impl = cost.implementation
    times = cost.stage_times()
    comm = cost.comm_times() if config.n_dp > 1 else None
    partials = bound_partials(
        cost.spec,
        cost.cluster,
        cost.calibration,
        impl,
        config.n_pp,
        config.n_loop,
        config.microbatch_size,
        config.n_tp,
    )

    n_mb = config.n_microbatches
    n_dp = config.n_dp
    last_stage = config.n_stages - 1
    pp_overlap = impl.pp_overlap
    send_cost = times.pp_launch if pp_overlap else times.pp_transfer
    dp_serial_inline = n_dp > 1 and not impl.dp_overlap
    sharded = config.sharding is not Sharding.NONE
    optimizer_bytes = cost.calibration.optimizer_bytes_per_param
    memory_bandwidth = cost.cluster.gpu.memory_bandwidth

    compute_bound = 0.0
    dp_bound = 0.0
    pp_bound = 0.0
    drain_bound = 0.0
    rank0_optimizer = 0.0
    dp_overlap_active = n_dp > 1 and impl.dp_overlap
    if dp_overlap_active:
        n_groups = dpfs_group_count(
            config.schedule,
            n_mb,
            config.n_pp,
            config.sequence_size,
        )
        full_sharding = config.sharding is Sharding.FULL
        sums = comm_rank_sums(
            cost.spec,
            cost.cluster,
            impl,
            config.n_pp,
            config.n_loop,
            config.n_tp,
            n_dp,
            config.sharding,
        )
    for rank in range(config.n_pp):
        # rank_compute_seconds(rank), term for term.
        busy = n_mb * partials.sum_fb[rank]
        sends = n_mb * partials.per_mb_sends[rank]
        busy += sends * send_cost
        if dp_serial_inline:
            busy += comm.dp_serial[rank]
        # optimizer_time(rank), same division structure.
        params = partials.rank_params[rank]
        if sharded:
            params /= n_dp
        optimizer = params * optimizer_bytes / memory_bandwidth
        if rank == 0:
            rank0_optimizer = optimizer
        rank_compute = partials.fill[rank] + (busy + optimizer)
        compute_bound = max(compute_bound, rank_compute)

        # Drain-side certificate (without the rank-0 tail).
        middle = n_mb * (times.forward[rank] + times.backward[rank])
        if pp_overlap:
            if rank < last_stage:
                middle += n_mb * times.pp_launch
            if rank > 0:
                middle += n_mb * times.pp_launch
        else:
            if rank < last_stage:
                middle += n_mb * times.pp_transfer
            if rank > 0:
                middle += (n_mb - 1) * times.pp_transfer
        drain_bound = max(
            drain_bound, partials.fill[rank] + middle + partials.drain[rank]
        )

        if dp_overlap_active:
            dp_busy = 0.0
            if full_sharding:
                dp_busy += 2.0 * n_groups * sums.gather[rank]
                dp_busy += n_groups * sums.reduce[rank]
            else:
                dp_busy += sums.reduce[rank]
            dp_bound = max(dp_bound, dp_busy + comm.post_gather[rank])

        if pp_overlap:
            pp_bound = max(pp_bound, sends * times.pp_transfer)

    # Rank 0's optimizer tail runs FIFO-behind its whole backward pass
    # (serial DP block and optimizer on the compute queue; the DP_PS
    # post-step gather depends on the optimizer), so it extends every
    # rank's drain chain by the same constant.
    tail = rank0_optimizer
    if dp_serial_inline:
        tail += comm.dp_serial[0]
    if dp_overlap_active and config.sharding is Sharding.PARTIAL:
        tail += comm.post_gather[0]
    drain_bound += tail

    makespan = max(compute_bound, dp_bound, pp_bound, drain_bound) * (
        1.0 - FLOAT_MARGIN
    )
    return StepTimeBound(
        compute_seconds=compute_bound,
        dp_seconds=dp_bound,
        pp_seconds=pp_bound,
        drain_seconds=drain_bound,
        makespan=makespan,
        step_time=makespan + cost.calibration.fixed_step_overhead,
    )
