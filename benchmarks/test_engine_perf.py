"""Micro-benchmarks: the search pipeline's two guarded speedups.

1. **Engine path vs the seed path** (PR 1's claim): one Figure 7 grid
   cell searched with the current evaluation pipeline — *bound pruning
   disabled*, so the comparison isolates the engine/program/caching work
   — must be at least 3x faster than the seed pipeline, selecting the
   same winner with the same counters.

   The seed pipeline is reproduced faithfully below from the seed
   commit: its program builder re-derived every duration per instruction
   and always built label strings (``_SeedProgramBuilder``, copied
   verbatim), every candidate was simulated on the sweep-relaxation
   engine (:func:`repro.sim.engine_sweep.run_streams_sweep`), and the
   memory filter ran only *after* the simulation.

2. **Branch-and-bound vs prune-disabled** (PR 2's claim): with the
   analytical step-time lower bound driving best-bound-first
   branch-and-bound, the same cell must search at least 2x faster than
   the prune-disabled pipeline while producing a byte-identical
   ``SearchOutcome.best``.

3. **Observability-off overhead** (PR 7's claim): the
   :mod:`repro.obs` instrumentation threaded through the search
   pipeline must cost at most 2% when no recorder is installed — the
   hot loops read one ``enabled`` flag per cell, nothing per candidate.
   The baseline is the pre-instrumentation pipeline reproduced verbatim
   below (``_pre_obs_simulate_stage`` / ``_pre_obs_best_configuration``).

4. **Batched family evaluation vs the PR 5 pipeline** (this PR's
   claim): the non-looped panel of a Figure 7 grid — both models, four
   batch sizes — searched end-to-end with the batched pipeline
   (vectorized family pricing, closed-form memory, family-cached bound
   partials with the drain certificate, lazy schedules, sibling delta
   replay) must run at least 10x faster than the PR 5 pipeline
   reproduced faithfully below (``_pr5_best_configuration``: eager
   schedule materialization per enumerated candidate, schedule-derived
   memory, the pre-drain scalar bound, a plain simulate loop), with
   byte-identical winners on every cell.  The non-looped panel is the
   guarded grid because it is where the composition matters: the drain
   certificate collapses the simulate set (n_tried 8-44 -> 1-2) *and*
   the closed forms remove the per-candidate schedule builds.  Looped
   cells share the same simulate set under both bounds and gain
   ~1.6-5.5x; they are exercised for winner identity by
   ``tests/test_batched_grid.py``.

Every timed cell also appends a trajectory entry to
``benchmarks/BENCH_search.json`` (see :mod:`repro.obs.trajectory`) so
the perf history accumulates per commit; CI uploads the file as an
artifact.
"""

from __future__ import annotations

import gc
import statistics
import time
from pathlib import Path

from repro.analytical.lower_bound import (
    FLOAT_MARGIN,
    CandidateBound,
    StepTimeBound,
)
from repro.analytical.memory import memory_model
from repro.core.ops import ComputeOp, OpKind
from repro.core.placement import Placement
from repro.core.schedules.base import Schedule, build_schedule
from repro.core.schedules.base import dpfs_group_count
from repro.core.schedules.base import dpfs_repetition_key as _rep_key
from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B, MODEL_52B
from repro.obs import get_recorder
from repro.obs.trajectory import record_entry
from repro.parallel.config import Method, Sharding
from repro.search.cell import SearchSettings
from repro.search.grid import (
    MEMORY_HEADROOM,
    Candidate,
    SearchOutcome,
    _memory_stage,
    _order_best_bound_first,
    best_configuration,
    cached_schedule,
)
from repro.search.service.serialize import result_to_json
from repro.search.space import configuration_space
from repro.sim.calibration import DEFAULT_CALIBRATION
from repro.sim.cost import CostModel, comm_time_table, stage_time_table
from repro.sim.engine import Instruction
from repro.sim.engine_sweep import run_streams_sweep
from repro.sim.simulator import simulate

COMPUTE, PP, DP = "compute", "pp", "dp"

#: The guarded cell: 52B depth-first at B=64 — mid-sized space (135
#: candidates, 100 memory-excluded) with the full simulation stack.
SPEC, CLUSTER = MODEL_52B, DGX1_CLUSTER_64
METHOD, BATCH = Method.DEPTH_FIRST, 64

#: Required end-to-end speedup (the PR measured ~3.9x; 3x is the gate).
MIN_SPEEDUP = 3.0

#: Branch-and-bound guard: a Figure 7 panel-b cell with a large feasible
#: set (non-looped 6.6B at B=512), where the bound prunes most of the
#: space.  Measured ~9x; 2x is the gate.
BNB_METHOD, BNB_BATCH = Method.NON_LOOPED, 512
MIN_BNB_SPEEDUP = 2.0
#: Paper-grid search settings with the pruning stage switched.
PRUNE_ON = SearchSettings(bound_pruning=True)
PRUNE_OFF = SearchSettings(bound_pruning=False)

#: Observability-off overhead gate: the instrumented pipeline with no
#: recorder installed may be at most this factor over the verbatim
#: pre-instrumentation pipeline (median of interleaved paired ratios).
MAX_OBS_OVERHEAD = 1.02

#: The observability gate's cell: 52B non-looped at B=8 with pruning
#: off — 60 simulated candidates at ~2 ms each, so a per-candidate
#: instrumentation cost is a larger share of the search than on the
#: 35 ~25 ms candidates of the guarded cell above, and one search takes
#: ~0.1 s, short enough that the two runs of a pair see the same
#: machine speed.
OBS_METHOD, OBS_BATCH = Method.NON_LOOPED, 8
#: Interleaved (pre-obs, instrumented) pairs the gate takes the median of.
OBS_PAIRS = 128

#: Perf-trajectory file (committed; CI uploads it as an artifact).
TRAJECTORY_PATH = Path(__file__).resolve().parent / "BENCH_search.json"


def _uid_of(op: ComputeOp) -> tuple:
    return (op.kind.value, op.microbatch, op.stage)


class _SeedPlacement(Placement):
    """Placement with the seed's per-call boundary recomputation.

    The current :class:`Placement` caches its stage boundaries; the seed
    re-derived them on every ``n_layers_of_stage`` call, which the seed
    program builder hit once per instruction.  A plain property overrides
    the cached_property so the baseline pays the same cost the seed did.
    """

    @property
    def _boundaries(self) -> tuple:
        base, extra = divmod(self.n_layers, self.n_stages)
        bounds = [0]
        for stage in range(self.n_stages):
            bounds.append(bounds[-1] + base + (1 if stage < extra else 0))
        return tuple(bounds)


# --------------------------------------------------------------------------
# Seed program builder, copied verbatim from the seed commit (only the
# class name changed).  Durations are recomputed per instruction and
# labels are always built — the costs the current builder eliminated.
# --------------------------------------------------------------------------


class _SeedProgramBuilder:
    """Accumulates instruction queues for one configuration."""

    def __init__(self, cost: CostModel, schedule: Schedule) -> None:
        self.cost = cost
        self.schedule = schedule
        self.config = cost.config
        self.impl = cost.implementation
        self.n_stages = schedule.n_stages
        self.dp_active = self.config.n_dp > 1
        self.sharded_full = (
            self.config.sharding is Sharding.FULL and self.dp_active
        )
        self.pp_time = cost.pp_transfer_time()
        self.pp_launch = cost.pp_launch_overhead()
        self.streams: dict[tuple[int, str], list[Instruction]] = {}

    # ----------------------------------------------------------- helpers

    def _head_fraction(self, stage: int) -> float:
        """Share of a stage's DP volume in one layer (the gating head)."""
        return 1.0 / self.cost.placement.n_layers_of_stage(stage)

    def _emit_split(
        self,
        queue: list[Instruction],
        prefix: str,
        stage: int,
        key: int,
        duration: float,
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
        last backward).  Single-layer stages emit one instruction.
        """
        frac = self._head_fraction(stage)
        head_uid = (prefix + "H", stage, key)
        if frac >= 1.0:
            queue.append(
                Instruction(
                    uid=head_uid,
                    duration=duration,
                    deps=head_deps,
                    label=f"{prefix}(s={stage}, g={key})",
                    category=category,
                )
            )
            return head_uid, head_uid
        bulk_uid = (prefix + "R", stage, key)
        head = Instruction(
            uid=head_uid,
            duration=duration * frac,
            deps=head_deps,
            label=f"{prefix}-head(s={stage}, g={key})",
            category=category,
        )
        bulk = Instruction(
            uid=bulk_uid,
            duration=duration * (1.0 - frac),
            deps=bulk_deps,
            label=f"{prefix}-bulk(s={stage}, g={key})",
            category=category,
        )
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
            if self.impl.dp_overlap and self.dp_active:
                self.streams[(rank, DP)] = []
        for rank in range(self.schedule.n_pp):
            self._build_rank(rank)
        return self.streams

    def _build_rank(self, rank: int) -> None:
        cost, config, impl = self.cost, self.config, self.impl
        order = self.schedule.ops_of(rank)
        compute_q = self.streams[(rank, COMPUTE)]
        pp_q = self.streams.get((rank, PP), compute_q)
        dp_q = self.streams.get((rank, DP))
        overlap_dp = self.dp_active and impl.dp_overlap and dp_q is not None

        def group_of(op: ComputeOp) -> tuple[int, int]:
            # Only DP_FS repeats its network operations per group
            # (Eqs. 24-26); with DP0/DP_PS gradients accumulate locally
            # and each stage reduces exactly once per batch.
            if not self.sharded_full:
                return (op.stage, 0)
            return (
                op.stage,
                _rep_key(self.schedule.kind, op.microbatch, self.schedule.n_pp),
            )

        # Positions of each DP group's last forward/backward: the last use
        # must wait for the *whole* gather (Eq. 29 — a pass's
        # reconstruction can only hide behind other micro-batches), and
        # the reduction follows the last backward.
        last_fwd_of_group: dict[tuple[int, int], int] = {}
        last_bwd_of_group: dict[tuple[int, int], int] = {}
        if overlap_dp:
            for position, op in enumerate(order):
                if op.kind is OpKind.BACKWARD:
                    last_bwd_of_group[group_of(op)] = position
                else:
                    last_fwd_of_group[group_of(op)] = position

        gather_uids_fwd: dict[tuple[int, int], tuple[tuple, tuple]] = {}
        gather_uids_bwd: dict[tuple[int, int], tuple[tuple, tuple]] = {}
        reduce_heads: list[tuple] = []

        for position, op in enumerate(order):
            group = group_of(op)
            deps: list[tuple] = []
            if op.kind is OpKind.FORWARD:
                if op.stage > 0:
                    deps.append(("XA", op.microbatch, op.stage - 1))
                if self.sharded_full and overlap_dp:
                    if group not in gather_uids_fwd:
                        gather_uids_fwd[group] = self._emit_split(
                            dp_q,
                            "GF",
                            op.stage,
                            group[1],
                            cost.gather_time(op.stage),
                            "gather",
                        )
                    head, tail = gather_uids_fwd[group]
                    deps.append(head)
                    if last_fwd_of_group.get(group) == position:
                        deps.append(tail)
                duration = cost.forward_time(op.stage)
                category = "forward"
            else:
                deps.append(("F", op.microbatch, op.stage))
                if op.stage < self.n_stages - 1:
                    deps.append(("XG", op.microbatch, op.stage + 1))
                if self.sharded_full and overlap_dp:
                    if group not in gather_uids_bwd:
                        gather_uids_bwd[group] = self._emit_split(
                            dp_q,
                            "GB",
                            op.stage,
                            group[1],
                            cost.gather_time(op.stage),
                            "gather",
                        )
                    head, tail = gather_uids_bwd[group]
                    deps.append(head)
                    if last_bwd_of_group.get(group) == position:
                        deps.append(tail)
                duration = cost.backward_time(op.stage)
                category = "backward"

            # Issuing an overlapped transfer still costs the compute
            # stream its launch overhead.
            produces_send = (
                op.kind is OpKind.FORWARD and op.stage < self.n_stages - 1
            ) or (op.kind is OpKind.BACKWARD and op.stage > 0)
            if produces_send:
                duration += self.pp_launch

            uid = _uid_of(op)
            compute_q.append(
                Instruction(
                    uid=uid,
                    duration=duration,
                    deps=tuple(deps),
                    label=str(op),
                    category=category,
                )
            )

            if op.kind is OpKind.FORWARD and op.stage < self.n_stages - 1:
                pp_q.append(
                    Instruction(
                        uid=("XA", op.microbatch, op.stage),
                        duration=self.pp_time,
                        deps=(uid,),
                        label=f"send-act(mb={op.microbatch}, s={op.stage})",
                        category="pp_comm",
                    )
                )
            if op.kind is OpKind.BACKWARD and op.stage > 0:
                pp_q.append(
                    Instruction(
                        uid=("XG", op.microbatch, op.stage),
                        duration=self.pp_time,
                        deps=(uid,),
                        label=f"send-grad(mb={op.microbatch}, s={op.stage})",
                        category="pp_comm",
                    )
                )

            # Gradient reduction once the group's last backward ran: the
            # bulk may overlap that backward (real reductions trail the
            # per-layer backward front), only the head strictly follows it.
            if overlap_dp and last_bwd_of_group.get(group) == position:
                bulk_deps = (_uid_of(order[position - 1]),) if position else ()
                head, _ = self._emit_split(
                    dp_q,
                    "RED",
                    op.stage,
                    group[1],
                    cost.reduce_time(op.stage),
                    "reduce",
                    head_deps=(uid,),
                    bulk_deps=bulk_deps,
                    head_last=True,
                )
                reduce_heads.append(head)

        # Tail: serial DP block (Megatron mode), optimizer, post-step gather.
        opt_deps: list[tuple] = list(reduce_heads)
        if self.dp_active and not impl.dp_overlap:
            compute_q.append(
                Instruction(
                    uid=("DPALL", rank),
                    duration=cost.dp_serial_time(rank),
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
                    duration=cost.post_step_gather_time(rank),
                    deps=(("OPT", rank),),
                    label=f"post-gather(rank={rank})",
                    category="gather",
                )
            )


def _seed_best_configuration(spec, cluster, method, batch_size):
    """The seed search loop: simulate everything, filter afterwards."""
    calibration = DEFAULT_CALIBRATION
    best_tput = None
    n_tried = 0
    n_excluded = 0
    memory_limit = cluster.gpu.memory_bytes * MEMORY_HEADROOM
    for config, impl in configuration_space(method, spec, cluster, batch_size):
        if config.n_stages > spec.n_layers:
            continue
        schedule = build_schedule(
            config.schedule, config.n_pp, config.n_microbatches, config.n_loop
        )
        cost = CostModel(
            spec=spec,
            config=config,
            cluster=cluster,
            implementation=impl,
            calibration=calibration,
        )
        object.__setattr__(
            cost,
            "placement",
            _SeedPlacement(spec.n_layers, config.n_pp, config.n_loop),
        )
        streams = _SeedProgramBuilder(cost, schedule).build()
        result = run_streams_sweep(streams, record_events=False)
        step_time = result.makespan + calibration.fixed_step_overhead
        memory = memory_model(spec, config, impl, schedule)
        if memory.total > memory_limit:
            n_excluded += 1
            continue
        n_tried += 1
        tput = cost.throughput_per_gpu(step_time)
        if best_tput is None or tput > best_tput:
            best_tput = tput
    return best_tput, n_tried, n_excluded


# --------------------------------------------------------------------------
# Pre-instrumentation search pipeline, copied verbatim from the commit
# before repro.obs landed (only names changed).  The shared stages
# (_memory_stage, _order_best_bound_first) are imported — this PR did not
# touch their bodies — so the copy is exactly the code the instrumented
# pipeline replaced: the per-candidate simulate loop and the cell
# orchestration, with no recorder reads, spans or counters.
# --------------------------------------------------------------------------


def _pre_obs_simulate_stage(
    spec, cluster, calibration, ordered, objective, *, bound_pruning
):
    state = objective.new_state()
    n_tried = 0
    n_pruned = 0
    for position, candidate in enumerate(ordered):
        if bound_pruning and state.prunable(candidate.bound):
            if state.monotone:
                n_pruned += len(ordered) - position
                break
            n_pruned += 1
            continue
        result = simulate(
            spec,
            candidate.config,
            cluster,
            implementation=candidate.implementation,
            calibration=calibration,
            # The pre-obs pipeline passed the eagerly built schedule;
            # schedules are lazy now, so the faithful equivalent is the
            # same memoized build the instrumented loop performs.
            schedule=candidate.materialized_schedule(),
            memory=candidate.memory,
            cost=candidate.cost,
        )
        n_tried += 1
        state.observe(result)
    return state.best(), n_tried, n_pruned, state.frontier()


def _pre_obs_best_configuration(spec, cluster, method, batch_size, settings):
    calibration = DEFAULT_CALIBRATION
    candidates, n_excluded = _memory_stage(
        spec,
        cluster,
        calibration,
        configuration_space(method, spec, cluster, batch_size, settings=settings),
        settings.objective,
    )
    ordered = _order_best_bound_first(candidates)
    best, n_tried, n_pruned, frontier = _pre_obs_simulate_stage(
        spec,
        cluster,
        calibration,
        ordered,
        settings.objective,
        bound_pruning=settings.bound_pruning,
    )
    return SearchOutcome(
        method=method,
        batch_size=batch_size,
        best=best,
        n_tried=n_tried,
        n_excluded=n_excluded,
        n_pruned=n_pruned,
        frontier=frontier,
    )


# --------------------------------------------------------------------------
# PR 5 search pipeline, reproduced faithfully from that commit (names
# prefixed, dataclasses adapted to the current field sets): an eager
# schedule build per enumerated candidate, schedule-derived memory, the
# pre-drain bound with scalar per-stage collective calls, and a plain
# per-candidate simulate loop.  This is the baseline the batched-grid
# guard measures against.
# --------------------------------------------------------------------------


def _pr5_candidate_bound(cost, memory):
    config = cost.config
    impl = cost.implementation
    times = cost.stage_times()
    compute_bound = 0.0
    dp_bound = 0.0
    pp_bound = 0.0
    dp_overlap_active = config.n_dp > 1 and impl.dp_overlap
    if dp_overlap_active:
        n_groups = dpfs_group_count(
            config.schedule,
            config.n_microbatches,
            config.n_pp,
            config.sequence_size,
        )
    for rank in range(config.n_pp):
        compute_bound = max(
            compute_bound,
            cost.rank_fill_seconds(rank) + cost.rank_compute_seconds(rank),
        )
        if dp_overlap_active:
            stages = cost.placement.stages_of_device(rank)
            busy = 0.0
            if config.sharding is Sharding.FULL:
                busy += 2.0 * n_groups * sum(
                    cost.gather_time(s) for s in stages
                )
                busy += n_groups * sum(cost.reduce_time(s) for s in stages)
            else:
                busy += sum(cost.reduce_time(s) for s in stages)
            dp_bound = max(dp_bound, busy + cost.post_step_gather_time(rank))
        if impl.pp_overlap:
            pp_bound = max(
                pp_bound, cost.rank_send_count(rank) * times.pp_transfer
            )
    makespan = max(compute_bound, dp_bound, pp_bound) * (1.0 - FLOAT_MARGIN)
    step = StepTimeBound(
        compute_seconds=compute_bound,
        dp_seconds=dp_bound,
        pp_seconds=pp_bound,
        drain_seconds=0.0,  # the drain certificate did not exist at PR 5
        makespan=makespan,
        step_time=makespan + cost.calibration.fixed_step_overhead,
    )
    return CandidateBound(
        step_time_bound=step,
        throughput=cost.throughput_per_gpu(step.step_time),
        memory_bytes=memory.total,
    )


def _pr5_memory_stage(spec, cluster, calibration, pairs, objective):
    n_excluded = 0
    memory_limit = cluster.gpu.memory_bytes * MEMORY_HEADROOM
    budget = objective.memory_budget(cluster)
    if budget is not None:
        memory_limit = min(memory_limit, budget)
    candidates = []
    for config, impl in pairs:
        # PR 5 materialized every enumerated candidate's schedule just to
        # price its memory — the cost the closed forms eliminated.
        schedule = cached_schedule(
            config.schedule,
            config.n_pp,
            config.n_microbatches,
            config.n_loop,
            config.sequence_size,
        )
        memory = memory_model(spec, config, impl, schedule)
        if memory.total > memory_limit:
            n_excluded += 1
            continue
        cost = CostModel(
            spec=spec,
            config=config,
            cluster=cluster,
            implementation=impl,
            calibration=calibration,
        )
        candidates.append(
            Candidate(
                config=config,
                implementation=impl,
                schedule=schedule,
                memory=memory,
                cost=cost,
                bound=_pr5_candidate_bound(cost, memory),
            )
        )
    return candidates, n_excluded


def _pr5_simulate_stage(
    spec, cluster, calibration, ordered, objective, *, bound_pruning
):
    state = objective.new_state()
    n_tried = 0
    n_pruned = 0
    for position, candidate in enumerate(ordered):
        if bound_pruning and state.prunable(candidate.bound):
            if state.monotone:
                n_pruned += len(ordered) - position
                break
            n_pruned += 1
            continue
        result = simulate(
            spec,
            candidate.config,
            cluster,
            implementation=candidate.implementation,
            calibration=calibration,
            schedule=candidate.schedule,
            memory=candidate.memory,
            cost=candidate.cost,
        )
        n_tried += 1
        state.observe(result)
    return state.best(), n_tried, n_pruned, state.frontier()


def _pr5_best_configuration(spec, cluster, method, batch_size, settings):
    calibration = DEFAULT_CALIBRATION
    candidates, n_excluded = _pr5_memory_stage(
        spec,
        cluster,
        calibration,
        configuration_space(method, spec, cluster, batch_size, settings=settings),
        settings.objective,
    )
    ordered = _order_best_bound_first(candidates)
    best, n_tried, n_pruned, frontier = _pr5_simulate_stage(
        spec,
        cluster,
        calibration,
        ordered,
        settings.objective,
        bound_pruning=settings.bound_pruning,
    )
    return SearchOutcome(
        method=method,
        batch_size=batch_size,
        best=best,
        n_tried=n_tried,
        n_excluded=n_excluded,
        n_pruned=n_pruned,
        frontier=frontier,
    )


def _cpu_seconds(fn):
    """``(fn(), thread CPU seconds)``, timed from a freshly collected heap.

    CPU time, not wall-clock: time the scheduler gives to other
    processes is not the pipeline's cost.  The collection first means
    every timed call starts with the same garbage-collector state, so a
    collection owed to the previous call's garbage never lands in this
    one.
    """
    gc.collect()
    t0 = time.thread_time()
    value = fn()
    return value, time.thread_time() - t0


def _best_of(*fns, rounds=3):
    """``[(last value, min CPU seconds), ...]`` per fn, in ``fns`` order.

    The fns take turns round by round instead of one side timing all
    its rounds before the other starts, so both sides sample the same
    stretch of machine-speed drift.
    """
    values = [None] * len(fns)
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            values[i], seconds = _cpu_seconds(fn)
            best[i] = min(best[i], seconds)
    return list(zip(values, best))


def test_search_speedup_vs_seed(benchmark):
    # Bound pruning off: this guard isolates the engine/program/caching
    # speedup, so both sides must simulate every feasible candidate (and
    # report identical n_tried); the pruning stage has its own guard in
    # test_bound_pruning_speedup below.
    cached_schedule.cache_clear()  # cold caches: measure a fresh cell
    stage_time_table.cache_clear()
    (new_outcome, new_time), (seed, seed_time) = _best_of(
        lambda: best_configuration(
            SPEC, CLUSTER, METHOD, BATCH, settings=PRUNE_OFF
        ),
        lambda: _seed_best_configuration(SPEC, CLUSTER, METHOD, BATCH),
    )
    seed_best, seed_tried, seed_excluded = seed
    benchmark.pedantic(
        lambda: best_configuration(
            SPEC, CLUSTER, METHOD, BATCH, settings=PRUNE_OFF
        ),
        rounds=1,
    )

    # Same cell, same winner, same accounting.
    assert new_outcome.best is not None
    assert new_outcome.best.throughput_per_gpu == seed_best
    assert new_outcome.n_tried == seed_tried
    assert new_outcome.n_excluded == seed_excluded
    assert new_outcome.n_excluded > 0  # the filter has work to do here

    speedup = seed_time / new_time
    print(
        f"\nsearch cell {METHOD.value} B={BATCH}: seed {seed_time:.2f}s, "
        f"event-driven {new_time:.2f}s, speedup {speedup:.1f}x"
    )
    record_entry(
        TRAJECTORY_PATH,
        bench="search_vs_seed",
        seconds=new_time,
        cell={"model": "52B", "method": METHOD.name, "batch": BATCH},
        counters={
            "n_tried": new_outcome.n_tried,
            "n_excluded": new_outcome.n_excluded,
            "n_pruned": new_outcome.n_pruned,
            "seed_seconds": seed_time,
            "speedup": speedup,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"search speedup regressed: {speedup:.2f}x < {MIN_SPEEDUP}x "
        f"(seed {seed_time:.2f}s vs new {new_time:.2f}s)"
    )


def test_bound_pruning_speedup(benchmark):
    """Branch-and-bound guard: >= 2x on a Figure 7 cell, same winner."""

    def run(settings: SearchSettings):
        # Cold caches both times so neither side inherits the other's
        # schedules or stage-time tables.
        cached_schedule.cache_clear()
        stage_time_table.cache_clear()
        return best_configuration(
            MODEL_6_6B, CLUSTER, BNB_METHOD, BNB_BATCH, settings=settings
        )

    (pruned, pruned_time), (full, full_time) = _best_of(
        lambda: run(PRUNE_ON), lambda: run(PRUNE_OFF), rounds=2
    )
    benchmark.pedantic(lambda: run(PRUNE_ON), rounds=1)

    # Byte-identical winner: the serialized best (the checkpoint payload)
    # must not depend on whether the pruning stage ran.
    assert pruned.best is not None
    assert result_to_json(pruned.best) == result_to_json(full.best)
    # The accounting contract across the settings.
    assert full.n_pruned == 0
    assert pruned.n_excluded == full.n_excluded
    assert pruned.n_tried + pruned.n_pruned == full.n_tried
    assert pruned.n_pruned > 0  # the bound has real work on this cell

    speedup = full_time / pruned_time
    print(
        f"\nbranch-and-bound cell {BNB_METHOD.value} B={BNB_BATCH}: "
        f"pruned {pruned_time:.2f}s ({pruned.n_tried} simulated, "
        f"{pruned.n_pruned} pruned), full {full_time:.2f}s "
        f"({full.n_tried} simulated), speedup {speedup:.1f}x"
    )
    record_entry(
        TRAJECTORY_PATH,
        bench="bound_pruning",
        seconds=pruned_time,
        cell={"model": "6.6B", "method": BNB_METHOD.name, "batch": BNB_BATCH},
        counters={
            "n_tried": pruned.n_tried,
            "n_excluded": pruned.n_excluded,
            "n_pruned": pruned.n_pruned,
            "full_seconds": full_time,
            "speedup": speedup,
        },
    )
    assert speedup >= MIN_BNB_SPEEDUP, (
        f"bound pruning speedup regressed: {speedup:.2f}x < "
        f"{MIN_BNB_SPEEDUP}x (full {full_time:.2f}s vs pruned "
        f"{pruned_time:.2f}s)"
    )


#: The batched-grid guard: the non-looped Figure 7 panel on both models.
#: (See the module docstring for why the looped panels are excluded.)
GRID_CELLS = (
    ("52B", MODEL_52B, 64),
    ("52B", MODEL_52B, 128),
    ("52B", MODEL_52B, 256),
    ("52B", MODEL_52B, 512),
    ("6.6B", MODEL_6_6B, 128),
    ("6.6B", MODEL_6_6B, 256),
    ("6.6B", MODEL_6_6B, 512),
)
GRID_METHOD = Method.NON_LOOPED

#: Required full-grid speedup over the PR 5 pipeline (measured ~13-15x
#: on the guarded panel; 10x is the gate).  The 6.6B batch-64 cell is
#: excluded: its PR 5 search is already small enough (~0.08s) that the
#: per-cell floor of both pipelines dominates, diluting the aggregate
#: without exercising anything the other cells don't.
MIN_BATCHED_SPEEDUP = 10.0

#: Both sides search with pruning on — the production configuration —
#: and the batched side with batching on (its default).
BATCH_ON = SearchSettings(batch_eval=True, bound_pruning=True)
BATCH_PR5 = SearchSettings(batch_eval=False, bound_pruning=True)


def _cold_caches():
    """Empty every shared memo, so a grid run prices everything itself.

    Includes the batched pipeline's own family caches (bound partials,
    comm rank sums, per-rank memory params) — the comparison is two
    fresh processes each searching the grid, not a warm new pipeline
    against a cold old one.
    """
    from repro.analytical.memory import _rank_param_groups, _rank_param_table
    from repro.sim.cost_batch import bound_partials, comm_rank_sums

    cached_schedule.cache_clear()
    stage_time_table.cache_clear()
    comm_time_table.cache_clear()
    bound_partials.cache_clear()
    comm_rank_sums.cache_clear()
    _rank_param_table.cache_clear()
    _rank_param_groups.cache_clear()


def test_batched_grid_speedup(benchmark):
    """Batched-evaluation guard: >= 10x on the non-looped grid, same winners.

    Each side runs the whole grid from cold caches (warm *within* the
    grid, as a real sweep would be), min-of-rounds; the winners must be
    byte-identical cell for cell.
    """

    def run_grid(search):
        _cold_caches()
        return [search(spec, batch) for _name, spec, batch in GRID_CELLS]

    def batched(spec, batch):
        return best_configuration(
            spec, CLUSTER, GRID_METHOD, batch, settings=BATCH_ON
        )

    def pr5(spec, batch):
        return _pr5_best_configuration(
            spec, CLUSTER, GRID_METHOD, batch, BATCH_PR5
        )

    (new_outcomes, new_time), (pr5_outcomes, pr5_time) = _best_of(
        lambda: run_grid(batched), lambda: run_grid(pr5)
    )
    benchmark.pedantic(lambda: run_grid(batched), rounds=1)

    # Byte-identical winners and exclusion accounting on every cell (the
    # drain bound changes n_tried/n_pruned *within* the feasible set —
    # that is the point — never the winner or the feasibility split).
    for (name, _spec, batch), new, old in zip(
        GRID_CELLS, new_outcomes, pr5_outcomes
    ):
        assert new.best is not None, (name, batch)
        assert result_to_json(new.best) == result_to_json(old.best), (
            name,
            batch,
        )
        assert new.n_excluded == old.n_excluded, (name, batch)
        assert (
            new.n_tried + new.n_pruned == old.n_tried + old.n_pruned
        ), (name, batch)

    speedup = pr5_time / new_time
    n_simulated = sum(o.n_tried for o in new_outcomes)
    n_simulated_pr5 = sum(o.n_tried for o in pr5_outcomes)
    print(
        f"\nbatched grid ({len(GRID_CELLS)} non-looped cells): "
        f"PR5 {pr5_time:.2f}s ({n_simulated_pr5} simulated), batched "
        f"{new_time:.2f}s ({n_simulated} simulated), speedup {speedup:.1f}x"
    )
    record_entry(
        TRAJECTORY_PATH,
        bench="batched_grid",
        seconds=new_time,
        cell={
            "models": ["52B", "6.6B"],
            "method": GRID_METHOD.name,
            "batches": sorted({batch for _n, _s, batch in GRID_CELLS}),
        },
        counters={
            "n_cells": len(GRID_CELLS),
            "n_simulated": n_simulated,
            "n_simulated_pr5": n_simulated_pr5,
            "pr5_seconds": pr5_time,
            "speedup": speedup,
        },
    )
    assert speedup >= MIN_BATCHED_SPEEDUP, (
        f"batched grid speedup regressed: {speedup:.2f}x < "
        f"{MIN_BATCHED_SPEEDUP}x (PR5 {pr5_time:.2f}s vs batched "
        f"{new_time:.2f}s)"
    )


def test_obs_disabled_overhead(benchmark):
    """Observability guard: disabled instrumentation costs <= 2%.

    Both sides search the same cell with pruning off (every feasible
    candidate simulated, so a per-candidate cost would show) and
    identical cache state: one shared warm-up call, then interleaved
    warm-cache pairs.  Batched evaluation is off on *both* sides: the
    pre-obs copy predates the family walk, and this gate isolates the
    cost of the instrumentation seams alone — the batching win has its
    own guard in test_batched_grid_speedup.
    """
    assert not get_recorder().enabled  # the contract under test
    obs_settings = SearchSettings(bound_pruning=False, batch_eval=False)

    def instrumented():
        return best_configuration(
            SPEC, CLUSTER, OBS_METHOD, OBS_BATCH, settings=obs_settings
        )

    def pre_obs():
        return _pre_obs_best_configuration(
            SPEC, CLUSTER, OBS_METHOD, OBS_BATCH, obs_settings
        )

    cached_schedule.cache_clear()
    stage_time_table.cache_clear()
    pre_obs()  # shared warm-up: both sides time against warm caches
    # Overhead = median of per-pair ratios.  The machine's speed drifts
    # by tens of percent over seconds, so the two runs of a pair are
    # short and adjacent, the side that runs first alternates (neither
    # side always runs second), and the median over many pairs rejects
    # the pairs a speed change split.  Freezing the heap built so far
    # keeps the collection before each timed call down to this test's
    # own garbage.
    baseline_time = instr_time = float("inf")
    baseline_outcome = instr_outcome = None
    ratios = []
    gc.collect()
    gc.freeze()
    try:
        for pair in range(OBS_PAIRS):
            if pair % 2:
                instr_outcome, pair_instr = _cpu_seconds(instrumented)
                baseline_outcome, pair_baseline = _cpu_seconds(pre_obs)
            else:
                baseline_outcome, pair_baseline = _cpu_seconds(pre_obs)
                instr_outcome, pair_instr = _cpu_seconds(instrumented)
            baseline_time = min(baseline_time, pair_baseline)
            instr_time = min(instr_time, pair_instr)
            ratios.append(pair_instr / pair_baseline)
    finally:
        gc.unfreeze()
    benchmark.pedantic(instrumented, rounds=1)

    # Same pipeline, same answer: the baseline copy is still faithful.
    assert instr_outcome.best is not None
    assert result_to_json(instr_outcome.best) == result_to_json(
        baseline_outcome.best
    )
    assert instr_outcome.n_tried == baseline_outcome.n_tried
    assert instr_outcome.n_excluded == baseline_outcome.n_excluded
    assert instr_outcome.n_excluded > 0  # the memory filter runs too

    overhead = statistics.median(ratios)
    print(
        f"\nobs-disabled cell {OBS_METHOD.value} B={OBS_BATCH}: pre-obs "
        f"{baseline_time:.3f}s, instrumented {instr_time:.3f}s CPU, "
        f"overhead {100.0 * (overhead - 1.0):+.1f}% (median of "
        f"{len(ratios)} paired ratios)"
    )
    record_entry(
        TRAJECTORY_PATH,
        bench="obs_disabled_overhead",
        seconds=instr_time,
        cell={"model": "52B", "method": OBS_METHOD.name, "batch": OBS_BATCH},
        counters={
            "baseline_seconds": baseline_time,
            "overhead_ratio": overhead,
        },
    )
    assert overhead <= MAX_OBS_OVERHEAD, (
        f"obs-disabled overhead regressed: {overhead:.3f}x > "
        f"{MAX_OBS_OVERHEAD}x (pre-obs {baseline_time:.3f}s vs "
        f"instrumented {instr_time:.3f}s) — keep the disabled hot path "
        "to one enabled-flag read per cell"
    )
