"""Best-configuration search: a staged candidate-evaluation pipeline.

Mirrors and extends the Section 5.3 protocol.  Each search cell runs its
candidates through an ordered chain of pruner stages, each orders of
magnitude cheaper than the one after it:

1. **Feasibility filter** (:func:`repro.analytical.memory.memory_model`):
   configurations predicted to exceed the effective memory limit — the
   device's usable memory, tightened further by the objective's budget
   (:meth:`repro.search.objective.Objective.memory_budget`) — are
   excluded before any simulation; the paper excluded configurations
   "certain or highly likely to run out of memory" and only ran the
   remainder.  Counted in ``n_excluded``.
2. **Dual-sided lower bound**
   (:func:`repro.analytical.lower_bound.candidate_bound`): survivors are
   ordered best-throughput-bound-first and simulated under per-objective
   branch-and-bound.  The objective's state decides admissible pruning
   from the bound alone — a throughput objective skips candidates whose
   *best possible* throughput is strictly below the incumbent's; the
   Pareto objective skips only candidates dominated in **both** bounds.
   Counted in ``n_pruned``.
3. **Simulation** (:func:`repro.sim.simulator.simulate`): everything
   still alive is measured and ranked by the objective.  Counted in
   ``n_tried``.

The accounting contract: ``n_tried + n_excluded + n_pruned`` equals the
enumerated size of :func:`repro.search.space.configuration_space` for the
cell, for **every** objective (constraint-infeasible candidates land in
``n_excluded``).  The winner — and, for the Pareto objective, the whole
frontier — is **byte-identical with pruning on or off**: the bound only
removes candidates that provably cannot affect the outcome, ties are
never pruned (strict inequality), and equal-throughput ties resolve via
``ParallelConfig.sort_key`` regardless of evaluation order.

**Batched evaluation**: the pipeline walks the cell's config
*families* — a cell's candidates are overwhelmingly siblings along one
axis — composing two accelerations that each preserve the outcome
bit-for-bit:

- the memory-feasible families are priced in one vectorized pass
  (:func:`repro.sim.cost_batch.warm_family_tables`, bit-identical to
  scalar pricing by the hypothesis parity suite) before any bound is
  computed;
- the simulate stage replays only event-graph deltas between sibling
  candidates of a family (:func:`repro.sim.simulator.simulate_delta`,
  bit-exact with automatic full-simulation fallback).

Neither touches the visit order — delta bases are keyed by family, so
batching changes *how* a candidate is evaluated, never *which* or
*when*.  ``tests/test_batched_grid.py`` holds winners, frontiers, the
``n_tried``/``n_excluded``/``n_pruned`` split and checkpoint bytes equal
to a scalar-priced, fully simulated reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.analytical.lower_bound import CandidateBound, candidate_bound
from repro.analytical.memory import MemoryBreakdown, memory_model
from repro.core.schedules.base import Schedule, build_schedule
from repro.hardware.cluster import ClusterSpec
from repro.implementations import ImplementationProfile
from repro.models.spec import TransformerSpec
from repro.obs import get_recorder
from repro.parallel.config import Method, ParallelConfig, ScheduleKind, Sharding
from repro.search.cell import DEFAULT_SETTINGS, SearchSettings
from repro.search.objective import Objective
from repro.search.space import configuration_space
from repro.sim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.sim.cost import CostModel, WarmStartSeed, comm_time_table
from repro.sim.cost_batch import warm_family_tables, warm_seed_caches
from repro.sim.simulator import (
    SimulationBase,
    SimulationResult,
    simulate,
    simulate_delta,
)
from repro.utils import gc_paused

#: Fraction of device memory usable before fragmentation makes OOM likely
#: (Appendix D.2 motivates the safety margin).  Always applied; an
#: objective's budget can only tighten it.
MEMORY_HEADROOM = 0.92


@lru_cache(maxsize=4096)
def cached_schedule(
    kind: ScheduleKind,
    n_pp: int,
    n_microbatches: int,
    n_loop: int,
    sequence_size: int | None = None,
) -> Schedule:
    """Memoized :func:`build_schedule` — the search's cost-model cache.

    Schedules depend only on ``(kind, n_pp, n_mb, n_loop[, seq])``, so the
    same one recurs across sharding modes, tensor-parallel widths and
    micro-batch sizes within a cell, and across cells of a sweep.  The
    cache is per-process: every worker of a :mod:`repro.search.sweep`
    pool shares one (and fork-started workers inherit whatever the parent
    already built).  Schedules are immutable, so sharing is safe.
    """
    return build_schedule(kind, n_pp, n_microbatches, n_loop, sequence_size)


@dataclass(frozen=True)
class Candidate:
    """One feasible configuration flowing through the pipeline.

    Carries everything the earlier stages already paid for — the memory
    breakdown, the cost model (whose per-stage duration table is shared
    process-wide, see :func:`repro.sim.cost.stage_time_table`) and the
    dual-sided bound — so the simulation stage re-derives nothing.

    The schedule is **lazy**: the feasibility filter and the bound price
    candidates from closed forms alone
    (:func:`repro.core.schedules.base.max_in_flight_closed`,
    :func:`repro.sim.cost_batch.bound_partials`), so no per-rank
    instruction streams exist until the simulate stage materializes them
    via :func:`cached_schedule` — and only for the few candidates the
    branch-and-bound stage actually simulates.  Eagerly building
    O(n_pp * n_mb) ``ComputeOp`` objects per enumerated configuration
    used to dominate whole-cell latency.
    """

    config: ParallelConfig
    implementation: ImplementationProfile
    memory: MemoryBreakdown
    cost: CostModel
    bound: CandidateBound

    def materialized_schedule(self) -> Schedule:
        """This candidate's schedule, built (memoized) on first use."""
        config = self.config
        return cached_schedule(
            config.schedule,
            config.n_pp,
            config.n_microbatches,
            config.n_loop,
            config.sequence_size,
        )

    @property
    def bound_throughput(self) -> float:
        """Best possible per-GPU throughput (see
        :class:`~repro.analytical.lower_bound.CandidateBound`)."""
        return self.bound.throughput


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one (method, batch size) search cell.

    Attributes:
        method: The method searched.
        batch_size: Global batch size of the cell.
        best: The winning simulation under the cell's objective, or None
            if nothing was feasible.
        n_tried: Configurations simulated (those surviving every pruner
            stage).
        n_excluded: Configurations rejected by the feasibility filter
            before simulation — over the device's usable memory or over
            the objective's tighter budget (excluded configurations are
            never simulated, so ``n_tried`` never counts them).
        n_pruned: Configurations rejected by the branch-and-bound stage:
            feasible, but the objective proved from their dual-sided
            bound that they cannot affect the outcome.  Always 0 when
            bound pruning is disabled; ``best`` and ``frontier`` are
            identical either way.
        frontier: The throughput/peak-memory Pareto frontier, reported
            only by frontier-producing objectives
            (:class:`~repro.search.objective.ParetoFrontObjective`);
            None for single-winner objectives.
    """

    method: Method
    batch_size: int
    best: SimulationResult | None
    n_tried: int
    n_excluded: int
    n_pruned: int = 0
    frontier: tuple[SimulationResult, ...] | None = None


# --------------------------------------------------------- pipeline stages


def _price_survivor_families(
    spec: TransformerSpec,
    cluster: ClusterSpec,
    calibration: Calibration,
    survivors,
) -> None:
    """Vector-price every distinct family among the feasible survivors.

    One :func:`repro.sim.cost_batch.warm_family_tables` call per
    implementation profile seeds the shared stage-time cache, so the
    bound computations and program builds that follow never price a
    family scalar-wise.  Families of *excluded* candidates are never
    priced — batching must not do work the lazy scalar path would skip.
    """
    families: dict[ImplementationProfile, dict[tuple, None]] = {}
    for config, impl, _memory in survivors:
        family = (config.n_pp, config.n_loop, config.microbatch_size, config.n_tp)
        families.setdefault(impl, {})[family] = None
    n_priced = 0
    n_cached = 0
    for impl, fams in families.items():
        priced, cached = warm_family_tables(
            spec, cluster, calibration, impl, fams
        )
        n_priced += priced
        n_cached += cached
    rec = get_recorder()
    if rec.enabled:
        rec.count("search.batch.families_priced", n_priced)
        rec.count("search.batch.families_cached", n_cached)


def _memory_stage(
    spec: TransformerSpec,
    cluster: ClusterSpec,
    calibration: Calibration,
    pairs,
    objective: Objective,
) -> tuple[list[Candidate], int]:
    """Stage 1+2 producer: feasibility-filter the space, bound survivors.

    The effective limit is the device fragmentation limit tightened by
    the objective's budget (if any).  Returns the feasible candidates
    (dual-sided bound attached, enumeration order) and the count of
    excluded configurations.

    The stage runs as a family walk: feasibility first for the whole
    space, then one vectorized pricing pass over the surviving families,
    then the bounds — which at that point only ever *hit* the stage-time
    cache.  The vector-priced floats are bit-identical to scalar pricing
    by construction.
    """
    n_excluded = 0
    memory_limit = cluster.gpu.memory_bytes * MEMORY_HEADROOM
    budget = objective.memory_budget(cluster)
    if budget is not None:
        memory_limit = min(memory_limit, budget)
    survivors: list = []
    for config, impl in pairs:
        # Closed-form in-flight peak: no schedule is built here (or for
        # the bound below) — only simulated candidates ever materialize
        # their instruction streams.
        memory = memory_model(spec, config, impl)
        if memory.total > memory_limit:
            n_excluded += 1
            continue
        survivors.append((config, impl, memory))

    if survivors:
        _price_survivor_families(spec, cluster, calibration, survivors)

    candidates: list[Candidate] = []
    for config, impl, memory in survivors:
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
                memory=memory,
                cost=cost,
                bound=candidate_bound(cost, memory),
            )
        )
    return candidates, n_excluded


def _order_best_bound_first(candidates: list[Candidate]) -> list[Candidate]:
    """Branch-and-bound visit order: highest throughput bound first.

    Front-loading the most promising candidates tightens the incumbent
    (or seeds the frontier's high-throughput end) immediately, which is
    what makes early pruning decisions possible.  Ties break on
    ``sort_key`` so the order — and therefore ``n_tried`` under pruning
    — is deterministic.
    """
    return sorted(
        candidates, key=lambda c: (-c.bound_throughput, c.config.sort_key)
    )


#: Delta-replay bases kept alive per cell.  Families are visited in
#: bound order, not grouped, so a small FIFO window catches the common
#: sibling pairs without holding every family's streams in memory.
_MAX_DELTA_BASES = 8


def _delta_eligible(candidate: Candidate) -> bool:
    """Whether ``candidate`` may be delta-replayed against a sibling.

    Fully-sharded configurations re-gather weights *inside* the compute
    stream, so their event graphs differ from a sibling's everywhere and
    the replay would always fall back; same for non-overlapping DP,
    where grad-reduce serializes after the pipeline.  Restricting to
    overlapping NONE/PARTIAL siblings keeps the delta attempt rate
    honest (the ``search.delta.fallback`` counter stays near zero).
    """
    config = candidate.config
    return (
        config.n_dp > 1
        and candidate.implementation.dp_overlap
        and config.sharding is not Sharding.FULL
    )


def _delta_key(candidate: Candidate) -> tuple:
    """Sibling group of a candidate: everything but the sharding mode.

    Two candidates with the same key build programs that differ only in
    the gradient-reduce/gather instruction durations and tails — the
    exact shape :func:`repro.sim.engine.run_streams_delta` replays
    cheaply.
    """
    config = candidate.config
    return (
        candidate.implementation.name,
        config.schedule,
        config.sequence_size,
        config.n_pp,
        config.n_loop,
        config.microbatch_size,
        config.n_tp,
        config.n_dp,
        config.n_microbatches,
    )


def _simulate_stage(
    spec: TransformerSpec,
    cluster: ClusterSpec,
    calibration: Calibration,
    ordered: list[Candidate],
    objective: Objective,
    *,
    bound_pruning: bool,
    method_label: str = "",
) -> tuple[SimulationResult | None, int, int, tuple[SimulationResult, ...] | None]:
    """Stage 3: simulate under per-objective branch-and-bound.

    The objective's state judges each candidate's dual-sided bound:
    pruning is admissible per-objective, so skipping can never change
    the winner or the frontier.  For objectives whose prune test is
    monotone in the visit order (the throughput family), candidates
    arrive in decreasing bound order, so everything after the first
    prune is prunable too and the stage stops there; non-monotone
    objectives (Pareto) test every candidate individually.

    Eligible candidates go through
    :func:`repro.sim.simulator.simulate_delta` keyed by sibling group:
    the first member of a group simulates fully and becomes the base,
    later members replay only the differing event-graph suffix.  The
    visit order, the prune decisions and every
    :class:`~repro.sim.simulator.SimulationResult` are bit-identical to
    full simulation (``tests/test_batched_grid.py``).
    """
    rec = get_recorder()
    # One flag read per cell keeps the per-candidate loop free of
    # instrumentation when observability is off (the overhead contract,
    # gated on recorder call counts in benchmarks/test_engine_perf.py).
    track = rec.enabled
    tightness_metric = f"search.bound.tightness.{method_label}" if track else ""
    state = objective.new_state()
    n_tried = 0
    n_pruned = 0
    bases: dict[tuple, SimulationBase] = {}
    n_replayed = 0
    n_fallback = 0
    for position, candidate in enumerate(ordered):
        if bound_pruning and state.prunable(candidate.bound):
            if state.monotone:
                n_pruned += len(ordered) - position
                break
            n_pruned += 1
            continue
        if _delta_eligible(candidate):
            key = _delta_key(candidate)
            base = bases.get(key)
            result, new_base, replayed = simulate_delta(
                candidate.cost,
                candidate.materialized_schedule(),
                candidate.memory,
                base=base,
            )
            if key not in bases and len(bases) >= _MAX_DELTA_BASES:
                bases.pop(next(iter(bases)))
            bases[key] = new_base
            if base is not None:
                if replayed:
                    n_replayed += 1
                else:
                    n_fallback += 1
        else:
            result = simulate(
                spec,
                candidate.config,
                cluster,
                implementation=candidate.implementation,
                calibration=calibration,
                schedule=candidate.materialized_schedule(),
                memory=candidate.memory,
                cost=candidate.cost,
            )
        n_tried += 1
        if track:
            bound = candidate.bound.step_time_bound
            if result.step_time > 0.0:
                rec.observe(tightness_metric, bound.step_time / result.step_time)
            binding = max(
                ("compute", bound.compute_seconds),
                ("dp", bound.dp_seconds),
                ("pp", bound.pp_seconds),
                ("drain", bound.drain_seconds),
                key=lambda pair: pair[1],
            )[0]
            rec.count(f"search.bound.binding.{binding}")
        state.observe(result)
    if track:
        rec.count("search.delta.replayed", n_replayed)
        rec.count("search.delta.fallback", n_fallback)
    return state.best(), n_tried, n_pruned, state.frontier()


# ----------------------------------------------------------- entry point


def best_configuration(
    spec: TransformerSpec,
    cluster: ClusterSpec,
    method: Method,
    batch_size: int,
    calibration: Calibration = DEFAULT_CALIBRATION,
    settings: SearchSettings = DEFAULT_SETTINGS,
    *,
    seed: WarmStartSeed | None = None,
) -> SearchOutcome:
    """Search one cell of the Figure 7 grid through the pruning pipeline.

    See the module docstring for the stage chain and the
    ``n_tried``/``n_excluded``/``n_pruned`` contract.  ``settings``
    selects the optional axes: branch-and-bound pruning (on by default;
    the outcome never depends on it), the Section 4.2 hybrid schedule
    axis (off by default to match the paper's grids), and the objective
    (throughput argmax by default; see :mod:`repro.search.objective`).

    ``seed`` optionally carries a neighbor cell's configs
    (:class:`~repro.sim.cost.WarmStartSeed`, produced by the planner's
    memo store): their families are pre-priced into the shared tables
    before the stages run.  Seeding is outcome-neutral by construction —
    it only moves cache fills earlier, so the returned outcome is
    byte-identical to an unseeded search.

    The cell runs with the cyclic garbage collector paused
    (:func:`repro.utils.gc_paused`): the search creates no reference
    cycles, and its candidates, programs and engine results are freed by
    reference counting before the collector comes back on.
    """
    with gc_paused():
        return _best_configuration(
            spec, cluster, method, batch_size, calibration, settings, seed
        )


def _best_configuration(
    spec: TransformerSpec,
    cluster: ClusterSpec,
    method: Method,
    batch_size: int,
    calibration: Calibration,
    settings: SearchSettings,
    seed: WarmStartSeed | None,
) -> SearchOutcome:
    """:func:`best_configuration`'s body, run with the collector paused."""
    rec = get_recorder()
    if seed:
        n_seeded = warm_seed_caches(spec, cluster, calibration, seed)
        if rec.enabled:
            rec.count("search.warm_start.seeded_families", n_seeded)
    if rec.enabled:
        comm_before = comm_time_table.cache_info()
    with rec.span("search.cell", method=method.name, batch_size=batch_size):
        with rec.span("search.stage.memory_filter"):
            candidates, n_excluded = _memory_stage(
                spec,
                cluster,
                calibration,
                configuration_space(
                    method, spec, cluster, batch_size, settings=settings
                ),
                settings.objective,
            )
        with rec.span("search.stage.bound_order"):
            ordered = _order_best_bound_first(candidates)
        with rec.span("search.stage.simulate"):
            best, n_tried, n_pruned, frontier = _simulate_stage(
                spec,
                cluster,
                calibration,
                ordered,
                settings.objective,
                bound_pruning=settings.bound_pruning,
                method_label=method.name,
            )
    if rec.enabled:
        comm_after = comm_time_table.cache_info()
        rec.count("search.cells")
        rec.count("search.candidates.enumerated", len(candidates) + n_excluded)
        rec.count("search.candidates.excluded", n_excluded)
        rec.count("search.candidates.simulated", n_tried)
        rec.count("search.candidates.pruned", n_pruned)
        rec.count(
            "search.warm_start.comm.hits", comm_after.hits - comm_before.hits
        )
        rec.count(
            "search.warm_start.comm.misses", comm_after.misses - comm_before.misses
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
