"""One differential suite: every fast path held to its reference.

The Figure 7 and Appendix E winners stay byte-identical only because
each fast path the search and the calibration fit run equals its
reference bit for bit.  One hypothesis strategy, :func:`setups`, draws
what those paths are handed: a schedule kind (all five, the hybrid's
sequence size from N_PP up), N_PP, N_mb, N_loop, N_DP, N_TP and the
micro-batch size, a sharding and an implementation (which sets both
overlap flags), a model and layer count, a cluster and a calibration.
Half the setups are candidates of real search cells (hybrid axis on);
the others are built axis by axis over wider ranges, such as uneven
layer splits and one-layer stages.  One property per pair holds on
every setup, compared exactly (``==`` on floats):

- engine: ``run_streams`` == the seed engine ``run_streams_sweep``;
- lowering: a priced ``lower_program`` == a fresh label-free build, and
  its recorded order == the wavefront run;
- pricing: ``price_families`` == ``_stage_time_table``, and the comm
  table == the per-candidate ``CostModel`` calls;
- bound: ``step_time_lower_bound`` == its scalar ``rank_*`` assembly,
  and <= the simulated step time;
- in-flight peak: closed form == materialized == the static verifier's
  count, and ``memory_model`` is the same with or without the schedule;
- schedule order: the generators == the verifier's canonical order.

Fixed sets run too: the verifier's schedule zoo as explicit examples of
every property, the memory model's case table of the in-flight peak,
and twelve hand-picked setups through every pair, each as a test of its
own.  Every candidate of the 6.6B InfiniBand B=64 cell is held to the
bound's reference.  Random programs, faulty
ones included, are the subject of ``tests/test_engine_differential.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analytical.lower_bound import (
    FLOAT_MARGIN,
    StepTimeBound,
    step_time_lower_bound,
)
from repro.analytical.memory import memory_model
from repro.core.schedules.base import (
    Schedule,
    dpfs_group_count,
    max_in_flight_closed,
    schedule_for,
)
from repro.fit import FIT_PARAMETERS, load_calibration
from repro.hardware.cluster import (
    DGX1_CLUSTER_64,
    DGX1_CLUSTER_64_ETHERNET,
    ClusterSpec,
)
from repro.implementations import (
    MEGATRON_LM,
    OUR_IMPLEMENTATION,
    ImplementationProfile,
    default_implementation_for,
)
from repro.models.presets import MODEL_6_6B, MODEL_52B
from repro.models.spec import TransformerSpec
from repro.parallel.config import Method, ParallelConfig, ScheduleKind, Sharding
from repro.search.cell import SearchSettings
from repro.search.space import configuration_space
from repro.sim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.sim.cost import CostModel, _stage_time_table
from repro.sim.cost_batch import price_families
from repro.sim.engine import Instruction, run_streams
from repro.sim.program import (
    _duration_table,
    _layout,
    build_program,
    lower_program,
)
from repro.sim.simulator import simulate
from repro.verify.cli import zoo_configs
from repro.verify.memory_static import static_in_flight
from repro.verify.program import _canonical_order

from engine_sweep import run_streams_sweep

FITTED_CALIBRATION = load_calibration(
    Path(__file__).resolve().parent.parent / "fitted_calibration.json"
)


@dataclass(frozen=True)
class Setup:
    """One candidate as a search or the fit prices it.

    Attributes:
        spec, cluster, config, impl, calibration: The cost model's inputs.
        families: Other ``(n_pp, n_loop, microbatch_size, n_tp)``
            families that one vector pass prices with the setup's own.
    """

    spec: TransformerSpec
    cluster: ClusterSpec
    config: ParallelConfig
    impl: ImplementationProfile
    calibration: Calibration = DEFAULT_CALIBRATION
    families: tuple[tuple[int, int, int, int], ...] = ()

    def cost(self) -> CostModel:
        return CostModel(
            spec=self.spec,
            config=self.config,
            cluster=self.cluster,
            implementation=self.impl,
            calibration=self.calibration,
        )

    @cached_property
    def schedule(self) -> Schedule:
        return schedule_for(self.config)

    @property
    def family(self) -> tuple[int, int, int, int]:
        c = self.config
        return (c.n_pp, c.n_loop, c.microbatch_size, c.n_tp)

    def _repr_pretty_(self, printer, cycle) -> None:
        # Hypothesis lays out each explicit example, field by nested
        # field, before running it; the dataclass repr holds the same
        # fields at a fraction of the cost.
        printer.text(repr(self))


# ------------------------------------------------------------- strategy

#: What a search or the fit prices under: the hand-tuned default, the
#: committed fit, or a point of the box the fitter searches.
#: ``network_overhead_scale`` also takes 1.0 exactly, the other branch
#: of ``pp_transfer_time``.
calibrations = st.one_of(
    st.just(DEFAULT_CALIBRATION),
    st.just(FITTED_CALIBRATION),
    st.fixed_dictionaries(
        {
            p.name: st.floats(p.lower, p.upper)
            if p.name != "network_overhead_scale"
            else st.one_of(st.just(1.0), st.floats(p.lower, p.upper))
            for p in FIT_PARAMETERS
        }
    ).map(lambda fields: replace(DEFAULT_CALIBRATION, **fields)),
)

#: A family over the real parameter ranges, drawn whole.
families = st.sampled_from(
    tuple(product((1, 2, 4, 8, 16), (1, 2, 3, 4), (1, 2, 4, 8), (1, 2, 4, 8)))
)


@lru_cache(maxsize=None)
def cell_candidates(
    spec: TransformerSpec, cluster: ClusterSpec, method: Method, batch: int
) -> tuple[tuple[ParallelConfig, ImplementationProfile], ...]:
    """Every candidate of one search cell, the hybrid axis included."""
    return tuple(
        configuration_space(
            method, spec, cluster, batch,
            settings=SearchSettings(include_hybrid=True),
        )
    )


def _fits(spec: TransformerSpec, cluster: ClusterSpec, family) -> bool:
    """Whether a cost model of this family can be built (one replica)."""
    n_pp, n_loop, _microbatch_size, n_tp = family
    return (
        n_pp * n_loop <= spec.n_layers
        and n_tp <= cluster.node_size
        and n_pp * n_tp <= cluster.n_gpus
    )


@st.composite
def _built(draw, cluster: ClusterSpec):
    """A config, implementation and model drawn axis by axis."""
    kind = draw(st.sampled_from(ScheduleKind))
    n_pp = draw(st.integers(1, 8))
    n_loop = draw(st.integers(1, 4)) if kind.is_looped else 1
    sequence_size = None
    if kind is ScheduleKind.HYBRID:
        sequence_size = n_pp + draw(st.integers(0, max(5, 2 * n_pp)))
        n_mb = sequence_size * draw(st.integers(1, 6))
    elif kind is ScheduleKind.DEPTH_FIRST:
        n_mb = n_pp * draw(st.integers(1, 6))
    else:
        n_mb = draw(st.integers(1, 13))
    n_dp = draw(st.sampled_from((1, 2, 4)))
    n_tp = draw(st.sampled_from((1, 2, 4, 8)))
    while n_dp * n_pp * n_tp > cluster.n_gpus:
        n_tp //= 2
    impl = draw(st.sampled_from((OUR_IMPLEMENTATION, MEGATRON_LM)))
    sharding = draw(st.sampled_from(Sharding))
    if not impl.supports(sharding):
        sharding = Sharding.NONE
    config = ParallelConfig(
        n_dp=n_dp,
        n_pp=n_pp,
        n_tp=n_tp,
        microbatch_size=draw(st.sampled_from((1, 2, 4, 8))),
        n_microbatches=n_mb,
        n_loop=n_loop,
        sharding=sharding,
        schedule=kind,
        sequence_size=sequence_size,
    )
    # A 6.6B model cut to a few layers more than stages has one-layer
    # stages, whose DP collectives are one instruction, not head + bulk.
    spec = draw(st.sampled_from((MODEL_6_6B, MODEL_52B, None)))
    if spec is None:
        spec = replace(
            MODEL_6_6B, n_layers=config.n_stages + draw(st.integers(0, 12))
        )
    return config, impl, spec


@st.composite
def setups(draw) -> Setup:
    """A candidate of a real search cell, or one built from the axes."""
    cluster = draw(
        st.sampled_from((DGX1_CLUSTER_64, DGX1_CLUSTER_64_ETHERNET))
    )
    if draw(st.booleans()):
        spec = draw(st.sampled_from((MODEL_6_6B, MODEL_52B)))
        method = draw(st.sampled_from(Method))
        batch = draw(st.sampled_from((8, 32, 64, 96)))
        cell = cell_candidates(spec, cluster, method, batch)
        config, impl = cell[draw(st.integers(0, len(cell) - 1))]
    else:
        config, impl, spec = draw(_built(cluster))
    others = draw(st.lists(families, max_size=11))
    return Setup(
        spec=spec,
        cluster=cluster,
        config=config,
        impl=impl,
        calibration=draw(calibrations),
        families=tuple(f for f in others if _fits(spec, cluster, f)),
    )


# ----------------------------------------------------------- fixed sets


IB, ETH = DGX1_CLUSTER_64, DGX1_CLUSTER_64_ETHERNET
OURS, MEGATRON = OUR_IMPLEMENTATION, MEGATRON_LM
GPIPE, ONE_F_ONE_B, BF, DF, HYBRID = (
    ScheduleKind.GPIPE,
    ScheduleKind.ONE_F_ONE_B,
    ScheduleKind.BREADTH_FIRST,
    ScheduleKind.DEPTH_FIRST,
    ScheduleKind.HYBRID,
)
DP0, DP_PS, DP_FS = Sharding.NONE, Sharding.PARTIAL, Sharding.FULL


def _fixed(spec, cluster, impl, kind, sharding, grid, seq=None) -> Setup:
    """``grid`` is ``(N_DP, N_PP, N_TP, S_mb, N_mb, N_loop)``."""
    n_dp, n_pp, n_tp, microbatch_size, n_mb, n_loop = grid
    config = ParallelConfig(
        n_dp=n_dp, n_pp=n_pp, n_tp=n_tp, microbatch_size=microbatch_size,
        n_microbatches=n_mb, n_loop=n_loop, sharding=sharding,
        schedule=kind, sequence_size=seq,
    )
    return Setup(spec, cluster, config, impl)


#: Hand-picked setups, each run through every pair: every schedule kind
#: under each DP sharding it runs with, both implementations, both
#: clusters, up to 32-way data parallelism.
HAND_PICKED_SETUPS = {
    "gpipe-dp0": _fixed(MODEL_52B, IB, OURS, GPIPE, DP0, (1, 8, 8, 1, 8, 1)),
    "gpipe-dp_ps": _fixed(
        MODEL_52B, IB, OURS, GPIPE, DP_PS, (2, 4, 8, 1, 8, 1)
    ),
    "1f1b-dp0-serial-dp": _fixed(
        MODEL_6_6B, IB, MEGATRON, ONE_F_ONE_B, DP0, (4, 4, 2, 1, 8, 1)
    ),
    "depth-first-dp0": _fixed(
        MODEL_6_6B, IB, MEGATRON, DF, DP0, (2, 4, 2, 2, 8, 2)
    ),
    "breadth-first-dp0": _fixed(
        MODEL_52B, IB, OURS, BF, DP0, (1, 8, 8, 1, 8, 4)
    ),
    "breadth-first-dp_fs": _fixed(
        MODEL_6_6B, IB, OURS, BF, DP_FS, (4, 4, 2, 1, 16, 2)
    ),
    "breadth-first-dp_fs-ethernet": _fixed(
        MODEL_6_6B, ETH, OURS, BF, DP_FS, (8, 2, 4, 1, 8, 2)
    ),
    "no-pipeline-dp_fs": _fixed(
        MODEL_6_6B, IB, OURS, BF, DP_FS, (32, 1, 2, 1, 4, 2)
    ),
    "breadth-first-dp_fs-8mb": _fixed(
        MODEL_6_6B, IB, OURS, BF, DP_FS, (2, 4, 2, 1, 8, 2)
    ),
} | {
    f"hybrid-{seq}": _fixed(
        MODEL_6_6B, IB, OURS, HYBRID, DP_FS, (2, 4, 2, 1, 16, 2), seq
    )
    for seq in (4, 8, 16)
}

#: The verifier's schedule zoo, every kind on the implementation the
#: paper ran it with.
ZOO_SETUPS = tuple(
    Setup(
        MODEL_6_6B, IB, config, default_implementation_for(config.schedule)
    )
    for config in zoo_configs()
)

#: The memory model's case table: 52B on a 2 x 4 x 8 grid, four
#: schedules at 8/16/32 micro-batches under every sharding, plus a
#: hybrid, with each implementation that supports the sharding.
MEMORY_TABLE_SETUPS = tuple(
    _fixed(MODEL_52B, IB, impl, kind, sharding, (2, 4, 8, 1, n_mb, n_loop))
    for kind, n_loop in [(GPIPE, 1), (ONE_F_ONE_B, 1), (BF, 4), (DF, 2)]
    for n_mb in (8, 16, 32)
    for sharding in Sharding
    for impl in (OURS, MEGATRON)
    if impl.supports(sharding)
) + tuple(
    _fixed(MODEL_52B, IB, impl, HYBRID, DP0, (2, 4, 1, 1, 16, 2), 8)
    for impl in (OURS, MEGATRON)
)


#: Every pair's check, in the order the properties below define them.
PAIRS = []


def _property(max_examples: int, fixed: tuple[Setup, ...] = ()):
    """Run a check as a property over :func:`setups`.

    The schedule zoo and ``fixed`` run first as explicit examples; the
    check also joins :data:`PAIRS`, which every hand-picked setup runs.
    """

    def decorate(check):
        PAIRS.append(check)
        for setup in ZOO_SETUPS + fixed:
            check = example(setup=setup)(check)
        check = given(setup=setups())(check)
        return settings(max_examples=max_examples)(check)

    return decorate


# ----------------------------------------------------------- properties


def _timeline(result) -> list[tuple]:
    return [
        (e.start, e.end, e.rank, e.stream, e.label, e.category)
        for e in result.events
    ]


@_property(max_examples=40)
def test_engine_equals_the_seed_engine(setup):
    cost = setup.cost()
    labelled = build_program(cost, setup.schedule)
    result = run_streams(labelled)
    seed = run_streams_sweep(labelled)
    assert result.finish_times == seed.finish_times
    assert result.stream_busy == seed.stream_busy
    assert result.makespan == seed.makespan > 0
    assert _timeline(result) == _timeline(seed)
    bare = run_streams(
        build_program(cost, setup.schedule, record_events=False),
        record_events=False,
    )
    assert bare.finish_times == result.finish_times
    assert bare.stream_busy == result.stream_busy
    assert bare.makespan == result.makespan
    assert bare.events == []


def _as_tuples(streams) -> list:
    return [(key, [tuple(i) for i in queue]) for key, queue in streams.items()]


@_property(max_examples=40)
def test_priced_lowering_equals_a_fresh_build(setup):
    # Lowered under one calibration, priced under another.
    other = (
        FITTED_CALIBRATION
        if setup.calibration == DEFAULT_CALIBRATION
        else DEFAULT_CALIBRATION
    )
    schedule = setup.schedule
    lowering = lower_program(
        replace(setup, calibration=other).cost(), schedule
    )
    cost = setup.cost()
    priced = build_program(
        cost, schedule, record_events=False, lowering=lowering
    )
    fresh = build_program(cost, schedule, record_events=False)
    assert _as_tuples(priced) == _as_tuples(fresh)
    assert all(
        type(i) is Instruction for queue in priced.values() for i in queue
    )
    # The slots index the whole duration table, each entry at least once.
    table = _duration_table(cost, schedule, _layout(cost, schedule))
    slots = {
        slot
        for _key, _uids, queue_slots, *_ in lowering.streams
        for slot in queue_slots
    }
    assert slots == set(range(len(table)))
    # The order recorded at lowering holds under this pricing.
    assert run_streams(
        priced, record_events=False, order=lowering.order
    ) == run_streams(fresh, record_events=False)


@_property(max_examples=50)
def test_vector_pricing_equals_scalar_pricing(setup):
    spec, cluster, calibration, impl = (
        setup.spec, setup.cluster, setup.calibration, setup.impl,
    )
    priced_together = (setup.family,) + setup.families
    assert price_families(
        spec, cluster, calibration, impl, priced_together
    ) == {
        family: _stage_time_table(spec, cluster, calibration, impl, *family)
        for family in priced_together
    }
    # The comm-family table ignores micro-batch shape, schedule and
    # calibration by construction, so it equals the per-candidate calls
    # whatever those are.
    cost = setup.cost()
    comm = cost.comm_times()
    stages = range(setup.config.n_stages)
    ranks = range(setup.config.n_pp)
    assert comm.gather == tuple(map(cost.gather_time, stages))
    assert comm.reduce == tuple(map(cost.reduce_time, stages))
    assert comm.post_gather == tuple(map(cost.post_step_gather_time, ranks))
    assert comm.dp_serial == tuple(map(cost.dp_serial_time, ranks))


def _reference_bound(cost: CostModel) -> StepTimeBound:
    """Every certificate re-assembled from per-candidate ``cost.rank_*``
    calls, in the float order the bound's family partials mirror."""
    config = cost.config
    impl = cost.implementation
    times = cost.stage_times()
    comm = cost.comm_times() if config.n_dp > 1 else None
    n_mb = config.n_microbatches
    last_stage = config.n_stages - 1
    compute_bound = dp_bound = pp_bound = drain_bound = 0.0
    dp_overlap_active = config.n_dp > 1 and impl.dp_overlap
    if dp_overlap_active:
        n_groups = dpfs_group_count(
            config.schedule, n_mb, config.n_pp, config.sequence_size
        )
    for rank in range(config.n_pp):
        fill = cost.rank_fill_seconds(rank)
        compute_bound = max(
            compute_bound, fill + cost.rank_compute_seconds(rank)
        )
        middle = n_mb * (times.forward[rank] + times.backward[rank])
        if impl.pp_overlap:
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
            drain_bound, fill + middle + cost.rank_drain_seconds(rank)
        )
        if dp_overlap_active:
            stages = cost.placement.stages_of_device(rank)
            busy = 0.0
            if config.sharding is Sharding.FULL:
                busy += 2.0 * n_groups * sum(comm.gather[s] for s in stages)
                busy += n_groups * sum(comm.reduce[s] for s in stages)
            else:
                busy += sum(comm.reduce[s] for s in stages)
            dp_bound = max(dp_bound, busy + comm.post_gather[rank])
        if impl.pp_overlap:
            pp_bound = max(
                pp_bound, cost.rank_send_count(rank) * times.pp_transfer
            )
    tail = cost.optimizer_time(0)
    if config.n_dp > 1 and not impl.dp_overlap:
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


@_property(max_examples=50)
def test_bound_equals_its_reference_and_never_exceeds_the_simulation(setup):
    cost = setup.cost()
    bound = step_time_lower_bound(cost)
    assert bound == _reference_bound(cost)
    result = simulate(
        setup.spec, setup.config, setup.cluster, implementation=setup.impl,
        calibration=setup.calibration, cost=cost,
    )
    assert 0 < bound.step_time <= result.step_time


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.name)
def test_bound_equals_its_reference_on_every_candidate_of_a_cell(method):
    cell = cell_candidates(MODEL_6_6B, DGX1_CLUSTER_64, method, 64)
    for config, impl in cell:
        cost = Setup(MODEL_6_6B, DGX1_CLUSTER_64, config, impl).cost()
        assert step_time_lower_bound(cost) == _reference_bound(cost), (
            config.describe()
        )


@_property(max_examples=50, fixed=MEMORY_TABLE_SETUPS)
def test_in_flight_peak_closed_form_equals_both_counts(setup):
    config, schedule = setup.config, setup.schedule
    ranks = range(config.n_pp)
    closed = [
        max_in_flight_closed(
            config.schedule, rank, config.n_pp, config.n_microbatches,
            config.n_loop, config.sequence_size,
        )
        for rank in ranks
    ]
    assert closed == [schedule.max_in_flight(rank) for rank in ranks]
    program = build_program(setup.cost(), schedule, record_events=False)
    assert closed == static_in_flight(program, config.n_pp)
    # Earlier ranks hold more: memory_model's closed-form path evaluates
    # only the first rank of each parameter-profile group.
    assert closed == sorted(closed, reverse=True)
    assert memory_model(
        setup.spec, config, setup.impl, schedule
    ) == memory_model(setup.spec, config, setup.impl)


@_property(max_examples=50)
def test_schedule_follows_the_verifiers_canonical_order(setup):
    # Three generators serve five kinds (GPipe is breadth-first at
    # N_loop = 1, depth-first the hybrid at S = N_PP); the verifier
    # derives each kind from the paper's rules on its own.
    config, schedule = setup.config, setup.schedule
    assert schedule.kind is config.schedule
    assert schedule.sequence_size == config.sequence_size
    for rank in range(config.n_pp):
        ops = [
            ("F" if op.is_forward else "B", op.microbatch, op.stage)
            for op in schedule.ops_of(rank)
        ]
        assert ops == _canonical_order(schedule, rank)


@pytest.mark.parametrize(
    "setup",
    list(HAND_PICKED_SETUPS.values()),
    ids=list(HAND_PICKED_SETUPS),
)
def test_every_pair_holds_on_a_hand_picked_setup(setup):
    for check in PAIRS:
        check(setup)
