"""Parity suite: the event-driven engine vs the seed sweep engine.

The event-driven engine (:func:`repro.sim.engine.run_streams`) must
reproduce the seed relaxation engine
(:func:`repro.sim.engine_sweep.run_streams_sweep`) *exactly* — same
``finish_times``, ``stream_busy`` and ``makespan`` — on every schedule
kind and data-parallel sharding mode, and must report the same deadlock
diagnostics.  Both engines compute identical max/add float arithmetic,
so the comparison is bit-exact, not approximate.
"""

from __future__ import annotations

import pytest

from repro.core.schedules.base import build_schedule
from repro.hardware.cluster import DGX1_CLUSTER_64, DGX1_CLUSTER_64_ETHERNET
from repro.models.presets import MODEL_6_6B, MODEL_52B
from repro.parallel.config import ParallelConfig, ScheduleKind, Sharding
from repro.sim.cost import CostModel
from repro.sim.engine import EngineDeadlock, Instruction, run_streams
from repro.sim.engine_sweep import run_streams_sweep
from repro.sim.implementation import MEGATRON_LM, OUR_IMPLEMENTATION
from repro.sim.program import build_program


def build_streams(spec, cluster, impl, *, prebuilt_schedule=None, **config_kw):
    config = ParallelConfig(**config_kw)
    cost = CostModel(
        spec=spec, config=config, cluster=cluster, implementation=impl
    )
    schedule = prebuilt_schedule
    if schedule is None:
        schedule = build_schedule(
            config.schedule, config.n_pp, config.n_microbatches, config.n_loop
        )
    return build_program(cost, schedule)


def assert_parity(streams):
    new = run_streams(streams)
    seed = run_streams_sweep(streams)
    assert new.makespan == seed.makespan
    assert new.finish_times == seed.finish_times
    assert new.stream_busy == seed.stream_busy
    assert [
        (e.start, e.end, e.rank, e.stream, e.label, e.category)
        for e in new.events
    ] == [
        (e.start, e.end, e.rank, e.stream, e.label, e.category)
        for e in seed.events
    ]
    return new


#: (name, spec, cluster, implementation, config kwargs) covering all five
#: schedule kinds across the DP sharding modes each one supports.
CASES = [
    (
        "gpipe-dp0",
        MODEL_52B,
        DGX1_CLUSTER_64,
        OUR_IMPLEMENTATION,
        dict(n_dp=1, n_pp=8, n_tp=8, microbatch_size=1, n_microbatches=8,
             schedule=ScheduleKind.GPIPE),
    ),
    (
        "gpipe-dp_ps",
        MODEL_52B,
        DGX1_CLUSTER_64,
        OUR_IMPLEMENTATION,
        dict(n_dp=2, n_pp=4, n_tp=8, microbatch_size=1, n_microbatches=8,
             sharding=Sharding.PARTIAL, schedule=ScheduleKind.GPIPE),
    ),
    (
        "1f1b-dp0-serial-dp",
        MODEL_6_6B,
        DGX1_CLUSTER_64,
        MEGATRON_LM,
        dict(n_dp=4, n_pp=4, n_tp=2, microbatch_size=1, n_microbatches=8,
             schedule=ScheduleKind.ONE_F_ONE_B),
    ),
    (
        "depth-first-dp0",
        MODEL_6_6B,
        DGX1_CLUSTER_64,
        MEGATRON_LM,
        dict(n_dp=2, n_pp=4, n_tp=2, microbatch_size=2, n_microbatches=8,
             n_loop=2, schedule=ScheduleKind.DEPTH_FIRST),
    ),
    (
        "breadth-first-dp0",
        MODEL_52B,
        DGX1_CLUSTER_64,
        OUR_IMPLEMENTATION,
        dict(n_dp=1, n_pp=8, n_tp=8, microbatch_size=1, n_microbatches=8,
             n_loop=4, schedule=ScheduleKind.BREADTH_FIRST),
    ),
    (
        "breadth-first-dp_fs",
        MODEL_6_6B,
        DGX1_CLUSTER_64,
        OUR_IMPLEMENTATION,
        dict(n_dp=4, n_pp=4, n_tp=2, microbatch_size=1, n_microbatches=16,
             n_loop=2, sharding=Sharding.FULL,
             schedule=ScheduleKind.BREADTH_FIRST),
    ),
    (
        "breadth-first-dp_fs-ethernet",
        MODEL_6_6B,
        DGX1_CLUSTER_64_ETHERNET,
        OUR_IMPLEMENTATION,
        dict(n_dp=8, n_pp=2, n_tp=4, microbatch_size=1, n_microbatches=8,
             n_loop=2, sharding=Sharding.FULL,
             schedule=ScheduleKind.BREADTH_FIRST),
    ),
    (
        "no-pipeline-dp_fs",
        MODEL_6_6B,
        DGX1_CLUSTER_64,
        OUR_IMPLEMENTATION,
        dict(n_dp=32, n_pp=1, n_tp=2, microbatch_size=1, n_microbatches=4,
             n_loop=2, sharding=Sharding.FULL,
             schedule=ScheduleKind.BREADTH_FIRST),
    ),
]


@pytest.mark.parametrize(
    "spec, cluster, impl, config_kw",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_schedule_parity(spec, cluster, impl, config_kw):
    streams = build_streams(spec, cluster, impl, **config_kw)
    result = assert_parity(streams)
    assert result.makespan > 0


@pytest.mark.parametrize("sequence_size", [4, 8, 16])
def test_hybrid_schedule_parity(sequence_size):
    """The fifth schedule kind: the Section 4.2 hybrid."""
    config_kw = dict(
        n_dp=2, n_pp=4, n_tp=2, microbatch_size=1, n_microbatches=16,
        n_loop=2, sharding=Sharding.FULL, schedule=ScheduleKind.DEPTH_FIRST,
    )
    schedule = build_schedule(ScheduleKind.HYBRID, 4, 16, 2, sequence_size)
    streams = build_streams(
        MODEL_6_6B, DGX1_CLUSTER_64, OUR_IMPLEMENTATION,
        prebuilt_schedule=schedule, **config_kw,
    )
    assert_parity(streams)


def test_label_free_program_same_times():
    """The search fast path (no labels) must not change any timing."""
    config = ParallelConfig(
        n_dp=2, n_pp=4, n_tp=2, microbatch_size=1, n_microbatches=8,
        n_loop=2, sharding=Sharding.FULL, schedule=ScheduleKind.BREADTH_FIRST,
    )
    cost = CostModel(
        spec=MODEL_6_6B, config=config, cluster=DGX1_CLUSTER_64,
        implementation=OUR_IMPLEMENTATION,
    )
    schedule = build_schedule(
        config.schedule, config.n_pp, config.n_microbatches, config.n_loop
    )
    labelled = run_streams(build_program(cost, schedule), record_events=False)
    bare = run_streams(
        build_program(cost, schedule, record_events=False),
        record_events=False,
    )
    assert bare.finish_times == labelled.finish_times
    assert bare.stream_busy == labelled.stream_busy
    assert bare.events == []


class TestDeadlockParity:
    def streams(self):
        return {
            (0, "c"): [
                Instruction(uid=("a",), duration=1.0, deps=(("b",),),
                            label="a-op"),
            ],
            (1, "c"): [
                Instruction(uid=("b",), duration=1.0, deps=(("a",),),
                            label="b-op"),
                Instruction(uid=("c",), duration=1.0),
            ],
        }

    def test_same_diagnostics_on_cycle(self):
        with pytest.raises(EngineDeadlock) as new_err:
            run_streams(self.streams())
        with pytest.raises(EngineDeadlock) as seed_err:
            run_streams_sweep(self.streams())
        assert str(new_err.value) == str(seed_err.value)
        assert "a-op" in str(new_err.value)
        assert "b-op" in str(new_err.value)

    def test_missing_dependency_reported(self):
        streams = {
            (0, "c"): [
                Instruction(uid=("x",), duration=1.0, deps=(("ghost",),)),
            ],
        }
        with pytest.raises(EngineDeadlock, match="ghost"):
            run_streams(streams)

    def test_partial_progress_before_deadlock(self):
        """Executable prefixes run before the deadlock is detected, and
        already-finished work is not listed as missing."""
        streams = {
            (0, "c"): [
                Instruction(uid=("ok",), duration=1.0, label="fine"),
                Instruction(uid=("stuck",), duration=1.0,
                            deps=(("ok",), ("ghost",)), label="stuck-op"),
            ],
        }
        with pytest.raises(EngineDeadlock) as err:
            run_streams(streams)
        message = str(err.value)
        assert "stuck-op" in message
        assert "ghost" in message
        assert "('ok',)" not in message
