"""Incremental re-simulation: bit-exact parity with full simulation.

:func:`repro.sim.simulator.simulate_delta` replays only the event-graph
suffix that differs from a sibling configuration's program.  Its
contract is absolute: the returned :class:`SimulationResult` equals
``simulate(...)``'s **bit-for-bit** — same step time, same per-stream
busy seconds, same throughput — whether the delta path replayed, fell
back, or had no base at all.  The parity suite here holds that across
all five schedule kinds plus the hybrid axis, for the sibling shape the
batched search actually exploits (sharding flips within one family) and
for deliberately hostile bases (different micro-batch counts) where the
dirty-closure must bail to the fallback.
"""

from __future__ import annotations

import pytest

from repro.analytical.memory import memory_model
from repro.core.schedules.base import build_schedule
from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.implementations import MEGATRON_LM, OUR_IMPLEMENTATION
from repro.models.presets import MODEL_6_6B
from repro.parallel.config import ParallelConfig, ScheduleKind, Sharding
from repro.sim.cost import CostModel
from repro.sim.engine import run_streams, run_streams_delta
from repro.sim.simulator import simulate, simulate_delta

SPEC = MODEL_6_6B
CLUSTER = DGX1_CLUSTER_64


def _config(schedule, sharding=Sharding.NONE, **over):
    kwargs = dict(
        n_dp=4, n_pp=2, n_tp=1, microbatch_size=2, n_microbatches=8,
        n_loop=2 if schedule in (ScheduleKind.BREADTH_FIRST,
                                 ScheduleKind.DEPTH_FIRST) else 1,
        sharding=sharding, schedule=schedule,
    )
    if schedule is ScheduleKind.HYBRID:
        kwargs["sequence_size"] = 2
    kwargs.update(over)
    return ParallelConfig(**kwargs)


def _impl_for(schedule):
    # Megatron's profile only supports DP0; sibling pairs need a
    # sharding flip, so the parity suite runs everything on ours.
    del schedule
    return OUR_IMPLEMENTATION


def _simulate_delta(config, *, base, implementation):
    """simulate_delta on the inputs the search builds for a candidate."""
    cost = CostModel(
        spec=SPEC, config=config, cluster=CLUSTER, implementation=implementation
    )
    schedule = build_schedule(
        config.schedule, config.n_pp, config.n_microbatches, config.n_loop,
        config.sequence_size,
    )
    memory = memory_model(SPEC, config, implementation, schedule)
    return simulate_delta(cost, schedule, memory, base=base)


ALL_SCHEDULES = list(ScheduleKind)


class TestParity:
    @pytest.mark.parametrize("schedule", ALL_SCHEDULES, ids=lambda s: s.name)
    def test_no_base_equals_simulate(self, schedule):
        config = _config(schedule)
        impl = _impl_for(schedule)
        expected = simulate(SPEC, config, CLUSTER, implementation=impl)
        result, _, replayed = _simulate_delta(
            config, base=None, implementation=impl
        )
        assert not replayed
        assert result == expected

    @pytest.mark.parametrize("schedule", ALL_SCHEDULES, ids=lambda s: s.name)
    def test_sibling_replay_is_bit_exact(self, schedule):
        """The search's sibling shape: same family, sharding flipped."""
        impl = _impl_for(schedule)
        base_config = _config(schedule, Sharding.NONE)
        sibling = _config(schedule, Sharding.PARTIAL)
        _, base, _ = _simulate_delta(
            base_config, base=None, implementation=impl
        )
        expected = simulate(SPEC, sibling, CLUSTER, implementation=impl)
        result, new_base, replayed = _simulate_delta(
            sibling, base=base, implementation=impl
        )
        assert result == expected  # every field, every float
        # The replay itself must have engaged for at least the DP-heavy
        # schedules; either way the result above is already bit-equal.
        if replayed:
            fresh = run_streams(new_base.streams, record_events=False)
            assert new_base.engine_result.makespan == fresh.makespan
            assert new_base.engine_result.stream_busy == fresh.stream_busy
            assert new_base.engine_result.finish_times == fresh.finish_times

    def test_replay_engages_for_gpipe_sharding_flip(self):
        """The headline pair (GPipe DP0 -> DP_PS) must actually take the
        delta path, not silently fall back: it is the sibling shape
        delta replay exists for (8 of the 1,644 fig7 simulations)."""
        impl = OUR_IMPLEMENTATION
        _, base, _ = _simulate_delta(
            _config(ScheduleKind.GPIPE, Sharding.NONE),
            base=None, implementation=impl,
        )
        _, _, replayed = _simulate_delta(
            _config(ScheduleKind.GPIPE, Sharding.PARTIAL),
            base=base, implementation=impl,
        )
        assert replayed

    def test_hostile_base_falls_back_and_stays_exact(self):
        """A base from a different micro-batch count shares almost no
        event-graph prefix: the dirty-closure must refuse to replay
        (fallback), and the result must still equal simulate()."""
        impl = OUR_IMPLEMENTATION
        _, base, _ = _simulate_delta(
            _config(ScheduleKind.GPIPE, n_microbatches=2),
            base=None, implementation=impl,
        )
        target = _config(ScheduleKind.GPIPE, n_microbatches=16)
        expected = simulate(SPEC, target, CLUSTER, implementation=impl)
        result, _, replayed = _simulate_delta(
            target, base=base, implementation=impl
        )
        assert not replayed
        assert result == expected

    def test_megatron_one_f_one_b_parity(self):
        """The other library profile (non-overlapping DP) through the
        no-base and self-base paths."""
        config = _config(ScheduleKind.ONE_F_ONE_B, Sharding.NONE)
        expected = simulate(SPEC, config, CLUSTER, implementation=MEGATRON_LM)
        result, base, _ = _simulate_delta(
            config, base=None, implementation=MEGATRON_LM
        )
        assert result == expected
        # Re-simulating the *same* config against its own base: zero
        # dirty instructions, everything reused, still bit-equal.
        result2, _, replayed = _simulate_delta(
            config, base=base, implementation=MEGATRON_LM
        )
        assert replayed
        assert result2 == expected


class TestEngineDelta:
    def test_identical_streams_reuse_everything(self):
        config = _config(ScheduleKind.BREADTH_FIRST)
        _, base, _ = _simulate_delta(
            config, base=None, implementation=OUR_IMPLEMENTATION
        )
        result = run_streams_delta(
            base.streams, base.streams, base.engine_result
        )
        assert result is not None
        assert result.makespan == base.engine_result.makespan
        assert result.finish_times == base.engine_result.finish_times
        assert result.stream_busy == base.engine_result.stream_busy

    def test_dirty_fraction_threshold_returns_none(self):
        config = _config(ScheduleKind.BREADTH_FIRST)
        _, base, _ = _simulate_delta(
            config, base=None, implementation=OUR_IMPLEMENTATION
        )
        # Perturb every duration: 100% dirty, way over any threshold.
        perturbed = {
            key: [
                type(instr)(
                    uid=instr.uid, duration=instr.duration + 1.0,
                    deps=instr.deps, label=instr.label,
                    category=instr.category,
                )
                for instr in queue
            ]
            for key, queue in base.streams.items()
        }
        assert (
            run_streams_delta(perturbed, base.streams, base.engine_result)
            is None
        )
