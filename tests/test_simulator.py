"""Tests for the end-to-end step simulator — the paper's key orderings."""

from __future__ import annotations

import dataclasses

import pytest

from repro.fit import anchor_environment
from repro.hardware.cluster import DGX1_CLUSTER_64, DGX1_CLUSTER_64_ETHERNET
from repro.implementations import (
    MEGATRON_LM,
    OUR_IMPLEMENTATION,
    default_implementation_for,
)
from repro.models.presets import MODEL_6_6B, MODEL_52B
from repro.paper_data import PAPER_ANCHORS
from repro.parallel.config import ParallelConfig, ScheduleKind, Sharding
from repro.sim.calibration import DEFAULT_CALIBRATION
from repro.sim.cost import CostModel
from repro.sim.simulator import simulate


def sim(spec=MODEL_52B, cluster=DGX1_CLUSTER_64, **kw):
    base = dict(
        n_dp=1, n_pp=8, n_tp=8, microbatch_size=1, n_microbatches=8,
        n_loop=4, schedule=ScheduleKind.BREADTH_FIRST,
    )
    base.update(kw)
    return simulate(spec, ParallelConfig(**base), cluster)


class TestBasicProperties:
    def test_utilization_in_range(self):
        r = sim()
        assert 0 < r.utilization < 1

    def test_step_time_exceeds_compute_lower_bound(self):
        r = sim()
        assert r.step_time >= r.compute_busy

    def test_deterministic(self):
        assert sim().step_time == sim().step_time

    def test_throughput_consistent_with_utilization(self):
        r = sim()
        assert r.throughput_per_gpu == pytest.approx(r.utilization * 125e12)

    def test_timeline_recorded_on_request(self):
        config = ParallelConfig(
            n_dp=1, n_pp=2, n_tp=8, microbatch_size=1, n_microbatches=4,
            n_loop=2, schedule=ScheduleKind.BREADTH_FIRST,
        )
        r = simulate(MODEL_52B, config, DGX1_CLUSTER_64, record_events=True)
        assert len(r.timeline) > 0
        assert any(e.category == "optimizer" for e in r.timeline)

    def test_timeline_empty_by_default(self):
        assert sim().timeline == ()

    def test_memory_breakdown_attached(self):
        r = sim()
        assert r.memory.total > 0
        assert r.memory.total_min <= r.memory.total

    def test_default_implementation_per_schedule(self):
        assert sim().implementation_name == OUR_IMPLEMENTATION.name
        r = sim(schedule=ScheduleKind.DEPTH_FIRST)
        assert r.implementation_name == MEGATRON_LM.name


class TestBubbleFraction:
    """The bubble is measured against the engine makespan, not the step
    time: the fixed step overhead is not pipeline idle time."""

    def test_bubble_uses_makespan(self):
        r = sim()
        makespan = r.step_time - DEFAULT_CALIBRATION.fixed_step_overhead
        assert r.bubble_fraction == pytest.approx(
            1.0 - r.compute_busy / makespan
        )

    def test_bubble_independent_of_fixed_overhead(self):
        config = ParallelConfig(
            n_dp=1, n_pp=8, n_tp=8, microbatch_size=1, n_microbatches=8,
            n_loop=4, schedule=ScheduleKind.BREADTH_FIRST,
        )
        base = simulate(MODEL_52B, config, DGX1_CLUSTER_64)
        slow_steps = simulate(
            MODEL_52B, config, DGX1_CLUSTER_64,
            calibration=dataclasses.replace(
                DEFAULT_CALIBRATION, fixed_step_overhead=1.0
            ),
        )
        assert slow_steps.step_time > base.step_time
        assert slow_steps.bubble_fraction == pytest.approx(
            base.bubble_fraction
        )

    def test_bubble_in_unit_range(self):
        r = sim()
        assert 0.0 <= r.bubble_fraction < 1.0


class TestPaperOrderings:
    """The qualitative results of Figures 5 and 6 must hold."""

    def test_breadth_first_beats_non_looped_small_batch(self):
        bf = sim(schedule=ScheduleKind.BREADTH_FIRST, n_loop=4, n_microbatches=8)
        gpipe = sim(schedule=ScheduleKind.GPIPE, n_loop=1, n_microbatches=8)
        assert bf.utilization > gpipe.utilization * 1.2

    def test_breadth_first_beats_depth_first_small_batch(self):
        bf = sim(schedule=ScheduleKind.BREADTH_FIRST, n_loop=4, n_microbatches=8)
        df = sim(schedule=ScheduleKind.DEPTH_FIRST, n_loop=4, n_microbatches=8)
        assert bf.utilization > df.utilization

    def test_depth_first_degrades_at_high_loop_large_batch(self):
        # Figure 6b: the depth-first schedule loses utilization as N_loop
        # grows (exposed PP latency), while breadth-first does not.
        df2 = sim(schedule=ScheduleKind.DEPTH_FIRST, n_loop=2, n_microbatches=64)
        df8 = sim(schedule=ScheduleKind.DEPTH_FIRST, n_loop=8, n_microbatches=64)
        assert df8.utilization < df2.utilization
        bf2 = sim(schedule=ScheduleKind.BREADTH_FIRST, n_loop=2, n_microbatches=64)
        bf8 = sim(schedule=ScheduleKind.BREADTH_FIRST, n_loop=8, n_microbatches=64)
        assert bf8.utilization >= bf2.utilization * 0.97

    def test_looping_helps_at_small_batch(self):
        bf1 = sim(schedule=ScheduleKind.BREADTH_FIRST, n_loop=1, n_microbatches=16)
        bf8 = sim(schedule=ScheduleKind.BREADTH_FIRST, n_loop=8, n_microbatches=16)
        assert bf8.utilization > bf1.utilization

    def test_utilization_grows_with_batch(self):
        small = sim(n_microbatches=8)
        large = sim(n_microbatches=64)
        assert large.utilization > small.utilization

    def test_gpipe_and_1f1b_close_with_same_impl(self):
        # Paper: same computational efficiency; small gap is Megatron's
        # missing overlap.  With the same implementation they should agree.
        gpipe = simulate(
            MODEL_52B,
            ParallelConfig(
                n_dp=1, n_pp=8, n_tp=8, microbatch_size=1, n_microbatches=16,
                schedule=ScheduleKind.GPIPE,
            ),
            DGX1_CLUSTER_64,
            implementation=OUR_IMPLEMENTATION,
        )
        one_f = simulate(
            MODEL_52B,
            ParallelConfig(
                n_dp=1, n_pp=8, n_tp=8, microbatch_size=1, n_microbatches=16,
                schedule=ScheduleKind.ONE_F_ONE_B,
            ),
            DGX1_CLUSTER_64,
            implementation=OUR_IMPLEMENTATION,
        )
        assert one_f.utilization == pytest.approx(gpipe.utilization, rel=0.02)


class TestShardingAndNetworks:
    def test_full_sharding_cuts_memory(self):
        dp0 = sim(n_dp=2, n_pp=4, sharding=Sharding.NONE)
        fs = sim(n_dp=2, n_pp=4, sharding=Sharding.FULL)
        assert fs.memory.total < dp0.memory.total * 0.85

    def test_ethernet_slower_than_infiniband(self):
        ib = sim(
            spec=MODEL_6_6B, n_dp=8, n_pp=4, n_tp=2, n_microbatches=8,
        )
        eth = sim(
            spec=MODEL_6_6B, cluster=DGX1_CLUSTER_64_ETHERNET,
            n_dp=8, n_pp=4, n_tp=2, n_microbatches=8,
        )
        assert eth.utilization < ib.utilization

    def test_breadth_first_fs_beats_per_microbatch_fs(self):
        # Eq. (24) vs (26): per-microbatch DP_FS repetition (GPipe) costs
        # far more network time than per-pass (breadth-first).
        bf = sim(
            spec=MODEL_6_6B, n_dp=8, n_pp=4, n_tp=2, n_loop=4,
            n_microbatches=8, sharding=Sharding.FULL,
        )
        gpipe = sim(
            spec=MODEL_6_6B, n_dp=8, n_pp=4, n_tp=2, n_loop=1,
            n_microbatches=8, sharding=Sharding.FULL,
            schedule=ScheduleKind.GPIPE,
        )
        assert bf.dp_comm_busy < gpipe.dp_comm_busy / 2
        assert bf.utilization > gpipe.utilization


class TestAnchors:
    """Absolute throughputs stay within the calibrated band of Appendix E."""

    def test_52b_breadth_first_small_batch(self):
        # Paper: 42.33 Tflop/s at B=9, N_loop=8 (Table E.1).
        r = sim(n_loop=8, n_microbatches=9)
        assert 38 < r.throughput_per_gpu / 1e12 < 58

    def test_52b_non_looped_small_batch(self):
        # Paper: 26.04 Tflop/s at B=8 (Table E.1).
        r = sim(schedule=ScheduleKind.GPIPE, n_loop=1, n_microbatches=8)
        assert 20 < r.throughput_per_gpu / 1e12 < 40

    def test_52b_memory_anchor(self):
        # Paper: ~14.7-16 GB for the B=9 loop-8 DP0 config.
        r = sim(n_loop=8, n_microbatches=9)
        assert 12 < r.memory.total / 2**30 < 20


class TestPrebuiltCost:
    """A ``cost`` passed to :func:`simulate` must match the other inputs."""

    #: E.2 breadth-first, B=256, fully sharded (6.6B, InfiniBand), with
    #: three times the default fixed step overhead.
    ANCHOR = PAPER_ANCHORS[8]
    CALIBRATION = dataclasses.replace(
        DEFAULT_CALIBRATION,
        fixed_step_overhead=3 * DEFAULT_CALIBRATION.fixed_step_overhead,
    )

    def _cost(self, **changes):
        spec, cluster = anchor_environment(self.ANCHOR)
        inputs = dict(
            spec=spec,
            config=self.ANCHOR.config,
            cluster=cluster,
            implementation=default_implementation_for(
                self.ANCHOR.config.schedule
            ),
            calibration=self.CALIBRATION,
        )
        inputs.update(changes)
        return CostModel(**inputs)

    def _simulate(self, cost=None):
        spec, cluster = anchor_environment(self.ANCHOR)
        return simulate(
            spec, self.ANCHOR.config, cluster,
            calibration=self.CALIBRATION, cost=cost,
        )

    def test_a_matching_cost_gives_the_same_result(self):
        # Equal inputs that are not the same objects are accepted.
        cost = self._cost(
            calibration=dataclasses.replace(self.CALIBRATION),
            config=dataclasses.replace(self.ANCHOR.config),
        )
        assert cost.calibration is not self.CALIBRATION
        assert self._simulate(cost) == self._simulate()
        assert self._simulate().step_time == pytest.approx(3.7073, abs=1e-4)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("calibration", DEFAULT_CALIBRATION),
            (
                "config",
                dataclasses.replace(
                    PAPER_ANCHORS[8].config, sharding=Sharding.PARTIAL
                ),
            ),
            (
                "spec",
                dataclasses.replace(
                    MODEL_6_6B, seq_length=2 * MODEL_6_6B.seq_length
                ),
            ),
            ("cluster", DGX1_CLUSTER_64_ETHERNET),
        ],
        ids=["calibration", "config", "spec", "cluster"],
    )
    def test_a_cost_built_for_other_inputs_is_rejected(self, field, value):
        cost = self._cost(**{field: value})
        with pytest.raises(ValueError, match=f"another {field} "):
            self._simulate(cost)
