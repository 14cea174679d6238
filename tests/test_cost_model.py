"""Tests for the simulator cost model."""

from __future__ import annotations

import pytest

from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.implementations import MEGATRON_LM, OUR_IMPLEMENTATION
from repro.models.presets import MODEL_6_6B, MODEL_52B
from repro.parallel.config import ParallelConfig, ScheduleKind, Sharding
from repro.sim.cost import CostModel


def make_cost(spec=MODEL_52B, impl=OUR_IMPLEMENTATION, **kw):
    base = dict(
        n_dp=1, n_pp=8, n_tp=8, microbatch_size=1, n_microbatches=8,
        n_loop=4, schedule=ScheduleKind.BREADTH_FIRST,
    )
    base.update(kw)
    config = ParallelConfig(**base)
    return CostModel(
        spec=spec, config=config, cluster=DGX1_CLUSTER_64, implementation=impl
    )


class TestCompute:
    def test_backward_is_3x_forward_inner_stage(self):
        cost = make_cost(n_tp=1, n_dp=8)
        # Stage 1 has no head; backward = 2x + recompute 1x.
        assert cost.backward_time(1) == pytest.approx(3 * cost.forward_time(1))

    def test_head_stage_costs_more(self):
        cost = make_cost()
        assert cost.forward_time(cost.placement.n_stages - 1) > cost.forward_time(1)

    def test_tp_exposes_allreduce_time(self):
        with_tp = make_cost(n_tp=8)
        without = make_cost(n_tp=1, n_dp=8)
        # Per-GPU flops are divided by 8, but exposed TP comm is added.
        assert with_tp.forward_time(1) > without.forward_time(1) / 8

    def test_kernel_efficiency_bounds(self):
        cost = make_cost()
        assert 0 < cost.kernel_efficiency < 1

    def test_larger_microbatch_more_efficient(self):
        small = make_cost(microbatch_size=1)
        large = make_cost(microbatch_size=8)
        assert large.kernel_efficiency > small.kernel_efficiency


class TestNetworkVolumes:
    def test_pp_message_bytes(self):
        cost = make_cost()
        spec = MODEL_52B
        assert cost.pp_message_bytes == pytest.approx(
            2 * 1 * spec.seq_length * spec.hidden_size / 8
        )

    def test_reduce_allreduce_vs_scatter(self):
        dp0 = make_cost(n_dp=2, n_pp=4, sharding=Sharding.NONE)
        ps = make_cost(n_dp=2, n_pp=4, sharding=Sharding.PARTIAL)
        assert dp0.reduce_time(1) == pytest.approx(2 * ps.reduce_time(1), rel=0.01)

    def test_no_dp_traffic_single_replica(self):
        cost = make_cost(n_dp=1)
        assert cost.reduce_time(1) == 0.0

    def test_stage0_includes_embedding(self):
        cost = make_cost()
        assert cost.stage_params_local(0) > cost.stage_params_local(1)

    def test_rank_params_sum_to_model(self):
        cost = make_cost(n_tp=1, n_dp=8)
        total = sum(cost.rank_params_local(r) for r in range(8))
        assert total == pytest.approx(MODEL_52B.n_params, rel=1e-6)

    def test_post_gather_only_partial(self):
        ps = make_cost(n_dp=2, n_pp=4, sharding=Sharding.PARTIAL)
        dp0 = make_cost(n_dp=2, n_pp=4, sharding=Sharding.NONE)
        assert ps.post_step_gather_time(0) > 0
        assert dp0.post_step_gather_time(0) == 0.0

    def test_pp_launch_zero_without_overlap(self):
        megatron = make_cost(
            impl=MEGATRON_LM, schedule=ScheduleKind.DEPTH_FIRST,
        )
        assert megatron.pp_launch_overhead() == 0.0
        ours = make_cost()
        assert ours.pp_launch_overhead() > 0.0


class TestMetrics:
    def test_utilization_inverse_to_time(self):
        cost = make_cost()
        assert cost.utilization(2.0) == pytest.approx(cost.utilization(4.0) * 2)

    def test_throughput_is_util_times_peak(self):
        cost = make_cost()
        assert cost.throughput_per_gpu(3.0) == pytest.approx(
            cost.utilization(3.0) * 125e12
        )

    def test_invalid_step_time(self):
        with pytest.raises(ValueError, match="step_time"):
            make_cost().utilization(0.0)


class TestValidationErrors:
    def test_megatron_rejects_sharding(self):
        with pytest.raises(ValueError, match="does not support"):
            make_cost(
                impl=MEGATRON_LM,
                schedule=ScheduleKind.DEPTH_FIRST,
                n_dp=2,
                n_pp=4,
                sharding=Sharding.FULL,
            )

    def test_too_many_gpus_rejected(self):
        with pytest.raises(ValueError, match="GPUs"):
            make_cost(n_dp=4, n_pp=8, n_tp=8)

    def test_too_many_stages_rejected(self):
        with pytest.raises(ValueError, match="stages exceed"):
            make_cost(spec=MODEL_6_6B, n_loop=8)  # 64 stages > 32 layers
