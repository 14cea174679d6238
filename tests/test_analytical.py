"""Tests for the closed-form models: memory, network intensity, efficiency."""

from __future__ import annotations

import pytest

from repro.analytical.bubble import bubble_fraction
from repro.analytical.efficiency import theoretical_efficiency
from repro.analytical.memory import memory_model
from repro.analytical.network import (
    dp_intensity,
    dp_overlap_tokens,
    hardware_intensity,
    pp_intensity,
    tp_intensity,
)
from repro.hardware.gpu import A100
from repro.hardware.network import NVLINK_A100, NetworkSpec
from repro.implementations import MEGATRON_LM, OUR_IMPLEMENTATION
from repro.models.presets import GPT3_175B, MODEL_1T, MODEL_52B
from repro.parallel.config import ParallelConfig, ScheduleKind, Sharding
from repro.utils.units import GB


class TestBubble:
    def test_eq4_non_looped(self):
        assert bubble_fraction(4, 8) == pytest.approx(3 / 8)

    def test_eq9_looped(self):
        assert bubble_fraction(4, 8, 4) == pytest.approx(3 / 32)

    def test_no_pipeline_no_bubble(self):
        assert bubble_fraction(1, 1) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            bubble_fraction(0, 1)


class TestNetworkIntensities:
    def test_eq20_dp0(self):
        # I_0 = N_mb * S_mb * S_seq.
        assert dp_intensity(MODEL_52B, 2, 4, Sharding.NONE, ScheduleKind.GPIPE) == (
            4 * 2 * 1024
        )

    def test_eq24_fs_non_looped_independent_of_nmb(self):
        a = dp_intensity(MODEL_52B, 2, 4, Sharding.FULL, ScheduleKind.GPIPE)
        b = dp_intensity(MODEL_52B, 2, 32, Sharding.FULL, ScheduleKind.GPIPE)
        assert a == b == pytest.approx(2 / 3 * 2 * 1024)

    def test_eq26_fs_breadth_first_scales_with_batch(self):
        a = dp_intensity(
            MODEL_52B, 2, 4, Sharding.FULL, ScheduleKind.BREADTH_FIRST
        )
        assert a == pytest.approx(2 / 3 * 4 * 2 * 1024)

    def test_eq25_fs_depth_first(self):
        a = dp_intensity(
            MODEL_52B, 1, 32, Sharding.FULL, ScheduleKind.DEPTH_FIRST, n_pp=8
        )
        assert a == pytest.approx(2 / 3 * 8 * 1024)

    def test_overlap_windows_ordering(self):
        # Eq. (21)-(23): breadth-first > depth-first > non-looped.
        args = dict(microbatch_size=1, n_microbatches=32, seq_length=1024, n_pp=8)
        bf = dp_overlap_tokens(schedule=ScheduleKind.BREADTH_FIRST, **args)
        df = dp_overlap_tokens(schedule=ScheduleKind.DEPTH_FIRST, **args)
        nl = dp_overlap_tokens(schedule=ScheduleKind.GPIPE, **args)
        assert bf > df > nl

    def test_pp_intensity_gpt3_paper_value(self):
        # Appendix A.3.2: 7.1M for GPT-3, N_PP = 4, non-looped.
        assert pp_intensity(GPT3_175B, 4) == pytest.approx(7.1e6, rel=0.01)

    def test_pp_intensity_1t_maximally_looped(self):
        # Appendix A.3.2: ~614K for 1T maximally looped (N_PP=4, loop=32).
        assert pp_intensity(MODEL_1T, 4, 32) == pytest.approx(614e3, rel=0.05)

    def test_tp_intensity_gpt3_paper_value(self):
        # Appendix A.3.3: 3072 for GPT-3 at N_TP = 8.
        assert tp_intensity(GPT3_175B, 8) == pytest.approx(3072)

    def test_hardware_intensity_a100_nvlink(self):
        # Appendix A.3: I_NVLink = 520 flop/byte for the A100.
        assert hardware_intensity(A100, NVLINK_A100) == pytest.approx(558, rel=0.1)

    def test_hardware_intensity_a100_ib_paper(self):
        ib = NetworkSpec("IB (A100)", bandwidth=46.6e9, latency=0.0)
        assert hardware_intensity(A100, ib) == pytest.approx(6695, rel=0.02)


class TestEfficiency:
    def test_monotone_in_beta(self):
        utils = [
            theoretical_efficiency(b, 6.0, 8, 8, ScheduleKind.BREADTH_FIRST).utilization
            for b in (1, 2, 4, 8, 16)
        ]
        assert utils == sorted(utils)

    def test_breadth_beats_depth_beats_nonlooped(self):
        beta = 2.0
        bf = theoretical_efficiency(beta, 6.0, 8, 8, ScheduleKind.BREADTH_FIRST)
        df = theoretical_efficiency(beta, 6.0, 8, 8, ScheduleKind.DEPTH_FIRST)
        nl = theoretical_efficiency(beta, 6.0, 8, 1, ScheduleKind.GPIPE)
        assert bf.utilization >= df.utilization >= nl.utilization

    def test_pp_overlap_jump_past_beta_min(self):
        at_min = theoretical_efficiency(1.0, 6.0, 8, 8, ScheduleKind.BREADTH_FIRST)
        above = theoretical_efficiency(1.25, 6.0, 8, 8, ScheduleKind.BREADTH_FIRST)
        assert at_min.pp_exposed > 0
        assert above.pp_exposed == 0

    def test_no_overlap_panel_worse(self):
        with_overlap = theoretical_efficiency(
            4.0, 6.0, 8, 8, ScheduleKind.BREADTH_FIRST
        )
        without = theoretical_efficiency(
            4.0, 6.0, 8, 8, ScheduleKind.BREADTH_FIRST,
            dp_overlap=False, pp_overlap=False,
        )
        assert without.utilization < with_overlap.utilization

    def test_never_exceeds_one(self):
        for beta in (0.5, 1, 4, 64):
            point = theoretical_efficiency(beta, 0.0, 1, 1, None)
            assert point.utilization <= 1.0

    def test_below_beta_min_rejected(self):
        with pytest.raises(ValueError, match="beta_min"):
            theoretical_efficiency(0.05, 6.0, 8, 1, ScheduleKind.GPIPE)

    def test_pipeline_needs_schedule(self):
        with pytest.raises(ValueError, match="schedule"):
            theoretical_efficiency(1.0, 6.0, 8, 1, None)


def _config(**kw):
    base = dict(
        n_dp=1, n_pp=8, n_tp=8, microbatch_size=1, n_microbatches=8,
        n_loop=4, schedule=ScheduleKind.BREADTH_FIRST,
    )
    base.update(kw)
    return ParallelConfig(**base)


class TestMemoryModel:
    def test_52b_dp0_anchor(self):
        # Paper Table E.1: ~15-16.6 GB for 52B DP0 configurations.
        mem = memory_model(MODEL_52B, _config(), OUR_IMPLEMENTATION)
        assert 13 * GB < mem.total < 19 * GB

    def test_memory_min_accounting_ours(self):
        # Appendix E: ours saves exactly 16 B/param when fully sharded.
        mem = memory_model(MODEL_52B, _config(), OUR_IMPLEMENTATION)
        params_rank0 = (
            MODEL_52B.n_params / 8 + 0  # embedding already included below
        )
        saved = mem.total - mem.total_min
        # params on rank 0 per TP shard: 8 layers + embedding, /8.
        expected_params = (
            8 * MODEL_52B.params_per_layer + MODEL_52B.embedding_params
        ) / 8
        assert saved == pytest.approx(16 * expected_params, rel=1e-6)

    def test_megatron_saves_12_bytes(self):
        cfg = _config(schedule=ScheduleKind.DEPTH_FIRST)
        mem = memory_model(MODEL_52B, cfg, MEGATRON_LM)
        expected_params = (
            8 * MODEL_52B.params_per_layer + MODEL_52B.embedding_params
        ) / 8
        assert mem.total - mem.total_min == pytest.approx(
            12 * expected_params, rel=1e-6
        )

    def test_sharding_ordering(self):
        dp0 = memory_model(MODEL_52B, _config(n_dp=2, n_pp=4), OUR_IMPLEMENTATION)
        ps = memory_model(
            MODEL_52B, _config(n_dp=2, n_pp=4, sharding=Sharding.PARTIAL),
            OUR_IMPLEMENTATION,
        )
        fs = memory_model(
            MODEL_52B, _config(n_dp=2, n_pp=4, sharding=Sharding.FULL),
            OUR_IMPLEMENTATION,
        )
        assert fs.state < ps.state < dp0.state

    def test_gpipe_checkpoints_exceed_1f1b(self):
        gpipe = memory_model(
            MODEL_52B, _config(schedule=ScheduleKind.GPIPE, n_loop=1,
                               n_microbatches=32),
            OUR_IMPLEMENTATION,
        )
        one_f = memory_model(
            MODEL_52B, _config(schedule=ScheduleKind.ONE_F_ONE_B, n_loop=1,
                               n_microbatches=32),
            OUR_IMPLEMENTATION,
        )
        assert gpipe.checkpoints > one_f.checkpoints * 3

    def test_total_is_sum_of_parts(self):
        mem = memory_model(MODEL_52B, _config(), OUR_IMPLEMENTATION)
        assert mem.total == pytest.approx(
            mem.state + mem.checkpoints + mem.activations + mem.pp_buffers
        )

    def test_fs_memory_fits_1t_model_on_large_cluster(self):
        # Conclusion/A.2.1: DP_FS makes trillion-parameter models fit —
        # Eq. (15) gives ~7 GB of state for 1T at N_TP=8; with enough
        # data parallelism (total_min) the whole footprint fits a V100.
        cfg = _config(
            n_dp=2, n_pp=4, sharding=Sharding.FULL, n_loop=4,
            n_microbatches=8,
        )
        mem = memory_model(MODEL_1T, cfg, OUR_IMPLEMENTATION)
        assert mem.total_min < 32 * GB
        # The state term at N_DP -> inf matches Eq. (15)'s 7-8 GB.
        residual_state = mem.state - 16 * (
            MODEL_1T.n_params / (4 * 8)
        ) / 2
        assert residual_state < 10 * GB
