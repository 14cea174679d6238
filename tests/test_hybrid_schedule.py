"""Tests for the hybrid depth/breadth schedule (Section 4.2 conjecture)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ops import OpKind
from repro.core.schedules.base import build_schedule
from repro.core.schedules.hybrid import hybrid_order
from repro.core.validation import validate_schedule
from repro.parallel.config import ScheduleKind
from repro.runtime.executor import PipelineTrainer
from repro.runtime.model import ModelConfig
from repro.runtime.reference import ReferenceTrainer


class TestStructure:
    def test_sequence_npp_equals_depth_first(self):
        hybrid = build_schedule(ScheduleKind.HYBRID, 4, 8, 2, 4)
        depth = build_schedule(ScheduleKind.DEPTH_FIRST, 4, 8, 2)
        assert hybrid.device_orders == depth.device_orders

    def test_single_sequence_is_forward_phase_first(self):
        s = build_schedule(ScheduleKind.HYBRID, 2, 4, 2, 4)
        kinds = [op.kind for op in s.ops_of(0)]
        n_fwd = 4 * 2
        assert all(k is OpKind.FORWARD for k in kinds[:n_fwd])

    def test_validates_for_intermediate_sequences(self):
        for seq in (4, 8, 16):
            s = build_schedule(ScheduleKind.HYBRID, 4, 16, 2, seq)
            analysis = validate_schedule(s)
            assert analysis.makespan > 0

    def test_sequence_below_npp_rejected(self):
        with pytest.raises(ValueError, match="sequence_size"):
            hybrid_order(0, 4, 8, 2, sequence_size=2)

    def test_nmb_multiple_required(self):
        with pytest.raises(ValueError, match="multiple"):
            hybrid_order(0, 2, 6, 2, sequence_size=4)

    def test_nmb_multiple_required_via_builder(self):
        # The documented "N_mb must be a multiple of sequence_size"
        # contract is enforced on the public builder too, not just the
        # per-rank order.
        with pytest.raises(ValueError, match="multiple"):
            build_schedule(ScheduleKind.HYBRID, 2, 6, 2, 4)

    def test_sequence_exceeding_nmb_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            hybrid_order(0, 2, 4, 2, sequence_size=8)

    def test_empty_batch_rejected(self):
        # Regression: n_microbatches=0 used to return a silently empty
        # order instead of raising.
        with pytest.raises(ValueError, match="n_microbatches"):
            hybrid_order(0, 2, 0, 2, sequence_size=2)

    def test_zero_loop_rejected(self):
        # Regression: n_loop=0 used to return a silently empty order.
        with pytest.raises(ValueError, match="n_loop"):
            hybrid_order(0, 2, 4, 0, sequence_size=2)

    def test_rank_range(self):
        with pytest.raises(ValueError, match="out of range"):
            hybrid_order(4, 4, 8, 2, sequence_size=4)


class TestMemoryInterpolation:
    def test_in_flight_grows_with_sequence_size(self):
        """The hybrid trades activation memory for slack: in-flight
        activations interpolate between depth-first and breadth-first."""
        n_pp, n_mb, n_loop = 4, 16, 2
        depth = build_schedule(ScheduleKind.DEPTH_FIRST, n_pp, n_mb, n_loop)
        breadth = build_schedule(ScheduleKind.BREADTH_FIRST, n_pp, n_mb, n_loop)
        peaks = [
            build_schedule(
                ScheduleKind.HYBRID, n_pp, n_mb, n_loop, seq
            ).peak_in_flight()
            for seq in (4, 8, 16)
        ]
        assert peaks[0] == depth.peak_in_flight()
        assert peaks == sorted(peaks)
        assert peaks[-1] <= breadth.peak_in_flight() + n_pp

    def test_same_bubble_as_depth_first(self):
        a = validate_schedule(build_schedule(ScheduleKind.HYBRID, 4, 16, 2, 8))
        b = validate_schedule(build_schedule(ScheduleKind.DEPTH_FIRST, 4, 16, 2))
        assert a.makespan == pytest.approx(b.makespan)


class TestRuntimeEquivalence:
    def test_hybrid_trains_identically_to_serial(self):
        config = ModelConfig(vocab=32, hidden=16, n_heads=2, n_layers=4, seq=6)
        tokens, targets = ReferenceTrainer.make_batch(config, batch=8)
        reference = ReferenceTrainer(config)
        ref_loss = reference.step(tokens, targets)

        schedule = build_schedule(ScheduleKind.HYBRID, 2, 8, 2, 4)
        trainer = PipelineTrainer(config, schedule)
        result = trainer.step(tokens, targets)
        assert result.loss == pytest.approx(ref_loss, abs=1e-9)


@settings(max_examples=30)
@given(
    n_pp=st.integers(2, 4),
    n_loop=st.integers(1, 3),
    seq_mult=st.integers(1, 3),
    groups=st.integers(1, 3),
)
def test_hybrid_always_valid_property(n_pp, n_loop, seq_mult, groups):
    seq = n_pp * seq_mult
    n_mb = seq * groups
    schedule = build_schedule(ScheduleKind.HYBRID, n_pp, n_mb, n_loop, seq)
    analysis = validate_schedule(schedule)
    assert schedule.total_ops == 2 * n_mb * n_pp * n_loop
    assert analysis.makespan > 0
