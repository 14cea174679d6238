"""Tests for the four schedule generators — the paper's core objects."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytical.bubble import bubble_fraction
from repro.core.ops import OpKind, backward, forward
from repro.core.schedules.base import (
    Schedule,
    build_schedule,
    dpfs_repetition_key,
    max_in_flight_closed,
    schedule_for,
)
from repro.core.validation import validate_schedule
from repro.parallel.config import ParallelConfig, ScheduleKind


def _kinds_of(order):
    return [(op.kind, op.microbatch, op.stage) for op in order]


class TestGPipe:
    def test_order_all_forward_then_backward(self):
        s = build_schedule(ScheduleKind.GPIPE, 2, 3)
        order = s.ops_of(0)
        assert _kinds_of(order) == [
            (OpKind.FORWARD, 0, 0), (OpKind.FORWARD, 1, 0), (OpKind.FORWARD, 2, 0),
            (OpKind.BACKWARD, 0, 0), (OpKind.BACKWARD, 1, 0), (OpKind.BACKWARD, 2, 0),
        ]

    def test_in_flight_is_nmb(self):
        s = build_schedule(ScheduleKind.GPIPE, 4, 8)
        assert s.peak_in_flight() == 8


class TestOneFOneB:
    def test_warmup_counts(self):
        s = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8)
        for rank in range(4):
            order = s.ops_of(rank)
            warmup = 0
            for op in order:
                if op.kind is OpKind.BACKWARD:
                    break
                warmup += 1
            assert warmup == 4 - rank  # N_PP - rank - 1 warmups + first steady F

    def test_in_flight_cap_is_npp_minus_rank(self):
        s = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 16)
        for rank in range(4):
            assert s.max_in_flight(rank) == 4 - rank

    def test_small_nmb(self):
        s = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 2)
        validate_schedule(s)

    def test_degenerates_to_alternating_on_one_device(self):
        s = build_schedule(ScheduleKind.ONE_F_ONE_B, 1, 3)
        kinds = [op.kind for op in s.ops_of(0)]
        assert kinds == [OpKind.FORWARD, OpKind.BACKWARD] * 3


class TestDepthFirst:
    def test_requires_multiple_of_npp(self):
        with pytest.raises(ValueError, match="N_mb % N_PP"):
            build_schedule(ScheduleKind.DEPTH_FIRST, 4, 6, 2)

    def test_chunk_major_warmup(self):
        # rank 0, N_PP=4, N_loop=2, N_mb=8: first four forwards are chunk 0
        # (stage 0) mbs 0-3, then chunk 1 (stage 4) mbs 0-3.
        s = build_schedule(ScheduleKind.DEPTH_FIRST, 4, 8, 2)
        order = s.ops_of(0)
        head = _kinds_of(order)[:8]
        assert head[:4] == [(OpKind.FORWARD, mb, 0) for mb in range(4)]
        assert head[4:8] == [(OpKind.FORWARD, mb, 4) for mb in range(4)]

    def test_in_flight_near_table_41_cap(self):
        # Table 4.1: depth-first holds ~N_layers + N_PP - 1 checkpoints;
        # in stage-microbatch units that's N_stages + N_PP - 1.
        s = build_schedule(ScheduleKind.DEPTH_FIRST, 4, 16, 4)
        cap = s.n_stages + s.n_pp - 1
        assert s.peak_in_flight() <= cap

    def test_nmb_equals_npp_special_case(self):
        s = build_schedule(ScheduleKind.DEPTH_FIRST, 4, 4, 2)
        validate_schedule(s)


class TestBreadthFirst:
    def test_stage_major_order(self):
        s = build_schedule(ScheduleKind.BREADTH_FIRST, 2, 3, 2)
        order = s.ops_of(0)
        assert _kinds_of(order) == [
            (OpKind.FORWARD, 0, 0), (OpKind.FORWARD, 1, 0), (OpKind.FORWARD, 2, 0),
            (OpKind.FORWARD, 0, 2), (OpKind.FORWARD, 1, 2), (OpKind.FORWARD, 2, 2),
            (OpKind.BACKWARD, 0, 2), (OpKind.BACKWARD, 1, 2), (OpKind.BACKWARD, 2, 2),
            (OpKind.BACKWARD, 0, 0), (OpKind.BACKWARD, 1, 0), (OpKind.BACKWARD, 2, 0),
        ]

    def test_backward_reverse_chunk_order(self):
        s = build_schedule(ScheduleKind.BREADTH_FIRST, 2, 2, 3)
        backwards = [op for op in s.ops_of(0) if op.kind is OpKind.BACKWARD]
        stages = [op.stage for op in backwards]
        assert stages == [4, 4, 2, 2, 0, 0]

    def test_appendix_c_accumulation(self):
        # N_PP = 1: all forwards then all backwards (Figure 9c/9d).
        s = build_schedule(ScheduleKind.BREADTH_FIRST, 1, 4, 1)
        kinds = [op.kind for op in s.ops_of(0)]
        assert kinds == [OpKind.FORWARD] * 4 + [OpKind.BACKWARD] * 4


class TestBubbleFormulas:
    @pytest.mark.parametrize("n_pp,n_mb,n_loop", [
        (4, 8, 1), (4, 8, 4), (8, 8, 8), (2, 6, 3), (8, 16, 2),
    ])
    def test_logical_bubble_matches_eq_4_and_9(self, n_pp, n_mb, n_loop):
        kind = ScheduleKind.BREADTH_FIRST if n_loop > 1 else ScheduleKind.GPIPE
        s = build_schedule(kind, n_pp, n_mb, n_loop)
        analysis = validate_schedule(s)
        assert analysis.bubble_fraction == pytest.approx(
            bubble_fraction(n_pp, n_mb, n_loop), rel=1e-9
        )

    def test_depth_first_same_bubble_as_breadth_first(self):
        bf = validate_schedule(build_schedule(ScheduleKind.BREADTH_FIRST, 4, 8, 4))
        df = validate_schedule(build_schedule(ScheduleKind.DEPTH_FIRST, 4, 8, 4))
        assert bf.makespan == pytest.approx(df.makespan)

    def test_looping_shrinks_bubble(self):
        non = validate_schedule(build_schedule(ScheduleKind.GPIPE, 8, 8))
        looped = validate_schedule(
            build_schedule(ScheduleKind.BREADTH_FIRST, 8, 8, 8)
        )
        assert looped.bubble_fraction < non.bubble_fraction / 4


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(ScheduleKind)),
    n_pp=st.integers(1, 6),
    n_mb_factor=st.integers(1, 5),
    n_loop=st.integers(1, 4),
)
def test_every_schedule_validates(kind, n_pp, n_mb_factor, n_loop):
    """Property: all generated schedules are complete and deadlock-free."""
    if not kind.is_looped:
        n_loop = 1
    n_mb = (
        n_mb_factor * n_pp
        if kind in (ScheduleKind.DEPTH_FIRST, ScheduleKind.HYBRID)
        else n_mb_factor + n_pp - 1
    )
    sequence_size = n_pp if kind is ScheduleKind.HYBRID else None
    schedule = build_schedule(kind, n_pp, n_mb, n_loop, sequence_size)
    analysis = validate_schedule(schedule)
    assert analysis.makespan > 0
    assert schedule.total_ops == 2 * n_mb * n_pp * n_loop


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(list(ScheduleKind)),
    n_pp=st.integers(1, 8),
    n_mb_factor=st.integers(1, 6),
    n_loop=st.integers(1, 4),
    seq_factor=st.integers(1, 3),
)
def test_max_in_flight_closed_matches_materialized(
    kind, n_pp, n_mb_factor, n_loop, seq_factor
):
    """Property: the closed form equals the materialized per-rank peak.

    This is what licenses :func:`repro.analytical.memory.memory_model` to
    price candidates without building a schedule (and transitively the
    search's byte-identity with the scalar reference in
    ``tests/test_batched_grid.py``).
    """
    if not kind.is_looped:
        n_loop = 1
    sequence_size = None
    if kind is ScheduleKind.HYBRID:
        sequence_size = n_pp * seq_factor
        n_mb = sequence_size * n_mb_factor
    elif kind is ScheduleKind.DEPTH_FIRST:
        n_mb = n_pp * n_mb_factor
    else:
        n_mb = n_mb_factor + n_pp - 1
    schedule = build_schedule(kind, n_pp, n_mb, n_loop, sequence_size)
    peaks = [
        max_in_flight_closed(kind, rank, n_pp, n_mb, n_loop, sequence_size)
        for rank in range(n_pp)
    ]
    for rank in range(n_pp):
        assert schedule.max_in_flight(rank) == peaks[rank]
    # Non-increasing in rank: earlier ranks hold more outstanding
    # micro-batches.  memory_model's closed-form path relies on this to
    # evaluate only the first rank of each parameter-profile group.
    assert all(peaks[r] >= peaks[r + 1] for r in range(n_pp - 1))


class TestScheduleContainer:
    def test_schedule_for_config(self):
        config = ParallelConfig(
            n_dp=1, n_pp=2, n_tp=1, microbatch_size=1, n_microbatches=4,
            n_loop=2, schedule=ScheduleKind.BREADTH_FIRST,
        )
        s = schedule_for(config)
        assert s.n_stages == 4

    def test_wrong_stream_count_rejected(self):
        with pytest.raises(ValueError, match="device streams"):
            Schedule(ScheduleKind.GPIPE, 2, 1, 1, ((forward(0, 0),),))

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="n_pp"):
            build_schedule(ScheduleKind.GPIPE, 0, 1)
        with pytest.raises(ValueError, match="n_loop == 1"):
            build_schedule(ScheduleKind.GPIPE, 2, 4, 2)

    def test_all_ops_iterates_everything(self):
        s = build_schedule(ScheduleKind.GPIPE, 2, 2)
        assert len(list(s.all_ops())) == s.total_ops


class TestRepetitionKey:
    def test_breadth_first_single_group(self):
        assert dpfs_repetition_key(ScheduleKind.BREADTH_FIRST, 7, 4) == 0

    def test_depth_first_sequences(self):
        keys = [dpfs_repetition_key(ScheduleKind.DEPTH_FIRST, mb, 4) for mb in range(8)]
        assert keys == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_non_looped_per_microbatch(self):
        assert dpfs_repetition_key(ScheduleKind.GPIPE, 5, 4) == 5


class TestOps:
    def test_op_str(self):
        assert str(forward(1, 2)) == "F(mb=1, s=2)"
        assert str(backward(0, 0)) == "B(mb=0, s=0)"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            forward(-1, 0)
        with pytest.raises(ValueError):
            backward(0, -1)

    def test_is_forward(self):
        assert forward(0, 0).is_forward
        assert not backward(0, 0).is_forward
