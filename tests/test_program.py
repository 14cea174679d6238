"""Tests for the schedule-to-instruction-stream lowering."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.schedules.base import build_schedule
from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.implementations import MEGATRON_LM, OUR_IMPLEMENTATION
from repro.models.presets import MODEL_6_6B
from repro.parallel.config import ParallelConfig, ScheduleKind, Sharding
from repro.sim.cost import CostModel
from repro.sim.program import COMPUTE, DP, PP, build_program, lower_program


def make_cost(impl=OUR_IMPLEMENTATION, **kw):
    base = dict(
        n_dp=2, n_pp=2, n_tp=2, microbatch_size=1, n_microbatches=4,
        n_loop=2, schedule=ScheduleKind.BREADTH_FIRST,
    )
    base.update(kw)
    config = ParallelConfig(**base)
    cost = CostModel(
        spec=MODEL_6_6B, config=config, cluster=DGX1_CLUSTER_64,
        implementation=impl,
    )
    schedule = build_schedule(
        config.schedule, config.n_pp, config.n_microbatches, config.n_loop
    )
    return cost, schedule


def make_streams(impl=OUR_IMPLEMENTATION, **kw):
    cost, schedule = make_cost(impl, **kw)
    return build_program(cost, schedule), cost.config, schedule


def uids_by_prefix(queue, prefix):
    return [i for i in queue if i.uid[0].startswith(prefix)]


class TestStreamStructure:
    def test_ours_has_three_streams_per_rank(self):
        streams, config, _ = make_streams()
        for rank in range(config.n_pp):
            assert (rank, COMPUTE) in streams
            assert (rank, PP) in streams
            assert (rank, DP) in streams

    def test_megatron_has_only_compute_stream(self):
        streams, config, _ = make_streams(
            impl=MEGATRON_LM, schedule=ScheduleKind.DEPTH_FIRST,
            sharding=Sharding.NONE,
        )
        assert set(streams) == {(r, COMPUTE) for r in range(config.n_pp)}

    def test_compute_ops_complete(self):
        streams, config, schedule = make_streams()
        n_compute = sum(
            sum(1 for i in q if i.uid[0] in ("F", "B"))
            for k, q in streams.items() if k[1] == COMPUTE
        )
        assert n_compute == schedule.total_ops

    def test_optimizer_last_on_compute(self):
        streams, config, _ = make_streams()
        for rank in range(config.n_pp):
            assert streams[(rank, COMPUTE)][-1].uid == ("OPT", rank)

    def test_megatron_serial_dp_block(self):
        streams, config, _ = make_streams(
            impl=MEGATRON_LM, schedule=ScheduleKind.ONE_F_ONE_B, n_loop=1,
        )
        q = streams[(0, COMPUTE)]
        assert q[-2].uid == ("DPALL", 0)
        assert q[-1].uid == ("OPT", 0)


class TestFullShardingRepetition:
    def test_breadth_first_gathers_once_per_stage(self):
        streams, config, _ = make_streams(sharding=Sharding.FULL)
        # 2 stages per rank, forward+backward gathers, head+bulk pairs
        # only for multi-layer stages (6.6B: 32 layers / 4 stages = 8).
        dp_q = streams[(0, DP)]
        gf_heads = [i for i in dp_q if i.uid[0] == "GFH"]
        gb_heads = [i for i in dp_q if i.uid[0] == "GBH"]
        assert len(gf_heads) == 2
        assert len(gb_heads) == 2

    def test_gpipe_gathers_once_per_microbatch(self):
        streams, config, _ = make_streams(
            sharding=Sharding.FULL, schedule=ScheduleKind.GPIPE, n_loop=1,
        )
        dp_q = streams[(0, DP)]
        gf_heads = [i for i in dp_q if i.uid[0] == "GFH"]
        assert len(gf_heads) == config.n_microbatches

    def test_depth_first_like_accumulation_on_one_device(self):
        streams, config, _ = make_streams(
            n_pp=1, n_tp=8, n_dp=4, sharding=Sharding.FULL,
            schedule=ScheduleKind.ONE_F_ONE_B, n_loop=1, n_microbatches=4,
        )
        dp_q = streams[(0, DP)]
        # Per-microbatch repetition: 4 forward + 4 backward gathers.
        assert len([i for i in dp_q if i.uid[0] == "GFH"]) == 4
        assert len([i for i in dp_q if i.uid[0] == "GBH"]) == 4

    def test_dp0_has_no_gathers(self):
        streams, _, _ = make_streams(sharding=Sharding.NONE)
        dp_q = streams[(0, DP)]
        assert not [i for i in dp_q if i.uid[0].startswith("G")]


class TestReductions:
    def test_one_reduce_per_stage_dp0(self):
        streams, config, _ = make_streams(sharding=Sharding.NONE)
        dp_q = streams[(0, DP)]
        reds = [i for i in dp_q if i.uid[0].startswith("RED")]
        # Two stages on rank 0, each split into bulk+head.
        assert len(reds) == 4

    def test_dp0_gpipe_reduces_once_per_stage_not_per_microbatch(self):
        # Regression: with DP0 gradients accumulate locally, so the
        # per-micro-batch DP_FS repetition key must not leak into the
        # reduction emission (it once inflated GPipe's DP traffic 16x).
        streams, config, _ = make_streams(
            sharding=Sharding.NONE, schedule=ScheduleKind.GPIPE, n_loop=1,
            n_microbatches=8,
        )
        dp_q = streams[(0, DP)]
        red_heads = [i for i in dp_q if i.uid[0] == "REDH"]
        assert len(red_heads) == 1  # one stage on rank 0 -> one reduction

    def test_post_gather_only_for_partial(self):
        streams, _, _ = make_streams(
            sharding=Sharding.PARTIAL, schedule=ScheduleKind.GPIPE, n_loop=1,
        )
        dp_q = streams[(0, DP)]
        assert dp_q[-1].uid == ("POST", 0)
        streams0, _, _ = make_streams(sharding=Sharding.NONE)
        assert streams0[(0, DP)][-1].uid[0] != "POST"

    def test_reduce_head_depends_on_last_backward(self):
        streams, config, schedule = make_streams(sharding=Sharding.NONE)
        dp_q = streams[(0, DP)]
        head = next(i for i in dp_q if i.uid[0] == "REDH")
        # Head must depend on a backward op of the same stage.
        assert any(dep[0] == "B" for dep in head.deps)


def _make_negative(monkeypatch, table: str, column: str, value: float) -> None:
    """Make ``CostModel.<table>()`` report ``value`` for stage 0's ``column``."""
    priced = getattr(CostModel, table)

    def negative_first_stage(self):
        times = priced(self)
        values = (value,) + getattr(times, column)[1:]
        return dataclasses.replace(times, **{column: values})

    monkeypatch.setattr(CostModel, table, negative_first_stage)


class TestDurationChecks:
    @pytest.mark.parametrize(
        "table, column, priced",
        [
            pytest.param("stage_times", "forward", False, id="stage_times-forward"),
            pytest.param("comm_times", "reduce", False, id="comm_times-reduce"),
            pytest.param(
                "stage_times", "forward", True, id="stage_times-forward-priced"
            ),
            pytest.param(
                "comm_times", "reduce", True, id="comm_times-reduce-priced"
            ),
        ],
    )
    def test_negative_duration_is_rejected(
        self, monkeypatch, table, column, priced
    ):
        # The builder checks each distinct duration once per build, with
        # Instruction's own message, instead of once per instruction; so
        # does pricing a lowering.
        cost, schedule = make_cost()
        kwargs = {}
        if priced:
            kwargs = dict(
                record_events=False, lowering=lower_program(cost, schedule)
            )
        _make_negative(monkeypatch, table, column, -1.0)
        with pytest.raises(ValueError, match="duration must be >= 0"):
            build_program(cost, schedule, **kwargs)

    @pytest.mark.parametrize("priced", [False, True], ids=["fused", "priced"])
    def test_nan_duration_is_rejected(self, monkeypatch, priced):
        cost, schedule = make_cost()
        kwargs = {}
        if priced:
            kwargs = dict(
                record_events=False, lowering=lower_program(cost, schedule)
            )
        _make_negative(monkeypatch, "stage_times", "forward", float("nan"))
        with pytest.raises(ValueError, match="duration must be >= 0, got nan"):
            build_program(cost, schedule, **kwargs)

    def test_both_paths_report_the_first_negative_duration(self, monkeypatch):
        # Forwards are checked before reductions, on either path (stage 0
        # sends, so its forward carries the launch overhead).
        cost, schedule = make_cost()
        lowering = lower_program(cost, schedule)
        _make_negative(monkeypatch, "stage_times", "forward", -1.0)
        _make_negative(monkeypatch, "comm_times", "reduce", -2.0)
        for kwargs in ({}, {"record_events": False, "lowering": lowering}):
            with pytest.raises(ValueError, match=r"got -0\.99999"):
                build_program(cost, schedule, **kwargs)


class TestTransfers:
    def test_ours_transfers_on_pp_stream(self):
        streams, config, schedule = make_streams()
        pp_q = streams[(0, PP)]
        assert all(i.uid[0] in ("XA", "XG") for i in pp_q)
        # Stage 0 and 2 on rank 0: XA from both (stage 3 is last, no XA
        # from it), XG from stage 2 only (stage 0 is first).
        xa = [i for i in pp_q if i.uid[0] == "XA"]
        xg = [i for i in pp_q if i.uid[0] == "XG"]
        assert len(xa) == 2 * config.n_microbatches
        assert len(xg) == config.n_microbatches

    def test_megatron_transfers_inline(self):
        streams, config, _ = make_streams(
            impl=MEGATRON_LM, schedule=ScheduleKind.ONE_F_ONE_B, n_loop=1,
            sharding=Sharding.NONE,
        )
        q = streams[(0, COMPUTE)]
        assert any(i.uid[0] == "XA" for i in q)

    def test_no_transfer_for_single_stage(self):
        streams, _, _ = make_streams(
            n_pp=1, n_tp=8, n_dp=4, schedule=ScheduleKind.BREADTH_FIRST,
            n_loop=1,
        )
        assert not [i for i in streams[(0, PP)] if True]


def _as_tuples(streams):
    return [(key, [tuple(i) for i in queue]) for key, queue in streams.items()]


class TestPricedLowering:
    """Pricing a lowering refuses what it cannot price; that it equals a
    fresh build is a property of ``tests/test_differential.py``."""

    def test_rejects_a_labelled_build(self):
        cost, schedule = make_cost()
        lowering = lower_program(cost, schedule)
        with pytest.raises(ValueError, match="record_events=False"):
            build_program(cost, schedule, lowering=lowering)
        with pytest.raises(ValueError, match="record_events=False"):
            build_program(
                cost, schedule, record_events=True, lowering=lowering
            )

    @pytest.mark.parametrize(
        "other",
        [
            dict(n_dp=1),
            dict(sharding=Sharding.FULL),
            dict(sharding=Sharding.PARTIAL),
            dict(impl=MEGATRON_LM, sharding=Sharding.NONE),
        ],
        ids=["n_dp", "fully-sharded", "partially-sharded", "megatron"],
    )
    def test_rejects_a_cost_with_another_stream_layout(self, other):
        cost, schedule = make_cost(sharding=Sharding.NONE)
        lowering = lower_program(cost, schedule)
        other_cost, other_schedule = make_cost(
            **{"sharding": Sharding.NONE, **other}
        )
        assert other_schedule == schedule
        with pytest.raises(ValueError, match="another stream layout"):
            build_program(
                other_cost, schedule, record_events=False, lowering=lowering
            )

    def test_rejects_a_cost_with_other_layers_per_stage(self):
        cost, schedule = make_cost(n_loop=4, n_pp=2)
        lowering = lower_program(cost, schedule)
        spec = dataclasses.replace(MODEL_6_6B, n_layers=9)
        other = dataclasses.replace(cost, spec=spec)
        with pytest.raises(ValueError, match="another stream layout"):
            build_program(other, schedule, record_events=False, lowering=lowering)

    def test_rejects_another_schedule(self):
        cost, schedule = make_cost()
        lowering = lower_program(cost, schedule)
        _, other = make_cost(n_microbatches=8)
        with pytest.raises(ValueError, match="another schedule"):
            build_program(cost, other, record_events=False, lowering=lowering)
        # An equal schedule built again is the same schedule.
        again = build_schedule(
            schedule.kind, schedule.n_pp, schedule.n_microbatches,
            schedule.n_loop,
        )
        assert again is not schedule
        assert _as_tuples(
            build_program(cost, again, record_events=False, lowering=lowering)
        ) == _as_tuples(build_program(cost, schedule, record_events=False))
