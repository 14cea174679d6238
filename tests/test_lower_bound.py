"""Tests for the analytical step-time lower bound (branch-and-bound).

The bound's one non-negotiable property: it never exceeds the simulated
step time.  If it did, the search could prune a candidate that would
have won, silently corrupting every Figure 7 / Appendix E result.  That
property, and the bound's equality with its scalar reference assembly,
are held across the real configuration spaces (hybrid axis included)
and every calibration a search can run with by
``tests/test_differential.py``.  The exactness tests here pin the
bound's arithmetic on cases small enough to compute by hand.
"""

from __future__ import annotations

import pytest

from repro.analytical.lower_bound import (
    FLOAT_MARGIN,
    step_time_lower_bound,
)
from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B
from repro.parallel.config import ParallelConfig, ScheduleKind
from repro.sim.calibration import DEFAULT_CALIBRATION
from repro.sim.cost import CostModel
from repro.sim.simulator import simulate


class TestExactness:
    def test_single_device_single_microbatch_is_tight(self):
        """Hand-computable case: one GPU, one micro-batch, no pipeline.

        The engine runs exactly three serial instructions — forward,
        backward, optimizer — so its makespan is their sum and the
        bound's compute certificate equals it (up to the deliberate
        float margin).
        """
        from repro.implementations import OUR_IMPLEMENTATION

        config = ParallelConfig(
            n_dp=1, n_pp=1, n_tp=1, microbatch_size=1, n_microbatches=1,
            schedule=ScheduleKind.BREADTH_FIRST,
        )
        cost = CostModel(
            spec=MODEL_6_6B, config=config, cluster=DGX1_CLUSTER_64,
            implementation=OUR_IMPLEMENTATION, calibration=DEFAULT_CALIBRATION,
        )
        expected_makespan = (
            cost.forward_time(0) + cost.backward_time(0)
            + cost.optimizer_time(0)
        )
        bound = step_time_lower_bound(cost)
        assert bound.compute_seconds == pytest.approx(
            expected_makespan, rel=1e-12
        )
        assert bound.step_time == pytest.approx(
            expected_makespan + DEFAULT_CALIBRATION.fixed_step_overhead,
            rel=1e-9,
        )

        result = simulate(
            MODEL_6_6B, config, DGX1_CLUSTER_64, cost=cost,
            implementation=cost.implementation,
        )
        assert bound.step_time <= result.step_time
        # Tight to within the float margin: nothing in this program can
        # overlap, so the bound *is* the step time.
        assert bound.step_time >= result.step_time * (1 - 10 * FLOAT_MARGIN)

    def test_fill_certificate_counted_for_pipelines(self):
        """With N_PP = 2 the last rank waits for stage 0's first forward
        plus one transfer — the bound must include that fill."""
        config = ParallelConfig(
            n_dp=1, n_pp=2, n_tp=1, microbatch_size=1, n_microbatches=4,
            n_loop=2, schedule=ScheduleKind.BREADTH_FIRST,
        )
        from repro.implementations import OUR_IMPLEMENTATION

        cost = CostModel(
            spec=MODEL_6_6B, config=config, cluster=DGX1_CLUSTER_64,
            implementation=OUR_IMPLEMENTATION, calibration=DEFAULT_CALIBRATION,
        )
        times = cost.stage_times()
        fill = times.forward[0] + times.pp_launch + times.pp_transfer
        assert cost.rank_fill_seconds(1) == pytest.approx(fill, rel=1e-12)
        rank1_floor = fill + cost.rank_compute_seconds(1)
        bound = step_time_lower_bound(cost)
        assert bound.compute_seconds >= rank1_floor * (1 - 1e-12)

    def test_margin_only_loosens(self):
        config = ParallelConfig(
            n_dp=1, n_pp=1, n_tp=1, microbatch_size=1, n_microbatches=2,
            schedule=ScheduleKind.BREADTH_FIRST,
        )
        from repro.implementations import OUR_IMPLEMENTATION

        cost = CostModel(
            spec=MODEL_6_6B, config=config, cluster=DGX1_CLUSTER_64,
            implementation=OUR_IMPLEMENTATION, calibration=DEFAULT_CALIBRATION,
        )
        bound = step_time_lower_bound(cost)
        assert bound.makespan < bound.compute_seconds


class TestDrainCertificate:
    """The drain-side (backward) fill certificate.

    Admissibility rides on the same property as every other certificate
    (``tests/test_differential.py`` samples it through the same
    ``step_time_lower_bound``); these tests pin the arithmetic and the
    *point* — that drain is what closes the gap in the previously
    loosest regimes (non-overlapping 1F1B/GPipe pipelines, whose
    tightness sat near 0.3x before it).
    """

    def _cost(self, schedule, impl, n_pp=4, n_mb=8, n_loop=1):
        config = ParallelConfig(
            n_dp=1, n_pp=n_pp, n_tp=1, microbatch_size=1,
            n_microbatches=n_mb, n_loop=n_loop, schedule=schedule,
        )
        return CostModel(
            spec=MODEL_6_6B, config=config, cluster=DGX1_CLUSTER_64,
            implementation=impl, calibration=DEFAULT_CALIBRATION,
        )

    def test_rank0_has_no_drain(self):
        from repro.implementations import MEGATRON_LM

        cost = self._cost(ScheduleKind.ONE_F_ONE_B, MEGATRON_LM)
        assert cost.rank_drain_seconds(0) == 0.0

    def test_drain_formula_by_hand(self):
        """Last rank of a 4-deep non-overlapping pipeline: after its own
        last backward, the gradient chain B(3)->B(2)->B(1)->B(0) still
        has to run — one backward per lower stage plus one transfer per
        hop (no launch padding: Megatron-LM's profile doesn't overlap
        sends, so transfers occupy the compute stream via the middle
        term and only the per-hop latency is left to the drain)."""
        from repro.implementations import MEGATRON_LM

        cost = self._cost(ScheduleKind.ONE_F_ONE_B, MEGATRON_LM)
        times = cost.stage_times()
        expected = (
            times.backward[2] + times.backward[1] + times.backward[0]
            + 3 * times.pp_transfer
        )
        assert cost.rank_drain_seconds(3) == pytest.approx(expected, rel=1e-12)

    def test_drain_includes_launch_when_overlapping(self):
        from repro.implementations import OUR_IMPLEMENTATION

        cost = self._cost(
            ScheduleKind.BREADTH_FIRST, OUR_IMPLEMENTATION, n_loop=2
        )
        times = cost.stage_times()
        expected = (
            sum(times.backward[s] + times.pp_launch for s in range(1, 3))
            + times.backward[0] + 3 * times.pp_transfer
        )
        assert cost.rank_drain_seconds(3) == pytest.approx(expected, rel=1e-12)

    def test_drain_binds_and_tightens_one_f_one_b(self):
        """On a deep 1F1B pipeline the drain certificate is the binding
        one, and it brings the bound within a few percent of the
        simulated step time — the regime that sat near 0.3x tightness
        when fill+compute was all the pipeline certificate knew."""
        from repro.implementations import MEGATRON_LM

        cost = self._cost(ScheduleKind.ONE_F_ONE_B, MEGATRON_LM, n_mb=16)
        bound = step_time_lower_bound(cost)
        assert bound.drain_seconds == max(
            bound.compute_seconds,
            bound.dp_seconds,
            bound.pp_seconds,
            bound.drain_seconds,
        )
        result = simulate(
            MODEL_6_6B, cost.config, DGX1_CLUSTER_64,
            implementation=cost.implementation, cost=cost,
        )
        assert bound.step_time <= result.step_time
        assert bound.step_time >= 0.95 * result.step_time
