"""Tests for the analytical step-time lower bound (branch-and-bound).

The bound's one non-negotiable property: it never exceeds the simulated
step time.  If it did, the search could prune a candidate that would
have won, silently corrupting every Figure 7 / Appendix E result.  The
property test hammers exactly that over a randomized sample of the real
configuration spaces (hybrid axis included), under every calibration a
search can run with: the hand-tuned default, the committed fit and
points inside the fitter's parameter box.  The exactness test pins the
bound's arithmetic on a case small enough to compute by hand.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytical.lower_bound import (
    FLOAT_MARGIN,
    step_time_lower_bound,
)
from repro.fit import FIT_PARAMETERS, load_calibration
from repro.hardware.cluster import DGX1_CLUSTER_64, DGX1_CLUSTER_64_ETHERNET
from repro.models.presets import MODEL_6_6B, MODEL_52B
from repro.parallel.config import Method, ParallelConfig, ScheduleKind
from repro.search.cell import SearchSettings
from repro.search.space import configuration_space
from repro.sim.calibration import DEFAULT_CALIBRATION
from repro.sim.cost import CostModel
from repro.sim.simulator import simulate

_CLUSTERS = {
    "infiniband": DGX1_CLUSTER_64,
    "ethernet": DGX1_CLUSTER_64_ETHERNET,
}
_SPECS = {"52B": MODEL_52B, "6.6B": MODEL_6_6B}

#: What ``--calibration`` searches run with: the default, the committed
#: fit, or any point of the box the fitter searches.
_CALIBRATIONS = st.one_of(
    st.just(DEFAULT_CALIBRATION),
    st.just(
        load_calibration(
            Path(__file__).resolve().parent.parent / "fitted_calibration.json"
        )
    ),
    st.tuples(
        *(st.floats(p.lower, p.upper) for p in FIT_PARAMETERS)
    ).map(
        lambda values: replace(
            DEFAULT_CALIBRATION,
            **{p.name: v for p, v in zip(FIT_PARAMETERS, values)},
        )
    ),
)


@lru_cache(maxsize=None)
def _space(spec_name: str, cluster_name: str, method: Method, batch: int):
    """Materialized candidate list for one cell (hybrid axis on)."""
    return tuple(
        configuration_space(
            method,
            _SPECS[spec_name],
            _CLUSTERS[cluster_name],
            batch,
            settings=SearchSettings(include_hybrid=True),
        )
    )


def _cost_for(
    spec, cluster, config, impl, calibration=DEFAULT_CALIBRATION
) -> CostModel:
    return CostModel(
        spec=spec,
        config=config,
        cluster=cluster,
        implementation=impl,
        calibration=calibration,
    )


class TestBoundNeverExceedsSimulation:
    @settings(max_examples=120, deadline=None)
    @given(
        spec_name=st.sampled_from(sorted(_SPECS)),
        cluster_name=st.sampled_from(sorted(_CLUSTERS)),
        method=st.sampled_from(list(Method)),
        batch=st.sampled_from([8, 32, 64, 96]),
        pick=st.integers(min_value=0, max_value=10**9),
        calibration=_CALIBRATIONS,
    )
    def test_lower_bound_below_step_time(
        self, spec_name, cluster_name, method, batch, pick, calibration
    ):
        """Property: bound <= simulate(...).step_time across the space.

        Samples uniformly from the actual enumerated candidates —
        including hybrid-schedule ones — so the property covers exactly
        what the branch-and-bound stage can ever see, under any
        calibration a search may prune with.
        """
        space = _space(spec_name, cluster_name, method, batch)
        if not space:
            return
        config, impl = space[pick % len(space)]
        spec, cluster = _SPECS[spec_name], _CLUSTERS[cluster_name]
        cost = _cost_for(spec, cluster, config, impl, calibration)
        bound = step_time_lower_bound(cost)
        result = simulate(
            spec, config, cluster, implementation=impl,
            calibration=calibration, cost=cost,
        )
        assert bound.step_time <= result.step_time, (
            f"bound {bound.step_time} exceeds simulated "
            f"{result.step_time} for {config.describe()}"
        )
        assert bound.step_time > 0

    def test_bound_covers_hybrid_schedules(self):
        space = _space("6.6B", "ethernet", Method.BREADTH_FIRST, 32)
        hybrids = [
            (c, i) for c, i in space if c.schedule is ScheduleKind.HYBRID
        ]
        assert hybrids, "hybrid axis missing from the sampled space"
        for config, impl in hybrids[:10]:
            cost = _cost_for(
                MODEL_6_6B, DGX1_CLUSTER_64_ETHERNET, config, impl
            )
            bound = step_time_lower_bound(cost)
            result = simulate(
                MODEL_6_6B,
                config,
                DGX1_CLUSTER_64_ETHERNET,
                implementation=impl,
                cost=cost,
            )
            assert bound.step_time <= result.step_time


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


class TestPartialsParity:
    """The family-cached fast path must be *bit-equal* to scalar assembly.

    ``step_time_lower_bound`` consumes
    :func:`repro.sim.cost_batch.bound_partials` /
    :func:`repro.sim.cost_batch.comm_rank_sums`; this reference
    re-assembles every certificate from per-candidate ``cost.rank_*``
    method calls in the documented float order.  Any drift here would
    silently change which candidates the search prunes.
    """

    @staticmethod
    def _reference_bound(cost):
        from repro.core.schedules.base import dpfs_group_count
        from repro.parallel.config import Sharding

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
            compute_bound = max(
                compute_bound,
                cost.rank_fill_seconds(rank) + cost.rank_compute_seconds(rank),
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
                drain_bound,
                cost.rank_fill_seconds(rank)
                + middle
                + cost.rank_drain_seconds(rank),
            )
            if dp_overlap_active:
                stages = cost.placement.stages_of_device(rank)
                busy = 0.0
                if config.sharding is Sharding.FULL:
                    busy += 2.0 * n_groups * sum(
                        comm.gather[s] for s in stages
                    )
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
        return (
            compute_bound,
            dp_bound,
            pp_bound,
            drain_bound,
            makespan,
            makespan + cost.calibration.fixed_step_overhead,
        )

    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.name)
    def test_bit_equal_to_scalar_assembly(self, method):
        space = _space("6.6B", "infiniband", method, 64)
        for config, impl in space:
            cost = _cost_for(MODEL_6_6B, DGX1_CLUSTER_64, config, impl)
            bound = step_time_lower_bound(cost)
            assert (
                bound.compute_seconds,
                bound.dp_seconds,
                bound.pp_seconds,
                bound.drain_seconds,
                bound.makespan,
                bound.step_time,
            ) == self._reference_bound(cost), config.describe()


class TestDrainCertificate:
    """The drain-side (backward) fill certificate.

    Admissibility rides on the same property as every other certificate
    (``TestBoundNeverExceedsSimulation`` samples it through the same
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
