"""Vectorized family pricing: bit-exactness and cache seeding.

The batched search's byte-identical-winners guarantee rests on two
parity claims, both held here to the *last bit* (``==`` on floats, no
tolerance):

- :func:`repro.sim.cost_batch.price_families` — the cross-family pass
  :func:`~repro.sim.cost_batch.warm_family_tables` runs — equals the
  scalar ``_stage_time_table`` for every family of every drawn family
  list (hypothesis hammers the real parameter ranges);
- :func:`repro.sim.cost.comm_time_table` equals the per-candidate
  ``gather_time``/``reduce_time``/``post_step_gather_time``/
  ``dp_serial_time`` calls it replaced in the program builder,
  regardless of the axes the table deliberately ignores (micro-batch
  shape, schedule, calibration).

Plus the seeding semantics of the shared cache: ``warm_family_tables``
pre-fills exactly the missing entries, first writer wins, and later
scalar lookups are pure hits.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fit import FIT_PARAMETERS
from repro.hardware.cluster import DGX1_CLUSTER_64, DGX1_CLUSTER_64_ETHERNET
from repro.implementations import MEGATRON_LM, OUR_IMPLEMENTATION
from repro.models.presets import MODEL_6_6B, MODEL_52B
from repro.parallel.config import ParallelConfig, ScheduleKind, Sharding
from repro.sim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.sim.cost import (
    CostModel,
    _stage_time_table,
    comm_time_table,
    stage_time_table,
)
from repro.sim.cost_batch import price_families, warm_family_tables

_SPECS = {"6.6B": MODEL_6_6B, "52B": MODEL_52B}
_CLUSTERS = {
    "infiniband": DGX1_CLUSTER_64,
    "ethernet": DGX1_CLUSTER_64_ETHERNET,
}
_IMPLS = {"ours": OUR_IMPLEMENTATION, "megatron": MEGATRON_LM}

#: One ``(n_pp, n_loop, microbatch_size, n_tp)`` family over the real
#: parameter ranges.
_FAMILIES = st.tuples(
    st.sampled_from([1, 2, 4, 8, 16]),
    st.sampled_from([1, 2, 3, 4]),
    st.sampled_from([1, 2, 4, 8]),
    st.sampled_from([1, 2, 4, 8]),
)

#: The default calibration or one inside the fitter's box: the fit prices
#: every trial calibration with the vectorized pass.
_CALIBRATIONS = st.one_of(
    st.just(DEFAULT_CALIBRATION),
    st.builds(
        Calibration,
        **{
            p.name: st.floats(p.lower, p.upper, allow_nan=False)
            for p in FIT_PARAMETERS
        },
    ),
)


class TestPriceFamilyParity:
    @settings(max_examples=200, deadline=None)
    @given(
        spec_name=st.sampled_from(sorted(_SPECS)),
        cluster_name=st.sampled_from(sorted(_CLUSTERS)),
        impl_name=st.sampled_from(sorted(_IMPLS)),
        families=st.lists(_FAMILIES, min_size=1, max_size=12),
        calibration=_CALIBRATIONS,
    )
    def test_bit_identical_to_scalar_table(
        self, spec_name, cluster_name, impl_name, families, calibration
    ):
        """Property: cross-family vector pricing == scalar pricing, to
        the last bit, for every family of the list."""
        spec = _SPECS[spec_name]
        cluster = _CLUSTERS[cluster_name]
        impl = _IMPLS[impl_name]
        scalar = {}
        for family in families:
            n_pp, n_loop, _microbatch_size, n_tp = family
            if n_pp * n_loop > spec.n_layers or n_tp > cluster.node_size:
                continue
            try:
                scalar[family] = _stage_time_table(
                    spec, cluster, calibration, impl, *family
                )
            except ValueError:
                continue  # family invalid for this model/cluster
        batched = price_families(
            spec, cluster, calibration, impl,
            [family for family in families if family in scalar],
        )
        # Dataclass equality: every family, every stage, every float.
        assert batched == scalar

    def test_uneven_layer_split_matches_placement(self):
        """MODEL_6_6B has 32 layers; 3 stages split 11/11/10 — the
        vectorized `base + (stage < extra)` must agree with the scalar
        path's Placement on every stage, also when the family's stages
        share one flat array with its (s_mb, n_tp) group."""
        families = [(3, 1, 2, 1), (2, 1, 2, 1), (5, 1, 2, 1)]
        batched = price_families(
            MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION,
            OUR_IMPLEMENTATION, families,
        )
        for family in families:
            assert batched[family] == _stage_time_table(
                MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION,
                OUR_IMPLEMENTATION, *family,
            )
        # The head sits on the last stage: its forward is dearer than the
        # middle stage's despite carrying fewer layers' flops variance.
        assert batched[(3, 1, 2, 1)].forward[-1] > 0


class TestWarmFamilyTables:
    def setup_method(self):
        stage_time_table.cache_clear()

    def test_seeds_exactly_the_missing_entries(self):
        families = [(2, 1, 1, 1), (2, 1, 2, 1), (4, 1, 1, 1)]
        priced, already = warm_family_tables(
            MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION,
            OUR_IMPLEMENTATION, families,
        )
        assert (priced, already) == (3, 0)
        priced, already = warm_family_tables(
            MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION,
            OUR_IMPLEMENTATION, families + [(8, 1, 1, 1)],
        )
        assert (priced, already) == (1, 3)

    def test_scalar_lookup_hits_the_seeded_entry(self):
        warm_family_tables(
            MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION,
            OUR_IMPLEMENTATION, [(2, 1, 4, 2)],
        )
        before = stage_time_table.cache_info()
        config = ParallelConfig(
            n_dp=4, n_pp=2, n_tp=2, microbatch_size=4, n_microbatches=8,
            schedule=ScheduleKind.BREADTH_FIRST,
        )
        cost = CostModel(
            spec=MODEL_6_6B, config=config, cluster=DGX1_CLUSTER_64,
            implementation=OUR_IMPLEMENTATION,
            calibration=DEFAULT_CALIBRATION,
        )
        times = cost.stage_times()
        after = stage_time_table.cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses
        assert times == _stage_time_table(
            MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION,
            OUR_IMPLEMENTATION, 2, 1, 4, 2,
        )

    def test_first_writer_wins(self):
        key = (
            MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION,
            OUR_IMPLEMENTATION, 2, 1, 1, 1,
        )
        first = stage_time_table(*key)  # scalar miss populates the cache
        warm_family_tables(
            MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION,
            OUR_IMPLEMENTATION, [(2, 1, 1, 1)],
        )
        assert stage_time_table(*key) is first


class TestCommTableParity:
    @pytest.mark.parametrize("sharding", list(Sharding))
    @pytest.mark.parametrize(
        "schedule",
        [ScheduleKind.GPIPE, ScheduleKind.ONE_F_ONE_B,
         ScheduleKind.BREADTH_FIRST],
    )
    def test_table_matches_scalar_calls(self, sharding, schedule):
        """The comm table ignores micro-batch shape, schedule and
        calibration by construction — so it must match the scalar calls
        bit-for-bit even when those axes take non-probe values."""
        if not OUR_IMPLEMENTATION.supports(sharding):
            pytest.skip("implementation rejects this sharding")
        config = ParallelConfig(
            n_dp=8, n_pp=2, n_tp=2, microbatch_size=4, n_microbatches=8,
            n_loop=2 if schedule is ScheduleKind.BREADTH_FIRST else 1,
            sharding=sharding, schedule=schedule,
        )
        cost = CostModel(
            spec=MODEL_6_6B, config=config, cluster=DGX1_CLUSTER_64,
            implementation=OUR_IMPLEMENTATION,
            calibration=Calibration(fixed_step_overhead=0.123),
        )
        comm = cost.comm_times()
        stages = range(config.n_stages)
        ranks = range(config.n_pp)
        assert comm.gather == tuple(cost.gather_time(s) for s in stages)
        assert comm.reduce == tuple(cost.reduce_time(s) for s in stages)
        assert comm.post_gather == tuple(
            cost.post_step_gather_time(r) for r in ranks
        )
        assert comm.dp_serial == tuple(cost.dp_serial_time(r) for r in ranks)

    def test_shared_across_schedules_and_batch_shapes(self):
        comm_time_table.cache_clear()
        for schedule, n_mb, mbs in [
            (ScheduleKind.GPIPE, 4, 1),
            (ScheduleKind.ONE_F_ONE_B, 8, 2),
            (ScheduleKind.BREADTH_FIRST, 16, 4),
        ]:
            config = ParallelConfig(
                n_dp=4, n_pp=2, n_tp=1, microbatch_size=mbs,
                n_microbatches=n_mb, sharding=Sharding.PARTIAL,
                schedule=schedule,
            )
            CostModel(
                spec=MODEL_6_6B, config=config, cluster=DGX1_CLUSTER_64,
                implementation=OUR_IMPLEMENTATION,
                calibration=DEFAULT_CALIBRATION,
            ).comm_times()
        info = comm_time_table.cache_info()
        assert info.misses == 1  # one comm family serves all three
        assert info.hits == 2
