"""Vectorized family pricing: exactness cases and cache seeding.

That :func:`repro.sim.cost_batch.price_families` equals the scalar
``_stage_time_table`` for every family of a list priced in one pass,
and that :func:`repro.sim.cost.comm_time_table` equals the
per-candidate ``CostModel`` calls, are properties of
``tests/test_differential.py``.  This file pins an uneven layer split
by hand and the seeding semantics of the shared cache:
``warm_family_tables`` pre-fills exactly the missing entries, first
writer wins, and later scalar lookups are pure hits.
"""

from __future__ import annotations

from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.implementations import OUR_IMPLEMENTATION
from repro.models.presets import MODEL_6_6B
from repro.parallel.config import ParallelConfig, ScheduleKind, Sharding
from repro.sim.calibration import DEFAULT_CALIBRATION
from repro.sim.cost import (
    CostModel,
    _stage_time_table,
    comm_time_table,
    stage_time_table,
)
from repro.sim.cost_batch import price_families, warm_family_tables


class TestPriceFamilyParity:
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
