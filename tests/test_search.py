"""Tests for the Appendix E configuration search."""

from __future__ import annotations

import pytest

import repro.search.grid as grid
from repro.hardware.cluster import DGX1_CLUSTER_64, DGX1_CLUSTER_64_ETHERNET
from repro.models.presets import MODEL_6_6B, MODEL_52B
from repro.parallel.config import Method, ScheduleKind, Sharding
from repro.search.cell import SearchSettings
from repro.search.grid import best_configuration
from repro.search.service.serialize import outcome_to_json, result_to_json
from repro.search.space import configuration_space
from repro.implementations import MEGATRON_LM, OUR_IMPLEMENTATION


class TestSpace:
    def test_batch_size_respected(self):
        for config, _ in configuration_space(
            Method.BREADTH_FIRST, MODEL_52B, DGX1_CLUSTER_64, 32
        ):
            assert config.batch_size == 32

    def test_depth_first_space_uses_megatron(self):
        pairs = list(configuration_space(
            Method.DEPTH_FIRST, MODEL_52B, DGX1_CLUSTER_64, 64
        ))
        assert pairs
        for config, impl in pairs:
            assert impl is MEGATRON_LM
            assert config.schedule is ScheduleKind.DEPTH_FIRST
            assert config.sharding is Sharding.NONE
            assert config.n_microbatches % config.n_pp == 0
            assert config.n_loop >= 2

    def test_breadth_first_space_loops(self):
        for config, impl in configuration_space(
            Method.BREADTH_FIRST, MODEL_52B, DGX1_CLUSTER_64, 64
        ):
            assert impl is OUR_IMPLEMENTATION
            assert config.n_loop >= 2
            assert config.sharding in (Sharding.NONE, Sharding.FULL)

    def test_non_looped_space_has_both_impls(self):
        impls = {
            impl.name
            for _, impl in configuration_space(
                Method.NON_LOOPED, MODEL_52B, DGX1_CLUSTER_64, 64
            )
        }
        assert impls == {"Ours", "Megatron-LM"}

    def test_no_pipeline_space(self):
        for config, _ in configuration_space(
            Method.NO_PIPELINE, MODEL_52B, DGX1_CLUSTER_64, 64
        ):
            assert config.n_pp == 1
            assert config.schedule is ScheduleKind.BREADTH_FIRST

    def test_sharding_requires_dp(self):
        for config, _ in configuration_space(
            Method.BREADTH_FIRST, MODEL_52B, DGX1_CLUSTER_64, 8
        ):
            if config.n_dp == 1:
                assert config.sharding is Sharding.NONE

    def test_grid_fits_cluster(self):
        for config, _ in configuration_space(
            Method.BREADTH_FIRST, MODEL_52B, DGX1_CLUSTER_64, 128
        ):
            assert config.n_gpus <= 64
            assert config.n_tp <= 8

    def test_invalid_batch(self):
        with pytest.raises(ValueError, match="batch_size"):
            list(configuration_space(
                Method.BREADTH_FIRST, MODEL_52B, DGX1_CLUSTER_64, 0
            ))


class TestBestConfiguration:
    def test_52b_small_batch_ordering(self):
        # Figure 7a at beta = 1/8: breadth-first must win, no-pipeline
        # must lose badly (the headline result).
        results = {
            method: best_configuration(MODEL_52B, DGX1_CLUSTER_64, method, 8)
            for method in Method
        }
        tputs = {
            m: r.best.throughput_per_gpu for m, r in results.items() if r.best
        }
        assert tputs[Method.BREADTH_FIRST] > tputs[Method.DEPTH_FIRST]
        assert tputs[Method.BREADTH_FIRST] > tputs[Method.NON_LOOPED]
        assert tputs[Method.BREADTH_FIRST] > 1.5 * tputs[Method.NO_PIPELINE]

    def test_improvement_factor_near_beta_min(self):
        # Paper: 43% over depth-first, 53% over non-looped at beta ~ 1/8.
        # Allow a generous band around those factors.
        bf = best_configuration(MODEL_52B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 8)
        df = best_configuration(MODEL_52B, DGX1_CLUSTER_64, Method.DEPTH_FIRST, 8)
        nl = best_configuration(MODEL_52B, DGX1_CLUSTER_64, Method.NON_LOOPED, 8)
        gain_df = bf.best.throughput_per_gpu / df.best.throughput_per_gpu
        gain_nl = bf.best.throughput_per_gpu / nl.best.throughput_per_gpu
        assert 1.1 < gain_df < 1.9
        assert 1.2 < gain_nl < 2.2

    def test_memory_filter_excludes_oversized(self):
        outcome = best_configuration(
            MODEL_52B, DGX1_CLUSTER_64, Method.NO_PIPELINE, 8
        )
        assert outcome.n_excluded > 0
        if outcome.best is not None:
            assert outcome.best.memory.total < 32 * 2**30

    def test_winning_config_valid(self):
        outcome = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 32
        )
        best = outcome.best
        assert best is not None
        assert best.config.batch_size == 32
        best.config.validate_against(MODEL_6_6B.n_layers)


class TestPruneBeforeSimulate:
    """Section 5.3 protocol: exclude by predicted memory, then simulate."""

    def test_excluded_configs_never_simulated(self, monkeypatch):
        simulated = []
        real_simulate = grid.simulate

        def counting_simulate(spec, config, cluster, **kwargs):
            simulated.append(config)
            return real_simulate(spec, config, cluster, **kwargs)

        monkeypatch.setattr(grid, "simulate", counting_simulate)
        outcome = best_configuration(
            MODEL_52B, DGX1_CLUSTER_64, Method.NO_PIPELINE, 8
        )
        assert outcome.n_excluded > 0
        # Only the configurations that passed the memory filter were
        # simulated — excluded never reach the engine.
        assert len(simulated) == outcome.n_tried
        limit = DGX1_CLUSTER_64.gpu.memory_bytes * grid.MEMORY_HEADROOM
        for config in simulated:
            impl = OUR_IMPLEMENTATION
            schedule = grid.cached_schedule(
                config.schedule, config.n_pp, config.n_microbatches,
                config.n_loop,
            )
            memory = grid.memory_model(MODEL_52B, config, impl, schedule)
            assert memory.total <= limit

    def test_tried_excluded_pruned_partition_the_space(self):
        # The accounting contract: every enumerated candidate lands in
        # exactly one of the three counters — no silent skips (the old
        # n_stages > n_layers drop is now excluded from enumeration).
        outcome = best_configuration(
            MODEL_52B, DGX1_CLUSTER_64, Method.DEPTH_FIRST, 8
        )
        space = list(configuration_space(
            Method.DEPTH_FIRST, MODEL_52B, DGX1_CLUSTER_64, 8
        ))
        assert (
            outcome.n_tried + outcome.n_excluded + outcome.n_pruned
            == len(space)
        )
        assert outcome.n_tried > 0

    def test_all_excluded_reports_no_best(self, monkeypatch):
        # With no usable memory every candidate is excluded up front and
        # the cell reports OOM without running a single simulation.
        monkeypatch.setattr(grid, "MEMORY_HEADROOM", 1e-9)
        monkeypatch.setattr(
            grid, "simulate", lambda *a, **k: pytest.fail("simulated")
        )
        outcome = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, Method.NO_PIPELINE, 8
        )
        assert outcome.best is None
        assert outcome.n_tried == 0
        assert outcome.n_excluded > 0


class TestEnumerationCompleteness:
    """Satellite of the pipeline refactor: no silent candidate drops."""

    def test_space_never_yields_more_stages_than_layers(self):
        # The old best_configuration silently skipped n_stages > n_layers
        # candidates outside every counter; the space now excludes them.
        for method in Method:
            for config, _ in configuration_space(
                method, MODEL_6_6B, DGX1_CLUSTER_64, 64
            ):
                assert config.n_stages <= MODEL_6_6B.n_layers

    def test_deep_non_looped_pipelines_are_not_enumerated(self):
        # 6.6B has 32 layers; a 64-way non-looped pipeline (one stage per
        # rank) cannot exist.  It used to be enumerated and dropped.
        pps = {
            config.n_pp
            for config, _ in configuration_space(
                Method.NON_LOOPED, MODEL_6_6B, DGX1_CLUSTER_64, 64
            )
        }
        assert pps
        assert max(pps) <= MODEL_6_6B.n_layers

    @pytest.mark.parametrize("method", list(Method))
    def test_accounting_sums_to_enumerated_space(self, method):
        outcome = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, method, 64
        )
        space = list(configuration_space(
            method, MODEL_6_6B, DGX1_CLUSTER_64, 64
        ))
        assert (
            outcome.n_tried + outcome.n_excluded + outcome.n_pruned
            == len(space)
        )


class TestBoundPruning:
    """Branch-and-bound invariants: same winner, strictly less work."""

    CELLS = [
        (MODEL_52B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 8),
        (MODEL_52B, DGX1_CLUSTER_64, Method.DEPTH_FIRST, 64),
        (MODEL_6_6B, DGX1_CLUSTER_64, Method.NON_LOOPED, 32),
        (MODEL_6_6B, DGX1_CLUSTER_64_ETHERNET, Method.BREADTH_FIRST, 64),
        (MODEL_6_6B, DGX1_CLUSTER_64, Method.NO_PIPELINE, 64),
    ]

    @pytest.mark.parametrize(
        "spec,cluster,method,batch", CELLS,
        ids=[f"{m.value}-B{b}" for _s, _c, m, b in CELLS],
    )
    def test_byte_identical_winner_with_and_without_pruning(
        self, spec, cluster, method, batch
    ):
        pruned = best_configuration(spec, cluster, method, batch)
        full = best_configuration(
            spec, cluster, method, batch,
            settings=SearchSettings(bound_pruning=False),
        )
        # The serialized winner (the checkpoint payload) must match byte
        # for byte — the acceptance criterion for the pruning stage.
        assert result_to_json(pruned.best) == result_to_json(full.best)
        assert full.n_pruned == 0
        assert pruned.n_excluded == full.n_excluded
        assert pruned.n_tried + pruned.n_pruned == full.n_tried

    def test_pruning_skips_work_on_a_paper_cell(self):
        # Figure 7a cell: the bound must actually fire.
        outcome = best_configuration(
            MODEL_52B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 8
        )
        assert outcome.n_pruned > 0

    def test_pruned_outcome_counts_serialize(self):
        outcome = best_configuration(
            MODEL_52B, DGX1_CLUSTER_64, Method.DEPTH_FIRST, 8
        )
        data = outcome_to_json(outcome)
        assert data["n_pruned"] == outcome.n_pruned


class TestHybridAxis:
    def test_hybrid_candidates_present_when_enabled(self):
        space = list(configuration_space(
            Method.BREADTH_FIRST, MODEL_6_6B, DGX1_CLUSTER_64, 32,
            settings=SearchSettings(include_hybrid=True),
        ))
        hybrids = [
            c for c, _ in space if c.schedule is ScheduleKind.HYBRID
        ]
        assert hybrids
        for config in hybrids:
            assert config.n_pp <= config.sequence_size <= config.n_microbatches
            assert config.n_microbatches % config.sequence_size == 0
        # The axis widens the space strictly.
        baseline = list(configuration_space(
            Method.BREADTH_FIRST, MODEL_6_6B, DGX1_CLUSTER_64, 32,
        ))
        assert len(space) == len(baseline) + len(hybrids)

    def test_hybrid_axis_off_by_default(self):
        for config, _ in configuration_space(
            Method.BREADTH_FIRST, MODEL_6_6B, DGX1_CLUSTER_64, 32
        ):
            assert config.schedule is not ScheduleKind.HYBRID

    def test_search_with_hybrid_axis_end_to_end(self):
        outcome = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 32,
            settings=SearchSettings(include_hybrid=True),
        )
        assert outcome.best is not None
        space = list(configuration_space(
            Method.BREADTH_FIRST, MODEL_6_6B, DGX1_CLUSTER_64, 32,
            settings=SearchSettings(include_hybrid=True),
        ))
        assert (
            outcome.n_tried + outcome.n_excluded + outcome.n_pruned
            == len(space)
        )
        # The hybrid space is a superset: its winner cannot be worse.
        baseline = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 32
        )
        assert (
            outcome.best.throughput_per_gpu
            >= baseline.best.throughput_per_gpu
        )
