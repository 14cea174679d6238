"""Tests for the pluggable search-objective subsystem.

Covers the objective contracts end to end: per-objective accounting
(the ``n_tried + n_excluded + n_pruned == |space|`` contract must hold
for every objective, constraint-infeasible candidates included),
per-objective branch-and-bound losslessness (winner *and* frontier
byte-identical with pruning disabled), the memory-constrained
acceptance scenario (a hybrid configuration wins a Figure-7 cell at
tightened headroom), Pareto frontier semantics, CLI parsing, JSON
round-trips, and the sweep-service threading (checkpoint keys and
worker contexts carry objectives).
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.hardware.cluster import DGX1_CLUSTER_64, DGX1_CLUSTER_64_ETHERNET
from repro.models.presets import MODEL_6_6B, MODEL_52B
from repro.parallel.config import Method, ScheduleKind
from repro.search.cell import SearchSettings, SweepCell
from repro.search.grid import MEMORY_HEADROOM, best_configuration
from repro.search.objective import (
    DEFAULT_OBJECTIVE,
    MemoryConstrainedThroughput,
    ParetoFrontObjective,
    ThroughputObjective,
    dominates,
    parse_objective,
    pareto_frontier,
)
from repro.search.service.serialize import (
    cell_key,
    objective_from_json,
    objective_to_json,
    outcome_from_json,
    outcome_to_json,
    settings_from_json,
    settings_to_json,
)
from repro.search.space import configuration_space
from repro.sim.calibration import DEFAULT_CALIBRATION

ALL_OBJECTIVES = [
    ThroughputObjective(),
    MemoryConstrainedThroughput(headroom=0.3),
    ParetoFrontObjective(),
]
OBJECTIVE_IDS = [o.kind for o in ALL_OBJECTIVES]


class TestObjectiveBasics:
    def test_default_is_throughput(self):
        assert DEFAULT_OBJECTIVE == ThroughputObjective()
        assert SearchSettings().objective == DEFAULT_OBJECTIVE

    def test_memory_constrained_validates_headroom(self):
        with pytest.raises(ValueError, match="headroom"):
            MemoryConstrainedThroughput(headroom=0.0)
        with pytest.raises(ValueError, match="headroom"):
            MemoryConstrainedThroughput(headroom=1.5)

    def test_memory_budget_tightens_only_for_constrained(self):
        assert ThroughputObjective().memory_budget(DGX1_CLUSTER_64) is None
        assert ParetoFrontObjective().memory_budget(DGX1_CLUSTER_64) is None
        budget = MemoryConstrainedThroughput(0.5).memory_budget(DGX1_CLUSTER_64)
        assert budget == pytest.approx(
            DGX1_CLUSTER_64.gpu.memory_bytes * 0.5
        )

    def test_parse_objective(self):
        assert parse_objective("throughput") == ThroughputObjective()
        assert parse_objective("pareto") == ParetoFrontObjective()
        assert parse_objective("memory-constrained") == (
            MemoryConstrainedThroughput()
        )
        assert parse_objective(
            "memory-constrained", memory_headroom=0.25
        ) == MemoryConstrainedThroughput(headroom=0.25)
        with pytest.raises(ValueError, match="unknown objective"):
            parse_objective("latency")
        with pytest.raises(ValueError, match="memory-headroom"):
            parse_objective("throughput", memory_headroom=0.5)

    @pytest.mark.parametrize("objective", ALL_OBJECTIVES, ids=OBJECTIVE_IDS)
    def test_json_round_trip(self, objective):
        assert objective_from_json(objective_to_json(objective)) == objective

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown objective kind"):
            objective_from_json({"kind": "latency"})


class TestSettingsSerialization:
    def test_default_objective_omitted_from_payload(self):
        # The byte-stability linchpin: default-objective payloads must be
        # exactly the pre-objective layout.
        assert settings_to_json(SearchSettings()) == {
            "bound_pruning": True,
            "include_hybrid": False,
        }

    @pytest.mark.parametrize("objective", ALL_OBJECTIVES, ids=OBJECTIVE_IDS)
    def test_settings_round_trip(self, objective):
        settings = SearchSettings(include_hybrid=True, objective=objective)
        assert settings_from_json(settings_to_json(settings)) == settings

    def test_non_default_objectives_change_cell_keys(self):
        cell = SweepCell(Method.BREADTH_FIRST, 32)
        keys = {
            cell_key(
                MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, cell,
                SearchSettings(objective=objective),
            )
            for objective in [DEFAULT_OBJECTIVE, *ALL_OBJECTIVES[1:]]
        }
        assert len(keys) == 3  # throughput, memory-constrained, pareto

    def test_headroom_is_part_of_the_key(self):
        cell = SweepCell(Method.BREADTH_FIRST, 32)
        a, b = (
            cell_key(
                MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, cell,
                SearchSettings(
                    objective=MemoryConstrainedThroughput(headroom=h)
                ),
            )
            for h in (0.3, 0.5)
        )
        assert a != b

    def test_an_integral_headroom_keys_like_its_float(self):
        cell = SweepCell(Method.BREADTH_FIRST, 32)
        keys = {
            cell_key(
                MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, cell,
                SearchSettings(
                    objective=MemoryConstrainedThroughput(headroom=h)
                ),
            )
            for h in (1, 1.0)
        }
        assert len(keys) == 1


class TestAccountingPerObjective:
    """Satellite: the counter contract holds for every objective."""

    @pytest.mark.parametrize("objective", ALL_OBJECTIVES, ids=OBJECTIVE_IDS)
    @pytest.mark.parametrize("method", list(Method))
    def test_counters_partition_the_space(self, objective, method):
        outcome = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, method, 64,
            settings=SearchSettings(objective=objective),
        )
        space = list(configuration_space(
            method, MODEL_6_6B, DGX1_CLUSTER_64, 64
        ))
        assert (
            outcome.n_tried + outcome.n_excluded + outcome.n_pruned
            == len(space)
        )

    def test_constraint_infeasible_candidates_count_as_excluded(self):
        plain = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 64
        )
        constrained = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 64,
            settings=SearchSettings(
                objective=MemoryConstrainedThroughput(headroom=0.2)
            ),
        )
        assert constrained.n_excluded > plain.n_excluded
        space = list(configuration_space(
            Method.BREADTH_FIRST, MODEL_6_6B, DGX1_CLUSTER_64, 64
        ))
        assert (
            constrained.n_tried
            + constrained.n_excluded
            + constrained.n_pruned
            == len(space)
        )

    def test_infeasible_budget_reports_no_best(self):
        outcome = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 64,
            settings=SearchSettings(
                objective=MemoryConstrainedThroughput(headroom=0.001)
            ),
        )
        assert outcome.best is None
        assert outcome.n_tried == 0
        assert outcome.n_excluded > 0


class TestLosslessPruningPerObjective:
    """Winner and frontier identical with ``--no-bound-pruning``."""

    CELLS = [
        (Method.BREADTH_FIRST, 32, True),
        (Method.DEPTH_FIRST, 64, False),
        (Method.NON_LOOPED, 32, False),
    ]

    @pytest.mark.parametrize("objective", ALL_OBJECTIVES, ids=OBJECTIVE_IDS)
    @pytest.mark.parametrize(
        "method,batch,hybrid", CELLS,
        ids=[f"{m.value}-B{b}" for m, b, _h in CELLS],
    )
    def test_outcome_identical_without_pruning(
        self, objective, method, batch, hybrid
    ):
        pruned = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, method, batch,
            settings=SearchSettings(
                objective=objective, include_hybrid=hybrid
            ),
        )
        full = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, method, batch,
            settings=SearchSettings(
                objective=objective, include_hybrid=hybrid,
                bound_pruning=False,
            ),
        )
        pruned_json = outcome_to_json(pruned)
        full_json = outcome_to_json(full)
        assert pruned_json["best"] == full_json["best"]
        assert pruned_json.get("frontier") == full_json.get("frontier")
        assert full.n_pruned == 0
        assert pruned.n_excluded == full.n_excluded
        assert pruned.n_tried + pruned.n_pruned == full.n_tried

    def test_pareto_pruning_actually_fires(self):
        outcome = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 32,
            settings=SearchSettings(objective=ParetoFrontObjective()),
        )
        assert outcome.n_pruned > 0


class TestMemoryConstrainedWinners:
    def test_loose_headroom_matches_throughput_objective(self):
        # At the fragmentation margin the constraint is a no-op: winners
        # must match the plain throughput argmax byte for byte.
        plain = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 32
        )
        loose = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 32,
            settings=SearchSettings(
                objective=MemoryConstrainedThroughput(
                    headroom=MEMORY_HEADROOM
                )
            ),
        )
        assert outcome_to_json(plain)["best"] == outcome_to_json(loose)["best"]

    def test_budget_is_respected_by_the_winner(self):
        headroom = 0.3
        outcome = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 64,
            settings=SearchSettings(
                objective=MemoryConstrainedThroughput(headroom=headroom)
            ),
        )
        assert outcome.best is not None
        budget = DGX1_CLUSTER_64.gpu.memory_bytes * headroom
        assert outcome.best.memory.total <= budget

    def test_hybrid_wins_a_figure7_cell_under_tight_headroom(self):
        # The acceptance scenario: on the 52B Figure-7 grid at half the
        # device memory, the best feasible configuration is a hybrid —
        # the schedule family that can only tie under the throughput
        # objective (PR 3 finding) wins once memory binds.
        outcome = best_configuration(
            MODEL_52B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 128,
            settings=SearchSettings(
                objective=MemoryConstrainedThroughput(headroom=0.5),
                include_hybrid=True,
            ),
        )
        assert outcome.best is not None
        assert outcome.best.config.schedule is ScheduleKind.HYBRID

    def test_ethernet_hybrid_win(self):
        outcome = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64_ETHERNET, Method.BREADTH_FIRST, 128,
            settings=SearchSettings(
                objective=MemoryConstrainedThroughput(headroom=0.25),
                include_hybrid=True,
            ),
        )
        assert outcome.best is not None
        assert outcome.best.config.schedule is ScheduleKind.HYBRID


class TestParetoFrontier:
    @pytest.fixture(scope="class")
    def outcome(self):
        return best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 32,
            settings=SearchSettings(objective=ParetoFrontObjective()),
        )

    def test_frontier_is_non_dominated_and_sorted(self, outcome):
        front = outcome.frontier
        assert front
        for i, a in enumerate(front):
            for j, b in enumerate(front):
                if i != j:
                    assert not dominates(a, b)
        tputs = [r.throughput_per_gpu for r in front]
        mems = [r.memory.total for r in front]
        assert tputs == sorted(tputs, reverse=True)
        assert mems == sorted(mems, reverse=True)

    def test_best_is_the_throughput_end_of_the_frontier(self, outcome):
        assert outcome.best is not None
        assert outcome.best == outcome.frontier[0]
        # ... and matches the plain throughput argmax on this cell.
        plain = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 32
        )
        assert outcome.best.config == plain.best.config

    def test_single_winner_objectives_report_no_frontier(self):
        outcome = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 32
        )
        assert outcome.frontier is None

    def test_frontier_serializes_and_round_trips(self, outcome):
        data = outcome_to_json(outcome)
        assert "frontier" in data
        restored = outcome_from_json(data)
        assert restored.frontier == outcome.frontier
        assert restored == outcome

    def test_default_outcome_payload_has_no_frontier_key(self):
        plain = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, Method.NO_PIPELINE, 8
        )
        assert "frontier" not in outcome_to_json(plain)

    def test_pareto_frontier_helper_order_independent(self, outcome):
        front = outcome.frontier
        assert pareto_frontier(reversed(front)) == front
        assert pareto_frontier(front) == front


class TestServiceThreading:
    def test_run_sweep_carries_objective(self, tmp_path):
        from repro.search.service import SweepOptions, run_sweep

        cells = [SweepCell(Method.NO_PIPELINE, 8)]
        settings = SearchSettings(objective=ParetoFrontObjective())
        outcomes = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, cells,
            options=SweepOptions(
                processes=1, settings=settings, checkpoint_dir=tmp_path,
            ),
        )
        assert outcomes[0].frontier is not None
        # Resume satisfies the cell from the checkpoint, frontier intact.
        resumed = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, cells,
            options=SweepOptions(
                processes=1,
                settings=settings,
                checkpoint_dir=tmp_path,
                resume=True,
            ),
        )
        assert resumed == outcomes

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pool_carries_objective(self, monkeypatch, start_method):
        # Pool workers get the settings through the pool initializer:
        # inherited under fork, pickled under spawn.
        from repro.search.service import SweepOptions, run_sweep

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: [start_method]
        )
        cells = [
            SweepCell(Method.NO_PIPELINE, 8), SweepCell(Method.NO_PIPELINE, 16)
        ]
        settings = SearchSettings(objective=ParetoFrontObjective())
        pooled, serial = (
            run_sweep(
                MODEL_6_6B, DGX1_CLUSTER_64, cells,
                options=SweepOptions(processes=processes, settings=settings),
            )
            for processes in (2, 1)
        )
        assert pooled == serial
        assert all(outcome.frontier is not None for outcome in pooled)
