"""Batched grid walk: byte-identical outcomes to a scalar reference.

Every search prices its surviving config families in one vector pass and
delta-replays eligible sibling candidates, each individually bit-exact.
This suite holds the composition to the search's own contract: winners,
frontiers, the ``n_tried``/``n_excluded``/``n_pruned`` split, and the
*serialized checkpoint payload bytes* equal those of a reference search
that prices every family scalar-wise and simulates every candidate in
full, for every method and every objective.  It also pins the batched
walk's own obs counters and the accounting identity.
"""

from __future__ import annotations

import pytest

import repro.search.grid as grid
from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B
from repro.obs import MetricsRegistry, recording
from repro.parallel.config import Method
from repro.search.cell import SearchSettings
from repro.search.grid import best_configuration, cached_schedule
from repro.search.objective import (
    MemoryConstrainedThroughput,
    ParetoFrontObjective,
    ThroughputObjective,
)
from repro.search.service import CheckpointStore, cell_key
from repro.search.space import configuration_space
from repro.sim.calibration import DEFAULT_CALIBRATION
from repro.sim.cost import comm_time_table, stage_time_table

SPEC = MODEL_6_6B
CLUSTER = DGX1_CLUSTER_64


def _cold_search(method, batch, settings):
    """One cell from empty caches, so batching cannot coast on entries a
    previous (differently-configured) run left behind."""
    cached_schedule.cache_clear()
    stage_time_table.cache_clear()
    comm_time_table.cache_clear()
    return best_configuration(SPEC, CLUSTER, method, batch, settings=settings)


def _reference_search(monkeypatch, method, batch, settings):
    """The same cell with batching faked away: the vector pass prices no
    family, so every stage-time lookup prices scalar-wise, and no
    candidate is delta-eligible, so every one is simulated in full."""
    with monkeypatch.context() as patch:
        patch.setattr(grid, "warm_family_tables", lambda *args: (0, 0))
        patch.setattr(grid, "_delta_eligible", lambda candidate: False)
        return _cold_search(method, batch, settings)


class TestByteIdentity:
    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.name)
    def test_outcome_identical_across_methods(self, method, monkeypatch):
        settings = SearchSettings()
        batched = _cold_search(method, 64, settings)
        reference = _reference_search(monkeypatch, method, 64, settings)
        assert batched == reference  # winner, counters, frontier — every field

    @pytest.mark.parametrize(
        "objective",
        [
            ThroughputObjective(),
            MemoryConstrainedThroughput(headroom=0.4),
            ParetoFrontObjective(),
        ],
        ids=lambda o: o.kind,
    )
    def test_outcome_identical_across_objectives(self, objective, monkeypatch):
        settings = SearchSettings(objective=objective)
        batched = _cold_search(Method.BREADTH_FIRST, 64, settings)
        reference = _reference_search(
            monkeypatch, Method.BREADTH_FIRST, 64, settings
        )
        assert batched == reference
        if objective.kind == "pareto":
            assert batched.frontier == reference.frontier and batched.frontier

    def test_identical_without_bound_pruning_too(self, monkeypatch):
        settings = SearchSettings(bound_pruning=False)
        batched = _cold_search(Method.DEPTH_FIRST, 32, settings)
        reference = _reference_search(
            monkeypatch, Method.DEPTH_FIRST, 32, settings
        )
        assert batched == reference
        assert batched.n_pruned == 0

    def test_checkpoint_payload_bytes_identical(self, tmp_path, monkeypatch):
        """The end-to-end guarantee a resumable sweep actually depends
        on: the hashed key and the serialized payload bytes must not
        know whether batching produced the outcome."""
        from repro.search.cell import SweepCell

        key = cell_key(
            spec=SPEC, cluster=CLUSTER, calibration=DEFAULT_CALIBRATION,
            cell=SweepCell(Method.BREADTH_FIRST, 64),
        )
        store = CheckpointStore(tmp_path)
        batched = _cold_search(Method.BREADTH_FIRST, 64, SearchSettings())
        reference = _reference_search(
            monkeypatch, Method.BREADTH_FIRST, 64, SearchSettings()
        )
        assert store.payload_bytes(key, batched) == store.payload_bytes(
            key, reference
        )

    def test_hybrid_axis_identical(self, monkeypatch):
        settings = SearchSettings(include_hybrid=True)
        batched = _cold_search(Method.BREADTH_FIRST, 32, settings)
        reference = _reference_search(
            monkeypatch, Method.BREADTH_FIRST, 32, settings
        )
        assert batched == reference

    def test_reference_prices_scalar_and_simulates_in_full(self, monkeypatch):
        # The fake must really take the other path, or the identities
        # above would compare the batched walk with itself.
        with recording(MetricsRegistry(actor="test")) as registry:
            _reference_search(
                monkeypatch, Method.NON_LOOPED, 64,
                SearchSettings(bound_pruning=False),
            )
        c = registry.counters
        assert stage_time_table.cache_info().misses > 0
        assert c["search.batch.families_priced"] == 0.0
        assert c.get("search.delta.replayed", 0.0) == 0.0
        assert "engine.delta.runs" not in c


class TestBatchedAccounting:
    def test_counters_cover_the_space_exactly(self):
        settings = SearchSettings()
        outcome = _cold_search(Method.BREADTH_FIRST, 64, settings)
        space = list(
            configuration_space(
                Method.BREADTH_FIRST, SPEC, CLUSTER, 64, settings=settings
            )
        )
        assert (
            outcome.n_tried + outcome.n_excluded + outcome.n_pruned
            == len(space)
        )

    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.name)
    def test_cold_search_never_misses_the_stage_table(self, method):
        # The vector pass prices every family the search will look up:
        # from cold caches, with every feasible candidate simulated, each
        # scalar stage-time lookup (bounds, program builds) is a hit.
        _cold_search(method, 64, SearchSettings(bound_pruning=False))
        info = stage_time_table.cache_info()
        assert info.misses == 0
        assert info.hits > 0

    def test_batched_obs_counters(self):
        with recording(MetricsRegistry(actor="test")) as registry:
            outcome = _cold_search(Method.BREADTH_FIRST, 64, SearchSettings())
        c = registry.counters
        # Cold caches: every surviving family was vector-priced, none
        # were already cached, and the later bound/build lookups hit.
        assert c["search.batch.families_priced"] > 0
        assert c.get("search.batch.families_cached", 0.0) == 0.0
        info = stage_time_table.cache_info()
        assert info.misses == 0
        assert info.hits > 0
        assert c["search.warm_start.comm.hits"] >= 0.0
        # Binding-certificate counts partition the simulated candidates.
        binding = sum(
            v for k, v in c.items() if k.startswith("search.bound.binding.")
        )
        assert binding == outcome.n_tried

    def test_delta_replay_counters_on_gpipe_cells(self):
        """NON_LOOPED cells carry the replay-eligible sibling pairs
        (GPipe DP0 <-> DP_PS); the search- and engine-side counters must
        agree on what happened."""
        with recording(MetricsRegistry(actor="test")) as registry:
            _cold_search(
                Method.NON_LOOPED, 64, SearchSettings(bound_pruning=False)
            )
        c = registry.counters
        assert c["search.delta.replayed"] > 0
        assert c.get("search.delta.fallback", 0.0) == 0.0
        attempts = c["search.delta.replayed"] + c.get(
            "search.delta.fallback", 0.0
        )
        assert c["engine.delta.runs"] == attempts
        assert c["engine.delta.reused"] > 0
