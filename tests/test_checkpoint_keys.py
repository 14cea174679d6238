"""Checkpoint-key stability: golden hashes committed across refactors.

``cell_key`` addresses every checkpoint a sweep ever wrote; if a
refactor shifts the hashed payload even by one JSON key, every existing
checkpoint directory silently stops resuming (cells recompute instead
of replaying).  The hashes below were captured from the pre-objective
code and are asserted verbatim: a throughput-objective sweep — the
default — must keep producing byte-identical keys forever.  Non-default
objectives *must* change the key (differently-constrained sweeps may
never satisfy each other's cells), which is also asserted.

If a change intentionally breaks key compatibility, bump
``FORMAT_VERSION`` and regenerate these goldens in the same commit —
never silently.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.hardware.cluster import DGX1_CLUSTER_64, DGX1_CLUSTER_64_ETHERNET
from repro.models.presets import MODEL_6_6B, MODEL_52B
from repro.parallel.config import Method
from repro.search.cell import SearchSettings, SweepCell
from repro.search.objective import (
    MemoryConstrainedThroughput,
    ParetoFrontObjective,
)
from repro.search.service.serialize import cell_key
from repro.sim.calibration import DEFAULT_CALIBRATION

#: (panel, method, batch, bound_pruning, include_hybrid) -> key captured
#: from the pre-objective-refactor code (PR 4 state).
GOLDEN_KEYS = {
    ("52B", Method.BREADTH_FIRST, 8, True, False): "53b776f197eb1949b96a",
    ("52B", Method.BREADTH_FIRST, 8, False, False): "dabbdfdd8734ce937c85",
    ("52B", Method.BREADTH_FIRST, 8, True, True): "f850350144312291e9d5",
    ("52B", Method.BREADTH_FIRST, 64, True, False): "99095a0f3da8734b62fa",
    ("52B", Method.DEPTH_FIRST, 8, True, False): "bbde4a0eb072d2aa3bfd",
    ("52B", Method.DEPTH_FIRST, 64, False, False): "57ba588c271409b54ca4",
    ("52B", Method.NON_LOOPED, 8, True, False): "f4640dd096ed72e24e5d",
    ("52B", Method.NON_LOOPED, 64, True, True): "80c13921e5e168406cb8",
    ("52B", Method.NO_PIPELINE, 8, True, False): "3f5648350991b80b9b58",
    ("52B", Method.NO_PIPELINE, 64, False, False): "c845c83b95771b32aa47",
    ("6.6B", Method.BREADTH_FIRST, 8, True, False): "c13ce54332c80573e202",
    ("6.6B", Method.BREADTH_FIRST, 64, True, True): "8d137593803f9ad2e296",
    ("6.6B", Method.DEPTH_FIRST, 8, False, False): "e0fd1728b7cf1279b5f3",
    ("6.6B", Method.NON_LOOPED, 64, True, False): "b981896d15125ec48fbe",
    ("6.6B", Method.NO_PIPELINE, 8, True, True): "e7d781f7129114950f26",
    ("6.6B-eth", Method.BREADTH_FIRST, 8, True, False): "d1099ad2612973bed743",
    ("6.6B-eth", Method.DEPTH_FIRST, 64, True, False): "dae8f3404ba8e3e01d68",
    ("6.6B-eth", Method.NON_LOOPED, 8, False, False): "7379909048dd9cd3f62e",
    ("6.6B-eth", Method.NO_PIPELINE, 64, True, False): "3735d7c82d6b6ca6bd18",
}

PANELS = {
    "52B": (MODEL_52B, DGX1_CLUSTER_64),
    "6.6B": (MODEL_6_6B, DGX1_CLUSTER_64),
    "6.6B-eth": (MODEL_6_6B, DGX1_CLUSTER_64_ETHERNET),
}


def _key(panel, method, batch, settings):
    spec, cluster = PANELS[panel]
    return cell_key(
        spec, cluster, DEFAULT_CALIBRATION, SweepCell(method, batch), settings
    )


@pytest.mark.parametrize(
    "panel,method,batch,pruning,hybrid",
    sorted(GOLDEN_KEYS, key=str),
    ids=[
        f"{p}-{m.value}-B{b}-{'p' if pr else 'np'}{'-hyb' if hy else ''}"
        for p, m, b, pr, hy in sorted(GOLDEN_KEYS, key=str)
    ],
)
def test_default_objective_keys_match_pre_refactor_goldens(
    panel, method, batch, pruning, hybrid
):
    settings = SearchSettings(bound_pruning=pruning, include_hybrid=hybrid)
    assert _key(panel, method, batch, settings) == GOLDEN_KEYS[
        (panel, method, batch, pruning, hybrid)
    ]


def test_explicit_throughput_objective_is_the_default_key():
    # Passing the default objective explicitly must hash identically to
    # not passing one at all (the serializer omits the default).
    from repro.search.objective import ThroughputObjective

    a = _key("52B", Method.BREADTH_FIRST, 8, SearchSettings())
    b = _key(
        "52B", Method.BREADTH_FIRST, 8,
        SearchSettings(objective=ThroughputObjective()),
    )
    assert a == b == GOLDEN_KEYS[("52B", Method.BREADTH_FIRST, 8, True, False)]


@pytest.mark.parametrize(
    "objective",
    [MemoryConstrainedThroughput(headroom=0.5), ParetoFrontObjective()],
    ids=["memory-constrained", "pareto"],
)
def test_non_default_objectives_never_collide_with_goldens(objective):
    settings = SearchSettings(objective=objective)
    key = _key("52B", Method.BREADTH_FIRST, 8, settings)
    assert key not in GOLDEN_KEYS.values()


#: A value other than the default for every SearchSettings field.
OTHER_SETTINGS = {
    "bound_pruning": False,
    "include_hybrid": True,
    "objective": ParetoFrontObjective(),
}


@pytest.mark.parametrize("name", [f.name for f in fields(SearchSettings)])
def test_every_search_setting_changes_the_cell_key(name):
    # A setting left out of the key would let a sweep resume cells
    # searched under another value of it.  A new field fails here until
    # OTHER_SETTINGS names a value for it.
    settings = SearchSettings(**{name: OTHER_SETTINGS[name]})
    assert settings != SearchSettings()
    assert _key("52B", Method.BREADTH_FIRST, 8, settings) != _key(
        "52B", Method.BREADTH_FIRST, 8, SearchSettings()
    )


# --------------------------------------------------------- planner queries

#: Planner query-key goldens, captured when the planner landed.  Query
#: keys share the cell-key context payload (so they inherit its
#: stability guarantees) but hash the whole request under a "plan"
#: scope tag; clients may cache answers by these, so they are pinned
#: exactly like cell keys.
GOLDEN_QUERY_KEYS = {
    "6.6B-bf-8": "7bff700fe3fe3fd4af2d",
    "6.6B-all-8-16": "93d23f24cf1c3e6200cb",
    "52B-eth-pareto-64": "b63f6bbd8b7fddd73b1e",
    "52B-memory-8": "cb2d755436094e276303",
    "6.6B-hybrid-64": "8cb4e7ff302b7341f273",
}


def _query_requests():
    from repro.planner.protocol import PlanRequest

    return {
        "6.6B-bf-8": PlanRequest(
            model="6.6B",
            cluster="dgx1-64",
            batch_sizes=(8,),
            methods=("Breadth-first",),
        ),
        "6.6B-all-8-16": PlanRequest(
            model="6.6B", cluster="dgx1-64", batch_sizes=(8, 16)
        ),
        "52B-eth-pareto-64": PlanRequest(
            model="52B",
            cluster="dgx1-64-ethernet",
            batch_sizes=(64,),
            objective="pareto",
        ),
        "52B-memory-8": PlanRequest(
            model="52B",
            cluster="dgx1-64",
            batch_sizes=(8,),
            objective="memory-constrained",
            memory_headroom=0.8,
        ),
        "6.6B-hybrid-64": PlanRequest(
            model="6.6B",
            cluster="dgx1-64",
            batch_sizes=(64,),
            include_hybrid=True,
            methods=("Breadth-first", "Depth-first"),
        ),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_QUERY_KEYS))
def test_planner_query_keys_match_goldens(name):
    from repro.planner.protocol import query_key

    request = _query_requests()[name]
    key = query_key(request.resolve(), DEFAULT_CALIBRATION)
    assert key == GOLDEN_QUERY_KEYS[name]


def test_query_keys_and_cell_keys_are_disjoint_families():
    # The "scope": "plan" tag guarantees a plan hash can never alias a
    # cell hash, even for a one-cell request over the same context.
    from repro.planner.protocol import query_key

    request = _query_requests()["6.6B-bf-8"]
    plan_hash = query_key(request.resolve(), DEFAULT_CALIBRATION)
    one_cell = _key(
        "6.6B", Method.BREADTH_FIRST, 8, request.resolve().settings
    )
    assert plan_hash != one_cell
    assert plan_hash not in GOLDEN_KEYS.values()
