"""Planner load test: exact hits do no search work, and coalescing.

Two invariants of the planner service, guarded in CI on deterministic
counts, never on wall time:

1. **Exact hits do no search work** — answering a memoized query must
   never touch the search stack: resolve the request, hash the cells,
   load one small JSON payload off the I/O pool.  N exact hits record
   N ``planner.hit.exact``, open no ``search.grid`` span, price no
   config family and load the memo store once per request.  Their p50
   and max latency (about 0.4 ms locally) are recorded as data only.
2. **Coalescing under load** — a mixed burst of N identical cold
   queries and M exact hits runs *exactly one* ``search.grid`` span:
   the defining invariant of request coalescing (without it, N
   identical concurrent queries each pay a full search).

Both tests append trajectory entries to ``benchmarks/BENCH_search.json``
(see :mod:`repro.obs.trajectory`) so the latency history accumulates
per commit next to the search-speedup history.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, recording
from repro.obs.trajectory import record_entry
from repro.planner import Planner, PlanRequest
from repro.search.service.memo import MemoStore
from repro.sim.cost import comm_time_table, stage_time_table

TRAJECTORY_PATH = Path(__file__).resolve().parent / "BENCH_search.json"

MODEL, CLUSTER, METHOD = "6.6B", "dgx1-64", "Breadth-first"

#: Load shape: enough exact hits for a stable median, enough identical
#: cold queries that a coalescing bug would show as a ~12x search blowup.
N_EXACT_HITS = 50
N_IDENTICAL_COLD = 12


def _request(batch):
    return PlanRequest(
        model=MODEL, cluster=CLUSTER, batch_sizes=(batch,), methods=(METHOD,)
    )


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    """A memo store with the B=8 cell solved (the exact-hit target)."""
    root = tmp_path_factory.mktemp("planner-store")
    with Planner(root) as planner:
        answer = asyncio.run(planner.plan(_request(8)))
    assert answer.sources == ("computed",)
    return root


def test_exact_hits_do_no_search_work(store_dir, benchmark, monkeypatch):
    request = _request(8)
    loads = []
    load = MemoStore.load

    def counted_load(self, key):
        loads.append(key)
        return load(self, key)

    monkeypatch.setattr(MemoStore, "load", counted_load)
    with Planner(store_dir) as planner:

        async def drive():
            latencies = []
            for _ in range(N_EXACT_HITS):
                started = time.perf_counter()
                answer = await planner.plan(request)
                latencies.append(time.perf_counter() - started)
                assert answer.sources == ("exact",)
            return latencies

        tables = (stage_time_table.cache_info(), comm_time_table.cache_info())
        with recording(MetricsRegistry(actor="planner-bench")) as registry:
            latencies = asyncio.run(drive())
        n_loads = len(loads)
        assert (
            stage_time_table.cache_info(), comm_time_table.cache_info()
        ) == tables
        benchmark.pedantic(
            lambda: asyncio.run(planner.plan(request)), rounds=1
        )

    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    searches = [s for s in snapshot["spans"] if s["name"] == "search.grid"]
    p50 = statistics.median(latencies)
    print(
        f"\nplanner exact hit ({N_EXACT_HITS} requests): "
        f"p50 {p50 * 1e3:.2f} ms, max {max(latencies) * 1e3:.2f} ms, "
        f"{n_loads} store loads, {len(searches)} search span(s)"
    )
    record_entry(
        TRAJECTORY_PATH,
        bench="planner_exact_hit",
        seconds=p50,
        cell={"model": MODEL, "method": METHOD, "batch": 8},
        counters={
            "n_requests": N_EXACT_HITS,
            "p50_seconds": p50,
            "max_seconds": max(latencies),
            "n_loads": n_loads,
        },
    )
    assert counters["planner.hit.exact"] == N_EXACT_HITS
    assert searches == [], "an exact hit ran a search"
    assert counters.get("search.batch.families_priced", 0) == 0
    assert n_loads == N_EXACT_HITS, (
        f"{N_EXACT_HITS} exact hits loaded the memo store {n_loads} times"
    )


def test_coalescing_invariant_under_load(store_dir):
    """A mixed burst runs exactly one search for N identical cold cells."""
    cold = _request(32)  # not in the store: every copy needs the search
    hot = _request(8)

    def burst():
        with Planner(store_dir / "cold") as planner:
            # Fresh store per run so the cold cell is genuinely cold;
            # the hot cell hits the shared module store via a second
            # planner to keep one burst = one event loop.
            with Planner(store_dir) as hot_planner:

                async def run():
                    return await asyncio.gather(
                        *(planner.plan(cold) for _ in range(N_IDENTICAL_COLD)),
                        *(hot_planner.plan(hot) for _ in range(4)),
                    )

                return asyncio.run(run())

    started = time.perf_counter()
    with recording(MetricsRegistry(actor="planner-bench")) as registry:
        answers = burst()
    elapsed = time.perf_counter() - started

    snapshot = registry.snapshot()
    searches = [s for s in snapshot["spans"] if s["name"] == "search.grid"]
    counters = snapshot["counters"]
    cold_sources = sorted(a.sources[0] for a in answers[:N_IDENTICAL_COLD])
    hot_sources = [a.sources[0] for a in answers[N_IDENTICAL_COLD:]]

    print(
        f"\nplanner burst ({N_IDENTICAL_COLD} identical cold + 4 exact) in "
        f"{elapsed:.2f}s: {len(searches)} search span(s), "
        f"{counters.get('planner.coalesced', 0):.0f} coalesced"
    )
    record_entry(
        TRAJECTORY_PATH,
        bench="planner_coalescing",
        seconds=elapsed,
        cell={"model": MODEL, "method": METHOD, "batch": 32},
        counters={
            "n_identical": N_IDENTICAL_COLD,
            "n_searches": len(searches),
            "n_coalesced": counters.get("planner.coalesced", 0),
        },
    )
    assert len(searches) == 1, (
        f"coalescing broken: {N_IDENTICAL_COLD} identical in-flight queries "
        f"ran {len(searches)} searches instead of 1"
    )
    # Followers coalesce on the in-flight leader whatever its source —
    # 11 behind the one cold search, 3 behind the first exact load.
    assert counters["planner.coalesced"] == (N_IDENTICAL_COLD - 1) + 3
    assert cold_sources == ["coalesced"] * (N_IDENTICAL_COLD - 1) + ["computed"]
    assert sorted(hot_sources) == ["coalesced"] * 3 + ["exact"]
