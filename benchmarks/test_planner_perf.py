"""Planner load test: exact hits do no search work, and coalescing.

Three invariants of the planner service, guarded in CI on deterministic
counts, never on wall time:

1. **Exact hits do no search work** — answering a memoized query must
   never touch the search stack.  A planner loads a cell from the memo
   store once, on its first hit, and answers every later hit from
   memory on the event loop.  So N exact hits on a fresh planner over
   a solved store record N ``planner.hit.exact``, open no
   ``search.grid`` span, price no config family, call
   ``MemoStore.load`` once, and after the first neither submit work
   to an executor nor hash the request's keys again.  Their p50 and
   max latency (tens of microseconds locally) are recorded as data
   only.
2. **A computed cell is held** — the planner that searched a cell
   answers the next request for it with no load, no submission and no
   key hash.
3. **Coalescing under load** — a mixed burst of N identical cold
   queries and M exact hits runs *exactly one* ``search.grid`` span:
   the defining invariant of request coalescing (without it, N
   identical concurrent queries each pay a full search).

The tests append trajectory entries to ``benchmarks/BENCH_search.json``
(see :mod:`repro.obs.trajectory`) so the latency history accumulates
per commit next to the search-speedup history.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, recording
from repro.obs.trajectory import record_entry
from repro.planner import Planner, PlanRequest
from repro.planner import core as planner_core
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


@pytest.fixture
def work(monkeypatch):
    """Running counts of memo-store loads, thread-pool submissions and
    the planner's key hashes (cell, group and query keys)."""
    counts = {"loads": 0, "submissions": 0, "hashes": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(MemoStore, "load", counted("loads", MemoStore.load))
    monkeypatch.setattr(
        ThreadPoolExecutor,
        "submit",
        counted("submissions", ThreadPoolExecutor.submit),
    )
    for name in ("cell_key", "group_key", "query_key"):
        monkeypatch.setattr(
            planner_core, name, counted("hashes", getattr(planner_core, name))
        )
    return counts


async def _plan_counted(planner, request, work):
    """``(answer, seconds, {count: added})`` for one request."""
    before = dict(work)
    started = time.perf_counter()
    answer = await planner.plan(request)
    seconds = time.perf_counter() - started
    return answer, seconds, {name: work[name] - before[name] for name in work}


def test_exact_hits_do_no_search_work(store_dir, benchmark, work):
    request = _request(8)
    with Planner(store_dir) as planner:

        async def drive():
            latencies, added = [], []
            for _ in range(N_EXACT_HITS):
                answer, seconds, done = await _plan_counted(
                    planner, request, work
                )
                assert answer.sources == ("exact",)
                latencies.append(seconds)
                added.append(done)
            return latencies, added

        tables = (stage_time_table.cache_info(), comm_time_table.cache_info())
        with recording(MetricsRegistry(actor="planner-bench")) as registry:
            latencies, added = asyncio.run(drive())
        n_loads = sum(done["loads"] for done in added)
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
        f"p50 {p50 * 1e6:.0f} us, max {max(latencies) * 1e6:.0f} us, "
        f"{n_loads} store load(s), {len(searches)} search span(s)"
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
    assert n_loads == 1, (
        f"{N_EXACT_HITS} exact hits on one planner loaded the memo store "
        f"{n_loads} times, not once"
    )
    assert added[0] == {"loads": 1, "submissions": 1, "hashes": 3}
    assert added[1:] == [{"loads": 0, "submissions": 0, "hashes": 0}] * (
        N_EXACT_HITS - 1
    ), "a held exact hit left the event loop or hashed its request again"


def test_a_computed_cell_is_answered_from_memory(tmp_path, work):
    """The planner that searched a cell loads and submits nothing for it."""
    request = _request(8)
    with Planner(tmp_path) as planner:

        async def drive():
            first = await planner.plan(request)
            return first, await _plan_counted(planner, request, work)

        first, (again, _seconds, added) = asyncio.run(drive())
    assert first.sources == ("computed",)
    assert again.sources == ("exact",)
    assert again.outcomes[0] is first.outcomes[0]
    assert added == {"loads": 0, "submissions": 0, "hashes": 0}


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
