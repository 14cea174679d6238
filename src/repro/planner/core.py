"""The in-process planner: memoized, coalescing plan queries.

:class:`Planner` is the service core behind both the HTTP front-end
(:mod:`repro.planner.http`) and the ``repro-experiments plan`` CLI: an
``asyncio`` object answering :class:`~repro.planner.protocol.PlanRequest`
queries from a shared :class:`~repro.search.service.memo.MemoStore`.

A planner remembers what it has answered, in two maps bounded by
:data:`_MEMORY_ENTRIES` (oldest out first): each request's resolved
cells with their cell, group and query keys, and each cell's outcome
once it has loaded or searched it.  Per cell of a query, in order:

1. **Exact hit in memory** — an outcome this planner already holds is
   answered inline in :meth:`Planner.plan` (``planner.hit.exact``): no
   task, no executor, no file read.
2. **Exact hit on disk** — otherwise the cell's content hash is loaded
   from the memo store on the I/O pool (``planner.hit.exact``); by the
   store's byte-identical checkpoint contract the answer equals a cold
   search's exactly.
3. **Neighbor seed** — on a miss, the manifest index finds solved cells
   of the same group (same model/cluster/calibration/settings) and
   method at the nearest batch sizes; their winning/frontier configs
   become a :class:`~repro.sim.cost.WarmStartSeed`
   (``planner.hit.seeded``).  Seeding only pre-fills caches the search
   would fill anyway, so the outcome stays byte-identical to cold.
4. **Search** — ``best_configuration`` runs in a dedicated single
   worker thread under a ``search.grid`` span, and the result is
   persisted back to the store for every future query.

Identical in-flight cells are **coalesced**: the first awaiter becomes
the leader and registers a future; later awaiters (`planner.coalesced`)
share its result, so N concurrent identical queries run exactly one
search.  The leader puts the outcome in memory before it releases the
future, with no ``await`` in between: from the moment a cell's first
request starts to resolve it, the cell is in flight or in memory (until
memory evicts it).  The event loop itself never blocks: an in-memory
hit is a dict lookup, and every filesystem or search call is offloaded
to an executor (the repo linter's L503 rule bans blocking calls
directly on the loop in this package).

Threading notes: the search pool is a *single* worker on purpose — the
obs recorder's span stack is not thread-safe, and searches are GIL-bound
anyway; the I/O pool only runs store methods, which are safe to
interleave with the loop thread's counter updates.  Both in-memory maps
are read and written on the event loop thread alone.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

from repro.models.presets import PRESETS
from repro.obs import clock as obs_clock
from repro.obs import get_recorder
from repro.planner.protocol import (
    CLUSTER_ALIASES,
    PlanAnswer,
    PlanRequest,
    ResolvedPlan,
    query_key,
)
from repro.search.cell import DEFAULT_SETTINGS, SweepCell
from repro.search.grid import SearchOutcome, best_configuration
from repro.search.objective import better_result
from repro.search.service.memo import MemoStore
from repro.search.service.serialize import cell_key, group_key
from repro.sim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.sim.cost import WarmStartSeed
from repro.sim.simulator import SimulationResult

__all__ = ["PRESET_MODELS", "Planner"]

#: Model presets whose frontier indexes are precomputed at startup (the
#: committed Figure 7 panels; the large presets have no committed grids).
PRESET_MODELS: tuple[str, ...] = ("52B", "6.6B")

#: Neighbor cells consulted per miss: the nearest solved batch on each
#: side is where the family overlap lives; more only re-warms caches.
_NEIGHBOR_LIMIT = 2

#: Entries each of a planner's two in-memory maps keeps (outcomes by
#: cell key, resolved queries by request) before the oldest goes.
_MEMORY_ENTRIES = 4096


class _Query(NamedTuple):
    """A request resolved and hashed: fixed for a planner's lifetime,
    because the presets, the cluster aliases and its calibration are."""

    resolved: ResolvedPlan
    cells: tuple[SweepCell, ...]
    keys: tuple[str, ...]
    group: str
    query_key: str


def _remember(table: dict, key, value) -> None:
    """Insert into a map bounded by :data:`_MEMORY_ENTRIES`, oldest out."""
    if len(table) >= _MEMORY_ENTRIES and key not in table:
        del table[next(iter(table))]
    table[key] = value


class Planner:
    """Async planning service over a shared memo store.

    Use as a context manager (or call :meth:`close`) so the executor
    threads are reclaimed deterministically::

        with Planner("checkpoints/") as planner:
            answer = asyncio.run(planner.plan(request))
    """

    def __init__(
        self,
        store_dir: str | Path,
        *,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ) -> None:
        self._store = MemoStore(store_dir)
        self._calibration = calibration
        self._search_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="planner-search"
        )
        self._io_pool = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="planner-io"
        )
        self._inflight: dict[str, asyncio.Future] = {}
        self._outcomes: dict[str, SearchOutcome] = {}
        self._queries: dict[PlanRequest, _Query] = {}
        self._preset_index = self._build_preset_index()

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        self._search_pool.shutdown(wait=True)
        self._io_pool.shutdown(wait=True)

    def __enter__(self) -> Planner:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- queries

    @property
    def store(self) -> MemoStore:
        return self._store

    @property
    def calibration(self) -> Calibration:
        return self._calibration

    def preset_frontiers(self) -> dict:
        """Solved batch sizes per method for each committed preset pair.

        Built once at startup from the manifest index alone (no payload
        loads): ``{"<model>/<cluster>": {"<method>": [batches...]}}``.
        The HTTP ``GET /presets`` endpoint serves this verbatim — a
        client can see which queries are exact hits before asking.
        """
        return {
            name: {method: sorted(batches) for method, batches in methods.items()}
            for name, methods in self._preset_index.items()
        }

    async def plan(self, request: PlanRequest) -> PlanAnswer:
        """Answer one query; every cell memoized, seeded, or computed.

        Cells this planner already holds are answered here, with no
        ``await``; only the others go to :meth:`_plan_cell`.
        """
        rec = get_recorder()
        started = obs_clock.perf()
        query = self._query(request)
        rec.count("planner.requests")
        results = [(self._outcomes.get(key), "exact") for key in query.keys]
        missing = [i for i, (held, _) in enumerate(results) if held is None]
        if len(missing) < len(results):
            rec.count("planner.hit.exact", len(results) - len(missing))
        if missing:
            searched = await asyncio.gather(
                *(
                    self._plan_cell(
                        query.resolved, query.cells[i], query.keys[i], query.group
                    )
                    for i in missing
                )
            )
            for i, result in zip(missing, searched):
                results[i] = result
        best: SimulationResult | None = None
        for outcome, _source in results:
            if outcome.best is not None and better_result(outcome.best, best):
                best = outcome.best
        rec.observe("planner.latency.request.seconds", obs_clock.perf() - started)
        return PlanAnswer(
            query_key=query.query_key,
            cell_keys=query.keys,
            outcomes=tuple(outcome for outcome, _source in results),
            sources=tuple(source for _outcome, source in results),
            best=best,
        )

    def _query(self, request: PlanRequest) -> _Query:
        """``request`` resolved and hashed, once per planner."""
        query = self._queries.get(request)
        if query is not None:
            return query
        resolved = request.resolve()
        cells = tuple(
            SweepCell(method, batch)
            for method in resolved.methods
            for batch in resolved.batch_sizes
        )
        query = _Query(
            resolved=resolved,
            cells=cells,
            keys=tuple(
                cell_key(
                    resolved.spec,
                    resolved.cluster,
                    self._calibration,
                    cell,
                    resolved.settings,
                )
                for cell in cells
            ),
            group=group_key(
                resolved.spec, resolved.cluster, self._calibration, resolved.settings
            ),
            query_key=query_key(resolved, self._calibration),
        )
        _remember(self._queries, request, query)
        return query

    # --------------------------------------------------------------- cells

    async def _plan_cell(
        self,
        resolved: ResolvedPlan,
        cell: SweepCell,
        key: str,
        group: str,
    ) -> tuple[SearchOutcome, str]:
        """One cell, coalesced: identical in-flight keys share one result.

        The leader registers its future *synchronously* (no await
        between the membership test and the registration — on a
        single-threaded loop that is what makes the window race-free),
        resolves the cell, puts its outcome in memory, then settles the
        future for every follower.
        """
        rec = get_recorder()
        inflight = self._inflight.get(key)
        if inflight is not None:
            rec.count("planner.coalesced")
            outcome, _source = await inflight
            return outcome, "coalesced"
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        try:
            result = await self._resolve_cell(resolved, cell, key, group)
        except BaseException as exc:
            future.set_exception(exc)
            future.exception()  # mark retrieved: followers re-raise it
            raise
        else:
            _remember(self._outcomes, key, result[0])
            future.set_result(result)
            return result
        finally:
            self._inflight.pop(key, None)

    async def _resolve_cell(
        self,
        resolved: ResolvedPlan,
        cell: SweepCell,
        key: str,
        group: str,
    ) -> tuple[SearchOutcome, str]:
        """Exact hit, else neighbor-seeded (outcome-neutral) search."""
        rec = get_recorder()
        loop = asyncio.get_running_loop()
        started = obs_clock.perf()
        outcome = await loop.run_in_executor(
            self._io_pool, self._store.load, key
        )
        rec.observe("planner.latency.lookup.seconds", obs_clock.perf() - started)
        if outcome is not None:
            rec.count("planner.hit.exact")
            return outcome, "exact"
        seed = await loop.run_in_executor(
            self._io_pool, self._neighbor_seed, group, cell
        )
        source = "computed"
        if seed:
            rec.count("planner.hit.seeded")
            source = "seeded"
        search_started = obs_clock.perf()
        outcome = await loop.run_in_executor(
            self._search_pool,
            functools.partial(self._run_search, resolved, cell, seed),
        )
        rec.observe(
            "planner.latency.search.seconds", obs_clock.perf() - search_started
        )
        await loop.run_in_executor(
            self._io_pool,
            functools.partial(self._store.store, key, outcome, group=group),
        )
        return outcome, source

    # ----------------------------------------- worker-thread code (blocking)

    def _neighbor_seed(self, group: str, cell: SweepCell) -> WarmStartSeed:
        """Warm-start configs from the nearest solved same-group cells.

        Runs on the I/O pool.  Loads at most ``_NEIGHBOR_LIMIT`` payloads
        (found via the manifest index, so misses cost nothing) and
        extracts their winning and frontier configs — the families most
        likely shared with the queried batch size.
        """
        entries = self._store.neighbors(
            group, cell.method.value, cell.batch_size, limit=_NEIGHBOR_LIMIT
        )
        configs: dict = {}
        for entry in entries:
            outcome = self._store.load(entry.key)
            if outcome is None:
                continue
            results = list(outcome.frontier or ())
            if outcome.best is not None:
                results.append(outcome.best)
            for result in results:
                configs.setdefault(result.config, None)
        return WarmStartSeed(configs=tuple(configs))

    def _run_search(
        self, resolved: ResolvedPlan, cell: SweepCell, seed: WarmStartSeed
    ) -> SearchOutcome:
        """Run one cold/seeded search (on the single search thread)."""
        rec = get_recorder()
        with rec.span(
            "search.grid", method=cell.method.name, batch_size=cell.batch_size
        ):
            return best_configuration(
                resolved.spec,
                resolved.cluster,
                cell.method,
                cell.batch_size,
                self._calibration,
                resolved.settings,
                seed=seed if seed else None,
            )

    # ------------------------------------------------------- preset index

    def _build_preset_index(self) -> dict[str, dict[str, set[int]]]:
        """Frontier index for the committed presets, from the manifest.

        For each (preset model, cluster alias) pair under the planner's
        calibration and default settings, collect the solved batch sizes
        per method.  Pure in-memory walk over the already-loaded
        manifest — startup stays O(index), not O(payloads).
        """
        group_of: dict[str, str] = {}
        for model in PRESET_MODELS:
            spec = PRESETS[model]
            for alias, cluster in CLUSTER_ALIASES.items():
                group = group_key(
                    spec, cluster, self._calibration, DEFAULT_SETTINGS
                )
                group_of[group] = f"{model}/{alias}"
        index: dict[str, dict[str, set[int]]] = {}
        for key in self._store.keys():
            entry = self._store.entry_for(key)
            if entry is None or entry.group is None:
                continue
            name = group_of.get(entry.group)
            if name is None:
                continue
            index.setdefault(name, {}).setdefault(entry.method, set()).add(
                entry.batch_size
            )
        return index
