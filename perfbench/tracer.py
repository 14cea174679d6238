"""Per-layer timing spans, installed around the program from outside it.

The program under test is not edited: :func:`install` replaces, in the
module where each caller looks it up, every public entry point of the
layers listed in :data:`LAYERS` with a wrapper that opens a span.
Callers bind names with ``from ... import``, so a wrapper has to replace
the caller's name (``repro.search.grid.simulate``), not only the
definition (``repro.sim.simulator.simulate``).

A layer's *self time* is its span time minus the wrapped child spans
inside it, where span time is the CPU time of the thread the span runs
on.  Spans nest per thread.  A coroutine is timed slice by slice:
only the stretches in which it runs on the event loop count, never the
time it spends suspended in an ``await``.  A lazy iterator is timed per
``next()``, so the time is the producer's, not the consumer's.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time

__all__ = ["LAYERS", "TracedRun", "Tracer", "install"]

#: The layers, one per module of the program, in pipeline order.
LAYERS = (
    "search.space",
    "analytical.memory",
    "sim.cost",
    "sim.cost_batch",
    "analytical.lower_bound",
    "core.schedules",
    "sim.program",
    "sim.engine",
    "sim.simulator",
    "search.grid",
    "search.service",
    "search.service.memo",
    "search.service.serialize",
    "planner.core",
    "planner.http",
    "fit",
)

#: Span time is the thread's CPU time: a span on one thread must not absorb
#: the time it waits for the GIL while another thread runs (plan-stream's
#: server runs its event loop, I/O pool and search thread concurrently).
#: On the single-threaded workloads it equals wall time.
_cpu = time.thread_time
_wall = time.perf_counter


class Tracer:
    """Span stacks and per-layer totals, one set per thread.

    ``rows`` maps a layer to ``[calls, self seconds]``; ``counts`` holds
    the work counts the wrappers read off return values.  Each thread
    writes only its own dictionaries, and :meth:`table` merges them once
    the traced work has finished.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[tuple[list, dict, dict]] = []

    def _state(self) -> tuple[list, dict, dict]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {}, {})
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def count(self, name: str, value: float = 1) -> None:
        counts = self._state()[2]
        counts[name] = counts.get(name, 0) + value

    def _open(self, layer: str) -> tuple[list, dict, list]:
        stack, rows, _counts = self._state()
        frame = [layer, _cpu(), 0.0]
        stack.append(frame)
        return stack, rows, frame

    @staticmethod
    def _close(stack: list, rows: dict, frame: list, calls: int) -> float:
        elapsed = _cpu() - frame[1]
        stack.pop()
        row = rows.get(frame[0])
        if row is None:
            row = rows[frame[0]] = [0, 0.0]
        row[0] += calls
        row[1] += elapsed - frame[2]
        if stack:
            stack[-1][2] += elapsed
        return elapsed

    # ------------------------------------------------------------ wrappers

    def wrap(self, layer: str, fn, on_result=None):
        """A synchronous function as one span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, rows, frame = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stack, rows, frame, 1)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_iterator(self, layer: str, fn, counter: str):
        """A function returning a lazy iterator: each ``next()`` is a span."""
        tracer = self

        class _Timed:
            __slots__ = ("_it",)

            def __init__(self, it) -> None:
                self._it = it

            def __iter__(self):
                return self

            def __next__(self):
                stack, rows, frame = tracer._open(layer)
                try:
                    item = next(self._it)
                finally:
                    tracer._close(stack, rows, frame, 0)
                tracer.count(counter)
                return item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, rows, frame = self._open(layer)
            try:
                it = iter(fn(*args, **kwargs))
            finally:
                self._close(stack, rows, frame, 1)
            return _Timed(it)

        return traced

    def wrap_async(self, layer: str, fn, on_done=None):
        """A coroutine function: each run between two awaits is a span.

        ``on_done(result, seconds)`` receives the awaited result and the
        wall time from the first slice to completion, suspensions included.
        """
        tracer = self

        class _Slices:
            __slots__ = ("_coro",)

            def __init__(self, coro) -> None:
                self._coro = coro

            def __await__(self):
                coro = self._coro
                value, error = None, None
                while True:
                    stack, rows, frame = tracer._open(layer)
                    try:
                        if error is None:
                            yielded = coro.send(value)
                        else:
                            yielded = coro.throw(error)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer._close(stack, rows, frame, 0)
                    try:
                        value, error = (yield yielded), None
                    except GeneratorExit:
                        coro.close()
                        raise
                    except BaseException as exc:
                        # Cancellation and errors the event loop throws
                        # in belong to the wrapped coroutine: forward
                        # them, and it re-raises what it does not handle.
                        value, error = None, exc

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            tracer.count(f"{layer}.calls")
            started = _wall()
            result = await _Slices(fn(*args, **kwargs))
            if on_done is not None:
                on_done(result, _wall() - started)
            return result

        return traced

    # -------------------------------------------------------------- output

    def table(self) -> tuple[dict[str, list], dict[str, float]]:
        """Merged ``({layer: [calls, self_s]}, counts)`` over all threads."""
        rows: dict[str, list] = {}
        counts: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for _stack, thread_rows, thread_counts in states:
            for layer, (calls, seconds) in thread_rows.items():
                row = rows.setdefault(layer, [0, 0.0])
                row[0] += calls
                row[1] += seconds
            for name, value in thread_counts.items():
                counts[name] = counts.get(name, 0) + value
        # Coroutine calls are counted at their first slice, not per slice.
        for layer in LAYERS:
            extra = counts.pop(f"{layer}.calls", 0)
            if extra:
                rows.setdefault(layer, [0, 0.0])[0] += int(extra)
        return rows, counts


# ---------------------------------------------------------------- install


def _patch(module_name: str, owner: str | None, name: str, make) -> None:
    """Replace ``module.name`` (or ``module.owner.name``) with ``make(old)``."""
    target = importlib.import_module(module_name)
    if owner is not None:
        target = getattr(target, owner)
    setattr(target, name, make(getattr(target, name)))


class _SubmitStamped:
    """A method whose *attribute lookup* time is recorded.

    ``Planner`` hands ``functools.partial(self._run_search, ...)`` to its
    single search thread, so the lookup happens when a miss is queued
    and the call when the thread picks it up; the gap is the miss's wait
    for the search thread.
    """

    def __init__(self, tracer: Tracer, traced) -> None:
        self._tracer = tracer
        self._traced = traced

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self._traced
        queued = _wall()
        tracer, traced = self._tracer, self._traced

        def call(*args, **kwargs):
            started = _wall()
            tracer.count("planner.core.search_wait_s", started - queued)
            try:
                return traced(obj, *args, **kwargs)
            finally:
                tracer.count("planner.core.search_busy_s", _wall() - started)

        return call


def install(tracer: Tracer, plan_durations: list) -> None:
    """Wrap every layer's entry points where their callers look them up.

    ``plan_durations`` collects ``(sources, seconds)`` for every
    ``Planner.plan`` call, the server-side half of the client-observed
    hit latency.
    """
    wrap = tracer.wrap

    def counting(layer: str, counter: str, measure):
        return lambda fn: wrap(
            layer, fn, lambda result: tracer.count(counter, measure(result))
        )

    def plain(layer: str):
        return lambda fn: wrap(layer, fn)

    def count_memo_load(outcome) -> None:
        tracer.count("search.service.memo.loads")
        tracer.count("search.service.memo.hits", int(outcome is not None))

    def count_delta(result) -> None:
        tracer.count("sim.engine.delta_calls")
        tracer.count("sim.engine.delta_replayed", int(result[2]))

    sync = (
        # analytical.memory: the feasibility filter and its other callers.
        ("repro.search.grid", None, "memory_model", plain("analytical.memory")),
        ("repro.sim.simulator", None, "memory_model", plain("analytical.memory")),
        ("repro.fit.residuals", None, "memory_model", plain("analytical.memory")),
        # sim.cost: model construction and the memoized duration tables.
        ("repro.search.grid", None, "CostModel", plain("sim.cost")),
        ("repro.sim.simulator", None, "CostModel", plain("sim.cost")),
        ("repro.sim.cost", "CostModel", "stage_times", plain("sim.cost")),
        ("repro.sim.cost", "CostModel", "comm_times", plain("sim.cost")),
        # sim.cost_batch: vectorized family pricing and bound partials.
        ("repro.search.grid", None, "warm_family_tables",
         counting("sim.cost_batch", "sim.cost_batch.families_priced",
                  lambda result: result[0])),
        ("repro.search.grid", None, "warm_seed_caches", plain("sim.cost_batch")),
        ("repro.analytical.lower_bound", None, "bound_partials",
         plain("sim.cost_batch")),
        ("repro.analytical.lower_bound", None, "comm_rank_sums",
         plain("sim.cost_batch")),
        # analytical.lower_bound
        ("repro.search.grid", None, "candidate_bound",
         plain("analytical.lower_bound")),
        # core.schedules: schedule construction (cache misses in the search).
        ("repro.search.grid", None, "build_schedule", plain("core.schedules")),
        ("repro.sim.simulator", None, "build_schedule", plain("core.schedules")),
        ("repro.fit.residuals", None, "build_schedule", plain("core.schedules")),
        # sim.program: instructions materialized per build.
        ("repro.sim.simulator", None, "build_program",
         counting("sim.program", "sim.program.instructions",
                  lambda streams: sum(len(q) for q in streams.values()))),
        # sim.engine
        ("repro.sim.simulator", None, "run_streams", plain("sim.engine")),
        ("repro.sim.simulator", None, "run_streams_delta", plain("sim.engine")),
        # sim.simulator: one call per simulation.
        ("repro.search.grid", None, "simulate", plain("sim.simulator")),
        ("repro.search.grid", None, "simulate_delta",
         lambda fn: wrap("sim.simulator", fn, count_delta)),
        ("repro.fit.residuals", None, "simulate", plain("sim.simulator")),
        # search.grid: one call per searched cell.
        ("repro.search.service.executors", None, "best_configuration",
         plain("search.grid")),
        ("repro.planner.core", None, "best_configuration", plain("search.grid")),
        # search.service: the sweep entry point and its per-cell task.
        ("repro.search.sweep", None, "run_sweep", plain("search.service")),
        ("repro.search.service.executors", None, "_timed_search",
         plain("search.service")),
        # search.service.memo: the planner's answer store.
        ("repro.search.service.memo", "MemoStore", "__init__",
         plain("search.service.memo")),
        ("repro.search.service.memo", "MemoStore", "load",
         lambda fn: wrap("search.service.memo", fn, count_memo_load)),
        ("repro.search.service.memo", "MemoStore", "store",
         plain("search.service.memo")),
        ("repro.search.service.memo", "MemoStore", "neighbors",
         plain("search.service.memo")),
        # search.service.serialize: keys and JSON round trips.
        ("repro.search.service.service", None, "cell_key",
         plain("search.service.serialize")),
        ("repro.planner.core", None, "cell_key", plain("search.service.serialize")),
        ("repro.planner.core", None, "group_key",
         plain("search.service.serialize")),
        ("repro.search.service.checkpoint", None, "outcome_to_json",
         plain("search.service.serialize")),
        ("repro.search.service.checkpoint", None, "outcome_from_json",
         plain("search.service.serialize")),
        ("repro.search.service.checkpoint", None, "canonical_dumps",
         plain("search.service.serialize")),
        ("repro.search.service.memo", None, "canonical_dumps",
         plain("search.service.serialize")),
        ("repro.planner.protocol", None, "outcome_to_json",
         plain("search.service.serialize")),
        ("repro.planner.protocol", None, "result_to_json",
         plain("search.service.serialize")),
        ("repro.planner.protocol", None, "canonical_dumps",
         plain("search.service.serialize")),
        ("repro.planner.http", None, "canonical_dumps",
         plain("search.service.serialize")),
        # planner.core: the blocking halves that run on worker threads.
        ("repro.planner.core", "Planner", "__init__", plain("planner.core")),
        ("repro.planner.core", "Planner", "_neighbor_seed", plain("planner.core")),
        # fit: the fitter and one call per trial calibration.
        ("repro.experiments.runner", None, "fit_calibration", plain("fit")),
        ("repro.fit.residuals", "AnchorEvaluator", "__init__", plain("fit")),
        ("repro.fit.residuals", "AnchorEvaluator", "evaluate", plain("fit")),
    )
    for module_name, owner, name, make in sync:
        _patch(module_name, owner, name, make)

    # search.space: configuration_space is lazy, so time its iteration.
    _patch(
        "repro.search.grid", None, "configuration_space",
        lambda fn: tracer.wrap_iterator(
            "search.space", fn, "search.space.candidates"
        ),
    )

    # planner.core: the coroutines, and the search thread's entry point.
    def record_plan(answer, seconds: float) -> None:
        plan_durations.append((list(answer.sources), seconds))

    _patch("repro.planner.core", "Planner", "plan",
           lambda fn: tracer.wrap_async("planner.core", fn, record_plan))
    _patch("repro.planner.core", "Planner", "_plan_cell",
           lambda fn: tracer.wrap_async("planner.core", fn))
    _patch("repro.planner.core", "Planner", "_run_search",
           lambda fn: _SubmitStamped(tracer, wrap("planner.core", fn)))
    # planner.http: one connection handler per request.
    _patch("repro.planner.http", None, "_handle",
           lambda fn: tracer.wrap_async("planner.http", fn))


class TracedRun:
    """Tracer, wrappers and an obs registry for one traced process.

    The registry supplies counters the program already records
    (``engine.events_popped``, ``engine.delta.replayed``,
    ``search.bound.tightness.*``); pricing-table misses come from
    ``cache_info()`` deltas, because the tables are cache objects that
    the search itself also reads.
    """

    def __init__(self) -> None:
        from repro.obs import MetricsRegistry
        from repro.obs import install as install_recorder
        from repro.sim.cost import comm_time_table, stage_time_table

        self.tracer = Tracer()
        self.plan_durations: list = []
        install(self.tracer, self.plan_durations)
        self.registry = MetricsRegistry(actor="perfbench")
        install_recorder(self.registry)
        self._tables = (stage_time_table, comm_time_table)
        self._misses = [table.cache_info().misses for table in self._tables]

    def summary(self) -> dict:
        """Layer rows, work counts (bound tightness median included) and
        ``Planner.plan`` durations."""
        rows, counts = self.tracer.table()
        stage, comm = (
            table.cache_info().misses - before
            for table, before in zip(self._tables, self._misses)
        )
        counts["sim.cost.stage_misses"] = stage
        counts["sim.cost.comm_misses"] = comm
        counters = self.registry.counters
        counts["sim.engine.events"] = int(
            counters.get("engine.events_popped", 0)
            + counters.get("engine.delta.replayed", 0)
        )
        tightness = [
            value
            for name, values in self.registry.histograms.items()
            if name.startswith("search.bound.tightness.")
            for value in values
        ]
        if tightness:
            counts["analytical.lower_bound.tightness_p50"] = statistics.median(
                tightness
            )
        return {
            "layers": rows,
            "counts": counts,
            "plan_durations": self.plan_durations,
        }
