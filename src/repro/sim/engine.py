"""Wavefront multi-stream discrete-event engine.

Each (rank, stream) pair executes its instruction list strictly in order,
exactly as CUDA streams consume their kernel queues: the head instruction
starts when all of its dependencies (anywhere in the system) have
finished, and blocks everything behind it until then.

One private core, :func:`_sweep`, advances the program as a wavefront.
It visits the streams in the dict's order and runs each stream's head
for as long as every dependency of the head already has a finish time in
one uid -> finish dict, then sweeps again until a sweep runs nothing.
That dict is the result's ``finish_times``.  The two simulation entry
points only seed the core differently:

- :func:`run_streams` starts every stream at its first instruction with
  an empty dict;
- :func:`run_streams_delta` starts each stream behind the prefix that is
  unchanged from a sibling program, with that prefix's finish times
  copied from the sibling's result, and sweeps only the rest.

:func:`run_wavefront` is the bare core, seeded like :func:`run_streams`,
for callers that need where each stream stopped rather than a result:
the static verifier finds dependency cycles with it.  Schedule
validation and the NumPy runtime run their lowered schedules through
:func:`run_streams`, so this core is the package's one stream walk
besides the oracle.

The core keeps no index: no uid -> id map, no reverse-dependency lists
and no pending counts.  A blocked head is simply re-tested on the next
sweep.  A pipeline program drains in a few dozen sweeps (28 on average
over the Figure-7 grid, counting the last one, 230 at most), so those
re-tests cost less than the index a ready-heap builds on every run:
each program the search builds serves one run, so nothing amortizes an
index.

A program kept and run again under new durations amortizes its order
instead.  Which instructions a sweep can run depends only on which have
run, never on a duration, so the core runs a program in the same order
whatever its durations.  :func:`record_order` runs the core once and
keeps that order, and ``run_streams(..., order=...)`` replays a program
along it in one pass, with no uid lookup, re-test or sweep.  The
wavefront stays the one readiness walk; the order is what it found.
The calibration fit keeps one order per anchor, on the anchor's
lowering (:func:`repro.sim.program.lower_program`); the search keeps
no lowerings, so it runs the wavefront.

An instruction's start time depends only on finish times that are
already final and on its stream's previous instruction, never on the
order the sweeps visit streams in, so both entry points and the ordered
replay match the seed relaxation engine (``run_streams_sweep``, kept
among the tests as the independent oracle) bit for bit, including its
diagnostics: a duplicate uid raises ``ValueError``, and otherwise a
program that stops short of completion reports every blocked stream
head with the dependencies it is waiting on (:func:`record_order`
rejects such a program with the same messages).
``tests/test_differential.py`` holds the parity on real programs and
``tests/test_engine_differential.py`` on random ones.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from repro.obs import get_recorder
from repro.sim.timeline import TimelineEvent


#: An instruction's duration, read as a tuple item.
_DURATION = itemgetter(1)


class EngineDeadlock(Exception):
    """No stream could make progress; the program's dependencies cycle."""


_InstructionFields = namedtuple(
    "_InstructionFields",
    ("uid", "duration", "deps", "label", "category"),
)


class Instruction(_InstructionFields):
    """One schedulable unit on a stream.

    A named tuple rather than a dataclass: programs allocate hundreds of
    thousands of these per grid-search cell, and tuple construction is
    measurably cheaper than frozen-dataclass field assignment.

    Attributes:
        uid: Globally unique hashable id; dependency edges point at uids.
        duration: Execution time in seconds (>= 0).
        deps: Uids that must finish before this instruction starts.
        label: Human-readable name for timelines and errors.
        category: Coarse class for rendering and accounting.
    """

    __slots__ = ()

    def __new__(
        cls,
        uid: tuple,
        duration: float,
        deps: tuple = (),
        label: str = "",
        category: str = "compute",
    ) -> "Instruction":
        if not duration >= 0:  # also refuses NaN
            raise ValueError(f"duration must be >= 0, got {duration}")
        return tuple.__new__(cls, (uid, duration, deps, label, category))


@dataclass
class EngineResult:
    """Execution outcome of :func:`run_streams`.

    Attributes:
        finish_times: Completion time per instruction uid.
        stream_busy: Total busy seconds per (rank, stream).
        makespan: Completion time of the last instruction.
        events: Full timeline, ordered by start time.
    """

    finish_times: dict = field(default_factory=dict)
    stream_busy: dict = field(default_factory=dict)
    makespan: float = 0.0
    events: list[TimelineEvent] = field(default_factory=list)


def _sweep(
    queues: list[list[Instruction]],
    heads: list[int],
    free_at: list[float],
    finish: dict,
    starts: list[list[float]] | None,
) -> int:
    """Run every stream from ``heads`` as far as dependencies allow.

    ``heads`` and ``free_at`` (per stream) and ``finish`` (uid -> finish
    time) are seeded by the caller and advanced in place; ``starts``
    collects each executed instruction's start time per stream when a
    timeline is wanted.  A dependency on a uid absent from the program
    never gets a finish time, so its dependent surfaces as a deadlock.
    Returns the number of sweeps, the last of which ran nothing.
    """
    lookup = finish.get
    live = [s for s, q in enumerate(queues) if heads[s] < len(q)]
    sweeps = 0
    while True:
        sweeps += 1
        progressed = False
        for s in live:
            q = queues[s]
            n = len(q)
            h = head = heads[s]
            f = free_at[s]
            while h < n:
                uid, duration, deps, _, _ = q[h]
                r = 0.0
                for dep in deps:
                    e = lookup(dep)
                    if e is None:
                        break  # blocked until a later sweep
                    if e > r:
                        r = e
                else:
                    start = f if f > r else r
                    f = start + duration
                    finish[uid] = f
                    if starts is not None:
                        starts[s].append(start)
                    h += 1
                    continue
                break
            if h != head:
                heads[s] = h
                free_at[s] = f
                progressed = True
        if not progressed:
            return sweeps
        live = [s for s in live if heads[s] < len(queues[s])]


def run_wavefront(
    queues: list[list[Instruction]],
) -> tuple[list[int], dict]:
    """Run every queue from its first instruction as far as dependencies allow.

    The core without the engine's bookkeeping: no uid checks, no
    ``engine.*`` counters, no deadlock error.  Returns each queue's head
    (the index of its first unrun instruction, or its length when it ran
    to the end) and the uid -> finish-time dict of the instructions that
    ran.
    """
    heads = [0] * len(queues)
    finish: dict = {}
    _sweep(queues, heads, [0.0] * len(queues), finish, None)
    return heads, finish


def _check_complete(
    streams: dict[tuple[int, str], list[Instruction]],
    heads: list[int],
    finish: dict,
) -> None:
    """Report a duplicate uid or a deadlock, if the core stopped short.

    Every instruction run (or copied from a base) adds one entry to
    ``finish``, so the dict holds one entry per instruction exactly when
    the program ran to completion with distinct uids.  Only otherwise is
    the program scanned for a duplicate uid (reported first, as the
    oracle does) and then for the blocked stream heads.
    """
    if len(finish) < sum(map(len, streams.values())):
        seen: set = set()
        for queue in streams.values():
            for instr in queue:
                if instr.uid in seen:
                    raise ValueError(
                        f"duplicate instruction uid {instr.uid!r}"
                    )
                seen.add(instr.uid)
        blocked_heads = []
        for (key, queue), head in zip(streams.items(), heads):
            if head < len(queue):
                instr = queue[head]
                missing = [d for d in instr.deps if d not in finish]
                blocked_heads.append(
                    f"{key}: {instr.label or instr.uid} waiting on {missing}"
                )
        raise EngineDeadlock(
            "program deadlocked; blocked stream heads:\n  "
            + "\n  ".join(blocked_heads)
        )


def _result(
    streams: dict[tuple[int, str], list[Instruction]],
    finish: dict,
    starts: list[list[float]] | None,
) -> EngineResult:
    """Assemble the result of a completed run.

    Stream busy is accumulated left to right in queue order, the order
    FIFO execution adds it in, so the floats do not depend on which
    instructions a replay copied rather than executed.
    """
    # An explicit loop, not sum(): since Python 3.12, sum() compensates
    # float rounding, which FIFO execution (and the oracle) does not.
    stream_busy: dict = {}
    for key, queue in streams.items():
        busy = 0.0
        for instr in queue:
            busy += instr.duration
        stream_busy[key] = busy

    events: list[TimelineEvent] = []
    if starts is not None:
        for ((rank, stream_name), queue), stream_starts in zip(
            streams.items(), starts
        ):
            for instr, start in zip(queue, stream_starts):
                events.append(
                    TimelineEvent(
                        rank=rank,
                        stream=stream_name,
                        start=start,
                        end=finish[instr.uid],
                        label=instr.label,
                        category=instr.category,
                    )
                )
        events.sort(key=lambda e: (e.start, e.rank, e.stream))

    return EngineResult(
        finish_times=finish,
        stream_busy=stream_busy,
        makespan=max(finish.values(), default=0.0),
        events=events,
    )


class ExecutionOrder(NamedTuple):
    """The order the engine's core runs a program's instructions in.

    Made once by :func:`record_order` and replayed by
    ``run_streams(..., order=...)``.  Step ``k`` is the ``k``-th
    instruction to run.  The columns are parallel, one entry per step in
    step order.  ``sources`` and ``deps`` take their ints from one list,
    so each value is one int object however many steps hold it.

    Attributes:
        lengths: Instructions per stream, in the program's stream order.
        sources: Each step's index in the program's instructions taken
            stream by stream: where its duration is read.
        deps: Each step's stream predecessor, if it has one, and then its
            dependencies, as the positions of earlier steps.
        uids: Each step's uid, as the keys of a dict whose values are
            unused.  A replay fills a copy of it, which keeps the keys'
            hashes and never grows.
    """

    lengths: tuple[int, ...]
    sources: tuple[int, ...]
    deps: tuple[tuple[int, ...], ...]
    uids: dict


def record_order(
    streams: dict[tuple[int, str], list[Instruction]],
) -> ExecutionOrder:
    """Record the order the core runs ``streams`` in, to replay it later.

    The core (:func:`run_wavefront`) runs an instruction only after its
    dependencies and its stream predecessor, and which instructions it
    can run depends on no duration, so it runs a program in this order
    whatever the durations are.  Durations are not read: a lowering's
    instructions, whose durations are slot numbers, serve as well as a
    priced program.  A program that cannot complete raises what
    :func:`run_streams` raises, with its messages: ``ValueError`` on a
    duplicate uid, :class:`EngineDeadlock` otherwise.
    """
    queues = list(streams.values())
    heads, finish = run_wavefront(queues)
    _check_complete(streams, heads, finish)
    flat = list(chain.from_iterable(queues))
    index = list(range(len(flat)))
    # ``finish`` holds the uids in the order the core ran them.
    position = dict(zip(finish, index))
    source = dict(zip((instr.uid for instr in flat), index))
    predecessor: list[tuple] = []
    for queue in queues:
        if queue:
            predecessor.append(())
            predecessor += [(position[instr.uid],) for instr in queue[:-1]]
    sources = tuple(map(source.__getitem__, finish))
    return ExecutionOrder(
        lengths=tuple(map(len, queues)),
        sources=sources,
        deps=tuple(
            predecessor[i] + tuple(map(position.__getitem__, flat[i].deps))
            for i in sources
        ),
        uids=dict.fromkeys(finish),
    )


def _replay(
    streams: dict[tuple[int, str], list[Instruction]],
    order: ExecutionOrder,
) -> EngineResult:
    """Run ``streams`` along ``order`` in one pass.

    A step starts at the latest finish among its stream predecessor and
    its dependencies, or at 0.0 without either: the core's start, the
    later of stream-free and the dependencies' finish, compared in the
    same way.  So the finish times equal the core's bit for bit, with no
    uid lookup, re-test or sweep.
    """
    queues = list(streams.values())
    lengths = tuple(map(len, queues))
    if lengths != order.lengths:
        raise ValueError(
            "the order was recorded for another program: stream lengths "
            f"{order.lengths} != {lengths}"
        )
    durations = list(map(_DURATION, chain.from_iterable(queues)))
    # In step order, gathered in one call; itemgetter returns a bare item
    # rather than a tuple when it has one index.
    sources = order.sources
    if len(sources) > 1:
        in_order = itemgetter(*sources)(durations)
    else:
        in_order = tuple(map(durations.__getitem__, sources))
    finish: list[float] = []
    append = finish.append
    for deps, duration in zip(order.deps, in_order):
        r = 0.0
        for p in deps:
            e = finish[p]
            if e > r:
                r = e
        append(r + duration)
    # Each stream's busy adds its durations in queue order, the same
    # additions as _result's (see there), but over the durations column
    # rather than the instructions.
    stream_busy: dict = {}
    end = 0
    for key, length in zip(streams, lengths):
        busy = 0.0
        for duration in durations[end:end + length]:
            busy += duration
        stream_busy[key] = busy
        end += length
    finish_times = order.uids.copy()
    finish_times.update(zip(order.uids, finish))
    return EngineResult(
        finish_times=finish_times,
        stream_busy=stream_busy,
        makespan=max(finish, default=0.0),
    )


def run_streams(
    streams: dict[tuple[int, str], list[Instruction]],
    *,
    record_events: bool = True,
    order: ExecutionOrder | None = None,
) -> EngineResult:
    """Execute all streams; raise :class:`EngineDeadlock` if they cannot finish.

    Args:
        streams: Instruction queues keyed by (rank, stream_name).
        record_events: Set False to skip timeline construction (the grid
            search runs thousands of simulations and only needs times).
        order: The :func:`record_order` result of this program, or of a
            program with the same streams, uids and dependencies (a kept
            lowering's, whatever the durations).  When given, the program
            runs along it in one pass instead of on the wavefront, with
            the same result.  Only the stream lengths are checked
            (``ValueError`` when they differ); it requires
            ``record_events=False``.
    """
    if order is not None:
        if record_events:
            raise ValueError(
                "an ordered run records no timeline: pass record_events=False"
            )
        result = _replay(streams, order)
        rec = get_recorder()
        if rec.enabled:
            rec.count("engine.ordered_runs")
            rec.count("engine.events_popped", len(order.sources))
        return result
    queues = list(streams.values())
    heads = [0] * len(queues)
    finish: dict = {}
    starts = [[] for _ in queues] if record_events else None
    sweeps = _sweep(queues, heads, [0.0] * len(queues), finish, starts)
    rec = get_recorder()
    if rec.enabled:
        rec.count("engine.runs")
        rec.count("engine.events_popped", sum(heads))
        rec.count("engine.sweeps", sweeps)
    _check_complete(streams, heads, finish)
    return _result(streams, finish, starts)


def run_streams_delta(
    streams: dict[tuple[int, str], list[Instruction]],
    base_streams: dict[tuple[int, str], list[Instruction]],
    base: EngineResult,
    *,
    max_dirty_fraction: float = 0.6,
) -> EngineResult | None:
    """Execute ``streams`` by replaying only the suffix differing from a base.

    ``base_streams``/``base`` are the instruction queues and result of a
    previous :func:`run_streams` call for a *sibling* program (same config
    family, one axis changed).  An instruction is **clean** when it sits at
    the same position of the same stream as in the base with identical
    ``(uid, duration, deps)``, every earlier instruction of its stream is
    clean, and every dependency is clean; everything else is **dirty**.
    Clean instructions keep their base finish times bit-exactly — within
    a stream instructions run FIFO, so a clean prefix's timing depends
    only on itself and its (clean) dependencies — and only the dirty
    closure is swept again.

    Returns ``None`` — caller falls back to a full run — when the dirty
    closure exceeds ``max_dirty_fraction`` of the program (the replay
    would cost as much as a fresh run and the bookkeeping is pure
    overhead).  Raises what a fresh run raises: ``ValueError`` on a
    duplicate uid, :class:`EngineDeadlock` when the program cannot
    finish.  The result is bit-identical to ``run_streams(streams,
    record_events=False)``: identical finish times, stream busy sums and
    makespan.  Timelines are never recorded — delta replay serves the
    search fast path, which builds label-free programs.
    """
    queues = list(streams.values())
    uids: set = set()
    dependents: dict = {}
    for s, queue in enumerate(queues):
        for p, instr in enumerate(queue):
            uids.add(instr.uid)
            for dep in instr.deps:
                dependents.setdefault(dep, []).append((s, p))

    # Seed dirtiness: the first per-stream position whose (uid, duration,
    # deps) deviates from the base queue dirties that whole stream suffix
    # (FIFO — everything behind a changed instruction may shift), and a
    # dependency on an absent uid dirties its dependent, which then
    # deadlocks exactly as in a fresh run.
    stack: list[tuple[int, int]] = []
    for s, (key, queue) in enumerate(streams.items()):
        p = 0
        for instr, base_instr in zip(queue, base_streams.get(key, ())):
            if (
                instr.uid != base_instr.uid
                or instr.duration != base_instr.duration
                or instr.deps != base_instr.deps
            ):
                break
            p += 1
        if p < len(queue):
            stack.append((s, p))
    for dep, waiting in dependents.items():
        if dep not in uids:
            stack += waiting
    # Close over dependency and stream-succession edges: a dirty
    # instruction dirties its stream successor (FIFO) and its dependents.
    # Dirty instructions form a suffix of every stream, so the closure
    # only tracks where each stream's clean prefix ends.
    heads = [len(queue) for queue in queues]
    while stack:
        s, p = stack.pop()
        if p >= heads[s]:
            continue
        for dirty in queues[s][p : heads[s]]:
            stack += dependents.get(dirty.uid, ())
        heads[s] = p

    total = sum(map(len, queues))
    reused = sum(heads)
    if total - reused > max_dirty_fraction * total:
        return None

    # Each stream's clean prefix keeps its base finish times, and the
    # replay starts the stream behind it, free from the prefix's end.
    base_finish = base.finish_times
    finish: dict = {}
    free_at = [0.0] * len(queues)
    for s, (queue, head) in enumerate(zip(queues, heads)):
        for instr in queue[:head]:
            finish[instr.uid] = base_finish[instr.uid]
        if head:
            free_at[s] = finish[queue[head - 1].uid]

    sweeps = _sweep(queues, heads, free_at, finish, None)
    rec = get_recorder()
    if rec.enabled:
        rec.count("engine.delta.runs")
        rec.count("engine.delta.replayed", sum(heads) - reused)
        rec.count("engine.delta.reused", reused)
        rec.count("engine.sweeps", sweeps)
    _check_complete(streams, heads, finish)
    return _result(streams, finish, None)
