"""Event-driven multi-stream discrete-event engine.

Each (rank, stream) pair executes its instruction list strictly in order,
exactly as CUDA streams consume their kernel queues: the head instruction
starts when all of its dependencies (anywhere in the system) have
finished, and blocks everything behind it until then.

Time advances through a ready-heap keyed by ``(start_time, rank,
stream)``: an instruction enters the heap the moment it is both at the
head of its stream and has no unfinished dependencies, and completing it
releases its dependents through a reverse-dependency index.  Every
instruction is therefore visited O(deps) times in total, versus once per
relaxation pass in the seed sweep engine.

One private core does the work: an indexing pass (:func:`_index`), the
ready-heap loop (:func:`_execute`) and the shared deadlock report and
result assembly (:func:`_finish`).  The two public entry points only seed
it differently:

- :func:`run_streams` starts every stream at its first instruction;
- :func:`run_streams_delta` starts each stream behind the prefix that is
  unchanged from a sibling program, with that prefix's finish times
  copied from the sibling's result, and replays only the rest.

Because instructions within a stream are FIFO and start times depend only
on already-finalized finish times, the result is deterministic, and both
entry points match the seed sweep engine (preserved as
:func:`repro.sim.engine_sweep.run_streams_sweep`, the independent
oracle) bit for bit, including the deadlock diagnostics: if the heap
drains with instructions still pending, every blocked stream head is
reported with the dependencies it is waiting on.
``tests/test_engine_parity.py`` holds the parity on real programs and
``tests/test_engine_differential.py`` on random ones.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.obs import get_recorder
from repro.sim.timeline import TimelineEvent


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
        if duration < 0:
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


class _Program(NamedTuple):
    """A stream dict translated to dense integer ids (see :func:`_index`)."""

    keys: list  # stream index -> (rank, stream_name)
    instrs: list  # instruction id -> Instruction
    id_of: dict  # uid -> instruction id
    queues: list  # stream index -> instruction ids in FIFO order
    stream_id: list  # instruction id -> stream index
    position: list  # instruction id -> position in its stream
    orders: list  # stream index -> heap tie-break order
    duration: list  # instruction id -> seconds
    dependents: list  # instruction id -> ids waiting on it
    orphans: list  # ids with a dependency on a uid absent from the program


def _index(streams: dict[tuple[int, str], list[Instruction]]) -> _Program:
    """Translate uids to dense integer ids once.

    The hot loop then runs on flat lists instead of hashing uid tuples on
    every visit.  The heap is keyed (start_time, stream_order,
    instruction): stream_order is the stream's rank in (rank, name)
    order, preserving the documented (time, rank, stream) pop ordering
    without comparing tuples.
    """
    keys = list(streams)
    key_order = {key: order for order, key in enumerate(sorted(keys))}
    instrs: list[Instruction] = []
    id_of: dict = {}
    queues: list[list[int]] = []
    stream_id: list[int] = []
    position: list[int] = []
    orders: list[int] = []
    duration: list[float] = []
    next_id = 0
    for s, (key, queue) in enumerate(streams.items()):
        orders.append(key_order[key])
        queues.append(list(range(next_id, next_id + len(queue))))
        instrs += queue
        stream_id += [s] * len(queue)
        position += range(len(queue))
        for instr in queue:
            if instr.uid in id_of:
                raise ValueError(f"duplicate instruction uid {instr.uid!r}")
            id_of[instr.uid] = next_id
            next_id += 1
            duration.append(instr.duration)

    dependents: list[list[int]] = [[] for _ in range(next_id)]
    orphans: list[int] = []
    lookup = id_of.get
    for i, instr in enumerate(instrs):
        for dep in instr.deps:
            d = lookup(dep)
            if d is None:
                orphans.append(i)
            else:
                dependents[d].append(i)
    return _Program(
        keys, instrs, id_of, queues, stream_id, position, orders, duration,
        dependents, orphans,
    )


def _execute(
    program: _Program,
    heads: list[int],
    free_at: list[float],
    pending: list[int],
    ready_at: list[float],
    start_of: list[float],
    end_of: list[float],
    track: bool,
) -> int:
    """Run every stream from ``heads`` as far as dependencies allow.

    The state is seeded by the caller and advanced in place: ``heads``
    and ``free_at`` per stream, ``pending`` (unreleased dependencies),
    ``ready_at`` (latest finished dependency), ``start_of`` and
    ``end_of`` per instruction.  A dependency on a uid absent from the
    program must be counted in ``pending``: it is never released, so its
    dependent surfaces as a deadlock.  Returns the heap's high-water mark
    when ``track`` is set (the loop skips measuring it otherwise).
    """
    queues = program.queues
    stream_id = program.stream_id
    position = program.position
    orders = program.orders
    duration = program.duration
    dependents = program.dependents

    heap: list = []
    push = heapq.heappush
    pop = heapq.heappop
    for s, ids in enumerate(queues):
        if heads[s] < len(ids):
            j = ids[heads[s]]
            if not pending[j]:
                f = free_at[s]
                r = ready_at[j]
                push(heap, (f if f > r else r, orders[s], j))

    heap_high_water = len(heap)
    while heap:
        if track and len(heap) > heap_high_water:
            heap_high_water = len(heap)
        start, _, i = pop(heap)
        s = stream_id[i]
        q = queues[s]
        # Execute the stream's whole runnable run inline: successive head
        # instructions whose dependencies are already resolved never need
        # a heap round-trip, only blocking points do.  Pop order then
        # deviates from strict time order, which is safe — start times
        # depend only on already-finalized finish times and the stream's
        # own tail, never on the order this loop visits instructions.
        while True:
            end = start + duration[i]
            start_of[i] = start
            end_of[i] = end
            for j in dependents[i]:
                if end > ready_at[j]:
                    ready_at[j] = end
                pending[j] -= 1
                if not pending[j]:
                    sj = stream_id[j]
                    if heads[sj] == position[j]:
                        f = free_at[sj]
                        r = ready_at[j]
                        push(heap, (f if f > r else r, orders[sj], j))
            head = heads[s] = heads[s] + 1
            free_at[s] = end
            if head < len(q):
                j = q[head]
                if not pending[j]:
                    r = ready_at[j]
                    start = end if end > r else r
                    i = j
                    continue
            break
    return heap_high_water


def _finish(
    program: _Program,
    heads: list[int],
    start_of: list[float],
    end_of: list[float],
    record_events: bool,
) -> EngineResult:
    """Report a deadlock, or assemble the result of a drained program.

    The instructions in front of each stream's head are exactly the
    executed ones.  Stream busy is summed after the loop in queue order:
    the order FIFO execution accumulates it, so the floats do not depend
    on which instructions a replay copied rather than executed.
    """
    keys, instrs, queues = program.keys, program.instrs, program.queues
    if sum(heads) < len(instrs):
        finished_uids = {
            instrs[i].uid
            for s, ids in enumerate(queues)
            for i in ids[: heads[s]]
        }
        blocked_heads = []
        for s, key in enumerate(keys):
            q = queues[s]
            if heads[s] < len(q):
                instr = instrs[q[heads[s]]]
                missing = [d for d in instr.deps if d not in finished_uids]
                blocked_heads.append(
                    f"{key}: {instr.label or instr.uid} waiting on {missing}"
                )
        raise EngineDeadlock(
            "program deadlocked; blocked stream heads:\n  "
            + "\n  ".join(blocked_heads)
        )

    duration = program.duration
    stream_busy: dict = {}
    for s, key in enumerate(keys):
        busy = 0.0
        for i in queues[s]:
            busy += duration[i]
        stream_busy[key] = busy

    events: list[TimelineEvent] = []
    if record_events:
        for s, (rank, stream_name) in enumerate(keys):
            for i in queues[s]:
                instr = instrs[i]
                events.append(
                    TimelineEvent(
                        rank=rank,
                        stream=stream_name,
                        start=start_of[i],
                        end=end_of[i],
                        label=instr.label,
                        category=instr.category,
                    )
                )
        events.sort(key=lambda e: (e.start, e.rank, e.stream))

    return EngineResult(
        finish_times={instr.uid: end_of[i] for i, instr in enumerate(instrs)},
        stream_busy=stream_busy,
        makespan=max(end_of, default=0.0),
        events=events,
    )


def run_streams(
    streams: dict[tuple[int, str], list[Instruction]],
    *,
    record_events: bool = True,
) -> EngineResult:
    """Execute all streams; raise :class:`EngineDeadlock` if they cannot finish.

    Args:
        streams: Instruction queues keyed by (rank, stream_name).
        record_events: Set False to skip timeline construction (the grid
            search runs thousands of simulations and only needs times).
    """
    program = _index(streams)
    total = len(program.instrs)
    n_streams = len(program.queues)
    heads = [0] * n_streams
    start_of = [0.0] * total
    end_of = [0.0] * total
    # Observability: one flag read per run; when disabled the hot loop
    # pays a single boolean test per blocking point and nothing else.
    rec = get_recorder()
    track = rec.enabled
    heap_high_water = _execute(
        program,
        heads,
        [0.0] * n_streams,
        [len(instr.deps) for instr in program.instrs],
        [0.0] * total,
        start_of,
        end_of,
        track,
    )
    if track:
        rec.count("engine.runs")
        rec.count("engine.events_popped", sum(heads))
        rec.gauge_max("engine.heap_high_water", heap_high_water)
    return _finish(program, heads, start_of, end_of, record_events)


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
    closure is re-executed through the ready-heap.

    Returns ``None`` — caller falls back to a full run — when the dirty
    closure exceeds ``max_dirty_fraction`` of the program (the replay
    would cost as much as a fresh run and the bookkeeping is pure
    overhead).  Raises :class:`EngineDeadlock` exactly when a fresh run
    would.  The result is bit-identical to ``run_streams(streams,
    record_events=False)``: identical finish times, stream busy sums and
    makespan.  Timelines are never recorded — delta replay serves the
    search fast path, which builds label-free programs.
    """
    program = _index(streams)
    instrs, queues = program.instrs, program.queues
    stream_id, position = program.stream_id, program.position
    dependents = program.dependents
    total = len(instrs)

    # Seed dirtiness: the first per-stream position whose (uid, duration,
    # deps) deviates from the base queue dirties that whole stream suffix
    # (FIFO — everything behind a changed instruction may shift), and a
    # dependency on an absent uid dirties its dependent, which then
    # deadlocks exactly as in a fresh run.
    dirty = [False] * total
    stack: list[int] = []
    for s, key in enumerate(program.keys):
        ids = queues[s]
        n_same = 0
        for i, base_instr in zip(ids, base_streams.get(key, ())):
            instr = instrs[i]
            if (
                instr.uid != base_instr.uid
                or instr.duration != base_instr.duration
                or instr.deps != base_instr.deps
            ):
                break
            n_same += 1
        if n_same < len(ids):
            stack.append(ids[n_same])
    stack += program.orphans
    # Close over dependency and stream-succession edges: a dirty
    # instruction dirties its stream successor (FIFO) and its dependents.
    while stack:
        i = stack.pop()
        if dirty[i]:
            continue
        dirty[i] = True
        q = queues[stream_id[i]]
        p = position[i] + 1
        if p < len(q):
            stack.append(q[p])
        stack += dependents[i]

    n_dirty = sum(dirty)
    if n_dirty > max_dirty_fraction * total:
        return None

    # Clean instructions keep their base finish times; each dirty one
    # starts with the latest clean dependency as its ready time and its
    # dirty or absent dependencies pending.
    base_finish = base.finish_times
    end_of = [0.0] * total
    pending = [0] * total
    ready_at = [0.0] * total
    lookup = program.id_of.get
    for i, instr in enumerate(instrs):
        if not dirty[i]:
            end_of[i] = base_finish[instr.uid]
            continue
        for dep in instr.deps:
            d = lookup(dep)
            if d is None or dirty[d]:
                pending[i] += 1
            elif base_finish[dep] > ready_at[i]:
                ready_at[i] = base_finish[dep]

    # Clean instructions form a prefix of every stream: the replay starts
    # each stream behind it, free from the prefix's last finish.
    heads = [0] * len(queues)
    free_at = [0.0] * len(queues)
    for s, ids in enumerate(queues):
        head = 0
        while head < len(ids) and not dirty[ids[head]]:
            head += 1
        heads[s] = head
        if head:
            free_at[s] = end_of[ids[head - 1]]

    _execute(
        program, heads, free_at, pending, ready_at, [0.0] * total, end_of,
        False,
    )
    rec = get_recorder()
    if rec.enabled:
        rec.count("engine.delta.runs")
        rec.count("engine.delta.replayed", sum(heads) - (total - n_dirty))
        rec.count("engine.delta.reused", total - n_dirty)
    return _finish(program, heads, [], end_of, record_events=False)
