"""Reference relaxation engine (the original `run_streams`).

This is the seed implementation of the multi-stream engine, kept
verbatim as the independent correctness oracle.  It checks every uid
for duplicates up front, then sweeps all streams repeatedly, running
each head instruction whose dependencies have finished, until every
instruction has run or a sweep runs nothing (a deadlock, reported with
every blocked stream head).

The production engine (:mod:`repro.sim.engine`) runs the same wavefront
without the up-front uid scan, drops finished streams from later sweeps
and accumulates stream busy after the run; every stream walk in the
package — simulation, delta replay, schedule validation, the NumPy
runtime's op order and the static verifier's cycle search — goes
through its core.  ``tests/test_engine_parity.py`` asserts both engines
produce identical ``finish_times``, ``stream_busy`` and ``makespan`` on
every schedule kind, and ``tests/test_engine_differential.py`` holds
``run_streams``, ``run_streams_delta`` and the verifier's cycle search
to this oracle on random programs, faulty ones included.
"""

from __future__ import annotations

from repro.sim.engine import EngineDeadlock, EngineResult, Instruction
from repro.sim.timeline import TimelineEvent

__all__ = ["run_streams_sweep"]


def run_streams_sweep(
    streams: dict[tuple[int, str], list[Instruction]],
    *,
    record_events: bool = True,
) -> EngineResult:
    """Execute all streams by full-sweep relaxation (the seed algorithm).

    Args:
        streams: Instruction queues keyed by (rank, stream_name).
        record_events: Set False to skip timeline construction.
    """
    uids_seen: set = set()
    for queue in streams.values():
        for instr in queue:
            if instr.uid in uids_seen:
                raise ValueError(f"duplicate instruction uid {instr.uid!r}")
            uids_seen.add(instr.uid)

    finish: dict = {}
    heads = {key: 0 for key in streams}
    free_at = {key: 0.0 for key in streams}
    busy = {key: 0.0 for key in streams}
    events: list[TimelineEvent] = []
    remaining = sum(len(q) for q in streams.values())

    while remaining > 0:
        progressed = False
        for key, queue in streams.items():
            head = heads[key]
            while head < len(queue):
                instr = queue[head]
                ready = 0.0
                blocked = False
                for dep in instr.deps:
                    done = finish.get(dep)
                    if done is None:
                        blocked = True
                        break
                    if done > ready:
                        ready = done
                if blocked:
                    break
                start = max(free_at[key], ready)
                end = start + instr.duration
                finish[instr.uid] = end
                free_at[key] = end
                busy[key] += instr.duration
                if record_events:
                    rank, stream_name = key
                    events.append(
                        TimelineEvent(
                            rank=rank,
                            stream=stream_name,
                            start=start,
                            end=end,
                            label=instr.label,
                            category=instr.category,
                        )
                    )
                head += 1
                remaining -= 1
                progressed = True
            heads[key] = head
        if not progressed:
            blocked_heads = []
            for key, queue in streams.items():
                if heads[key] < len(queue):
                    instr = queue[heads[key]]
                    missing = [d for d in instr.deps if d not in finish]
                    blocked_heads.append(
                        f"{key}: {instr.label or instr.uid} waiting on {missing}"
                    )
            raise EngineDeadlock(
                "program deadlocked; blocked stream heads:\n  "
                + "\n  ".join(blocked_heads)
            )

    events.sort(key=lambda e: (e.start, e.rank, e.stream))
    return EngineResult(
        finish_times=finish,
        stream_busy=busy,
        makespan=max(finish.values(), default=0.0),
        events=events,
    )
