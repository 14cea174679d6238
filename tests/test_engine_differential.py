"""Differential suite: every walk over the engine's core against references.

Random programs (1-3 ranks, 1-3 named streams each, up to 24
instructions, durations including 0.0 and 1e-9) check four properties.
Dependencies mostly point at earlier instructions; some point at later
ones, which closes cycles through dependency and FIFO edges, some at
uids the program does not contain, and some instructions reuse an
earlier instruction's uid.

- :func:`repro.sim.engine.run_streams` equals the seed sweep engine
  :func:`engine_sweep.run_streams_sweep` (``tests/engine_sweep.py``),
  the independent oracle: finish times, stream busy, makespan and
  events, or the same exception type and message (``ValueError`` for a
  duplicate uid, :class:`~repro.sim.engine.EngineDeadlock` otherwise);
- :func:`repro.sim.engine.run_streams_delta` replaying a sibling of a
  valid base program (durations changed, stream tails dropped,
  dependencies on absent uids or on later instructions added, uids
  duplicated) equals a fresh ``run_streams`` of the sibling, or raises
  the same exception;
- ``run_streams(..., order=...)`` replaying the program along the order
  :func:`repro.sim.engine.record_order` recorded for it under other
  durations equals both ``run_streams`` and the oracle: finish times,
  stream busy and makespan; and where the program cannot complete,
  recording the order raises what ``run_streams`` raises;
- on programs stripped of absent deps, self-deps and reused uids, the
  static verifier's dependency-cycle findings
  (:func:`repro.verify.deadlock.check_dependency_graph`, which runs the
  core over a copy of the program) sit exactly at the stream heads where
  the oracle blocks, waiting on the same uids, and there are none when
  the oracle completes.

The verifier's copy treats unmatched dependencies, self-dependencies
and repeated uids specially; fixed programs pin those findings exactly.

Comparisons are exact: both engines do the same max/add float
arithmetic in the same order.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    EngineDeadlock,
    Instruction,
    record_order,
    run_streams,
    run_streams_delta,
)
from repro.verify.deadlock import check_dependency_graph

from engine_sweep import run_streams_sweep

STREAM_NAMES = ("compute", "pp", "dp")

DURATIONS = st.one_of(
    st.sampled_from([0.0, 1e-9, 1.0]),
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
)


def _uid(k: int) -> tuple:
    return ("op", k)


def _absent(k: int) -> tuple:
    return ("absent", k)


@st.composite
def programs(draw, *, faults: bool = True) -> dict:
    """A program; with ``faults``, about half are faulty.

    A faulty program has some dependencies on absent uids or on later
    instructions, and some reused uids.  Otherwise every dependency
    points at an earlier instruction and every uid is distinct, so the
    program runs to completion.
    """
    keys = [
        (rank, name)
        for rank in range(draw(st.integers(1, 3)))
        for name in STREAM_NAMES[: draw(st.integers(1, 3))]
    ]
    streams: dict = {key: [] for key in keys}
    n = draw(st.integers(0, 24))
    faults = faults and draw(st.booleans())
    for k in range(n):
        deps = [
            _uid(d)
            for d in draw(
                st.lists(st.integers(0, k - 1), max_size=3, unique=True)
                if k
                else st.just([])
            )
        ]
        uid = _uid(k)
        if faults:
            if draw(st.integers(0, 9)) == 0:
                deps.append(_absent(k))
            if k + 1 < n and draw(st.integers(0, 9)) == 0:
                deps.append(_uid(draw(st.integers(k + 1, n - 1))))
            if k and draw(st.integers(0, 39)) == 0:
                uid = _uid(draw(st.integers(0, k - 1)))
        streams[draw(st.sampled_from(keys))].append(
            Instruction(uid, draw(DURATIONS), tuple(deps))
        )
    return streams


@st.composite
def siblings(draw) -> tuple[dict, dict]:
    """A base program and a sibling differing in a few instructions."""
    base = draw(programs(faults=False))
    n = sum(len(queue) for queue in base.values())
    indices = st.integers(0, max(n - 1, 0))
    changed = draw(st.sets(indices, max_size=3)) if n else set()
    # Dropped tails, absent deps and deps on later instructions deadlock
    # the sibling, and a reused uid is refused; keep them rare enough
    # that most siblings replay to completion.

    def one_fault(target) -> dict:
        """``{instruction: target}`` in about a quarter of the siblings."""
        if n and draw(st.integers(0, 3)) == 0:
            return {draw(indices): draw(target)}
        return {}

    orphaned = one_fault(st.none())
    looped = one_fault(indices)
    renamed = one_fault(indices)
    sibling = {}
    for key, queue in base.items():
        dropped = draw(st.sampled_from((0, 0, 0, 1, 2)))
        kept = max(0, len(queue) - dropped)
        new_queue = []
        for instr in queue[:kept]:
            k = instr.uid[1]
            if k in changed:
                instr = instr._replace(duration=draw(DURATIONS))
            if k in orphaned:
                instr = instr._replace(deps=instr.deps + (_absent(k),))
            if looped.get(k, -1) > k:
                instr = instr._replace(deps=instr.deps + (_uid(looped[k]),))
            if k in renamed:
                instr = instr._replace(uid=_uid(renamed[k]))
            new_queue.append(instr)
        sibling[key] = new_queue
    return base, sibling


def _outcome(run, *, events: bool) -> tuple:
    """Everything a run reports, or the exception it raised."""
    try:
        result = run()
    except (EngineDeadlock, ValueError) as exc:
        return (type(exc), str(exc))
    timeline = [
        (e.start, e.end, e.rank, e.stream, e.label, e.category)
        for e in result.events
    ]
    return (
        result.finish_times,
        result.stream_busy,
        result.makespan,
        timeline if events else None,
    )


@settings(max_examples=400)
@given(programs())
def test_run_streams_matches_sweep_oracle(streams):
    assert _outcome(lambda: run_streams(streams), events=True) == _outcome(
        lambda: run_streams_sweep(streams), events=True
    )


@settings(max_examples=400)
@given(siblings())
def test_delta_replay_matches_fresh_run(pair):
    base_streams, streams = pair
    base = run_streams(base_streams, record_events=False)
    replay = _outcome(
        lambda: run_streams_delta(
            streams, base_streams, base, max_dirty_fraction=1.0
        ),
        events=False,
    )
    fresh = _outcome(
        lambda: run_streams(streams, record_events=False), events=False
    )
    assert replay == fresh


def test_delta_on_empty_program_matches_full_run():
    streams = {(0, "compute"): []}
    base = run_streams(streams, record_events=False)
    replay = run_streams_delta(streams, streams, base)
    assert replay == run_streams(streams, record_events=False)
    assert replay.stream_busy == {(0, "compute"): 0.0}


def _raised(run) -> tuple:
    """The type and message of the exception ``run`` raises."""
    with pytest.raises((EngineDeadlock, ValueError)) as info:
        run()
    return info.type, str(info.value)


@settings(max_examples=400)
@given(programs(), st.data())
def test_ordered_replay_matches_both_engines(streams, data):
    # The order is recorded under other durations: it must hold under any.
    repriced = {
        key: [instr._replace(duration=data.draw(DURATIONS)) for instr in queue]
        for key, queue in streams.items()
    }
    try:
        order = record_order(repriced)
    except (EngineDeadlock, ValueError) as exc:
        replay = (type(exc), str(exc))
    else:
        replay = _outcome(
            lambda: run_streams(streams, record_events=False, order=order),
            events=False,
        )
    assert replay == _outcome(
        lambda: run_streams(streams, record_events=False), events=False
    )
    assert replay == _outcome(
        lambda: run_streams_sweep(streams, record_events=False), events=False
    )


#: One program per way a program cannot complete, and what the engine
#: raises for it.
UNFINISHABLE = {
    "cycle": (
        {
            (0, "compute"): [Instruction(_uid(0), 1.0, (_uid(1),))],
            (1, "compute"): [Instruction(_uid(1), 1.0, (_uid(0),))],
        },
        EngineDeadlock,
    ),
    "absent dep": (
        {(0, "compute"): [Instruction(_uid(0), 1.0, (_absent(0),))]},
        EngineDeadlock,
    ),
    "duplicate uid": (
        {
            (0, "compute"): [Instruction(_uid(0), 1.0)],
            (0, "pp"): [Instruction(_uid(0), 2.0)],
        },
        ValueError,
    ),
}


@pytest.mark.parametrize("name", list(UNFINISHABLE))
def test_order_recording_rejects_with_the_engines_message(name):
    streams, error = UNFINISHABLE[name]
    raised = _raised(lambda: run_streams(streams))
    assert raised[0] is error
    assert _raised(lambda: record_order(streams)) == raised


_LOCATION = re.compile(r"rank (\d+)/(\w+)\[(\d+)\]")


def _as_blocked_head(streams: dict, finding) -> str:
    """A dependency-cycle finding in the oracle's blocked-head form."""
    rank, name, position = _LOCATION.fullmatch(finding.location).groups()
    key = (int(rank), name)
    uid = streams[key][int(position)].uid
    waits = finding.message.partition(" (waits on ")[2][:-1]
    return f"{key}: {uid} waiting on [{waits}]"


def _well_formed(streams: dict) -> dict:
    """``streams`` without absent deps, self-deps or reused uids.

    The verifier reports a self-dep on its own rather than as a cycle.
    Deps on later instructions stay, so cycles stay.
    """
    uids = {instr.uid for queue in streams.values() for instr in queue}
    seen: set = set()
    kept: dict = {}
    for key, queue in streams.items():
        kept[key] = []
        for instr in queue:
            if instr.uid not in seen:
                seen.add(instr.uid)
                deps = tuple(
                    dep for dep in instr.deps if dep in uids and dep != instr.uid
                )
                kept[key].append(instr._replace(deps=deps))
    return kept


@settings(max_examples=400)
@given(programs().map(_well_formed))
def test_dependency_cycles_sit_at_the_oracles_blocked_heads(streams):
    try:
        run_streams_sweep(streams, record_events=False)
        blocked = []
    except EngineDeadlock as exc:
        blocked = [line.strip() for line in str(exc).splitlines()[1:]]
    findings = check_dependency_graph(streams)
    assert all(
        f.rule == "P303" and f.message.startswith("dependency cycle: ")
        for f in findings
    )
    assert sorted(_as_blocked_head(streams, f) for f in findings) == sorted(
        blocked
    )


A, B, C, X = ("op", 0), ("op", 1), ("op", 2), ("op", 3)

#: Programs the verifier's copy changes before the core runs it (a
#: self-dep dropped, an unmatched dep counted as done, a repeated uid
#: renamed), with their exact findings.
SPECIAL_CASES = {
    "self-dep listed twice": (
        {(0, "compute"): [Instruction(A, 1.0, (A, A))]},
        [
            ("P303", "rank 0/compute[0]", "('op', 0) depends on itself"),
            ("P303", "rank 0/compute[0]", "('op', 0) depends on itself"),
        ],
    ),
    "self-dep listed twice on a cycle": (
        {
            (0, "compute"): [Instruction(A, 1.0, (A, B, A))],
            (1, "compute"): [Instruction(B, 1.0, (A,))],
        },
        [
            ("P303", "rank 0/compute[0]", "('op', 0) depends on itself"),
            ("P303", "rank 0/compute[0]", "('op', 0) depends on itself"),
            (
                "P303",
                "rank 0/compute[0]",
                "dependency cycle: ('op', 0) can never start "
                "(waits on ('op', 0), ('op', 1), ('op', 0))",
            ),
            (
                "P303",
                "rank 1/compute[0]",
                "dependency cycle: ('op', 1) can never start "
                "(waits on ('op', 0))",
            ),
        ],
    ),
    "unmatched dep ahead of a cycle": (
        {
            (0, "compute"): [
                Instruction(X, 1.0, (("absent", 0),)),
                Instruction(A, 1.0, (("absent", 1), B)),
            ],
            (1, "compute"): [Instruction(B, 1.0, (A,))],
        },
        [
            (
                "P301",
                "rank 0/compute[0]",
                "('op', 3) waits on dependency on a uid no instruction "
                "carries: ('absent', 0)",
            ),
            (
                "P301",
                "rank 0/compute[1]",
                "('op', 0) waits on dependency on a uid no instruction "
                "carries: ('absent', 1)",
            ),
            (
                "P303",
                "rank 0/compute[1]",
                "dependency cycle: ('op', 0) can never start "
                "(waits on ('op', 1))",
            ),
            (
                "P303",
                "rank 1/compute[0]",
                "dependency cycle: ('op', 1) can never start "
                "(waits on ('op', 0))",
            ),
        ],
    ),
    "repeated uid on a cycle": (
        {
            (0, "compute"): [Instruction(A, 1.0, (B,))],
            (1, "compute"): [Instruction(B, 1.0, (A,))],
            (2, "compute"): [Instruction(A, 1.0, ())],
        },
        [
            (
                "P304",
                "rank 2/compute[0]",
                "duplicate instruction uid ('op', 0) (first emitted at "
                "rank 0/compute[0])",
            ),
            (
                "P303",
                "rank 0/compute[0]",
                "dependency cycle: ('op', 0) can never start "
                "(waits on ('op', 1))",
            ),
            (
                "P303",
                "rank 1/compute[0]",
                "dependency cycle: ('op', 1) can never start "
                "(waits on ('op', 0))",
            ),
        ],
    ),
    "repeated uid waits on its first": (
        {
            (1, "pp"): [Instruction(A, 1.0, (B,))],
            (0, "compute"): [
                Instruction(B, 1.0, (C,)),
                Instruction(C, 1.0, ()),
                Instruction(A, 1.0, (A,)),
            ],
        },
        [
            (
                "P304",
                "rank 0/compute[2]",
                "duplicate instruction uid ('op', 0) (first emitted at "
                "rank 1/pp[0])",
            ),
            (
                "P303",
                "rank 0/compute[0]",
                "dependency cycle: ('op', 1) can never start "
                "(waits on ('op', 2))",
            ),
            (
                "P303",
                "rank 1/pp[0]",
                "dependency cycle: ('op', 0) can never start "
                "(waits on ('op', 1))",
            ),
        ],
    ),
}


@pytest.mark.parametrize("name", list(SPECIAL_CASES))
def test_dependency_graph_special_cases(name):
    streams, expected = SPECIAL_CASES[name]
    findings = check_dependency_graph(streams)
    assert [(f.rule, f.location, f.message) for f in findings] == expected
