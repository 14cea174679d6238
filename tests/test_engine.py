"""Tests for the multi-stream list-scheduling engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import (
    EngineDeadlock,
    Instruction,
    record_order,
    run_streams,
)

from engine_sweep import run_streams_sweep


def instr(uid, dur=1.0, deps=(), label=""):
    return Instruction(uid=uid, duration=dur, deps=tuple(deps), label=label)


class TestBasics:
    def test_sequential_stream(self):
        result = run_streams({(0, "c"): [instr(("a",)), instr(("b",))]})
        assert result.finish_times[("a",)] == pytest.approx(1.0)
        assert result.finish_times[("b",)] == pytest.approx(2.0)

    def test_parallel_streams_overlap(self):
        result = run_streams({
            (0, "c"): [instr(("a",), 2.0)],
            (0, "d"): [instr(("b",), 3.0)],
        })
        assert result.makespan == pytest.approx(3.0)

    def test_dependency_delays_start(self):
        result = run_streams({
            (0, "c"): [instr(("a",), 2.0)],
            (1, "c"): [instr(("b",), 1.0, deps=[("a",)])],
        })
        assert result.finish_times[("b",)] == pytest.approx(3.0)

    def test_head_of_line_blocking(self):
        # Second instruction on stream 1 could run immediately, but the
        # blocked head holds it back (FIFO semantics).
        result = run_streams({
            (0, "c"): [instr(("slow",), 5.0)],
            (1, "c"): [instr(("blocked",), 1.0, deps=[("slow",)]), instr(("free",), 1.0)],
        })
        assert result.finish_times[("free",)] == pytest.approx(7.0)

    def test_zero_duration_allowed(self):
        result = run_streams({(0, "c"): [instr(("z",), 0.0)]})
        assert result.makespan == 0.0

    def test_empty_program(self):
        assert run_streams({}).makespan == 0.0


class TestAccounting:
    def test_busy_time(self):
        result = run_streams({(0, "c"): [instr(("a",), 2.0), instr(("b",), 3.0)]})
        assert result.stream_busy[(0, "c")] == pytest.approx(5.0)

    def test_busy_time_adds_left_to_right_in_queue_order(self):
        # Plain float addition in queue order, as the oracle and FIFO
        # execution add it: 1e16 + 1.0 rounds back to 1e16 each time.  A
        # compensated sum (math.fsum, or sum() on Python >= 3.12) gives
        # 1e16 + 2.0.
        streams = {
            (0, "c"): [
                instr(("a",), 1e16), instr(("b",), 1.0), instr(("c",), 1.0),
            ],
        }
        assert run_streams(streams).stream_busy[(0, "c")] == 1e16
        ordered = run_streams(
            streams, record_events=False, order=record_order(streams)
        )
        assert ordered.stream_busy[(0, "c")] == 1e16

    def test_events_recorded_in_order(self):
        result = run_streams(
            {(0, "c"): [instr(("a",)), instr(("b",))]}, record_events=True
        )
        assert [e.label for e in result.events] == ["", ""]
        assert result.events[0].start <= result.events[1].start

    def test_events_skipped_when_disabled(self):
        result = run_streams(
            {(0, "c"): [instr(("a",))]}, record_events=False
        )
        assert result.events == []

    def test_event_duration(self):
        result = run_streams({(0, "c"): [instr(("a",), 2.5)]})
        assert result.events[0].duration == pytest.approx(2.5)


class TestEventDriven:
    """Orderings the wavefront sweeps must get right."""

    def test_long_cross_stream_chain(self):
        # A strict ping-pong between two streams: every instruction is a
        # blocking point, so each sweep runs one instruction per stream.
        n = 50
        left, right = [], []
        prev = None
        for i in range(n):
            queue, uid = (left, ("L", i)) if i % 2 == 0 else (right, ("R", i))
            queue.append(
                instr(uid, 1.0, deps=[prev] if prev is not None else [])
            )
            prev = uid
        result = run_streams({(0, "c"): left, (1, "c"): right})
        assert result.makespan == pytest.approx(float(n))
        assert result.stream_busy[(0, "c")] == pytest.approx(n / 2)

    def test_dependent_behind_blocked_head_waits(self):
        # The release of a non-head instruction must not start it early.
        result = run_streams({
            (0, "c"): [instr(("gate",), 10.0)],
            (1, "c"): [
                instr(("head",), 1.0, deps=[("gate",)]),
                instr(("tail",), 1.0),  # dep-free, but FIFO-blocked
            ],
        })
        assert result.finish_times[("tail",)] == pytest.approx(12.0)

    def test_zero_duration_chain(self):
        result = run_streams({
            (0, "c"): [instr(("a",), 0.0), instr(("b",), 0.0)],
            (1, "c"): [instr(("c",), 0.0, deps=[("b",)])],
        })
        assert result.makespan == 0.0
        assert len(result.events) == 3

    def test_diamond_dependency_takes_slowest_path(self):
        result = run_streams({
            (0, "c"): [instr(("src",), 1.0)],
            (1, "c"): [instr(("fast",), 1.0, deps=[("src",)])],
            (2, "c"): [instr(("slow",), 5.0, deps=[("src",)])],
            (3, "c"): [instr(("sink",), 1.0, deps=[("fast",), ("slow",)])],
        })
        assert result.finish_times[("sink",)] == pytest.approx(7.0)

    def test_instruction_immutable(self):
        instruction = instr(("a",))
        with pytest.raises(AttributeError):
            instruction.duration = 2.0


class TestErrors:
    def test_deadlock_raises_with_blocked_heads(self):
        with pytest.raises(EngineDeadlock, match="missing"):
            run_streams({
                (0, "c"): [instr(("a",), deps=[("missing",)], label="a-op")],
            })

    def test_cyclic_deadlock(self):
        with pytest.raises(EngineDeadlock):
            run_streams({
                (0, "c"): [instr(("a",), deps=[("b",)])],
                (1, "c"): [instr(("b",), deps=[("a",)])],
            })

    def test_duplicate_uid_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_streams({
                (0, "c"): [instr(("a",))],
                (1, "c"): [instr(("a",))],
            })

    def test_duplicate_uid_is_reported_before_a_deadlock(self):
        # The program also deadlocks on ("missing",); the duplicate uid is
        # the error reported, as the oracle checks uids before running.
        duplicate = r"duplicate instruction uid \('a',\)"
        with pytest.raises(ValueError, match=duplicate):
            run_streams({
                (0, "c"): [instr(("a",)), instr(("b",), deps=[("missing",)])],
                (1, "c"): [instr(("a",))],
            })

    def test_ordered_run_rejects_another_programs_order(self):
        order = record_order({(0, "c"): [instr(("a",)), instr(("b",))]})
        with pytest.raises(ValueError, match="another program"):
            run_streams(
                {(0, "c"): [instr(("a",))]}, record_events=False, order=order
            )

    def test_ordered_run_records_no_timeline(self):
        streams = {(0, "c"): [instr(("a",))]}
        with pytest.raises(ValueError, match="record_events=False"):
            run_streams(streams, order=record_order(streams))

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            Instruction(uid=("x",), duration=-1.0)

    def test_nan_duration_rejected(self):
        # Every comparison with NaN is false: a NaN duration would finish
        # its successors as if it took no time while the makespan read nan.
        with pytest.raises(ValueError, match="duration must be >= 0, got nan"):
            Instruction(uid=("x",), duration=float("nan"))


class TestDeadlockParity:
    """Labelled diagnostics: random programs carry no labels, so these
    hand-written cases pin that a deadlock names the blocked ops by
    label, as the seed engine does."""

    def streams(self):
        return {
            (0, "c"): [instr(("a",), deps=[("b",)], label="a-op")],
            (1, "c"): [
                instr(("b",), deps=[("a",)], label="b-op"),
                instr(("c",)),
            ],
        }

    def test_same_diagnostics_on_cycle(self):
        with pytest.raises(EngineDeadlock) as new_err:
            run_streams(self.streams())
        with pytest.raises(EngineDeadlock) as seed_err:
            run_streams_sweep(self.streams())
        assert str(new_err.value) == str(seed_err.value)
        assert "a-op" in str(new_err.value)
        assert "b-op" in str(new_err.value)

    def test_missing_dependency_reported(self):
        streams = {(0, "c"): [instr(("x",), deps=[("ghost",)])]}
        with pytest.raises(EngineDeadlock, match="ghost"):
            run_streams(streams)

    def test_partial_progress_before_deadlock(self):
        """Executable prefixes run before the deadlock is detected, and
        already-finished work is not listed as missing."""
        streams = {
            (0, "c"): [
                instr(("ok",), label="fine"),
                instr(("stuck",), deps=[("ok",), ("ghost",)], label="stuck-op"),
            ],
        }
        with pytest.raises(EngineDeadlock) as err:
            run_streams(streams)
        message = str(err.value)
        assert "stuck-op" in message
        assert "ghost" in message
        assert "('ok',)" not in message
