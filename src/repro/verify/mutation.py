"""Mutation testing for the verifier itself.

A static verifier that never fires is indistinguishable from one that
works, so this harness injects *known* corruptions — into lowered
programs and into repo sources — and asserts that the matching rule
fires.  Each :class:`Mutation` names the defect class it seeds and the
rule(s) that must flag it; :func:`run_mutation_tests` builds a clean
baseline, applies every mutation, and reports which were detected.
``python -m repro.verify --self-test`` (and the test suite) fail when
any mutation goes undetected or any baseline is not clean.

Program mutations copy the instruction queues before editing; lint
mutations edit in-memory source text and feed it through
:func:`repro.verify.lint.lint_sources`, exactly the path the real
linter uses.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.parallel.config import ParallelConfig, ScheduleKind
from repro.sim.engine import Instruction
from repro.verify.lint import lint_sources
from repro.verify.program import verify_program

if TYPE_CHECKING:
    from repro.core.schedules.base import Schedule

__all__ = [
    "LINT_MUTATIONS",
    "PROGRAM_MUTATIONS",
    "MutationResult",
    "run_mutation_tests",
]

Streams = dict[tuple[int, str], list[Instruction]]


@dataclass(frozen=True)
class MutationResult:
    """Outcome of one seeded corruption.

    Attributes:
        name: Mutation identifier (stable; used in test ids).
        description: The defect class the mutation seeds.
        expected: Rules that must fire for the mutation to count as
            detected (every one of them).
        fired: Rules that actually fired, in discovery order.
    """

    name: str
    description: str
    expected: tuple[str, ...]
    fired: tuple[str, ...]

    @property
    def detected(self) -> bool:
        if not self.expected:  # clean-baseline pseudo-result
            return not self.fired
        return all(rule in self.fired for rule in self.expected)

    def format(self) -> str:
        status = "detected" if self.detected else "MISSED"
        return (
            f"{status}: {self.name} ({self.description}) — expected "
            f"{', '.join(self.expected)}, fired "
            f"{', '.join(sorted(set(self.fired))) or 'nothing'}"
        )


# ------------------------------------------------------ program mutations


def _copy(streams: Mapping[tuple[int, str], Sequence[Instruction]]) -> Streams:
    return {key: list(queue) for key, queue in streams.items()}


def _first(
    streams: Streams, match: Callable[[Instruction], bool]
) -> tuple[tuple[int, str], int]:
    for key in sorted(streams):
        for position, instr in enumerate(streams[key]):
            if match(instr):
                return key, position
    raise AssertionError("mutation target not found in baseline program")


def _has_tag(tag: str) -> Callable[[Instruction], bool]:
    return lambda instr: isinstance(instr.uid, tuple) and instr.uid[0] == tag


def _drop_send(streams: Streams) -> Streams:
    """Delete an activation send: its cross-rank recv never unblocks."""
    key, position = _first(streams, _has_tag("XA"))
    del streams[key][position]
    return streams


def _duplicate_backward(streams: Streams) -> Streams:
    """Emit one backward twice (ambiguous uid + double compute)."""
    key, position = _first(streams, _has_tag("B"))
    streams[key].append(streams[key][position])
    return streams


def _drop_backward(streams: Streams) -> Streams:
    """Delete one backward: the op multiset is incomplete."""
    key, position = _first(streams, _has_tag("B"))
    del streams[key][position]
    return streams


def _misplace_forward(streams: Streams) -> Streams:
    """Move a forward to the wrong rank's compute queue."""
    key, position = _first(streams, _has_tag("F"))
    instr = streams[key].pop(position)
    rank, stream = key
    streams[(rank + 1, stream)].insert(0, instr)
    return streams


def _swap_1f1b_slots(streams: Streams) -> Streams:
    """Swap the first steady-state F/B pair of rank 0 (pure reorder).

    Completeness stays clean — only the 1F1B interleaving rule can
    catch it.
    """
    queue = streams[(0, "compute")]
    compute = [
        i
        for i, instr in enumerate(queue)
        if isinstance(instr.uid, tuple) and instr.uid[0] in ("F", "B")
    ]
    a, b = compute[1], compute[2]
    queue[a], queue[b] = queue[b], queue[a]
    return streams


def _dependency_cycle(streams: Streams) -> Streams:
    """Make an early instruction wait on a later one in its own queue."""
    key, position = _first(streams, _has_tag("F"))
    queue = streams[key]
    later = queue[-1]
    queue[position] = queue[position]._replace(
        deps=tuple(queue[position].deps) + (later.uid,)
    )
    return streams


@dataclass(frozen=True)
class ProgramMutation:
    name: str
    description: str
    expected: tuple[str, ...]
    schedule: ScheduleKind
    apply: Callable[[Streams], Streams]


PROGRAM_MUTATIONS: tuple[ProgramMutation, ...] = (
    ProgramMutation(
        "drop-send",
        "dropped activation send (recv waits forever)",
        ("P301",),
        ScheduleKind.BREADTH_FIRST,
        _drop_send,
    ),
    ProgramMutation(
        "duplicate-backward",
        "one backward emitted twice",
        ("P102", "P304"),
        ScheduleKind.BREADTH_FIRST,
        _duplicate_backward,
    ),
    ProgramMutation(
        "drop-backward",
        "one backward never emitted",
        ("P101",),
        ScheduleKind.BREADTH_FIRST,
        _drop_backward,
    ),
    ProgramMutation(
        "misplace-forward",
        "forward computed on the wrong rank",
        ("P103",),
        ScheduleKind.BREADTH_FIRST,
        _misplace_forward,
    ),
    ProgramMutation(
        "reorder-1f1b",
        "steady-state 1F1B slot pair swapped",
        ("P203",),
        ScheduleKind.ONE_F_ONE_B,
        _swap_1f1b_slots,
    ),
    ProgramMutation(
        "dependency-cycle",
        "instruction depends on a successor in its own queue",
        ("P303",),
        ScheduleKind.BREADTH_FIRST,
        _dependency_cycle,
    ),
)


# --------------------------------------------------------- lint mutations


def _drop_serializer_field(source: str) -> str:
    """Remove n_loop from the config serializer's field tuple."""
    assert '"n_loop",' in source
    return source.replace('"n_loop",', "", 1)


def _unregistered_objective(source: str) -> str:
    """Append an Objective subclass that never joins OBJECTIVE_KINDS."""
    return source + (
        "\n\nclass MutantObjective(Objective):\n"
        '    kind = "mutant"\n'
    )


def _direct_wall_clock(source: str) -> str:
    """Reintroduce a raw wall-clock read where obs_clock is mandated."""
    assert "obs_clock.wall()" in source
    return source.replace("obs_clock.wall()", "time.time()", 1)


def _blocking_store_load(source: str) -> str:
    """Un-offload the memo-store read onto the planner event loop."""
    offloaded = (
        "await loop.run_in_executor(\n"
        "            self._io_pool, self._store.load, key\n"
        "        )"
    )
    assert offloaded in source
    return source.replace(offloaded, "self._store.load(key)", 1)


@dataclass(frozen=True)
class LintMutation:
    name: str
    description: str
    expected: tuple[str, ...]
    path: str
    apply: Callable[[str], str]


LINT_MUTATIONS: tuple[LintMutation, ...] = (
    LintMutation(
        "drop-serializer-field",
        "ParallelConfig.n_loop dropped from the checkpoint serializer",
        ("L101",),
        "src/repro/search/service/serialize.py",
        _drop_serializer_field,
    ),
    LintMutation(
        "unregistered-objective",
        "Objective subclass missing from OBJECTIVE_KINDS",
        ("L201",),
        "src/repro/search/objective.py",
        _unregistered_objective,
    ),
    LintMutation(
        "direct-wall-clock",
        "time.time() bypassing repro.obs.clock in a cell's start time",
        ("L501",),
        "src/repro/search/service/executors.py",
        _direct_wall_clock,
    ),
    LintMutation(
        "blocking-store-load",
        "memo-store load called directly on the planner event loop",
        ("L503",),
        "src/repro/planner/core.py",
        _blocking_store_load,
    ),
)


# --------------------------------------------------------------- driver


def _baseline_program(kind: ScheduleKind) -> tuple[Streams, "Schedule"]:
    from repro.core.schedules.base import schedule_for
    from repro.hardware.cluster import DGX1_CLUSTER_64
    from repro.implementations import default_implementation_for
    from repro.models.presets import MODEL_6_6B
    from repro.sim.cost import CostModel
    from repro.sim.program import build_program

    config = ParallelConfig(
        n_dp=2,
        n_pp=2,
        n_tp=2,
        microbatch_size=1,
        n_microbatches=4,
        n_loop=2 if kind.is_looped else 1,
        schedule=kind,
        sequence_size=2 if kind is ScheduleKind.HYBRID else None,
    )
    schedule = schedule_for(config)
    cost = CostModel(
        spec=MODEL_6_6B,
        config=config,
        cluster=DGX1_CLUSTER_64,
        implementation=default_implementation_for(kind),
    )
    return build_program(cost, schedule, record_events=False), schedule


def run_mutation_tests(root: str | Path | None = None) -> list[MutationResult]:
    """Seed every known corruption; report which rules fired.

    The baselines must verify clean before mutation (a dirty baseline
    would let a mutation "pass" by inheriting pre-existing findings, so
    it is reported as an undetected pseudo-mutation instead).
    """
    if root is None:
        root = Path(__file__).resolve().parents[3]
    root = Path(root)
    results: list[MutationResult] = []

    baselines: dict[ScheduleKind, tuple["Streams", "Schedule"]] = {}
    for mutation in PROGRAM_MUTATIONS:
        if mutation.schedule not in baselines:
            baselines[mutation.schedule] = _baseline_program(mutation.schedule)
            streams, schedule = baselines[mutation.schedule]
            results.append(
                MutationResult(
                    name=f"baseline-{mutation.schedule.value}",
                    description="unmutated baseline must verify clean",
                    expected=(),
                    fired=tuple(
                        f.rule for f in verify_program(streams, schedule)
                    ),
                )
            )
        streams, schedule = baselines[mutation.schedule]
        fired = tuple(
            f.rule
            for f in verify_program(mutation.apply(_copy(streams)), schedule)
        )
        results.append(
            MutationResult(
                name=mutation.name,
                description=mutation.description,
                expected=mutation.expected,
                fired=fired,
            )
        )

    from repro.verify.lint import _scan_paths  # same scan set as lint_repo

    sources = {
        path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
        for path in _scan_paths(root)
        if path.is_file()
    }
    for lint_mutation in LINT_MUTATIONS:
        mutated = dict(sources)
        mutated[lint_mutation.path] = lint_mutation.apply(
            mutated[lint_mutation.path]
        )
        fired = tuple(f.rule for f in lint_sources(mutated))
        results.append(
            MutationResult(
                name=lint_mutation.name,
                description=lint_mutation.description,
                expected=lint_mutation.expected,
                fired=fired,
            )
        )
    return results
