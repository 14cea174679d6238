"""Pluggable search objectives: what "best configuration" means.

The paper's central trade-off is throughput versus in-flight activation
memory (Figure 7 / Section 5): breadth-first schedules buy
bandwidth-overlap at a memory cost, and the Section 4.2 hybrids give
most of the memory back while matching throughput.  A search that can
only maximize throughput is structurally blind to that second axis —
hybrids can tie but never *win* — so the candidate-evaluation pipeline
delegates every preference decision to an :class:`Objective`:

- which candidates are *feasible* (:meth:`Objective.memory_budget`
  tightens the device-memory filter);
- which of two measured results *ranks higher*
  (:func:`better_result`, shared by all built-in objectives);
- which candidates are *provably not worth simulating*
  (:meth:`ObjectiveState.prunable`, judged against the dual-sided
  :class:`~repro.analytical.lower_bound.CandidateBound`), and
- what the cell finally *reports* (a single winner, and optionally the
  whole throughput/peak-memory Pareto frontier).

Three objectives ship:

- :class:`ThroughputObjective` — the paper's argmax.  The default; the
  search pipeline behaves byte-identically to the pre-objective code,
  including checkpoint keys (the serializer omits the default objective
  from hashed payloads).
- :class:`MemoryConstrainedThroughput` — best throughput subject to
  peak memory <= ``headroom`` of device HBM, a budget tighter than the
  fragmentation limit the plain memory filter applies.  This is the
  Megatron-style "fastest config under a memory budget" question, and
  the one that lets hybrid schedules win cells (ROADMAP follow-on to
  the PR 3 finding).
- :class:`ParetoFrontObjective` — no single winner: the full
  non-dominated set over (throughput, peak memory), reported via
  ``SearchOutcome.frontier``.  ``best`` is the throughput-best frontier
  point, so downstream plotting keeps working.

Adding a new objective (e.g. throughput-per-dollar) is one subclass:
implement the three hooks, register the class in
:data:`OBJECTIVE_KINDS`, and every layer — grid pipeline, bound
pruning, sweep service, checkpoint hashing, CLI — picks it up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar

if TYPE_CHECKING:  # circular-import-free typing only
    from repro.analytical.lower_bound import CandidateBound
    from repro.hardware.cluster import ClusterSpec
    from repro.sim.simulator import SimulationResult

__all__ = [
    "DEFAULT_OBJECTIVE",
    "OBJECTIVE_KINDS",
    "MemoryConstrainedThroughput",
    "Objective",
    "ObjectiveState",
    "ParetoFrontObjective",
    "ThroughputObjective",
    "better_result",
    "dominates",
    "pareto_frontier",
    "parse_objective",
]


def better_result(
    result: "SimulationResult", incumbent: "SimulationResult | None"
) -> bool:
    """Shared ranking rule: throughput, then ``sort_key`` for exact ties.

    Order-independent: the same winner emerges from any visit order,
    which is what keeps pruned and unpruned searches byte-identical and
    sweep results stable across backends and worker orderings.  Every
    built-in objective ranks its single winner with this rule, so a
    cell's ``best`` never depends on which objective found it feasible.
    """
    if incumbent is None:
        return True
    if result.throughput_per_gpu != incumbent.throughput_per_gpu:
        return result.throughput_per_gpu > incumbent.throughput_per_gpu
    return result.config.sort_key < incumbent.config.sort_key


def dominates(a: "SimulationResult", b: "SimulationResult") -> bool:
    """Pareto dominance on (throughput up, peak memory down).

    ``a`` dominates ``b`` when it is at least as good on both axes and
    strictly better on one.
    """
    if a.throughput_per_gpu < b.throughput_per_gpu:
        return False
    if a.memory.total > b.memory.total:
        return False
    return (
        a.throughput_per_gpu > b.throughput_per_gpu
        or a.memory.total < b.memory.total
    )


def pareto_frontier(results) -> tuple["SimulationResult", ...]:
    """The non-dominated subset, deterministically ordered.

    Order-independent in the input (dominance is a property of the set),
    sorted throughput-descending / memory-ascending / ``sort_key`` so
    serialized frontiers are stable across backends and visit orders.
    """
    results = list(results)
    front = [
        r
        for r in results
        if not any(dominates(other, r) for other in results if other is not r)
    ]
    front.sort(
        key=lambda r: (-r.throughput_per_gpu, r.memory.total, r.config.sort_key)
    )
    return tuple(front)


# -------------------------------------------------------------- state objects


class ObjectiveState:
    """Mutable per-cell branch-and-bound state owned by one objective.

    The simulation stage drives it: :meth:`prunable` is consulted before
    each candidate is simulated (only when bound pruning is enabled),
    :meth:`observe` after, and :meth:`best`/:meth:`frontier` once at the
    end.  ``monotone`` declares whether — with candidates ordered best
    throughput-bound first — one prune implies every later candidate is
    prunable too, letting the stage stop at the first prune instead of
    testing the tail.
    """

    #: One prune ends the (bound-ordered) cell when True.
    monotone: ClassVar[bool] = False

    def prunable(self, bound: "CandidateBound") -> bool:
        """May this candidate be skipped without changing the outcome?

        Implementations must be *admissible*: return True only when the
        dual-sided bound proves the candidate cannot alter ``best`` or
        ``frontier`` — the winner/frontier must be identical with
        pruning disabled.
        """
        raise NotImplementedError

    def observe(self, result: "SimulationResult") -> None:
        raise NotImplementedError

    def best(self) -> "SimulationResult | None":
        raise NotImplementedError

    def frontier(self) -> tuple["SimulationResult", ...] | None:
        """The Pareto frontier, or None for single-winner objectives."""
        return None


class _IncumbentState(ObjectiveState):
    """Classic branch-and-bound: keep the single best result seen.

    Admissibility: a candidate whose best-possible throughput (the
    step-time lower bound pushed through the Eq. 11 metric) is
    *strictly* below the incumbent's measured throughput can neither win
    nor tie, so skipping it cannot change the winner.  Ties are never
    pruned, so the ``sort_key`` tie-break sees the same contenders with
    pruning on or off.
    """

    monotone = True

    def __init__(self) -> None:
        self._best: "SimulationResult | None" = None

    def prunable(self, bound: "CandidateBound") -> bool:
        return (
            self._best is not None
            and bound.throughput < self._best.throughput_per_gpu
        )

    def observe(self, result: "SimulationResult") -> None:
        if better_result(result, self._best):
            self._best = result

    def best(self) -> "SimulationResult | None":
        return self._best


class _ParetoState(ObjectiveState):
    """Maintain the running non-dominated set.

    Admissibility: a candidate is pruned only when some *measured*
    result has strictly higher throughput than the candidate's
    throughput bound and no more memory (the memory side of the dual
    bound is exact).  The candidate's true throughput can only be lower
    than its bound, so that result strictly dominates it and it can
    never join the frontier.  Dominance is transitive, so the dominator
    later falling off the frontier changes nothing.  No tail-stop:
    a low-throughput-bound candidate may still carry frontier-worthy
    *memory*, so ``monotone`` stays False.
    """

    monotone = False

    def __init__(self) -> None:
        self._front: list["SimulationResult"] = []

    def prunable(self, bound: "CandidateBound") -> bool:
        return any(
            r.throughput_per_gpu > bound.throughput
            and r.memory.total <= bound.memory_bytes
            for r in self._front
        )

    def observe(self, result: "SimulationResult") -> None:
        if any(dominates(r, result) for r in self._front):
            return
        self._front = [r for r in self._front if not dominates(result, r)]
        self._front.append(result)

    def best(self) -> "SimulationResult | None":
        best: "SimulationResult | None" = None
        for r in self._front:
            if better_result(r, best):
                best = r
        return best

    def frontier(self) -> tuple["SimulationResult", ...]:
        return pareto_frontier(self._front)


# ----------------------------------------------------------------- objectives


@dataclass(frozen=True)
class Objective:
    """What one search cell optimizes.  Frozen, hashable, picklable —
    it rides inside :class:`~repro.search.cell.SearchSettings` through
    every executor backend and into checkpoint content hashes."""

    #: Stable identifier used by the CLI and the JSON round-trip.
    kind: ClassVar[str] = "abstract"

    def memory_budget(self, cluster: "ClusterSpec") -> float | None:
        """Extra peak-memory feasibility budget in bytes, or None.

        The memory filter always applies the device fragmentation limit
        (``MEMORY_HEADROOM`` of HBM); a non-None budget *tightens* it.
        Candidates over the effective limit are counted in
        ``n_excluded`` — the accounting contract covers
        constraint-infeasible candidates like any other exclusion.
        """
        del cluster
        return None

    def new_state(self) -> ObjectiveState:
        raise NotImplementedError

    def params_to_json(self) -> dict[str, Any]:
        """Kind-specific parameters for serialization (see
        :func:`repro.search.service.serialize.objective_to_json`)."""
        return {}


@dataclass(frozen=True)
class ThroughputObjective(Objective):
    """Maximize per-GPU throughput — the paper's (and the default) rule."""

    kind: ClassVar[str] = "throughput"

    def new_state(self) -> ObjectiveState:
        return _IncumbentState()

    @classmethod
    def from_json(cls, data: dict) -> "ThroughputObjective":
        del data
        return cls()


@dataclass(frozen=True)
class MemoryConstrainedThroughput(Objective):
    """Best throughput subject to peak memory <= ``headroom`` x HBM.

    ``headroom`` is a fraction of the device's memory; budgets tighter
    than the plain filter's fragmentation margin (0.92) change which
    configurations are feasible at all, which is exactly what lets
    memory-frugal hybrid and depth-first schedules win cells that
    breadth-first wins on raw throughput.  At ``headroom`` >= the
    fragmentation margin the constraint is a no-op and winners match
    :class:`ThroughputObjective` exactly.
    """

    kind: ClassVar[str] = "memory-constrained"

    headroom: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.headroom <= 1.0:
            raise ValueError(
                f"headroom must be in (0, 1], got {self.headroom}"
            )
        # A float whatever number was given: 1 and 1.0 must hash to one
        # cell key.
        object.__setattr__(self, "headroom", float(self.headroom))

    def memory_budget(self, cluster: "ClusterSpec") -> float:
        return cluster.gpu.memory_bytes * self.headroom

    def new_state(self) -> ObjectiveState:
        return _IncumbentState()

    def params_to_json(self) -> dict[str, Any]:
        return {"headroom": self.headroom}

    @classmethod
    def from_json(cls, data: dict) -> "MemoryConstrainedThroughput":
        return cls(headroom=float(data["headroom"]))


@dataclass(frozen=True)
class ParetoFrontObjective(Objective):
    """Report the whole throughput/peak-memory frontier of a cell.

    ``SearchOutcome.best`` is the throughput-best frontier point (the
    plain argmax up to equal-throughput ties, which Pareto resolves
    toward lower memory first); ``SearchOutcome.frontier`` carries the
    full non-dominated set.
    """

    kind: ClassVar[str] = "pareto"

    def new_state(self) -> ObjectiveState:
        return _ParetoState()

    @classmethod
    def from_json(cls, data: dict) -> "ParetoFrontObjective":
        del data
        return cls()


#: The drop-in replacement for the old hardcoded throughput argmax.
DEFAULT_OBJECTIVE = ThroughputObjective()

#: Selectable objective kinds (CLI names and JSON tags).  Register new
#: objectives here; serialization and ``--objective`` pick them up.
OBJECTIVE_KINDS: dict[str, type[Objective]] = {
    ThroughputObjective.kind: ThroughputObjective,
    MemoryConstrainedThroughput.kind: MemoryConstrainedThroughput,
    ParetoFrontObjective.kind: ParetoFrontObjective,
}


def parse_objective(
    kind: str, *, memory_headroom: float | None = None
) -> Objective:
    """Build an objective from CLI-style arguments.

    ``memory_headroom`` applies only to ``memory-constrained`` (None
    keeps that objective's default budget); passing it with any other
    kind is an error, so a forgotten ``--objective`` flag fails loudly
    instead of silently searching unconstrained.
    """
    if kind not in OBJECTIVE_KINDS:
        raise ValueError(
            f"unknown objective {kind!r}; choose from "
            f"{', '.join(sorted(OBJECTIVE_KINDS))}"
        )
    if kind == MemoryConstrainedThroughput.kind:
        if memory_headroom is None:
            return MemoryConstrainedThroughput()
        return MemoryConstrainedThroughput(headroom=memory_headroom)
    if memory_headroom is not None:
        raise ValueError(
            f"--memory-headroom only applies to the "
            f"{MemoryConstrainedThroughput.kind!r} objective, not {kind!r}"
        )
    return OBJECTIVE_KINDS[kind]()
