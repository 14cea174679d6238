"""The unit of sweep work: one independently searchable grid cell.

Lives in its own module (rather than :mod:`repro.search.sweep`, where it
originated) so both the legacy pool wrappers and the
:mod:`repro.search.service` subsystem can import it without a cycle.
``repro.search.sweep`` re-exports it for compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.parallel.config import Method
from repro.search.objective import DEFAULT_OBJECTIVE, Objective

__all__ = ["DEFAULT_SETTINGS", "SearchSettings", "SweepCell"]


@dataclass(frozen=True)
class SweepCell:
    """One independently searchable grid cell."""

    method: Method
    batch_size: int


@dataclass(frozen=True)
class SearchSettings:
    """Sweep-wide knobs of the candidate-evaluation pipeline.

    Shared by every cell of a sweep (they are part of the search *input*,
    so the service folds them into checkpoint content hashes — see
    :func:`repro.search.service.serialize.cell_key`).

    Attributes:
        bound_pruning: Run the branch-and-bound stage: candidates whose
            analytical step-time lower bound proves they cannot beat the
            incumbent are not simulated (counted in ``n_pruned``).  The
            winning configuration is byte-identical either way; only the
            work and the ``n_tried``/``n_pruned`` split change.  The
            experiments CLI exposes ``--no-bound-pruning``.
        include_hybrid: Enumerate Section 4.2 hybrid-schedule candidates
            (the ``sequence_size`` axis) alongside breadth-first ones.
            Off by default so the paper's Figure 7 / Appendix E grids
            reproduce exactly; the hybrid comparison experiment turns it
            on.
        objective: What each cell optimizes — feasibility, ranking and
            per-objective admissible pruning all delegate to it (see
            :mod:`repro.search.objective`).  The default
            :class:`~repro.search.objective.ThroughputObjective`
            reproduces the paper's argmax byte-identically, checkpoint
            keys included (the serializer omits the default objective
            from hashed payloads).
        verify_winners: Statically verify every configuration a cell
            reports (winner and frontier points) with
            :mod:`repro.verify` before returning — deadlock freedom,
            completeness, schedule-kind ordering and the static memory
            cross-check.  A finding raises
            :class:`~repro.search.grid.WinnerVerificationError` rather
            than letting a corrupt program into results.  Off by
            default (pure post-check: winners are byte-identical either
            way), so it is deliberately *not* part of checkpoint
            content hashes.
    """

    bound_pruning: bool = True
    include_hybrid: bool = False
    objective: Objective = field(default=DEFAULT_OBJECTIVE)
    verify_winners: bool = False  # lint: not-serialized (post-check knob)


DEFAULT_SETTINGS = SearchSettings()
