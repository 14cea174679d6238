"""The unit of sweep work, and the settings every cell of a sweep shares.

Lives in its own module so :mod:`repro.search.grid`,
:mod:`repro.search.sweep` and the :mod:`repro.search.service` subsystem
can all import it without a cycle.
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

    Every field is hashed into the cell key.  To verify a search
    winner statically, run ``repro-experiments verify --winner
    PANEL[:BATCH]`` (:mod:`repro.verify.cli`).
    """

    bound_pruning: bool = True
    include_hybrid: bool = False
    objective: Objective = field(default=DEFAULT_OBJECTIVE)


DEFAULT_SETTINGS = SearchSettings()
