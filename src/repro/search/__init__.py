"""Appendix E configuration grid search."""

from repro.search.space import configuration_space
from repro.search.grid import SearchOutcome, best_configuration, cached_schedule
from repro.search.cell import DEFAULT_SETTINGS, SearchSettings, SweepCell
from repro.search.objective import (
    DEFAULT_OBJECTIVE,
    OBJECTIVE_KINDS,
    MemoryConstrainedThroughput,
    Objective,
    ParetoFrontObjective,
    ThroughputObjective,
    parse_objective,
)
from repro.search.sweep import sweep_grid
from repro.search.service import SweepOptions, run_sweep

__all__ = [
    "DEFAULT_OBJECTIVE",
    "DEFAULT_SETTINGS",
    "MemoryConstrainedThroughput",
    "OBJECTIVE_KINDS",
    "Objective",
    "ParetoFrontObjective",
    "SearchOutcome",
    "SearchSettings",
    "SweepCell",
    "SweepOptions",
    "ThroughputObjective",
    "best_configuration",
    "cached_schedule",
    "configuration_space",
    "parse_objective",
    "run_sweep",
    "sweep_grid",
]
