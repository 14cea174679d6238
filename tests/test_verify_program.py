"""Level-1 verifier: schedule zoo must be clean, corruptions must fire.

Two halves of the same argument:

- **Soundness-in-practice**: every schedule kind the repo can build,
  across a small (n_pp, n_microbatches, n_loop[, sequence_size]) grid,
  lowers to a program the verifier proves clean (no false positives).
- **Sensitivity**: the mutation harness seeds known corruption classes
  (dropped send, duplicated/dropped backward, misplaced forward,
  reordered 1F1B slot, dependency cycle) and each must be flagged by
  the expected rule (no false negatives for the defect classes the
  verifier claims to cover).
"""

from __future__ import annotations

import pytest

from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B
from repro.verify.cli import zoo_configs
from repro.verify.mutation import (
    LINT_MUTATIONS,
    PROGRAM_MUTATIONS,
    run_mutation_tests,
)
from repro.verify.program import verify_config

ZOO = list(zoo_configs())


def _zoo_id(config) -> str:
    tag = f"{config.schedule.value}-pp{config.n_pp}-mb{config.n_microbatches}"
    if config.n_loop != 1:
        tag += f"-loop{config.n_loop}"
    if config.sequence_size is not None:
        tag += f"-seq{config.sequence_size}"
    return tag


@pytest.mark.parametrize("config", ZOO, ids=_zoo_id)
def test_schedule_zoo_verifies_clean(config):
    report = verify_config(MODEL_6_6B, config, DGX1_CLUSTER_64)
    assert report.ok, report.format()
    assert not report.findings, report.format()


def test_zoo_covers_every_schedule_kind():
    from repro.parallel.config import ScheduleKind

    assert {c.schedule for c in ZOO} == set(ScheduleKind)


@pytest.fixture(scope="module")
def mutation_results():
    return {r.name: r for r in run_mutation_tests()}


@pytest.mark.parametrize(
    "name",
    [m.name for m in PROGRAM_MUTATIONS] + [m.name for m in LINT_MUTATIONS],
)
def test_every_seeded_corruption_is_detected(mutation_results, name):
    result = mutation_results[name]
    assert result.detected, result.format()


def test_mutation_baselines_are_clean(mutation_results):
    for name, result in mutation_results.items():
        if name.startswith("baseline-"):
            assert not result.fired, result.format()


def test_winner_verification_passes_on_clean_search():
    from repro.parallel.config import Method
    from repro.search.grid import best_configuration
    from repro.verify.program import verify_outcome

    outcome = best_configuration(
        MODEL_6_6B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 32
    )
    assert outcome.best is not None
    report = verify_outcome(MODEL_6_6B, DGX1_CLUSTER_64, outcome)
    assert report.ok, report.format()
