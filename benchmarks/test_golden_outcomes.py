"""The searched Figure 7 outcomes, byte for byte.

``perfbench/golden.json`` pins one sha256 digest per Figure 7 cell: of
the canonical JSON of ``outcome_to_json``, the bytes a checkpoint
stores.  This test holds the cells the shared session fixtures have
already searched (32 quick cells, all 64 with ``REPRO_FULL=1``) to
those digests, so a change that moves an answer or a work count fails
tier-1 and not only the benchmark.  It searches nothing itself and
only reads the golden file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.experiments.fig7 import PANEL_BATCHES, QUICK_BATCHES
from repro.parallel.config import Method
from repro.search.service.serialize import canonical_dumps, outcome_to_json

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


def _digest(outcome) -> str:
    text = canonical_dumps(outcome_to_json(outcome))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_searched_outcomes_match_the_golden_digests(
    quick, fig7_52b, fig7_66b, fig7_ethernet
):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["cells"]
    digests = {
        f"{panel.name}/{outcome.method.value}/{outcome.batch_size}": _digest(
            outcome
        )
        for panel in (fig7_52b, fig7_66b, fig7_ethernet)
        for outcomes in panel.outcomes.values()
        for outcome in outcomes
    }
    batches = QUICK_BATCHES if quick else PANEL_BATCHES
    assert set(digests) == {
        f"{panel}/{method.value}/{batch}"
        for panel, sizes in batches.items()
        for method in Method
        for batch in sizes
    }
    moved = sorted(cell for cell, digest in digests.items() if golden[cell] != digest)
    assert not moved, (
        f"{len(moved)} of {len(digests)} searched cells differ from "
        f"{GOLDEN_PATH.name}: " + ", ".join(moved)
    )
