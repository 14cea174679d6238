"""Planner-as-a-service: interactive "best config" queries over the memo store.

The end product of the paper — *which (schedule, parallel configuration)
is best for this model on this cluster?* — served as a query instead of
an offline sweep.  :class:`~repro.planner.core.Planner` is the
in-process async API (what tests and the CLI use);
:mod:`repro.planner.http` wraps it in a stdlib HTTP/JSON front-end for
``repro-experiments serve``.  Answers come from the shared
:class:`~repro.search.service.memo.MemoStore`: exact content-hash hits
load a sweep checkpoint byte-identical to a cold search (once per
planner, which then answers them from memory), near misses
warm-start the search from neighbor cells, identical concurrent queries
coalesce into one search.  See ``docs/planner.md``.
"""

from repro.planner.core import PRESET_MODELS, Planner
from repro.planner.http import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    serve,
    start_planner_server,
)
from repro.planner.protocol import (
    CLUSTER_ALIASES,
    PlanAnswer,
    PlanRequest,
    ResolvedPlan,
    answer_to_json,
    query_key,
    request_from_json,
    request_to_json,
)

__all__ = [
    "CLUSTER_ALIASES",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "PRESET_MODELS",
    "PlanAnswer",
    "PlanRequest",
    "Planner",
    "ResolvedPlan",
    "answer_to_json",
    "query_key",
    "request_from_json",
    "request_to_json",
    "serve",
    "start_planner_server",
]
