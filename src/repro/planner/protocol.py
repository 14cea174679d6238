"""Planner wire protocol: requests, answers, and query keys.

A :class:`PlanRequest` names everything a plan query depends on —
model preset, cluster, objective, batch sizes, method subset — in plain
JSON-able values, so the same object serves the in-process API, the CLI
``repro-experiments plan`` subcommand, and the HTTP front-end.

Query keys extend the checkpoint cell-key scheme one level up: a *cell
key* (:func:`repro.search.service.serialize.cell_key`) hashes one
(method, batch size) search; a *query key* hashes the whole request —
the same context payload plus the method and batch-size lists, tagged
``"scope": "plan"`` so the two hash families can never collide.  A
query therefore decomposes into exactly the cell keys the sweep service
would compute for its cells, which is what lets the planner serve
exact hits straight out of a sweep's :class:`~repro.search.service.
memo.MemoStore` without ever having run itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import MISSING, dataclass, field, fields

from repro.hardware.cluster import (
    DGX1_CLUSTER_64,
    DGX1_CLUSTER_64_ETHERNET,
    ClusterSpec,
)
from repro.models.presets import PRESETS
from repro.models.spec import TransformerSpec
from repro.parallel.config import Method
from repro.search.cell import SearchSettings
from repro.search.grid import SearchOutcome
from repro.search.objective import parse_objective
from repro.search.service.serialize import (
    FORMAT_VERSION,
    canonical_dumps,
    context_to_json,
    outcome_to_json,
    result_to_json,
    settings_to_json,
)
from repro.sim.calibration import Calibration
from repro.sim.simulator import SimulationResult

__all__ = [
    "CLUSTER_ALIASES",
    "PlanAnswer",
    "PlanRequest",
    "ResolvedPlan",
    "answer_to_json",
    "query_key",
    "request_from_json",
    "request_to_json",
]

#: Cluster presets addressable by request, keyed by short stable alias
#: (the display names carry spaces and parentheses).
CLUSTER_ALIASES: dict[str, ClusterSpec] = {
    "dgx1-64": DGX1_CLUSTER_64,
    "dgx1-64-ethernet": DGX1_CLUSTER_64_ETHERNET,
}


@dataclass(frozen=True)
class PlanRequest:
    """One planner query, in wire-friendly terms.

    Attributes:
        model: Model preset name (:data:`repro.models.presets.PRESETS`).
        cluster: Cluster alias (:data:`CLUSTER_ALIASES`).
        batch_sizes: Global batch sizes to plan for.
        objective: Objective kind
            (:data:`repro.search.objective.OBJECTIVE_KINDS`).
        memory_headroom: Budget for the ``memory-constrained``
            objective; must be omitted for every other kind.
        include_hybrid: Enumerate the Section 4.2 hybrid-schedule axis.
        methods: ``Method.value`` names to search; empty means all four
            standard methods.
    """

    model: str
    cluster: str
    batch_sizes: tuple[int, ...]
    objective: str = "throughput"
    memory_headroom: float | None = None
    include_hybrid: bool = False
    methods: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Values are checked, never coerced: ``int("16")`` or
        # ``bool("false")`` would silently plan something other than
        # what the caller asked for.  Equal requests must hash to one
        # key, and 8.0 == 8 and 1 == True, but neither pair serializes
        # alike.
        for name, (check, what) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not check(value):
                raise ValueError(f"{name!r} must be {what}, got {value!r}")
        # Tuples whatever sequence the caller passed: a request is a key
        # (the planner keeps each request's resolved cells by it).
        object.__setattr__(self, "batch_sizes", tuple(self.batch_sizes))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.memory_headroom is not None:
            object.__setattr__(
                self, "memory_headroom", float(self.memory_headroom)
            )
        if not self.batch_sizes:
            raise ValueError("batch_sizes must not be empty")
        if any(b <= 0 for b in self.batch_sizes):
            raise ValueError(f"batch sizes must be positive: {self.batch_sizes}")
        if len(set(self.batch_sizes)) != len(self.batch_sizes):
            raise ValueError(f"duplicate batch sizes: {self.batch_sizes}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"duplicate methods: {self.methods}")

    def resolve(self) -> ResolvedPlan:
        """Bind names to objects; raises ``ValueError`` on unknown ones."""
        spec = PRESETS.get(self.model)
        if spec is None:
            raise ValueError(
                f"unknown model {self.model!r}; choose from "
                f"{', '.join(sorted(PRESETS))}"
            )
        cluster = CLUSTER_ALIASES.get(self.cluster)
        if cluster is None:
            raise ValueError(
                f"unknown cluster {self.cluster!r}; choose from "
                f"{', '.join(sorted(CLUSTER_ALIASES))}"
            )
        settings = SearchSettings(
            include_hybrid=self.include_hybrid,
            objective=parse_objective(
                self.objective, memory_headroom=self.memory_headroom
            ),
        )
        if self.methods:
            methods = tuple(Method(name) for name in self.methods)
        else:
            methods = tuple(Method)
        return ResolvedPlan(
            spec=spec,
            cluster=cluster,
            settings=settings,
            methods=methods,
            batch_sizes=tuple(self.batch_sizes),
        )


@dataclass(frozen=True)
class ResolvedPlan:
    """A request with every name resolved to its object."""

    spec: TransformerSpec
    cluster: ClusterSpec
    settings: SearchSettings
    methods: tuple[Method, ...]
    batch_sizes: tuple[int, ...]


def query_key(resolved: ResolvedPlan, calibration: Calibration) -> str:
    """Content hash of one plan query.

    Same canonical-JSON construction as
    :func:`~repro.search.service.serialize.cell_key`, over the same
    context payload, but carrying the *lists* of methods and batch
    sizes instead of a single cell — plus a ``"scope"`` tag so plan
    hashes and cell hashes stay disjoint families.  Two requests share
    a key exactly when their answers must be identical.
    """
    payload = {
        "format": FORMAT_VERSION,
        "scope": "plan",
        "methods": [m.value for m in resolved.methods],
        "batch_sizes": list(resolved.batch_sizes),
        "settings": settings_to_json(resolved.settings),
        **context_to_json(resolved.spec, resolved.cluster, calibration),
    }
    digest = hashlib.sha256(canonical_dumps(payload).encode("utf-8"))
    return digest.hexdigest()[:20]


@dataclass(frozen=True)
class PlanAnswer:
    """Everything a plan query returns.

    Attributes:
        query_key: :func:`query_key` of the request that produced this.
        cell_keys: Checkpoint cell key of each searched cell, aligned
            with ``outcomes`` — the decomposition the memo store caches.
        outcomes: One :class:`~repro.search.grid.SearchOutcome` per
            (method, batch size) cell, methods-major, batch-minor.
        sources: Where each outcome came from, aligned with
            ``outcomes``: ``"exact"`` (memo hit), ``"seeded"``
            (searched with a neighbor warm start), ``"computed"``
            (cold search), or ``"coalesced"`` (shared an identical
            in-flight cell's result).
        best: The single best simulation across all cells under the
            request's objective ranking, or ``None`` if nothing was
            feasible anywhere.
    """

    query_key: str
    cell_keys: tuple[str, ...] = ()
    outcomes: tuple[SearchOutcome, ...] = ()
    sources: tuple[str, ...] = ()
    best: SimulationResult | None = field(default=None)

    def __post_init__(self) -> None:
        if not (
            len(self.cell_keys) == len(self.outcomes) == len(self.sources)
        ):
            raise ValueError("cell_keys, outcomes and sources must align")


# ------------------------------------------------------------ JSON wire


def request_to_json(request: PlanRequest) -> dict:
    data: dict = {
        "model": request.model,
        "cluster": request.cluster,
        "batch_sizes": list(request.batch_sizes),
        "objective": request.objective,
        "include_hybrid": request.include_hybrid,
        "methods": list(request.methods),
    }
    if request.memory_headroom is not None:
        data["memory_headroom"] = request.memory_headroom
    return data


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_float(value) -> bool:
    """A JSON number that converts to a float (a long integer may not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _sequence_of(check):
    return lambda value: (
        isinstance(value, (list, tuple)) and all(map(check, value))
    )


#: Request field -> (type check, what the check requires), checked by
#: :meth:`PlanRequest.__post_init__` for in-process and wire requests
#: alike.
_FIELD_TYPES = {
    "model": (_is_str, "a string"),
    "cluster": (_is_str, "a string"),
    "batch_sizes": (_sequence_of(_is_int), "a list of integers"),
    "objective": (_is_str, "a string"),
    "memory_headroom": (
        lambda value: value is None or _is_float(value),
        "a number in float range",
    ),
    "include_hybrid": (lambda value: isinstance(value, bool), "a boolean"),
    "methods": (_sequence_of(_is_str), "a list of strings"),
}


def request_from_json(data: dict) -> PlanRequest:
    """Build a request from wire JSON; ``ValueError`` on malformed input.

    Every field must already have its JSON type (a list of integers for
    ``batch_sizes``, a boolean for ``include_hybrid``, ...); a mistyped
    or missing field raises a ``ValueError`` naming it.
    """
    if not isinstance(data, dict):
        raise ValueError("plan request must be a JSON object")
    unknown = set(data) - set(_FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown request fields: {sorted(unknown)}")
    for spec in fields(PlanRequest):
        if spec.default is MISSING and spec.name not in data:
            raise ValueError(f"malformed plan request: missing {spec.name!r}")
    return PlanRequest(**data)


def answer_to_json(answer: PlanAnswer) -> dict:
    return {
        "format": FORMAT_VERSION,
        "query_key": answer.query_key,
        "cells": [
            {
                "key": key,
                "source": source,
                "outcome": outcome_to_json(outcome),
            }
            for key, source, outcome in zip(
                answer.cell_keys, answer.sources, answer.outcomes
            )
        ],
        "best": None if answer.best is None else result_to_json(answer.best),
    }
