"""Level-2 repo contract linter (stdlib ``ast`` only).

The repo's standing contracts — byte-identical resumable checkpoints,
stable content-hash cell keys, a complete objective registry — are
guarded at runtime by tests, but runtime guards lose coverage silently:
a new dataclass field that never reaches a serializer simply isn't
exercised, and nothing fails until a checkpoint directory stops
resuming in production.  These checks prove the contracts *at review
time*, from source structure alone:

- **L101 serializer coverage**: every field of a dataclass whose
  payload reaches the hashed checkpoint format must be mentioned in a
  serializer source (:mod:`repro.search.service.serialize`, or the
  objective's own ``params_to_json``/``from_json``).  Fields that are
  deliberately not serialized carry a ``# lint: not-serialized``
  marker on their definition line.
- **L201/L202 registry completeness**: every concrete
  :class:`~repro.search.objective.Objective` subclass appears in
  ``OBJECTIVE_KINDS``, and every
  :class:`~repro.parallel.config.ScheduleKind` member is handled by
  the schedule dispatcher in :mod:`repro.core.schedules.base`.
- **L301-L303 nondeterminism**: key-derivation and serialization
  modules may not call wall-clock/randomness primitives (``time.time``,
  ``random.*``, ``os.urandom``, ``uuid.*``, builtin ``hash``), may not
  ``json.dumps`` without ``sort_keys=True``, and may not iterate a
  ``set`` directly — any of these makes content hashes
  machine-dependent.
- **L401 bare except**: worker/queue code may not swallow arbitrary
  exceptions with a bare ``except:`` — crash recovery depends on
  failures propagating to the retry accounting.
- **L501 direct clock reads**: modules instrumented with
  :mod:`repro.obs` may not call ``time.time()`` /
  ``time.perf_counter()`` (or their ``_ns``/``monotonic`` siblings)
  directly — every timestamp must flow through :mod:`repro.obs.clock`
  so fake-clock tests can intercept the single timing seam and span
  anchors stay mutually consistent.  Deliberate exceptions (e.g. an
  injectable clock's default argument) carry a
  ``# lint: direct-clock-ok`` marker on the call line.
- **L502 scalar pricing in the batched hot path**: the family-batched
  search modules (:mod:`repro.search.grid`,
  :mod:`repro.sim.cost_batch`) may not *call* the scalar
  ``stage_time_table`` — pricing there must flow through the
  vectorized batch pass or plain cache-object access
  (``.seed``/``.seeded``/``.cache_info``), or batched evaluation
  silently falls back to scalar pricing one innocuous-looking call at
  a time.  The deliberate fallback seam carries a
  ``# lint: scalar-cost-ok`` marker on the call line.
- **L503 blocking calls on the planner event loop**: coroutine bodies
  in the planner service (:mod:`repro.planner.core`,
  :mod:`repro.planner.http`) may not directly call filesystem or
  search primitives (``open``/``Path`` I/O, store ``load``/``store``,
  ``best_configuration``, ``time.sleep``, ...) — those must cross the
  executor-offload seam (``run_in_executor``), or one innocent call
  stalls every concurrent request and the p50 latency budget quietly
  rots.  Passing such a function *reference* to an executor is fine
  (it is not a call); a deliberate on-loop call carries a
  ``# lint: blocking-ok`` marker on the call line.
- **L504 unhashed store loads**: the persistent-store module
  (:mod:`repro.search.service.checkpoint`) may not deserialize
  persisted bytes (``json.loads``, ``struct.unpack``/``unpack_from``,
  ``pickle.load(s)``) in a function frame that performs no content
  validation — a ``sha256``/``hexdigest`` call or a comparison against
  the payload's ``"key"`` field — or a corrupted/aliased checkpoint
  silently becomes a wrong search result instead of a recomputed cell.
  A helper that decodes pre-validated bytes on behalf of a verifying
  caller carries a ``# lint: unhashed-load-ok`` marker on the call
  line.
- **L001 missing module**: a file a rule is configured to scan has
  moved or vanished; the lint configuration must move with it instead
  of silently dropping coverage.

Entry points: :func:`lint_repo` for the working tree,
:func:`lint_sources` for in-memory sources (the mutation harness feeds
corrupted sources through the same path).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Mapping
from pathlib import Path

from repro.verify.report import Finding

__all__ = [
    "BATCHED_HOT_PATH_SOURCES",
    "INSTRUMENTED_SOURCES",
    "KEY_DERIVATION_SOURCES",
    "PAYLOAD_CLASSES",
    "PLANNER_SOURCES",
    "SERIALIZER_SOURCES",
    "STORE_LOAD_SOURCES",
    "lint_repo",
    "lint_sources",
]

#: Suppression marker for dataclass fields that deliberately stay out
#: of serialized payloads (must appear on the field's definition line).
NOT_SERIALIZED_MARKER = "lint: not-serialized"

#: Dataclasses whose fields reach hashed checkpoint payloads, keyed by
#: repo-relative source path.
PAYLOAD_CLASSES: dict[str, tuple[str, ...]] = {
    "src/repro/parallel/config.py": ("ParallelConfig",),
    "src/repro/analytical/memory.py": ("MemoryBreakdown",),
    "src/repro/sim/simulator.py": ("SimulationResult",),
    "src/repro/sim/timeline.py": ("TimelineEvent",),
    "src/repro/sim/calibration.py": ("Calibration",),
    "src/repro/models/spec.py": ("TransformerSpec",),
    "src/repro/hardware/gpu.py": ("GPUSpec",),
    "src/repro/hardware/network.py": ("NetworkSpec",),
    "src/repro/hardware/cluster.py": ("ClusterSpec",),
    "src/repro/search/grid.py": ("SearchOutcome",),
    "src/repro/search/cell.py": ("SearchSettings",),
    "src/repro/search/objective.py": (
        "MemoryConstrainedThroughput",
    ),
}

#: Sources whose string constants / attribute accesses count as
#: serializer coverage.
SERIALIZER_SOURCES: tuple[str, ...] = (
    "src/repro/search/service/serialize.py",
    "src/repro/search/objective.py",
)

#: Modules that derive content-hash keys or serialize hashed payloads;
#: the nondeterminism rules apply here.
KEY_DERIVATION_SOURCES: tuple[str, ...] = (
    "src/repro/search/service/serialize.py",
    "src/repro/search/objective.py",
    "src/repro/search/cell.py",
)

#: Registry rule sources.
OBJECTIVE_SOURCE = "src/repro/search/objective.py"
SCHEDULE_KIND_SOURCE = "src/repro/parallel/config.py"
SCHEDULE_DISPATCH_SOURCE = "src/repro/core/schedules/base.py"

#: Directories whose every module is scanned for bare excepts (and, as
#: part of the scan set, parsed at all — syntax errors surface early).
EXCEPT_SCAN_DIRS: tuple[str, ...] = (
    "src/repro/search/service",
    "src/repro/verify",
)

#: Suppression marker for deliberate direct clock reads in instrumented
#: modules (must appear on the call's line).
DIRECT_CLOCK_MARKER = "lint: direct-clock-ok"

#: Modules instrumented with :mod:`repro.obs`; the direct-clock rule
#: (L501) applies here.  :mod:`repro.obs.clock` itself is the sanctioned
#: home of the underlying ``time`` calls and is deliberately absent.
INSTRUMENTED_SOURCES: tuple[str, ...] = (
    "src/repro/search/grid.py",
    "src/repro/sim/engine.py",
    "src/repro/search/service/queue.py",
    "src/repro/search/service/worker.py",
    "src/repro/search/service/executors.py",
    "src/repro/search/service/service.py",
    "src/repro/search/service/progress.py",
)

#: Suppression marker for the deliberate scalar-pricing fallback seam in
#: batched hot-path modules (must appear on the call's line).
SCALAR_COST_MARKER = "lint: scalar-cost-ok"

#: Family-batched search modules; the scalar-pricing rule (L502)
#: applies here.  ``CostModel.stage_times()`` in :mod:`repro.sim.cost`
#: is the sanctioned scalar consumer and is deliberately absent.
BATCHED_HOT_PATH_SOURCES: tuple[str, ...] = (
    "src/repro/search/grid.py",
    "src/repro/sim/cost_batch.py",
)

#: Suppression marker for a deliberate blocking call inside a planner
#: coroutine (must appear on the call's line).
BLOCKING_OK_MARKER = "lint: blocking-ok"

#: Planner event-loop modules; the blocking-call rule (L503) applies to
#: every ``async def`` here.  ``repro.planner.cli`` is deliberately
#: absent — it owns no coroutines, it *runs* the loop.
PLANNER_SOURCES: tuple[str, ...] = (
    "src/repro/planner/core.py",
    "src/repro/planner/http.py",
)

#: Call names (final dotted component) that block the event loop when
#: invoked directly from a coroutine: filesystem primitives plus the
#: store/search entry points the planner must offload to its executors.
#: Matching the final component keeps the rule honest across receivers
#: (``self._store.load``, ``store.load``, ``path.read_text``, ...).
_BLOCKING_CALL_NAMES = {
    "best_configuration",
    "glob",
    "load",
    "load_many",
    "mkdir",
    "open",
    "read_bytes",
    "read_text",
    "rename",
    "replace",
    "run_search",
    "run_sweep",
    "store",
    "store_timing",
    "unlink",
    "write_bytes",
    "write_text",
}

#: Exact dotted names additionally banned in coroutines.  ``time.sleep``
#: is matched in full — a bare ``sleep`` component would false-positive
#: on ``asyncio.sleep``, the sanctioned async form.
_BLOCKING_EXACT_CALLS = {"time.sleep"}

#: Suppression marker for a deliberate unvalidated deserialization on a
#: store load path (must appear on the call's line) — the sanctioned use
#: is a decode helper whose caller has already hash-verified the bytes.
UNHASHED_LOAD_MARKER = "lint: unhashed-load-ok"

#: Persistent-store modules; the unhashed-load rule (L504) applies here.
STORE_LOAD_SOURCES: tuple[str, ...] = (
    "src/repro/search/service/checkpoint.py",
)

#: Deserialization primitives, matched by full dotted name.  Matching
#: the full form (not the final component) keeps decode *helpers*
#: (``cursor.unpack``) from flagging at every call site — the helper's
#: own ``struct`` call is the guarded (and marked) seam.
_DESERIALIZE_CALLS = {
    "json.load",
    "json.loads",
    "marshal.load",
    "marshal.loads",
    "pickle.load",
    "pickle.loads",
    "struct.unpack",
    "struct.unpack_from",
}

#: Call components that count as content-hash validation in a frame.
_HASH_VALIDATION_NAMES = {"blake2b", "sha256", "hexdigest"}

#: Clock primitives that bypass the ``repro.obs.clock`` seam.
_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
}

#: Wall-clock / randomness call roots banned in key-derivation modules.
_BANNED_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.perf_counter",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}
_BANNED_PREFIXES = ("random.",)


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a plain name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _parse(path: str, source: str, findings: list[Finding]) -> ast.Module | None:
    try:
        return ast.parse(source, filename=path)
    except SyntaxError as error:
        findings.append(
            Finding(
                rule="L002",
                location=f"{path}:{error.lineno or 0}",
                message=f"syntax error: {error.msg}",
            )
        )
        return None


def _is_classvar(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    name = _dotted_name(annotation)
    return name is not None and name.split(".")[-1] == "ClassVar"


def _dataclass_fields(
    tree: ast.Module, class_name: str, lines: list[str]
) -> list[tuple[str, int]] | None:
    """(name, lineno) of the serializable fields of one dataclass.

    Skips ``ClassVar`` declarations, ``field(init=False)`` internals,
    underscore-prefixed names and fields whose definition line carries
    the ``# lint: not-serialized`` marker.  Returns None when the class
    is not found (the caller reports the configuration drift).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            fields: list[tuple[str, int]] = []
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                if not isinstance(stmt.target, ast.Name):
                    continue
                name = stmt.target.id
                if name.startswith("_") or _is_classvar(stmt.annotation):
                    continue
                if (
                    isinstance(stmt.value, ast.Call)
                    and _dotted_name(stmt.value.func) in ("field", "dataclasses.field")
                    and any(
                        kw.arg == "init"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is False
                        for kw in stmt.value.keywords
                    )
                ):
                    continue
                line = lines[stmt.lineno - 1] if stmt.lineno <= len(lines) else ""
                if NOT_SERIALIZED_MARKER in line:
                    continue
                fields.append((name, stmt.lineno))
            return fields
    return None


def _mentioned_names(tree: ast.Module) -> set[str]:
    """Every string constant and attribute name in a serializer source."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


# ----------------------------------------------------------------- rules


def _check_serializer_coverage(
    sources: Mapping[str, str],
    trees: Mapping[str, ast.Module],
    findings: list[Finding],
) -> None:
    covered: set[str] = set()
    for path in SERIALIZER_SOURCES:
        tree = trees.get(path)
        if tree is not None:
            covered |= _mentioned_names(tree)

    for path, class_names in PAYLOAD_CLASSES.items():
        tree = trees.get(path)
        if tree is None:
            continue  # L001 already reported by the driver
        lines = sources[path].splitlines()
        for class_name in class_names:
            fields = _dataclass_fields(tree, class_name, lines)
            if fields is None:
                findings.append(
                    Finding(
                        rule="L001",
                        location=path,
                        message=(
                            f"payload class {class_name} not found; update "
                            "repro.verify.lint.PAYLOAD_CLASSES"
                        ),
                    )
                )
                continue
            for name, lineno in fields:
                if name not in covered:
                    findings.append(
                        Finding(
                            rule="L101",
                            location=f"{path}:{lineno}",
                            message=(
                                f"{class_name}.{name} reaches hashed "
                                "checkpoint payloads but no serializer "
                                "source mentions it — add it to "
                                "search/service/serialize.py (or mark the "
                                f"field '# {NOT_SERIALIZED_MARKER}')"
                            ),
                        )
                    )


def _check_objective_registry(
    trees: Mapping[str, ast.Module], findings: list[Finding]
) -> None:
    tree = trees.get(OBJECTIVE_SOURCE)
    if tree is None:
        return
    subclasses: list[tuple[str, int]] = []
    registered: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases = {_dotted_name(b) for b in node.bases}
            if "Objective" in bases:
                subclasses.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            if isinstance(node, ast.Assign):
                targets = {
                    t.id for t in node.targets if isinstance(t, ast.Name)
                }
            else:
                targets = (
                    {node.target.id}
                    if isinstance(node.target, ast.Name)
                    else set()
                )
            if "OBJECTIVE_KINDS" in targets and isinstance(node.value, ast.Dict):
                for value in node.value.values:
                    name = _dotted_name(value)
                    if name is not None:
                        registered.add(name.split(".")[0])
    for name, lineno in subclasses:
        if name not in registered:
            findings.append(
                Finding(
                    rule="L201",
                    location=f"{OBJECTIVE_SOURCE}:{lineno}",
                    message=(
                        f"Objective subclass {name} is not registered in "
                        "OBJECTIVE_KINDS — serialization and --objective "
                        "cannot see it"
                    ),
                )
            )


def _check_schedule_registry(
    trees: Mapping[str, ast.Module], findings: list[Finding]
) -> None:
    kinds_tree = trees.get(SCHEDULE_KIND_SOURCE)
    dispatch_tree = trees.get(SCHEDULE_DISPATCH_SOURCE)
    if kinds_tree is None or dispatch_tree is None:
        return
    members: list[tuple[str, int]] = []
    for node in ast.walk(kinds_tree):
        if isinstance(node, ast.ClassDef) and node.name == "ScheduleKind":
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            members.append((target.id, stmt.lineno))
    handled = {
        node.attr
        for node in ast.walk(dispatch_tree)
        if isinstance(node, ast.Attribute)
        and _dotted_name(node.value) == "ScheduleKind"
    }
    for name, lineno in members:
        if name not in handled:
            findings.append(
                Finding(
                    rule="L202",
                    location=f"{SCHEDULE_KIND_SOURCE}:{lineno}",
                    message=(
                        f"ScheduleKind.{name} is never handled by the "
                        f"schedule dispatcher ({SCHEDULE_DISPATCH_SOURCE}) "
                        "— build_schedule would reject it at runtime"
                    ),
                )
            )


def _check_nondeterminism(
    path: str, tree: ast.Module, findings: list[Finding]
) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted_name(node.func)
            if name is not None and (
                name in _BANNED_CALLS
                or any(name.startswith(p) for p in _BANNED_PREFIXES)
            ):
                findings.append(
                    Finding(
                        rule="L301",
                        location=f"{path}:{node.lineno}",
                        message=(
                            f"nondeterminism primitive {name}() in a "
                            "key-derivation/serialization module"
                        ),
                    )
                )
            elif isinstance(node.func, ast.Name) and node.func.id == "hash":
                findings.append(
                    Finding(
                        rule="L301",
                        location=f"{path}:{node.lineno}",
                        message=(
                            "builtin hash() is PYTHONHASHSEED-dependent; "
                            "use hashlib over canonical JSON instead"
                        ),
                    )
                )
            elif name == "json.dumps" and not any(
                kw.arg == "sort_keys"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            ):
                findings.append(
                    Finding(
                        rule="L302",
                        location=f"{path}:{node.lineno}",
                        message=(
                            "json.dumps without sort_keys=True in a "
                            "key-derivation module — dict order would "
                            "leak into content hashes"
                        ),
                    )
                )

        iters: list[ast.AST] = []
        if isinstance(node, ast.For):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters += [gen.iter for gen in node.generators]
        for it in iters:
            is_set = isinstance(it, (ast.Set, ast.SetComp)) or (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id in ("set", "frozenset")
            )
            if is_set:
                findings.append(
                    Finding(
                        rule="L303",
                        location=f"{path}:{it.lineno}",
                        message=(
                            "direct iteration over a set in a "
                            "key-derivation module — order is "
                            "PYTHONHASHSEED-dependent; sort first"
                        ),
                    )
                )


def _check_direct_clock(
    path: str, source: str, tree: ast.Module, findings: list[Finding]
) -> None:
    lines = source.splitlines()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted_name(node.func)
        if name not in _CLOCK_CALLS:
            continue
        line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
        if DIRECT_CLOCK_MARKER in line:
            continue
        findings.append(
            Finding(
                rule="L501",
                location=f"{path}:{node.lineno}",
                message=(
                    f"direct {name}() in an obs-instrumented module — "
                    "read clocks through repro.obs.clock so tests can "
                    "fake the timing seam (or mark the line "
                    f"'# {DIRECT_CLOCK_MARKER}')"
                ),
            )
        )


def _check_scalar_cost_calls(
    path: str, source: str, tree: ast.Module, findings: list[Finding]
) -> None:
    lines = source.splitlines()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted_name(node.func)
        if name is None:
            continue
        # Only *calling* the table prices scalar-wise.  Attribute access
        # on the cache object — ``stage_time_table.seed(...)``,
        # ``.seeded(...)``, ``.cache_info()`` — is the batch seam itself
        # and resolves to a different final component, so it never flags.
        if name.split(".")[-1] not in ("stage_time_table", "_stage_time_table"):
            continue
        line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
        if SCALAR_COST_MARKER in line:
            continue
        findings.append(
            Finding(
                rule="L502",
                location=f"{path}:{node.lineno}",
                message=(
                    f"scalar {name}() call in a batched hot-path module — "
                    "price families through repro.sim.cost_batch (or mark "
                    f"the deliberate fallback seam '# {SCALAR_COST_MARKER}')"
                ),
            )
        )


def _coroutine_calls(func: ast.AsyncFunctionDef) -> Iterable[ast.Call]:
    """Call nodes executed in ``func``'s own coroutine frame.

    Nested ``def``/``async def`` bodies are separate frames: a sync
    helper defined inside a coroutine is typically *handed to* an
    executor rather than called on the loop, and nested coroutines get
    their own visit from the outer ``ast.walk``.
    """
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _check_blocking_on_loop(
    path: str, source: str, tree: ast.Module, findings: list[Finding]
) -> None:
    lines = source.splitlines()
    for func in ast.walk(tree):
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        for node in _coroutine_calls(func):
            name = _dotted_name(node.func)
            if name is None:
                continue
            # A function *reference* passed to ``run_in_executor`` (or
            # wrapped in ``functools.partial``) is not a Call node and
            # never reaches this point — only direct on-loop invocation
            # flags.
            if (
                name not in _BLOCKING_EXACT_CALLS
                and name.split(".")[-1] not in _BLOCKING_CALL_NAMES
            ):
                continue
            line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
            if BLOCKING_OK_MARKER in line:
                continue
            findings.append(
                Finding(
                    rule="L503",
                    location=f"{path}:{node.lineno}",
                    message=(
                        f"blocking {name}() call inside coroutine "
                        f"'{func.name}' — offload it through the planner's "
                        "executor seam (run_in_executor), or mark the line "
                        f"'# {BLOCKING_OK_MARKER}'"
                    ),
                )
            )


def _frame_nodes(body: Iterable[ast.AST]) -> list[ast.AST]:
    """Nodes executed in one function (or module) frame.

    Nested ``def``/``async def`` bodies are separate frames and get
    their own visit from the caller's ``ast.walk`` — validation in an
    outer frame deliberately does *not* cover a nested helper, which
    must verify (or be marked) on its own.
    """
    nodes: list[ast.AST] = []
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return nodes


def _reads_key_field(node: ast.AST) -> bool:
    """``payload.get("key")`` or ``payload["key"]``."""
    if isinstance(node, ast.Call):
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and bool(node.args)
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "key"
        )
    if isinstance(node, ast.Subscript):
        return (
            isinstance(node.slice, ast.Constant) and node.slice.value == "key"
        )
    return False


def _frame_validates_content(nodes: Iterable[ast.AST]) -> bool:
    """Does this frame carry a content-validation signal?

    Either a digest computation (a ``hashlib.sha256``/``.hexdigest``
    call) or a comparison against the payload's
    ``"key"`` field (the checkpoint pattern, where the filename *is* the
    content hash and the envelope must echo it).
    """
    for node in nodes:
        if isinstance(node, ast.Call):
            name = _dotted_name(node.func)
            if (
                name is not None
                and name.split(".")[-1] in _HASH_VALIDATION_NAMES
            ):
                return True
        elif isinstance(node, ast.Compare):
            if any(
                _reads_key_field(side)
                for side in (node.left, *node.comparators)
            ):
                return True
    return False


def _check_unhashed_load(
    path: str, source: str, tree: ast.Module, findings: list[Finding]
) -> None:
    lines = source.splitlines()
    frames = [_frame_nodes(tree.body)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            frames.append(_frame_nodes(node.body))
    for frame in frames:
        if _frame_validates_content(frame):
            continue
        for node in frame:
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name not in _DESERIALIZE_CALLS:
                continue
            line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
            if UNHASHED_LOAD_MARKER in line:
                continue
            findings.append(
                Finding(
                    rule="L504",
                    location=f"{path}:{node.lineno}",
                    message=(
                        f"{name}() on a store load path with no "
                        "content-hash validation in the same frame — "
                        "verify a sha256 digest (or the envelope's "
                        "content-hash 'key') before deserializing, or "
                        "mark a pre-validated decode helper "
                        f"'# {UNHASHED_LOAD_MARKER}'"
                    ),
                )
            )


def _check_bare_except(
    path: str, tree: ast.Module, findings: list[Finding]
) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append(
                Finding(
                    rule="L401",
                    location=f"{path}:{node.lineno}",
                    message=(
                        "bare 'except:' in worker/queue code — swallows "
                        "KeyboardInterrupt/SystemExit and hides crashes "
                        "from the retry accounting"
                    ),
                )
            )


# ----------------------------------------------------------- entry points


def lint_sources(sources: Mapping[str, str]) -> list[Finding]:
    """Run every lint rule over in-memory sources.

    ``sources`` maps repo-relative paths to file contents; rules apply
    to the paths they are configured for (see the module constants).
    Paths a rule expects but the mapping lacks are reported as L001 —
    configuration drift is itself a finding, never silence.
    """
    findings: list[Finding] = []
    required: set[str] = set(PAYLOAD_CLASSES)
    required |= set(SERIALIZER_SOURCES)
    required |= set(KEY_DERIVATION_SOURCES)
    required |= {OBJECTIVE_SOURCE, SCHEDULE_KIND_SOURCE, SCHEDULE_DISPATCH_SOURCE}
    required |= set(INSTRUMENTED_SOURCES)
    required |= set(BATCHED_HOT_PATH_SOURCES)
    required |= set(PLANNER_SOURCES)
    required |= set(STORE_LOAD_SOURCES)
    for path in sorted(required):
        if path not in sources:
            findings.append(
                Finding(
                    rule="L001",
                    location=path,
                    message=(
                        "lint-configured module is missing from the scan "
                        "set; update repro.verify.lint if it moved"
                    ),
                )
            )

    trees: dict[str, ast.Module] = {}
    for path, source in sources.items():
        tree = _parse(path, source, findings)
        if tree is not None:
            trees[path] = tree

    _check_serializer_coverage(sources, trees, findings)
    _check_objective_registry(trees, findings)
    _check_schedule_registry(trees, findings)
    for path in KEY_DERIVATION_SOURCES:
        if path in trees:
            _check_nondeterminism(path, trees[path], findings)
    for path in INSTRUMENTED_SOURCES:
        if path in trees:
            _check_direct_clock(path, sources[path], trees[path], findings)
    for path in BATCHED_HOT_PATH_SOURCES:
        if path in trees:
            _check_scalar_cost_calls(path, sources[path], trees[path], findings)
    for path in PLANNER_SOURCES:
        if path in trees:
            _check_blocking_on_loop(path, sources[path], trees[path], findings)
    for path in STORE_LOAD_SOURCES:
        if path in trees:
            _check_unhashed_load(path, sources[path], trees[path], findings)
    for path, tree in sorted(trees.items()):
        _check_bare_except(path, tree, findings)
    return findings


def _scan_paths(root: Path) -> Iterable[Path]:
    for rel in sorted(
        set(PAYLOAD_CLASSES)
        | set(SERIALIZER_SOURCES)
        | set(KEY_DERIVATION_SOURCES)
        | set(INSTRUMENTED_SOURCES)
        | set(BATCHED_HOT_PATH_SOURCES)
        | set(PLANNER_SOURCES)
        | set(STORE_LOAD_SOURCES)
        | {OBJECTIVE_SOURCE, SCHEDULE_KIND_SOURCE, SCHEDULE_DISPATCH_SOURCE}
    ):
        yield root / rel
    for directory in EXCEPT_SCAN_DIRS:
        yield from sorted((root / directory).glob("*.py"))


def lint_repo(root: str | Path) -> list[Finding]:
    """Run every lint rule over the working tree at ``root``."""
    root = Path(root)
    sources: dict[str, str] = {}
    for path in _scan_paths(root):
        if path.is_file():
            sources[path.relative_to(root).as_posix()] = path.read_text(
                encoding="utf-8"
            )
    return lint_sources(sources)
