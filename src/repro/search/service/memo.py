"""Memo store: a checkpoint directory with a compact manifest index.

:class:`MemoStore` promotes :class:`~repro.search.service.checkpoint.
CheckpointStore` from a sweep-private resume cache into the shared answer
store behind the planner (:mod:`repro.planner`).  The difference is one
file — ``index.jsonl``, an append-only manifest with one small JSON line
per checkpoint carrying ``(key, method, batch_size, group)``:

- ``keys()`` stops globbing the directory per call, and ``load_many()``
  skips keys the index has never seen; the manifest is loaded once at
  construction and kept in memory.
- The *group* column (:func:`~repro.search.service.serialize.group_key`:
  spec + cluster + calibration + settings, i.e. a cell key minus the
  cell) makes nearest-neighbor lookup an index scan: the planner asks
  :meth:`MemoStore.neighbors` for solved cells of the same group and
  method at adjacent batch sizes, and never loads a payload to find out
  what it is.

Durability model: the manifest is a cache of the directory, never the
other way around.  Appends are atomic at the line level (single small
``O_APPEND`` write); a torn final line, a missing manifest, or entries
for since-deleted files are all repaired at construction by rebuilding
from the checkpoint files themselves — which also back-fills manifests
for directories written before this class existed (the ``--resume``
path of older sweeps).  Result payloads are untouched: checkpoint bytes
remain exactly what ``CheckpointStore`` writes, so golden cell keys and
the byte-compare resume guarantee are unaffected.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.search.grid import SearchOutcome
from repro.search.service.checkpoint import CheckpointStore
from repro.search.service.serialize import canonical_dumps
from repro.utils import atomic_write

__all__ = ["MANIFEST_NAME", "ManifestEntry", "MemoStore"]

MANIFEST_NAME = "index.jsonl"


@dataclass(frozen=True)
class ManifestEntry:
    """One manifest line: what a checkpoint is, without its payload.

    Attributes:
        key: The checkpoint's content hash (file stem).
        method: ``Method.value`` of the cell.
        batch_size: Global batch size of the cell.
        group: The cell's :func:`~repro.search.service.serialize.
            group_key`, or ``None`` when unknown (back-filled entries:
            the group hash cannot be recovered from a payload, only
            from the context that produced it).
    """

    key: str
    method: str
    batch_size: int
    group: str | None = None

    def to_json(self) -> dict:
        data: dict = {
            "key": self.key,
            "method": self.method,
            "batch_size": self.batch_size,
        }
        if self.group is not None:
            data["group"] = self.group
        return data

    @classmethod
    def from_json(cls, data: dict) -> ManifestEntry:
        group = data.get("group")
        return cls(
            key=str(data["key"]),
            method=str(data["method"]),
            batch_size=int(data["batch_size"]),
            group=None if group is None else str(group),
        )


class MemoStore(CheckpointStore):
    """A ``CheckpointStore`` indexed by an append-only manifest."""

    def __init__(self, root: str | os.PathLike) -> None:
        super().__init__(root)
        self._index: dict[str, ManifestEntry] = {}
        self._load_manifest()

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    # ---------------------------------------------------------- manifest

    def _load_manifest(self) -> None:
        """Load ``index.jsonl``, repair drift, back-fill missing entries.

        Three kinds of drift are healed here, all by trusting the
        checkpoint files over the manifest: a torn trailing line (a
        crashed appender), manifest entries whose file has been deleted,
        and checkpoint files the manifest has never heard of (written by
        a plain ``CheckpointStore`` or a concurrent worker).  After a
        repair the manifest is rewritten atomically; a clean load with
        only missing entries just appends them.
        """
        torn = False
        entries: dict[str, ManifestEntry] = {}
        try:
            raw_lines = self.manifest_path.read_text("utf-8").splitlines()
        except FileNotFoundError:
            raw_lines = []
            torn = True  # no manifest: full rewrite backfills it
        for line in raw_lines:
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                entry = ManifestEntry.from_json(data)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                torn = True
                continue
            # Last writer wins: annotate_group re-appends updated lines.
            entries[entry.key] = entry

        present = set(super().keys())
        stale = set(entries) - present
        if stale:
            torn = True
            for key in stale:
                del entries[key]

        missing = sorted(present - set(entries))
        appended: list[ManifestEntry] = []
        for key in missing:
            outcome = self.load(key)
            if outcome is None:
                continue  # corrupt payload: not indexable, not loadable
            entry = ManifestEntry(
                key=key,
                method=outcome.method.value,
                batch_size=outcome.batch_size,
            )
            entries[key] = entry
            appended.append(entry)

        self._index = entries
        if torn:
            self._rewrite_manifest()
        elif appended:
            for entry in appended:
                self._append_line(entry)

    def _rewrite_manifest(self) -> None:
        """Atomically replace the manifest with the in-memory index."""
        lines = "".join(
            canonical_dumps(self._index[key].to_json()) + "\n"
            for key in sorted(self._index)
        )
        atomic_write(self.manifest_path, lines.encode("utf-8"))

    def _append_line(self, entry: ManifestEntry) -> None:
        # One small write through an O_APPEND descriptor: atomic at the
        # line level on POSIX, which is all the torn-line repair needs.
        with open(self.manifest_path, "a", encoding="utf-8") as fh:
            fh.write(canonical_dumps(entry.to_json()) + "\n")

    # ------------------------------------------------------------- store

    def store(
        self, key: str, outcome: SearchOutcome, *, group: str | None = None
    ) -> Path:
        """Persist one outcome and index it in the manifest."""
        path = super().store(key, outcome)
        entry = ManifestEntry(
            key=key,
            method=outcome.method.value,
            batch_size=outcome.batch_size,
            group=group,
        )
        if self._index.get(key) != entry:
            self._index[key] = entry
            self._append_line(entry)
        return path

    def annotate_group(self, key: str, group: str) -> None:
        """Attach a group hash to an already-indexed checkpoint.

        Back-filled entries have no group (it is not recoverable from
        the payload); the first sweep or planner query that *knows* the
        context calls this to upgrade them.  A no-op when the entry
        already carries the same group.
        """
        entry = self._index.get(key)
        if entry is None or entry.group == group:
            return
        updated = ManifestEntry(
            key=entry.key,
            method=entry.method,
            batch_size=entry.batch_size,
            group=group,
        )
        self._index[key] = updated
        self._append_line(updated)

    def entry_for(self, key: str) -> ManifestEntry | None:
        """The manifest entry for ``key``, or ``None`` if unindexed."""
        return self._index.get(key)

    # ----------------------------------------------------------- queries

    def keys(self) -> list[str]:
        """Indexed checkpoint keys — no directory scan."""
        return sorted(self._index)

    def load_many(self, keys: Iterable[str]) -> dict[str, SearchOutcome]:
        """Valid checkpoints among ``keys``, consulting the index first.

        Keys the manifest has never seen are skipped without touching
        the filesystem; indexed keys still load (and validate) the real
        payload, so a deleted-behind-our-back file degrades to a miss
        exactly as :meth:`load` reports it.
        """
        found: dict[str, SearchOutcome] = {}
        for key in keys:
            if key not in self._index:
                continue
            outcome = self.load(key)
            if outcome is not None:
                found[key] = outcome
        return found

    def neighbors(
        self,
        group: str,
        method: str,
        batch_size: int,
        *,
        limit: int = 2,
    ) -> list[ManifestEntry]:
        """Solved same-group, same-method cells nearest in batch size.

        The planner's warm-start source: entries of ``group`` searching
        ``method`` at a *different* batch size, ordered by distance in
        ``log2(batch)`` (ties: smaller batch, then key).  Pure index
        scan — no payload is loaded.
        """
        if limit <= 0:
            return []
        candidates = [
            entry
            for entry in self._index.values()
            if entry.group == group
            and entry.method == method
            and entry.batch_size != batch_size
            and entry.batch_size > 0
        ]
        target = math.log2(batch_size)
        candidates.sort(
            key=lambda e: (
                abs(math.log2(e.batch_size) - target),
                e.batch_size,
                e.key,
            )
        )
        return candidates[:limit]

    def __len__(self) -> int:
        return len(self._index)
