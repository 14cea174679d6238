"""Per-cell checkpoint store: one JSON file per completed search cell.

Files are named by the cell's content hash (:func:`...serialize.cell_key`)
and written atomically (temp file + ``os.replace`` in the same directory),
so a reader never observes a half-written checkpoint and a crashed worker
loses at most the cell it was computing.  Corrupted, truncated or
foreign-format files are rejected cleanly: :meth:`CheckpointStore.load`
warns and returns ``None``, and the sweep simply recomputes the cell.

Alongside each result the store keeps a ``<key>.time.json`` *sidecar*
with the cell's measured wall-clock seconds.  Timing lives outside the
result file on purpose: checkpoint bytes must be identical across runs
and machines (the resume guarantee is tested by comparing bytes), while
wall-clock never is.  The sidecars record which worker searched each
cell and when, for ``sweep-trace`` (:mod:`repro.viz.sweep_trace`); the
sweep itself never reads them.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path

from repro.search.grid import SearchOutcome
from repro.search.service.serialize import (
    FORMAT_VERSION,
    canonical_dumps,
    outcome_from_json,
    outcome_to_json,
)
from repro.utils import atomic_write

__all__ = ["CheckpointStore"]


class CheckpointStore:
    """Directory of per-cell ``SearchOutcome`` checkpoints."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def payload_bytes(self, key: str, outcome: SearchOutcome) -> bytes:
        """The exact bytes :meth:`store` writes for this checkpoint.

        Canonical JSON, so two workers (or two runs) produce bit-identical
        files for the same outcome — the resume guarantee is testable by
        comparing bytes.
        """
        envelope = {
            "format": FORMAT_VERSION,
            "key": key,
            "outcome": outcome_to_json(outcome),
        }
        return canonical_dumps(envelope).encode("utf-8")

    def store(self, key: str, outcome: SearchOutcome) -> Path:
        """Atomically persist one outcome; returns the checkpoint path."""
        path = self.path_for(key)
        atomic_write(path, self.payload_bytes(key, outcome))
        return path

    def load(self, key: str) -> SearchOutcome | None:
        """The stored outcome, or ``None`` if missing or unreadable."""
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            envelope = json.loads(raw)
            if not isinstance(envelope, dict):
                raise ValueError("checkpoint is not a JSON object")
            if envelope.get("format") != FORMAT_VERSION:
                raise ValueError(
                    f"format {envelope.get('format')!r} != {FORMAT_VERSION}"
                )
            if envelope.get("key") != key:
                raise ValueError(
                    f"key mismatch: file says {envelope.get('key')!r}"
                )
            return outcome_from_json(envelope["outcome"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            warnings.warn(
                f"ignoring corrupt checkpoint {path}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    # -------------------------------------------------- wall-clock sidecars

    def timing_path_for(self, key: str) -> Path:
        return self.root / f"{key}.time.json"

    def store_timing(
        self,
        key: str,
        seconds: float,
        *,
        worker: str,
        started_at: float,
    ) -> Path:
        """Atomically record a cell's measured search wall-clock.

        ``worker`` and ``started_at`` (epoch seconds) attribute the
        measurement to the worker that computed it — the raw material of
        the sweep-level Chrome trace (:mod:`repro.viz.sweep_trace`).
        """
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        payload = {
            "format": FORMAT_VERSION,
            "key": key,
            "seconds": seconds,
            "worker": worker,
            "started_at": started_at,
        }
        path = self.timing_path_for(key)
        atomic_write(path, canonical_dumps(payload).encode("utf-8"))
        return path

    def load_timing_record(self, key: str) -> dict | None:
        """The full timing sidecar payload for a cell, or ``None``.

        Corrupt sidecars are ignored silently — timing only feeds the
        sweep trace, so it never warrants the corruption warning a lost
        *result* gets.
        """
        try:
            data = json.loads(self.timing_path_for(key).read_bytes())
            if not isinstance(data, dict):
                return None
            if data.get("key") != key or data.get("format") != FORMAT_VERSION:
                return None
            if float(data["seconds"]) < 0:
                return None
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None
        return data

    def keys(self) -> list[str]:
        """Keys of every checkpoint file present (validity not checked)."""
        return sorted(
            p.stem for p in self.root.glob("*.json")
            if not p.name.startswith(".")
            and not p.name.endswith(".time.json")
        )

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        return len(self.keys())
