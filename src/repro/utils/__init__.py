"""Shared utilities: unit helpers, ASCII tables and plots, CLI output
paths, atomic file replacement, and the cyclic garbage collector's
pause."""

from __future__ import annotations

import gc
import os
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from repro.utils.units import (
    GB,
    GIGA,
    KILO,
    MEGA,
    TERA,
    fmt_bytes,
    fmt_count,
    fmt_flops,
    fmt_time,
)
from repro.utils.tables import ascii_table

if TYPE_CHECKING:
    import argparse
    from collections.abc import Iterator

__all__ = [
    "GB",
    "GIGA",
    "KILO",
    "MEGA",
    "TERA",
    "ascii_table",
    "atomic_write",
    "create_output_dir",
    "create_output_file",
    "fmt_bytes",
    "fmt_count",
    "fmt_flops",
    "fmt_time",
    "gc_paused",
]


def create_output_dir(
    parser: argparse.ArgumentParser, flag: str, directory: Path
) -> None:
    """Create an output directory before any work; a usage error if not.

    Output is written during or after the search or fit, so an
    uncreatable path must be refused up front rather than discovered
    mid-run.
    """
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(
            f"cannot create {flag} directory {directory}: "
            f"{exc.strerror or exc}"
        )


def create_output_file(
    parser: argparse.ArgumentParser, flag: str, path: Path
) -> None:
    """Create an output file's directory before any work; refuse a directory.

    Writing to an existing directory, like creating a parent under a
    regular file, would only fail after the work that produced the file.
    """
    if path.is_dir():
        parser.error(f"{flag} {path} is a directory, not a file")
    create_output_dir(parser, flag, path.parent)


def atomic_write(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` so readers see the old file or the
    new one, never part of one.

    The data goes to ``.<name>.<pid>.tmp`` beside ``path``, which is then
    renamed over it.  If the write or the rename fails (a full disk, say),
    the temporary file is removed and the error re-raised: ``path`` keeps
    its previous contents and nothing is left behind.  The pid keeps
    processes sharing a directory from writing one temporary file.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def gc_paused() -> Iterator[None]:
    """Run a block with the cyclic garbage collector off.

    For units of work that allocate many container objects but create no
    reference cycles (a search cell, one simulation): reference counting
    frees all of it, so the collections the allocations would trigger
    find nothing and only cost time.  ``tests/test_gc_pause.py`` holds
    both units to that.

    If the collector is on, it is turned off on entry and back on when
    the block exits, also by an exception.  If it is already off, the
    pause does nothing, so nested pauses and a caller's own
    ``gc.disable()`` are respected.  The collector's state is
    process-wide: if another thread calls ``gc.disable()`` while a pause
    is open, the collector is turned back on when that pause exits, and
    of two pauses open in different threads, the first to open turns it
    back on when it exits.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
