"""Shared utilities: unit helpers, ASCII tables and plots, CLI output paths."""

from __future__ import annotations

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

__all__ = [
    "GB",
    "GIGA",
    "KILO",
    "MEGA",
    "TERA",
    "ascii_table",
    "create_output_dir",
    "create_output_file",
    "fmt_bytes",
    "fmt_count",
    "fmt_flops",
    "fmt_time",
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
