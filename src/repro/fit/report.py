"""Fit results: the report dataclass, its rendering, and calibration IO.

A :class:`FitResult` is the complete record of one fitting run —
per-anchor residuals before and after, the fitted parameter table with
bounds, and the optimizer's improvement trace.  :func:`format_fit_result`
renders it for the CLI; :func:`save_calibration` /
:func:`load_calibration` round-trip a fitted calibration through JSON in
exactly the serializer's checkpoint format, so a calibration loaded from
``fitted_calibration.json`` hashes into cell keys byte-identically to
the in-memory object it was saved from.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.fit.residuals import AnchorResidual, FitWeights
from repro.search.service.serialize import (
    _CALIBRATION_FIELDS,
    FORMAT_VERSION,
    calibration_from_json,
    calibration_to_json,
    canonical_dumps,
)
from repro.sim.calibration import Calibration
from repro.utils.tables import ascii_table

__all__ = [
    "FitResult",
    "format_fit_result",
    "load_calibration",
    "save_calibration",
]


@dataclass(frozen=True)
class FitResult:
    """Everything one calibration fit produced.

    Attributes:
        initial_calibration: The starting point (the "before" baseline).
        fitted_calibration: The minimizer found within the bounds.
        parameters: The fitted fields with their search boxes.
        weights: Residual weighting used in the objective.
        residuals_before: Per-anchor residuals of the initial calibration.
        residuals_after: Per-anchor residuals of the fitted calibration.
        objective_before: Weighted mean squared relative error, initial.
        objective_after: Same, fitted (never above ``objective_before``).
        throughput_error_before: Mean absolute relative throughput error
            of the initial calibration — the headline metric.
        throughput_error_after: Same, fitted.
        n_evaluations: Objective evaluations spent (distinct points).
        trace: Accepted improvements in evaluation order.
    """

    initial_calibration: Calibration
    fitted_calibration: Calibration
    parameters: tuple
    weights: FitWeights
    residuals_before: tuple[AnchorResidual, ...]
    residuals_after: tuple[AnchorResidual, ...]
    objective_before: float
    objective_after: float
    throughput_error_before: float
    throughput_error_after: float
    n_evaluations: int
    trace: tuple

    @property
    def improved(self) -> bool:
        """True when the fit strictly beat the initial calibration.

        Requires strict reduction of *both* the optimized objective
        (weighted MSE) and the headline throughput error (mean absolute)
        — the optimizer minimizes the former, but the reproduction claim
        this repo makes is about the latter, so a fit that trades the
        headline metric away for the objective must fail loudly rather
        than ship.
        """
        return (
            self.objective_after < self.objective_before
            and self.throughput_error_after < self.throughput_error_before
        )


def format_fit_result(result: FitResult) -> str:
    """Render a fit as the tables the ``calibrate`` CLI prints."""
    param_rows = []
    pinned = []
    for p in result.parameters:
        before = getattr(result.initial_calibration, p.name)
        after = getattr(result.fitted_calibration, p.name)
        # Flag parameters railing against their box: a pinned value means
        # the optimum is a clipping artifact, not an interior fit — the
        # honest reading is "the bound, not the data, chose this value".
        at_bound = min(after - p.lower, p.upper - after) < 0.02 * (
            p.upper - p.lower
        )
        if at_bound:
            pinned.append(p.name)
        param_rows.append((
            p.name, f"{before:.6g}",
            f"{after:.6g}" + (" *" if at_bound else ""),
            f"[{p.lower:g}, {p.upper:g}]",
        ))
    parameter_table = ascii_table(
        ["Parameter", "Hand-tuned", "Fitted", "Bounds"],
        param_rows,
        title="Fitted calibration constants",
    )
    if pinned:
        parameter_table += (
            "\n* at or near a bound — the box, not the anchors, limited "
            f"this value ({', '.join(pinned)})"
        )

    anchor_rows = []
    for before, after in zip(result.residuals_before, result.residuals_after):
        anchor = before.anchor
        anchor_rows.append((
            f"{anchor.table} {anchor.label}",
            f"{anchor.throughput_tflops:.2f}",
            f"{before.throughput_tflops:.2f}",
            f"{after.throughput_tflops:.2f}",
            f"{before.throughput_rel_err:+.1%}",
            f"{after.throughput_rel_err:+.1%}",
            f"{after.memory_rel_err:+.1%}",
        ))
    anchor_table = ascii_table(
        ["Anchor", "Paper Tf/s", "Before", "After", "Err before",
         "Err after", "Mem err"],
        anchor_rows,
        title="Per-anchor residuals (throughput Tflop/s, memory GB)",
    )

    summary = (
        f"weighted mean relative throughput error: "
        f"{result.throughput_error_before:.2%} -> "
        f"{result.throughput_error_after:.2%}  "
        f"(objective {result.objective_before:.3e} -> "
        f"{result.objective_after:.3e}, "
        f"{result.n_evaluations} evaluations)"
    )
    return "\n".join([parameter_table, "", anchor_table, "", summary])


def save_calibration(
    path: str | os.PathLike,
    calibration: Calibration,
    *,
    result: FitResult | None = None,
) -> Path:
    """Write a calibration (plus optional fit provenance) as JSON.

    The ``calibration`` object is stored via the sweep serializer, so the
    file's field dict is the exact payload that flows into checkpoint
    content hashes — loading it back yields a ``Calibration`` equal bit
    for bit to the one saved.
    """
    payload: dict = {
        "format": FORMAT_VERSION,
        "calibration": calibration_to_json(calibration),
    }
    if result is not None:
        payload["fit"] = {
            "objective_before": result.objective_before,
            "objective_after": result.objective_after,
            "throughput_error_before": result.throughput_error_before,
            "throughput_error_after": result.throughput_error_after,
            "n_evaluations": result.n_evaluations,
            "n_anchors": len(result.residuals_before),
            "fitted_fields": [p.name for p in result.parameters],
        }
    path = Path(path)
    path.write_text(canonical_dumps(payload) + "\n")
    return path


def load_calibration(path: str | os.PathLike) -> Calibration:
    """Read a calibration saved by :func:`save_calibration`.

    Also accepts a bare field dict (the serializer's inner payload), so
    hand-written calibration files need no wrapper; omitted fields take
    their hand-tuned defaults, and unknown keys are rejected by name
    rather than swallowed as typos.
    """
    try:
        data = json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"calibration file {path} is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"calibration file {path} must hold a JSON object")
    if "calibration" in data:
        fmt = data.get("format")
        if fmt != FORMAT_VERSION:
            raise ValueError(
                f"calibration file {path} has format {fmt!r}, "
                f"expected {FORMAT_VERSION}"
            )
    else:
        unknown = set(data) - set(_CALIBRATION_FIELDS)
        if unknown:
            raise ValueError(
                f"calibration file {path} has unknown field(s) "
                f"{', '.join(sorted(unknown))}; expected a subset of "
                f"{', '.join(_CALIBRATION_FIELDS)}"
            )
    try:
        if "calibration" in data:
            return calibration_from_json(data["calibration"])
        return Calibration(**{f: float(v) for f, v in data.items()})
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(
            f"calibration file {path} has a missing or non-numeric field "
            f"({exc})"
        ) from None
