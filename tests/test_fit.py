"""Tests for the calibration-fitting subsystem (``repro.fit``).

Covers the bounded optimizers on analytic functions, the anchor residual
evaluator against direct simulation, the end-to-end fitter (improvement,
determinism, bound handling), calibration JSON round-trips through the
sweep serializer (including the checkpoint content-hash contract), the
constructor validation the fitter relies on, and the committed
``fitted_calibration.json`` together with the per-anchor tolerance bands
in ``paper_data``.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

import repro.fit.residuals as residuals_module
from repro.fit import (
    FIT_PARAMETERS,
    AnchorEvaluator,
    BoundedObjective,
    FitParameter,
    FitWeights,
    anchor_environment,
    coordinate_descent,
    fit_calibration,
    format_fit_result,
    load_calibration,
    nelder_mead,
    objective_value,
    save_calibration,
    weighted_throughput_error,
)
from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B
from repro.paper_data import PAPER_ANCHORS
from repro.search.cell import SweepCell
from repro.search.service.serialize import (
    calibration_from_json,
    calibration_to_json,
    canonical_dumps,
    cell_key,
)
from repro.sim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.sim.cost import stage_time_table
from repro.utils.units import GB

REPO_ROOT = Path(__file__).resolve().parent.parent
FITTED_PATH = REPO_ROOT / "fitted_calibration.json"

#: A cheap fitting problem for end-to-end fitter tests: two parameters,
#: a four-anchor subset spanning both models and both fabrics.
CHEAP_PARAMETERS = (
    FitParameter("kernel_efficiency_max", 0.3, 1.0),
    FitParameter("tokens_half_point", 1.0, 2000.0),
)
CHEAP_ANCHORS = (
    PAPER_ANCHORS[0], PAPER_ANCHORS[3], PAPER_ANCHORS[8], PAPER_ANCHORS[10],
)


@pytest.fixture(scope="module")
def cheap_fit():
    return fit_calibration(
        CHEAP_ANCHORS, parameters=CHEAP_PARAMETERS, quick=True
    )


class TestOptimizers:
    def quadratic(self, minimum):
        def f(x):
            return sum((xi - mi) ** 2 for xi, mi in zip(x, minimum))
        return f

    def test_coordinate_descent_finds_interior_minimum(self):
        objective = BoundedObjective(
            self.quadratic([0.3, -1.0]), [(-2.0, 2.0), (-2.0, 2.0)]
        )
        point, value = coordinate_descent(objective, [1.5, 1.5], rounds=12)
        assert value < 1e-3
        assert point == pytest.approx((0.3, -1.0), abs=0.05)

    def test_nelder_mead_polishes_to_high_precision(self):
        objective = BoundedObjective(
            self.quadratic([0.3, -1.0]), [(-2.0, 2.0), (-2.0, 2.0)]
        )
        point, _ = coordinate_descent(objective, [1.5, 1.5], rounds=4)
        point, value = nelder_mead(objective, point, max_iterations=200)
        assert value < 1e-8

    def test_bounds_are_respected_when_minimum_is_outside(self):
        objective = BoundedObjective(self.quadratic([5.0]), [(0.0, 1.0)])
        point, value = coordinate_descent(objective, [0.5], rounds=10)
        point, value = nelder_mead(objective, point, max_iterations=100)
        assert point[0] == pytest.approx(1.0, abs=1e-6)

    def test_deterministic_evaluation_sequence(self):
        def run():
            objective = BoundedObjective(
                self.quadratic([0.1, 0.2, 0.3]), [(-1.0, 1.0)] * 3
            )
            point, value = coordinate_descent(objective, [0.9, -0.9, 0.0])
            point, value = nelder_mead(objective, point)
            return point, value, objective.n_evaluations
        assert run() == run()

    def test_memoization_counts_distinct_points_only(self):
        calls = []

        def f(x):
            calls.append(tuple(x))
            return x[0] ** 2

        objective = BoundedObjective(f, [(-1.0, 1.0)])
        for _ in range(3):
            objective([0.5])
        assert objective.n_evaluations == 1
        assert len(calls) == 1

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError, match="invalid bound"):
            BoundedObjective(lambda x: 0.0, [(1.0, 1.0)])

    def test_trace_records_improvements_in_order(self):
        objective = BoundedObjective(self.quadratic([0.0]), [(-1.0, 1.0)])
        coordinate_descent(objective, [0.9], rounds=6)
        values = [step.value for step in objective.trace]
        assert values == sorted(values, reverse=True)


class TestResiduals:
    def test_evaluator_matches_direct_simulation(self, monkeypatch):
        # Exact parity on every anchor under four calibrations.  Each
        # direct run prices its stages scalar-wise from an empty table;
        # the evaluator vector-prices them (after the table is emptied
        # again) and prices each anchor's kept lowering.
        calibrations = (
            DEFAULT_CALIBRATION,
            load_calibration(FITTED_PATH),
            Calibration(
                kernel_efficiency_max=0.45,
                tokens_half_point=400.0,
                width_half_point=900.0,
                optimizer_bytes_per_param=64.0,
                fixed_step_overhead=0.02,
                network_overhead_scale=3.0,
            ),
            Calibration(
                kernel_efficiency_max=0.9,
                tokens_half_point=20.0,
                network_overhead_scale=0.5,
            ),
        )
        evaluator = AnchorEvaluator()
        assert len(evaluator.anchors) == 12
        seen = []
        direct_simulate = residuals_module.simulate

        def recording(*args, **kwargs):
            seen.append(direct_simulate(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(residuals_module, "simulate", recording)
        for calibration in calibrations:
            stage_time_table.cache_clear()
            direct = []
            for anchor in PAPER_ANCHORS:
                spec, cluster = anchor_environment(anchor)
                direct.append(
                    direct_simulate(
                        spec, anchor.config, cluster, calibration=calibration
                    )
                )
            stage_time_table.cache_clear()
            seen.clear()
            residuals = evaluator.evaluate(calibration)
            assert stage_time_table.cache_info().misses == 0
            assert len(seen) == len(direct) == len(residuals) == 12
            for anchor, result, ours, residual in zip(
                PAPER_ANCHORS, direct, seen, residuals
            ):
                assert residual.anchor == anchor
                assert ours == result
                assert ours.step_time == result.step_time
                assert ours.throughput_per_gpu == result.throughput_per_gpu
                assert ours.memory == result.memory
                assert residual.throughput_tflops == (
                    result.throughput_per_gpu / 1e12
                )
                assert residual.memory_gb == result.memory.total / GB
                assert residual.throughput_ratio == pytest.approx(
                    (result.throughput_per_gpu / 1e12) / anchor.throughput_tflops
                )

    def test_evaluations_share_no_state(self):
        # Two evaluators fed the same calibrations, one repeated, agree
        # exactly, and a repeat reproduces its first evaluation.
        sequence = (
            DEFAULT_CALIBRATION,
            Calibration(network_overhead_scale=2.0),
            load_calibration(FITTED_PATH),
            DEFAULT_CALIBRATION,
        )
        first, second = AnchorEvaluator(), AnchorEvaluator()
        ours = [first.evaluate(c) for c in sequence]
        again = [second.evaluate(c) for c in sequence]
        assert ours == again
        assert ours[3] == ours[0]
        assert ours[1] != ours[0]

    def test_objective_and_headline_metric(self):
        # Both metrics weight each anchor by the paper's own confidence
        # (PaperAnchor.weight: twice-published cells count double).
        residuals = AnchorEvaluator(CHEAP_ANCHORS).evaluate(DEFAULT_CALIBRATION)
        weights = FitWeights(throughput=1.0, memory=0.0)
        anchor_w = [r.anchor.weight for r in residuals]
        assert anchor_w != [1.0] * len(anchor_w)  # the repeats are encoded
        expected = sum(
            w * r.throughput_rel_err**2 for w, r in zip(anchor_w, residuals)
        ) / sum(anchor_w)
        assert objective_value(residuals, weights) == pytest.approx(expected)
        expected_mae = sum(
            w * abs(r.throughput_rel_err) for w, r in zip(anchor_w, residuals)
        ) / sum(anchor_w)
        assert weighted_throughput_error(residuals) == pytest.approx(expected_mae)
        uniform = [1.0] * len(residuals)
        assert weighted_throughput_error(residuals, uniform) == pytest.approx(
            sum(abs(r.throughput_rel_err) for r in residuals) / len(residuals)
        )

    def test_anchor_weights_reweight_the_headline_metric(self):
        residuals = AnchorEvaluator(CHEAP_ANCHORS[:2]).evaluate(
            DEFAULT_CALIBRATION
        )
        only_first = weighted_throughput_error(residuals, [1.0, 0.0])
        assert only_first == pytest.approx(abs(residuals[0].throughput_rel_err))
        with pytest.raises(ValueError, match="weights"):
            weighted_throughput_error(residuals, [1.0])
        with pytest.raises(ValueError, match="positive"):
            weighted_throughput_error(residuals, [0.0, 0.0])

    def test_empty_anchor_set_rejected(self):
        with pytest.raises(ValueError, match="at least one anchor"):
            AnchorEvaluator([])

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            FitWeights(throughput=0.0)
        with pytest.raises(ValueError):
            FitWeights(memory=-1.0)


class TestFitter:
    def test_fit_strictly_improves_and_reports(self, cheap_fit):
        assert cheap_fit.improved
        assert cheap_fit.objective_after < cheap_fit.objective_before
        assert (
            cheap_fit.throughput_error_after < cheap_fit.throughput_error_before
        )
        assert len(cheap_fit.residuals_before) == len(CHEAP_ANCHORS)
        assert cheap_fit.n_evaluations > 0
        # Unfitted fields pass through untouched.
        assert (
            cheap_fit.fitted_calibration.width_half_point
            == DEFAULT_CALIBRATION.width_half_point
        )

    def test_fit_is_deterministic(self, cheap_fit):
        again = fit_calibration(
            CHEAP_ANCHORS, parameters=CHEAP_PARAMETERS, quick=True
        )
        assert again.fitted_calibration == cheap_fit.fitted_calibration
        assert again.n_evaluations == cheap_fit.n_evaluations
        assert again.trace == cheap_fit.trace

    def test_fitted_values_respect_bounds(self, cheap_fit):
        for p in CHEAP_PARAMETERS:
            value = getattr(cheap_fit.fitted_calibration, p.name)
            assert p.lower <= value <= p.upper

    def test_format_fit_result_renders(self, cheap_fit):
        text = format_fit_result(cheap_fit)
        assert "weighted mean relative throughput error" in text
        assert "kernel_efficiency_max" in text
        for anchor in CHEAP_ANCHORS:
            assert anchor.label in text

    def test_duplicate_parameters_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            fit_calibration(
                CHEAP_ANCHORS,
                parameters=(CHEAP_PARAMETERS[0], CHEAP_PARAMETERS[0]),
                quick=True,
            )

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError, match="at least one parameter"):
            fit_calibration(CHEAP_ANCHORS, parameters=(), quick=True)

    def test_default_parameter_set_constructs_valid_calibrations(self):
        # Every corner of the default fit box must be a constructible
        # Calibration — the bound-handling contract with __post_init__.
        for p in FIT_PARAMETERS:
            for value in (p.lower, p.upper):
                Calibration(**{p.name: value})


class TestCalibrationValidation:
    @pytest.mark.parametrize("field", [
        "kernel_efficiency_max", "tokens_half_point", "width_half_point",
        "optimizer_bytes_per_param", "network_overhead_scale",
    ])
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_constants_rejected_at_construction(self, field, bad):
        with pytest.raises(ValueError, match=field):
            Calibration(**{field: bad})

    @pytest.mark.parametrize("field", [
        "kernel_efficiency_max", "tokens_half_point", "width_half_point",
        "optimizer_bytes_per_param", "fixed_step_overhead",
        "network_overhead_scale",
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_constants_rejected_at_construction(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Calibration(**{field: bad})

    def test_efficiency_above_peak_rejected(self):
        with pytest.raises(ValueError, match="kernel_efficiency_max"):
            Calibration(kernel_efficiency_max=1.5)

    def test_negative_step_overhead_rejected(self):
        with pytest.raises(ValueError, match="fixed_step_overhead"):
            Calibration(fixed_step_overhead=-1e-3)

    def test_zero_step_overhead_allowed(self):
        assert Calibration(fixed_step_overhead=0.0).fixed_step_overhead == 0.0

    def test_defaults_are_valid(self):
        Calibration()


NON_DEFAULT = Calibration(
    kernel_efficiency_max=0.71234,
    tokens_half_point=87.5,
    width_half_point=310.25,
    optimizer_bytes_per_param=48.125,
    fixed_step_overhead=7.8125e-3,
    network_overhead_scale=1.5,
)


class TestSerialization:
    def test_json_round_trip_is_exact(self):
        payload = canonical_dumps(calibration_to_json(NON_DEFAULT))
        import json

        restored = calibration_from_json(json.loads(payload))
        assert restored == NON_DEFAULT

    def test_save_load_file_round_trip(self, tmp_path):
        path = save_calibration(tmp_path / "cal.json", NON_DEFAULT)
        assert load_calibration(path) == NON_DEFAULT

    def test_load_accepts_bare_field_dict(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(canonical_dumps(calibration_to_json(NON_DEFAULT)))
        assert load_calibration(path) == NON_DEFAULT

    def test_load_fills_missing_fields_from_defaults(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"kernel_efficiency_max": 0.5}')
        calibration = load_calibration(path)
        assert calibration.kernel_efficiency_max == 0.5
        assert (
            calibration.tokens_half_point
            == DEFAULT_CALIBRATION.tokens_half_point
        )

    def test_load_rejects_unknown_fields_by_name(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text('{"kernel_eficiency_max": 0.5}')
        with pytest.raises(ValueError, match="kernel_eficiency_max"):
            load_calibration(path)

    @pytest.mark.parametrize("saved, value", [
        (False, None), (False, 10**400), (False, math.nan),
        (True, None), (True, 10**400), (True, math.nan), (True, ...),
    ])
    def test_load_refuses_an_unusable_field(self, tmp_path, saved, value):
        """A null, huge, NaN or (in a saved file) missing constant is a
        ValueError, which every ``--calibration`` CLI reports as a usage
        error."""
        import json

        path = save_calibration(tmp_path / "cal.json", NON_DEFAULT)
        data = json.loads(path.read_text())
        fields = data["calibration"]
        if not saved:
            data = fields
        if value is ...:
            del fields["tokens_half_point"]
        else:
            fields["tokens_half_point"] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="tokens_half_point|non-numeric"):
            load_calibration(path)

    def test_load_refuses_deep_nesting(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        with pytest.raises(ValueError, match="nested too deeply"):
            load_calibration(path)

    def test_load_rejects_wrong_format_version(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(canonical_dumps({
            "format": 1, "calibration": calibration_to_json(NON_DEFAULT),
        }))
        with pytest.raises(ValueError, match="format"):
            load_calibration(path)

    def test_every_fitted_constant_changes_the_cell_key(self):
        """Checkpoint content hashes must fold in every calibration field,
        so a fitted calibration can never accidentally resume a cell
        computed under the hand-tuned one (or vice versa)."""
        from dataclasses import replace

        from repro.parallel.config import Method

        cell = SweepCell(Method.BREADTH_FIRST, 64)

        def key(calibration):
            return cell_key(MODEL_6_6B, DGX1_CLUSTER_64, calibration, cell)

        base_key = key(DEFAULT_CALIBRATION)
        seen = {base_key}
        for p in FIT_PARAMETERS:
            tweaked = replace(
                DEFAULT_CALIBRATION,
                **{p.name: getattr(DEFAULT_CALIBRATION, p.name) * 1.0009765625},
            )
            tweaked_key = key(tweaked)
            assert tweaked_key not in seen, f"{p.name} not hashed into cell keys"
            seen.add(tweaked_key)

    def test_fitted_calibration_hashes_identically_after_round_trip(
        self, tmp_path
    ):
        from repro.parallel.config import Method

        cell = SweepCell(Method.DEPTH_FIRST, 32)
        path = save_calibration(tmp_path / "fit.json", NON_DEFAULT)
        reloaded = load_calibration(path)
        assert cell_key(MODEL_6_6B, DGX1_CLUSTER_64, reloaded, cell) == cell_key(
            MODEL_6_6B, DGX1_CLUSTER_64, NON_DEFAULT, cell
        )


class TestCommittedFit:
    """The checked-in ``fitted_calibration.json`` and the per-anchor bands."""

    def test_committed_file_loads(self):
        calibration = load_calibration(FITTED_PATH)
        assert calibration != DEFAULT_CALIBRATION

    def test_committed_fit_beats_hand_tuned_on_anchors(self):
        evaluator = AnchorEvaluator()
        before = weighted_throughput_error(
            evaluator.evaluate(DEFAULT_CALIBRATION)
        )
        after = weighted_throughput_error(
            evaluator.evaluate(load_calibration(FITTED_PATH))
        )
        assert after < before

    @pytest.mark.parametrize(
        "name,calibration",
        [("hand-tuned", DEFAULT_CALIBRATION), ("fitted", None)],
    )
    def test_per_anchor_bands_hold(self, name, calibration):
        if calibration is None:
            calibration = load_calibration(FITTED_PATH)
        for residual in AnchorEvaluator().evaluate(calibration):
            anchor = residual.anchor
            low, high = anchor.throughput_band
            assert low <= residual.throughput_ratio <= high, (
                f"{name}: {anchor.label} throughput ratio "
                f"{residual.throughput_ratio:.3f} outside [{low}, {high}]"
            )
            low, high = anchor.memory_band
            assert low <= residual.memory_ratio <= high, (
                f"{name}: {anchor.label} memory ratio "
                f"{residual.memory_ratio:.3f} outside [{low}, {high}]"
            )


class TestNetworkOverheadFit:
    """The fitted NetworkSpec overhead scale and its Ethernet payoff."""

    def test_network_overhead_scale_is_fitted(self):
        assert "network_overhead_scale" in {p.name for p in FIT_PARAMETERS}
        fitted = load_calibration(FITTED_PATH)
        assert fitted.network_overhead_scale != 1.0

    def test_both_ethernet_anchors_tighten_under_fitted_scale(self):
        """The carried ROADMAP item: the overhead fit must make both
        Appendix E Ethernet rows strictly more accurate than the same
        fitted calibration with the scale stripped back to 1.0."""
        from dataclasses import replace

        fitted = load_calibration(FITTED_PATH)
        stripped = replace(fitted, network_overhead_scale=1.0)
        evaluator = AnchorEvaluator()
        with_scale = evaluator.evaluate(fitted)
        without = evaluator.evaluate(stripped)
        ethernet = [
            i for i, anchor in enumerate(PAPER_ANCHORS) if anchor.ethernet
        ]
        assert len(ethernet) == 2
        for i in ethernet:
            assert abs(with_scale[i].throughput_rel_err) < abs(
                without[i].throughput_rel_err
            ), (
                f"{PAPER_ANCHORS[i].label}: fitted overhead scale does not "
                "tighten this anchor"
            )

    def test_default_scale_is_omitted_from_json(self):
        """``network_overhead_scale`` is a post-format-2 field: at its
        default it must not be emitted, or every pre-existing checkpoint
        content hash (and the golden cell keys) would shift."""
        assert "network_overhead_scale" not in calibration_to_json(
            DEFAULT_CALIBRATION
        )
        from dataclasses import replace

        scaled = replace(DEFAULT_CALIBRATION, network_overhead_scale=1.25)
        assert calibration_to_json(scaled)["network_overhead_scale"] == 1.25
