"""Tests for the experiment drivers (fast paths only; the benches run the
full versions)."""

from __future__ import annotations

import argparse

import pytest

from repro.experiments import runner as runner_module
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import format_fig3, run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig9 import run_fig9
from repro.experiments.table41 import run_table41
from repro.experiments.table51 import format_table51, run_table51
from repro.parallel.config import Method
from repro.sgd.tradeoff import TradeoffPoint, UtilizationCurve, tradeoff_curve


def _cli_args(**overrides):
    """The experiments parser's namespace at its defaults, plus overrides."""
    base = dict(
        jobs=None, checkpoint_dir=None,
        resume=False, progress=False, no_bound_pruning=False,
        objective="throughput", memory_headroom=None, calibration=None,
    )
    base.update(overrides)
    return argparse.Namespace(**base)


class TestFig2:
    def test_four_curves(self):
        curves = run_fig2(overlap=True)
        assert set(curves) == {
            "Looped (8x)", "Looped (2x)", "Non-looped", "Data-parallel"
        }

    def test_looped_8x_dominates_at_small_beta(self):
        curves = run_fig2(overlap=True)
        at_one = {name: pts[0][1] for name, pts in curves.items()}
        assert at_one["Looped (8x)"] > at_one["Looped (2x)"] > at_one["Non-looped"]

    def test_overlap_panel_beats_no_overlap(self):
        a = run_fig2(overlap=True)
        b = run_fig2(overlap=False)
        for name in a:
            for (beta1, u1), (beta2, u2) in zip(a[name], b[name]):
                assert beta1 == beta2
                assert u1 >= u2 - 1e-9


class TestFig3:
    def test_placements(self):
        p = run_fig3()
        assert p["standard"].layers_of_device(0) == [0, 1, 2, 3]
        assert p["looping"].layers_of_device(0) == [0, 4, 8, 12]

    def test_format(self):
        out = format_fig3()
        assert "standard" in out and "looping" in out


class TestFig4:
    @pytest.fixture(scope="class")
    def panels(self):
        return run_fig4(width=60)

    def test_four_panels(self, panels):
        assert len(panels) == 4

    def test_looped_faster_than_non_looped(self, panels):
        by_name = {p.name: p.result for p in panels}
        assert (
            by_name["(d) Looped, breadth-first"].step_time
            < by_name["(a) Non-looped, GPipe"].step_time
        )

    def test_breadth_first_fastest(self, panels):
        times = {p.name: p.result.step_time for p in panels}
        assert min(times, key=times.get) == "(d) Looped, breadth-first"

    def test_renderings_non_empty(self, panels):
        for p in panels:
            assert "rank 0" in p.rendering


class TestFig6:
    def test_depth_first_declines_at_large_batch(self):
        curves = run_fig6(64)
        df = dict(curves["Depth-first"])
        assert df[8] < df[1]

    def test_breadth_first_improves_at_small_batch(self):
        curves = run_fig6(16)
        bf = dict(curves["Breadth-first"])
        assert bf[8] > bf[1]


class TestFig9:
    def test_breadth_first_fs_fastest_fs(self):
        panels = {p.name: p.result.step_time for p in run_fig9()}
        assert (
            panels["(d) Breadth-first (DP_FS)"]
            < panels["(b) Depth-first (DP_FS)"]
        )

    def test_dp0_breadth_no_slower_than_depth(self):
        panels = {p.name: p.result.step_time for p in run_fig9()}
        assert (
            panels["(c) Breadth-first (DP0)"]
            <= panels["(a) Depth-first (DP0)"] * 1.05
        )


class TestTables:
    def test_table41_breadth_first_good_everywhere(self):
        rows = {r.method: r for r in run_table41(n_mb=32)}
        bf_fs = rows["Breadth-first (DP_FS)"]
        # Small bubble, minimal state memory, full DP overlap.
        assert bf_fs.bubble < 0.1
        assert bf_fs.state_memory == 2.0
        assert bf_fs.dp_overlap > 0.8

    def test_table41_depth_first_poor_dp_overlap(self):
        # With N_mb > N_PP the depth-first window (N_PP micro-batches)
        # falls below breadth-first's (the whole batch).
        rows = {r.method: r for r in run_table41(n_mb=32)}
        assert rows["Depth-first"].dp_overlap < rows["Breadth-first"].dp_overlap

    def test_table41_no_pipeline_fs_heavy_network(self):
        rows = {r.method: r for r in run_table41()}
        assert rows["No pipeline (DP_FS)"].dp_network > 10

    def test_table41_invalid_setting(self):
        with pytest.raises(ValueError, match="stages"):
            run_table41(n_layers=4, n_pp=8, n_loop=4)

    def test_table51_models(self):
        rows = run_table51()
        assert [m.name for m in rows] == ["52B", "6.6B"]

    def test_table51_format(self):
        out = format_table51()
        assert "8192" in out and "4096" in out


class TestFig8Machinery:
    def test_tradeoff_points_have_paper_scale(self):
        curve = UtilizationCurve("Breadth-first", ((0.14, 0.39), (2.0, 0.45)))
        points = tradeoff_curve(
            curve, [4096], 6780.0, 4.3e14, 125e12
        )
        p = points[0]
        assert isinstance(p, TradeoffPoint)
        # Figure 1a: best method trains the 52B model in O(10) days on
        # 4096 V100s at ~30-60k GPU-days.
        assert 2 < p.time_days < 60
        assert 10_000 < p.cost_gpu_days < 150_000


class TestMethodEnum:
    def test_four_methods(self):
        assert len(list(Method)) == 4


class TestPanelSearchedOnce:
    """Figures 1, 7 and 8 and the Appendix E tables render one search per
    Figure 7 panel and invocation."""

    def test_one_search_per_panel_and_invocation(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.obs import read_snapshots

        searched = []
        search = runner_module.run_fig7

        def counted(panel, **kwargs):
            searched.append(panel)
            return search(panel, **kwargs)

        # Replaced the way perfbench's fig7-grid workload captures panels.
        monkeypatch.setattr(runner_module, "run_fig7", counted)
        argv = ["fig1", "fig7", "fig8", "tableE", "--jobs", "1"]
        assert runner_module.main(
            argv + ["--metrics-out", str(tmp_path)]
        ) == 0
        assert searched == ["52B", "6.6B", "6.6B-ethernet"]
        (snapshot,) = read_snapshots(tmp_path)
        # Quick batch lists: (3 + 3 + 2) batch sizes x 4 methods.
        assert snapshot["counters"]["search.cells"] == 32
        out = capsys.readouterr().out
        assert "Figure 1: 52B model on 4096 V100s" in out
        assert "Table E.3: selected optimal configurations" in out

        # The memo lives for one invocation: the next one searches again.
        assert runner_module.main(["fig1", "--jobs", "1"]) == 0
        assert searched[3:] == ["52B"]
        capsys.readouterr()


class TestCalibrationCLI:
    """The `calibrate` subcommand and the --calibration flag (the fit
    itself is covered in tests/test_fit.py; here a stub keeps the CLI
    paths fast)."""

    def _stub_result(self, improved: bool):
        from repro.fit import (
            AnchorEvaluator,
            FitParameter,
            FitWeights,
            objective_value,
            weighted_throughput_error,
        )
        from repro.fit.report import FitResult
        from repro.paper_data import PAPER_ANCHORS
        from repro.sim.calibration import DEFAULT_CALIBRATION, Calibration

        fitted = Calibration(kernel_efficiency_max=0.62)
        residuals = AnchorEvaluator(PAPER_ANCHORS[:2]).evaluate(
            DEFAULT_CALIBRATION
        )
        error = weighted_throughput_error(residuals)
        objective = objective_value(residuals)
        scale = 0.5 if improved else 1.0
        return FitResult(
            initial_calibration=DEFAULT_CALIBRATION,
            fitted_calibration=fitted,
            parameters=(FitParameter("kernel_efficiency_max", 0.3, 1.0),),
            weights=FitWeights(),
            residuals_before=residuals,
            residuals_after=residuals,
            objective_before=objective,
            objective_after=objective * scale,
            throughput_error_before=error,
            throughput_error_after=error * scale,
            n_evaluations=7,
            trace=(),
        )

    def test_calibrate_dispatch_and_out_file(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.fit import load_calibration

        recorded = {}

        def fake_fit(*, quick):
            recorded["quick"] = quick
            return self._stub_result(improved=True)

        monkeypatch.setattr(runner_module, "fit_calibration", fake_fit)
        out = tmp_path / "fit.json"
        code = runner_module.main(["calibrate", "--quick", "--out", str(out)])
        assert code == 0
        assert recorded == {"quick": True}
        assert (
            load_calibration(out)
            == self._stub_result(True).fitted_calibration
        )
        assert "weighted mean relative throughput error" in capsys.readouterr().out

    def test_calibrate_fails_loudly_without_improvement(self, monkeypatch):
        monkeypatch.setattr(
            runner_module,
            "fit_calibration",
            lambda *, quick: self._stub_result(improved=False),
        )
        assert runner_module.main(["calibrate"]) == 1

    def test_calibration_flag_reaches_sweep_options(self, tmp_path):
        from repro.fit import save_calibration
        from repro.sim.calibration import Calibration

        custom = Calibration(tokens_half_point=99.0)
        path = save_calibration(tmp_path / "c.json", custom)
        options = runner_module.build_sweep_options(
            _cli_args(calibration=str(path))
        )
        assert options.calibration == custom

    def test_default_options_use_hand_tuned_calibration(self):
        from repro.sim.calibration import DEFAULT_CALIBRATION

        assert (
            runner_module.build_sweep_options(_cli_args()).calibration
            is DEFAULT_CALIBRATION
        )


class TestObjectiveCLI:
    """--objective/--memory-headroom flags and the frontier subcommand."""

    def test_objective_flags_reach_sweep_options(self):
        from repro.search.objective import (
            MemoryConstrainedThroughput,
            ParetoFrontObjective,
            ThroughputObjective,
        )

        def objective(**flags):
            options = runner_module.build_sweep_options(_cli_args(**flags))
            return options.settings.objective

        assert objective() == ThroughputObjective()
        assert objective(objective="pareto") == ParetoFrontObjective()
        assert objective(
            objective="memory-constrained", memory_headroom=0.4
        ) == MemoryConstrainedThroughput(headroom=0.4)

    def test_headroom_without_constrained_objective_rejected(self):
        with pytest.raises(ValueError, match="memory-headroom"):
            runner_module.build_sweep_options(
                _cli_args(memory_headroom=0.4)
            )


class TestFrontierExperiment:
    def test_run_frontier_single_batch(self):
        from repro.experiments.frontier import format_frontier, run_frontier
        from repro.parallel.config import ScheduleKind

        cells = run_frontier("6.6B", batch_sizes=[64])
        assert len(cells) == 1
        cell = cells[0]
        assert cell.batch_size == 64
        assert set(cell.outcomes) == set(Method)
        assert cell.frontier
        # Every frontier point is non-dominated against every per-method
        # frontier point (merging loses nothing).
        from repro.search.objective import dominates

        all_points = [
            r
            for outcome in cell.outcomes.values()
            for r in (outcome.frontier or ())
        ]
        for p in cell.frontier:
            assert not any(
                dominates(q, p.result) for q in all_points if q is not p.result
            )
        # The PR 3 finding, frontier-shaped: a hybrid or depth-first
        # schedule reaches a trade-off no breadth-first config dominates.
        assert cell.hybrid_or_depth_first
        schedules = {p.schedule for p in cell.hybrid_or_depth_first}
        assert schedules <= {ScheduleKind.HYBRID, ScheduleKind.DEPTH_FIRST}
        assert set(cell.hybrid_or_depth_first) <= set(cell.non_breadth_first)
        text = format_frontier(cells)
        assert "combined throughput/memory frontier" in text
        assert "non-breadth-first frontier points at B=64" in text

    def test_frontier_cli_exit_status(self, monkeypatch, capsys):
        # Exit 1 when breadth-first dominates everywhere (stubbed), 0
        # when a foothold exists (the real quick run is CI's job).
        class FakeCell:
            batch_size = 8
            non_breadth_first = ()
            hybrid_or_depth_first = ()

        monkeypatch.setattr(
            runner_module, "run_frontier", lambda *a, **k: [FakeCell()]
        )
        monkeypatch.setattr(
            runner_module, "format_frontier", lambda cells, chart=True: "(stub)"
        )
        assert runner_module.main(["frontier", "--quick"]) == 1
        assert "FAIL" in capsys.readouterr().err

        class FakeCellWithFoothold(FakeCell):
            class _P:
                class schedule:
                    value = "hybrid"
                throughput_tflops = 1.0
                memory_gb = 1.0
            non_breadth_first = (_P(),)
            hybrid_or_depth_first = (_P(),)

        monkeypatch.setattr(
            runner_module,
            "run_frontier",
            lambda *a, **k: [FakeCellWithFoothold()],
        )
        assert runner_module.main(["frontier", "--quick"]) == 0
