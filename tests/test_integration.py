"""Cross-module integration tests: the pieces must agree with each other."""

from __future__ import annotations

import pytest

from repro.analytical.bubble import bubble_fraction
from repro.core.schedules.base import build_schedule
from repro.core.validation import validate_schedule
from repro.experiments.runner import EXPERIMENTS, main
from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B, MODEL_52B
from repro.parallel.config import Method, ParallelConfig, ScheduleKind
from repro.runtime.executor import PipelineTrainer
from repro.runtime.model import ModelConfig
from repro.runtime.optimizer import AdamConfig
from repro.runtime.reference import ReferenceTrainer
from repro.search.grid import best_configuration
from repro.sim.simulator import simulate


class TestSimulatorVsAnalytics:
    @pytest.mark.parametrize("kind,n_loop", [
        (ScheduleKind.BREADTH_FIRST, 4),
        (ScheduleKind.GPIPE, 1),
    ])
    def test_step_time_respects_bubble_lower_bound(self, kind, n_loop):
        """Simulated step >= pure-compute time inflated by Eq. (4)/(9)."""
        config = ParallelConfig(
            n_dp=1, n_pp=8, n_tp=8, microbatch_size=1, n_microbatches=16,
            n_loop=n_loop, schedule=kind,
        )
        result = simulate(MODEL_52B, config, DGX1_CLUSTER_64)
        bubble = bubble_fraction(8, 16, n_loop)
        # compute_busy is per-rank busy time; the bubble stretches it.
        lower_bound = result.compute_busy * (1 + bubble) * 0.99
        assert result.step_time >= lower_bound

    def test_sim_memory_matches_direct_model(self):
        from repro.analytical.memory import memory_model
        from repro.implementations import OUR_IMPLEMENTATION

        config = ParallelConfig(
            n_dp=2, n_pp=4, n_tp=8, microbatch_size=1, n_microbatches=8,
            n_loop=4, schedule=ScheduleKind.BREADTH_FIRST,
        )
        result = simulate(MODEL_52B, config, DGX1_CLUSTER_64)
        direct = memory_model(MODEL_52B, config, OUR_IMPLEMENTATION)
        assert result.memory.total == pytest.approx(direct.total)


class TestSearchIntegrity:
    def test_winning_config_schedule_is_valid(self):
        outcome = best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 64
        )
        best = outcome.best
        assert best is not None
        schedule = build_schedule(
            best.config.schedule, best.config.n_pp,
            best.config.n_microbatches, best.config.n_loop,
        )
        analysis = validate_schedule(schedule)
        assert analysis.makespan > 0

    def test_search_winner_beats_fixed_config(self):
        """The search must never return something worse than a known
        feasible configuration."""
        fixed = ParallelConfig(
            n_dp=1, n_pp=8, n_tp=8, microbatch_size=1, n_microbatches=64,
            n_loop=4, schedule=ScheduleKind.BREADTH_FIRST,
        )
        fixed_result = simulate(MODEL_52B, fixed, DGX1_CLUSTER_64)
        outcome = best_configuration(
            MODEL_52B, DGX1_CLUSTER_64, Method.BREADTH_FIRST, 64
        )
        assert outcome.best is not None
        assert (
            outcome.best.throughput_per_gpu
            >= fixed_result.throughput_per_gpu * 0.999
        )


class TestRuntimeWithCustomOptimizer:
    def test_float32_master_close_to_float64(self):
        config = ModelConfig(vocab=32, hidden=16, n_heads=2, n_layers=2, seq=4)
        tokens, targets = ReferenceTrainer.make_batch(config, batch=4)
        schedule = build_schedule(ScheduleKind.BREADTH_FIRST, 2, 2, 1)
        hi = PipelineTrainer(
            config, schedule, adam=AdamConfig(master_dtype="float64")
        )
        lo = PipelineTrainer(
            config, schedule, adam=AdamConfig(master_dtype="float32")
        )
        for _ in range(3):
            loss_hi = hi.step(tokens, targets).loss
            loss_lo = lo.step(tokens, targets).loss
        assert loss_lo == pytest.approx(loss_hi, rel=1e-4)


class TestRunnerCli:
    def test_experiment_registry_covers_paper(self):
        names = set(EXPERIMENTS)
        for required in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
                         "fig7", "fig8", "fig9", "table4.1", "table5.1",
                         "tableE"):
            assert required in names

    def test_cli_runs_fast_experiments(self, capsys):
        assert main(["fig3", "table5.1"]) == 0
        out = capsys.readouterr().out
        assert "GPU 0" in out
        assert "8192" in out

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--batch-size", "0"],
            ["plan", "--model", "nope"],
            ["plan", "--objective", "nope"],
            ["plan", "--method", "Nope"],
            ["plan", "--objective", "memory-constrained",
             "--memory-headroom", "3"],
            ["fig7", "--objective", "memory-constrained",
             "--memory-headroom", "5"],
            ["fig1", "--backend", "file-queue", "--checkpoint-dir", "{tmp}",
             "--workers", "0"],
            ["fig1", "--calibration", "/nonexistent.json"],
            ["plan", "--calibration", "/nonexistent.json"],
            ["serve", "--store", "{tmp}", "--calibration", "/nonexistent.json"],
            ["serve", "--store", "{tmp}", "--port", "-5"],
            ["verify", "--winner", "52B:0"],
            ["verify", "--winner", "nope"],
            ["verify", "--winner", "52B:abc"],
            # Output paths under a regular file cannot be created; they
            # must be refused before the fit or the search starts.
            ["calibrate", "--quick", "--out", "{file}/new/fit.json"],
            ["fig1", "--metrics-out", "{file}/metrics"],
            # So must checkpoint and memo-store directories under a file.
            ["fig7", "--jobs", "1", "--checkpoint-dir", "{file}/x"],
            ["frontier", "--quick", "--no-chart", "--checkpoint-dir",
             "{file}/x"],
            ["plan", "--store", "{file}/x"],
            ["serve", "--store", "{file}/x", "--port", "0"],
            # sweep-trace only reads its checkpoint directory: a missing
            # one is refused, not created.
            ["sweep-trace", "--checkpoint-dir", "{tmp}", "--out",
             "{tmp}/trace.json"],
            ["sweep-trace", "--checkpoint-dir", "{file}", "--out",
             "{tmp}/trace.json"],
            ["sweep-trace", "--checkpoint-dir", "{dir}", "--out",
             "{file}/x/trace.json"],
            # Output files are checked before any work: an existing
            # directory or a parent under a regular file is refused.
            ["fig3", "--trace-out", "{dir}"],
            ["fig3", "--trace-out", "{file}/x.json"],
            ["calibrate", "--quick", "--out", "{dir}"],
            ["sweep-trace", "--checkpoint-dir", "{dir}", "--out", "{dir}"],
            ["report", "--cell", "52B:DEPTH_FIRST:8", "--out", "{dir}"],
            ["report", "--cell", "52B:DEPTH_FIRST:8", "--out",
             "{file}/r.json"],
            ["fig7", "--jobs", "0"],
            ["frontier", "--quick", "--jobs", "-1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_input_is_a_usage_error(self, argv, tmp_path, capsys):
        # Invalid requests and options are rejected before anything runs:
        # exit status 2 and one argparse error line, never a traceback.
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = [
            arg.replace("{tmp}", str(tmp_path / "ckpt"))
            .replace("{file}", str(blocker))
            .replace("{dir}", str(tmp_path))
            for arg in argv
        ]
        if argv[0] == "plan":
            defaults = {
                "--store": str(tmp_path / "memo"),
                "--model": "6.6B",
                "--cluster": "dgx1-64",
                "--batch-size": "8",
            }
            for flag, value in defaults.items():
                if flag not in argv:
                    argv += [flag, value]
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert not (tmp_path / "memo").exists()
        assert not (tmp_path / "ckpt").exists()

    def test_calibrate_out_creates_directories_for_calibration(
        self, tmp_path, capsys
    ):
        out = tmp_path / "new" / "dir" / "fit.json"
        assert main(["calibrate", "--quick", "--out", str(out)]) == 0
        assert out.is_file()
        assert main(["fig3", "--calibration", str(out)]) == 0
        capsys.readouterr()

    def test_cli_default_selects_all(self, capsys):
        # Regression: `repro-experiments` with no arguments must expand to
        # every *paper* experiment (argparse nargs="*" + choices rejects a
        # list default, so the default goes through post-processing
        # instead).  Extensions like "hybrid" stay opt-in by name.
        import repro.experiments.runner as runner

        recorded = []
        originals = dict(runner.EXPERIMENTS)
        try:
            for name in runner.EXPERIMENTS:
                runner.EXPERIMENTS[name] = (
                    lambda full, jobs=None, _n=name: recorded.append(_n)
                )
            assert runner.main([]) == 0
        finally:
            runner.EXPERIMENTS.update(originals)
        assert recorded == list(runner.PAPER_EXPERIMENTS)
        assert "hybrid" in runner.EXPERIMENTS
        assert "hybrid" not in runner.PAPER_EXPERIMENTS
        capsys.readouterr()
