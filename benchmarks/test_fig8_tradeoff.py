"""Figure 8: cost vs time trade-off extrapolated to large clusters."""

from __future__ import annotations

from repro.experiments.fig8 import run_fig8
from repro.parallel.config import Method
from repro.utils.tables import ascii_table


def _print(panel_name, results):
    rows = []
    for method, points in results.items():
        for p in points:
            rows.append((
                method, p.n_gpus, f"{p.beta:.3f}", f"{p.batch_size:.0f}",
                f"{p.utilization * 100:.1f}%", f"{p.time_days:.1f}",
                f"{p.cost_gpu_days:.0f}",
            ))
    print()
    print(ascii_table(
        ["Method", "GPUs", "beta", "Batch", "Util", "Time (days)",
         "Cost (GPU-days)"],
        rows,
        title=f"Figure 8 ({panel_name}): cost/time trade-off",
    ))


def test_fig8a_52b(benchmark, fig7_52b):
    results = benchmark.pedantic(
        run_fig8, args=(fig7_52b,), rounds=1, iterations=1
    )
    bf = results[Method.BREADTH_FIRST.value]
    # Paper: breadth-first shows cost/time improvements at nearly all
    # scales for the 52B model.
    for method, points in results.items():
        if method == Method.BREADTH_FIRST.value:
            continue
        for ours, theirs in zip(bf, points):
            assert ours.n_gpus == theirs.n_gpus
            assert ours.time_days <= theirs.time_days * 1.10, (
                f"{method} much faster than breadth-first at {ours.n_gpus} GPUs"
            )
    # Time falls with cluster size; cost rises.
    times = [p.time_days for p in bf]
    costs = [p.cost_gpu_days for p in bf]
    assert times == sorted(times, reverse=True)
    assert costs == sorted(costs)
    _print("52B", results)


def test_fig8b_6_6b(benchmark, fig7_66b):
    results = benchmark.pedantic(
        run_fig8, args=(fig7_66b,), rounds=1, iterations=1
    )
    assert Method.BREADTH_FIRST.value in results
    _print("6.6B", results)


def test_fig8c_6_6b_ethernet(benchmark, fig7_ethernet):
    results = benchmark.pedantic(
        run_fig8, args=(fig7_ethernet,), rounds=1, iterations=1
    )
    bf = results[Method.BREADTH_FIRST.value]
    df = results[Method.DEPTH_FIRST.value]
    # Paper: on Ethernet the breadth-first advantage holds at all sizes.
    for ours, theirs in zip(bf, df):
        assert ours.time_days < theirs.time_days
    _print("6.6B Ethernet", results)
