"""The repository benchmark: three workloads users run, end to end and per layer.

    python3 perfbench/run.py --workload fig7-grid --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

- ``fig7-grid``: ``repro-experiments fig7 --full --jobs 1``, the full
  Figure-7 grid (64 cells), each repetition in a fresh interpreter.
- ``plan-stream``: ``repro-experiments serve`` from an empty memo store,
  driven over HTTP by two closed-loop clients in this process with
  single-cell ``POST /plan`` queries; each round is a fresh server.
- ``calibrate-quick``: ``repro-experiments calibrate --quick`` (840 anchor
  simulations), each repetition in a fresh interpreter.

Repetitions run until ``--seconds`` have passed; times are best over the
repetitions and scaled by a machine-speed probe (see :func:`end_to_end`).
With ``--trace 1`` traced and untraced repetitions alternate: the traced
ones give the per-layer split (wrappers installed from
``perfbench/tracer.py``), the untraced ones the tracing overhead.  Every repetition's outputs are checked against
``perfbench/golden.json``, and its work counts must equal the golden
counts.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("fig7-grid", "plan-stream", "calibrate-quick")

#: No repetition starts unless it can finish this long after the start.
DEADLINE_S = 165.0

#: The machine's speed drifts by a third over minutes as other tenants
#: load its shared cores, which no statistic over one run's repetitions
#: can remove.  Times are therefore scaled by ``PROBE_REFERENCE_S`` over
#: the run's best :func:`probe_seconds`: they read as if measured on a
#: machine where the probe takes ``PROBE_REFERENCE_S`` (a 2-core shared
#: x86 host when unloaded).  Raw figures are printed as well.
PROBE_ITEMS = 100_000
PROBE_REFERENCE_S = 0.036

#: plan-stream: queries per round, their Zipf exponent, concurrent clients.
QUERIES_PER_ROUND = 600
ZIPF_EXPONENT = 1.0
CLIENTS = 2
#: Figure-7 panel -> (model preset, cluster alias) in the planner's terms.
PANELS = {
    "52B": ("52B", "dgx1-64"),
    "6.6B": ("6.6B", "dgx1-64"),
    "6.6B-ethernet": ("6.6B", "dgx1-64-ethernet"),
}
MISS_SOURCES = ("computed", "seeded")
ANSWER_SOURCES = ("exact", "coalesced")

END_TO_END = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}
PER_LAYER = {
    **{
        f"{layer}.{suffix}": unit
        for layer in LAYERS
        for suffix, unit in (("calls", "count"), ("self_s", "s"),
                             ("share", "ratio"))
    },
    "search.space.candidates": "count",
    "analytical.memory.excluded": "count",
    "analytical.lower_bound.pruned": "count",
    "analytical.lower_bound.tightness_p50": "ratio",
    "search.grid.sim_yield": "ratio",
    "sim.cost.stage_misses": "count",
    "sim.cost.comm_misses": "count",
    "sim.cost_batch.families_priced": "count",
    "sim.program.instructions": "count",
    "sim.engine.events": "count",
    "sim.engine.delta_yield": "ratio",
    "search.service.memo.hit_ratio": "ratio",
    "planner.core.search_wait_s": "s",
    "planner.core.search_busy_share": "ratio",
    "planner.http.hit_gap_ms": "ms",
    "fit.evaluations": "count",
    "trace.overhead_s": "s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond."""
    ordered = sorted(values)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def probe_seconds() -> float:
    """Best of five timings of a fixed pure-Python workload.

    Dictionary, tuple and float work over a few megabytes, like the
    program's own.  Taken before every repetition; see
    :data:`PROBE_REFERENCE_S`.
    """
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        table: dict[tuple[int, int], float] = {}
        for i in range(PROBE_ITEMS):
            key = (i % 4099, i // 4099)
            table[key] = table.get(key, 0.0) + i * 0.5
        total = 0.0
        for (a, b), value in table.items():
            total += value / (a + b + 1)
        best = min(best, time.perf_counter() - started)
    return best


class Rep:
    """One repetition: its measurements, outputs and work counts."""

    def __init__(self, traced: bool, ops: int) -> None:
        self.traced = traced
        self.ops = ops
        self.failed = ops  # until its outputs are checked
        self.wall_s = 0.0
        self.setup_s = 0.0
        self.rss_mb = 0.0
        #: Latency of each operation in order; None for a query not sent.
        self.op_seconds: list[float | None] = []
        self.work: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.notes: list[str] = []
        #: Operations in flight at once (plan-stream's clients).
        self.concurrency = 1
        #: :func:`probe_seconds` just before this repetition.
        self.probe_s = float("inf")
        #: plan-stream: client latencies by answer source.
        self.by_source: dict[str, list[float]] | None = None


# ------------------------------------------------------------ batch workloads


def run_child(workload: str, traced: bool, deadline: float) -> dict | None:
    """One fresh-interpreter repetition of a batch workload (child.py)."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), workload,
           "1" if traced else "0", repr(spawned)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    if proc.returncode != 0 or not out.strip():
        return None
    return json.loads(out.splitlines()[-1])


def layer_values(rows: dict, counts: dict, wall: float) -> dict[str, float]:
    """``L.calls``/``L.self_s``/``L.share`` plus the traced work counts."""
    values: dict[str, float] = {}
    for layer in LAYERS:
        calls, self_s = rows.get(layer, (0, 0.0))
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.share"] = self_s / wall if wall > 0 else 0.0
    for name in ("search.space.candidates", "sim.cost.stage_misses",
                 "sim.cost.comm_misses", "sim.cost_batch.families_priced",
                 "sim.program.instructions", "sim.engine.events",
                 "analytical.lower_bound.tightness_p50",
                 "planner.core.search_wait_s"):
        values[name] = counts.get(name, 0)
    delta_calls = counts.get("sim.engine.delta_calls", 0)
    values["sim.engine.delta_yield"] = (
        counts.get("sim.engine.delta_replayed", 0) / delta_calls
        if delta_calls else 0.0
    )
    loads = counts.get("search.service.memo.loads", 0)
    values["search.service.memo.hit_ratio"] = (
        counts.get("search.service.memo.hits", 0) / loads if loads else 0.0
    )
    values["planner.core.search_busy_share"] = (
        counts.get("planner.core.search_busy_s", 0.0) / wall if wall > 0 else 0.0
    )
    return values


def traced_work(values: dict[str, float]) -> dict[str, float]:
    """The work counts a traced repetition adds to the untraced ones."""
    return {
        "candidates": values["search.space.candidates"],
        "instructions": values["sim.program.instructions"],
        "events": values["sim.engine.events"],
        "simulator_calls": values["sim.simulator.calls"],
    }


def check_fig7(rep: Rep, report: dict, golden: dict) -> None:
    cells = report["outputs"]["cells"]
    wrong = [key for key, digest in golden["cells"].items()
             if cells.get(key) != digest]
    rep.failed = len(wrong) + len(set(cells) - set(golden["cells"]))
    if report["exit_code"] != 0:
        rep.failed = rep.ops
    rep.notes.append(f"{len(golden['cells']) - len(wrong)}/"
                     f"{len(golden['cells'])} cell digests match")
    work = report["work"]
    rep.layer["analytical.memory.excluded"] = work["excluded"]
    rep.layer["analytical.lower_bound.pruned"] = work["pruned"]
    rep.layer["search.grid.sim_yield"] = work["cells"] / work["simulated"]


def check_calibrate(rep: Rep, report: dict, golden: dict) -> None:
    expected = golden["calibrate"]
    outputs = report["outputs"]
    rep.failed = int(outputs != expected) + int(report["exit_code"] != 0)
    rep.notes.append(
        "fit {:.2%} -> {:.2%} {}".format(
            outputs["throughput_error_before"],
            outputs["throughput_error_after"],
            "matches golden" if outputs == expected else "DIFFERS from golden",
        )
    )
    rep.layer["fit.evaluations"] = report["work"]["evaluations"]


def batch_rep(workload: str, check, traced: bool, golden: dict,
              deadline: float) -> Rep:
    """One fig7-grid or calibrate-quick repetition, checked by ``check``."""
    rep = Rep(traced, golden["ops"][workload])
    report = run_child(workload, traced, deadline)
    if report is None:
        rep.notes.append("repetition failed (no result)")
        return rep
    rep.ops = report["ops"]
    rep.wall_s = report["wall_s"]
    rep.setup_s = report["setup_s"]
    rep.rss_mb = report["rss_mb"]
    rep.op_seconds = report["op_seconds"]
    rep.work = dict(report["work"])
    check(rep, report, golden)
    if traced:
        rep.layer.update(
            layer_values(report["layers"], report["counts"], rep.wall_s)
        )
        rep.work.update(traced_work(rep.layer))
    return rep


def repeat(run_one, seconds: float, trace: bool, deadline: float) -> list[Rep]:
    """``run_one(traced)`` until ``seconds`` have passed, each after a probe.

    Traced runs alternate untraced and traced repetitions, two at least.
    No repetition starts that could not end before ``deadline``.
    """
    reps: list[Rep] = []
    started = time.monotonic()
    longest = 0.0
    while True:
        rep_started = time.monotonic()
        probe = probe_seconds()
        rep = run_one(trace and len(reps) % 2 == 1)
        rep.probe_s = probe
        longest = max(longest, time.monotonic() - rep_started)
        reps.append(rep)
        print_rep(len(reps), rep)
        done = time.monotonic() - started >= seconds
        if done and (not trace or len(reps) >= 2):
            return reps
        if deadline - time.monotonic() < 1.5 * longest:
            return reps


# ---------------------------------------------------------------- plan-stream


def panel_cells(golden: dict) -> list[str]:
    return sorted(golden["cells"])


def query_stream(seed: int, cells: list[str]) -> list[str]:
    """Seeded Zipf-popular query stream over the panel cells.

    The seed ranks the cells by popularity.  Cells enter the stream in
    rank order at a steady rate, one every ``QUERIES_PER_ROUND / 64``
    queries, and every other query draws a cell with probability
    proportional to ``1 / rank**ZIPF_EXPONENT`` among the cells that
    have entered.  So every round searches all 64 cells, with misses
    spread evenly over the round whatever the seed; the seed decides
    which cells are popular and the order in which the misses arrive.
    """
    rng = random.Random(seed)
    ranked = list(cells)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ranked))]
    spacing = QUERIES_PER_ROUND / len(ranked)
    stream: list[str] = []
    entered = 0
    for position in range(QUERIES_PER_ROUND):
        if entered < len(ranked) and position >= entered * spacing:
            stream.append(ranked[entered])
            entered += 1
        else:
            stream.append(rng.choices(ranked[:entered], weights[:entered])[0])
    return stream


def plan_body(cell: str) -> bytes:
    panel, method, batch = cell.split("/")
    model, cluster = PANELS[panel]
    return json.dumps({
        "model": model,
        "cluster": cluster,
        "batch_sizes": [int(batch)],
        "methods": [method],
    }).encode("utf-8")


def start_server(cmd: list[str], deadline: float):
    """Spawn the planner; return (process, port, seconds until listening)."""
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(1.0, deadline - time.monotonic()))
    line = proc.stdout.readline().decode("utf-8", "replace") if ready else ""
    setup = time.monotonic() - spawned
    match = re.search(r"listening on http://[^:]+:(\d+)", line)
    if match is None:
        stop_server(proc)
        raise RuntimeError(f"planner did not start: {line!r}")
    return proc, int(match.group(1)), setup


def stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def drive(port: int, bodies: list[bytes], deadline: float):
    """Closed loop: each client sends its next query once answered.

    Returns ``([(seconds, status, payload)], wall seconds)`` in stream
    order; a failed request has status ``None``.
    """
    results: list = [None] * len(bodies)
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            remaining = deadline - time.monotonic()
            if index is None or remaining <= 0:
                return
            started = time.perf_counter()
            conn = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=remaining)
            try:
                conn.request("POST", "/plan", body=bodies[index],
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = response.read()
                status = response.status
            except (OSError, http.client.HTTPException) as exc:
                payload, status = repr(exc).encode("utf-8"), None
            finally:
                conn.close()
            results[index] = (time.perf_counter() - started, status, payload)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, time.perf_counter() - started


def outcome_digest(outcome: dict) -> str:
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_round(stream: list[str], traced: bool, work_dir: Path,
              golden: dict, deadline: float) -> Rep:
    """One fresh server with an empty memo store, one pass of the stream."""
    rep = Rep(traced, len(stream))
    rep.concurrency = CLIENTS
    store = work_dir / "store"
    table = work_dir / "layers.json"
    serve_args = ["--store", str(store), "--port", "0"]
    if traced:
        cmd = [sys.executable, str(HERE / "serve_traced.py"), str(table),
               *serve_args]
    else:
        cmd = [sys.executable, "-m", "repro.experiments.runner", "serve",
               *serve_args]
    try:
        proc, port, rep.setup_s = start_server(cmd, deadline)
    except RuntimeError as exc:
        rep.notes.append(str(exc))
        return rep
    try:
        results, rep.wall_s = drive(port, [plan_body(c) for c in stream],
                                    deadline)
        rep.rss_mb = peak_rss_mb(proc.pid)
    finally:
        stop_server(proc)

    by_source: dict[str, list[float]] = {
        name: [] for name in (*MISS_SOURCES, *ANSWER_SOURCES)
    }
    work = {"misses": 0, "enumerated": 0, "excluded": 0, "pruned": 0,
            "simulated": 0}
    rep.failed = 0
    rep.op_seconds = [None if result is None else result[0]
                      for result in results]
    for cell, result in zip(stream, results):
        if result is None:  # never sent: the run hit its deadline
            rep.failed += 1
            continue
        seconds, status, payload = result
        try:
            (answer,) = json.loads(payload)["cells"] if status == 200 else ()
            source, outcome = answer["source"], answer["outcome"]
        except (ValueError, KeyError, TypeError):
            rep.failed += 1
            continue
        if (source not in by_source
                or outcome_digest(outcome) != golden["cells"][cell]):
            rep.failed += 1
            continue
        by_source[source].append(seconds)
        if source in MISS_SOURCES:
            work["misses"] += 1
            work["enumerated"] += (outcome["n_tried"] + outcome["n_excluded"]
                                   + outcome["n_pruned"])
            work["excluded"] += outcome["n_excluded"]
            work["pruned"] += outcome["n_pruned"]
            work["simulated"] += outcome["n_tried"]
    rep.work = work
    rep.by_source = by_source
    rep.layer["analytical.memory.excluded"] = work["excluded"]
    rep.layer["analytical.lower_bound.pruned"] = work["pruned"]
    rep.layer["search.grid.sim_yield"] = (
        work["misses"] / work["simulated"] if work["simulated"] else 0.0
    )
    rep.notes.append(
        " ".join(f"{name}={len(v)}" for name, v in by_source.items())
        + f"  exact-hit share {len(by_source['exact']) / len(stream):.3f}"
    )
    if traced:
        try:
            summary = json.loads(table.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            rep.notes.append(f"no layer table: {exc}")
            rep.failed += 1
            return rep
        rep.layer.update(
            layer_values(summary["layers"], summary["counts"], rep.wall_s)
        )
        server_exact = [seconds for sources, seconds in summary["plan_durations"]
                        if sources == ["exact"]]
        if by_source["exact"] and server_exact:
            rep.layer["planner.http.hit_gap_ms"] = 1000.0 * (
                median(by_source["exact"]) - median(server_exact)
            )
        rep.work.update(traced_work(rep.layer))
    return rep


def run_plan_stream(seed: int, seconds: float, trace: bool, golden: dict,
                    deadline: float) -> list[Rep]:
    stream = query_stream(seed, panel_cells(golden))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        return repeat(
            lambda traced: run_round(
                stream, traced, Path(tempfile.mkdtemp(dir=tmp)), golden,
                deadline,
            ),
            seconds, trace, deadline,
        )


# ------------------------------------------------------------------- report


def print_rep(number: int, rep: Rep) -> None:
    print(
        f"rep {number} ({'traced' if rep.traced else 'untraced'}): "
        f"wall {rep.wall_s:.3f} s  setup {rep.setup_s:.3f} s  "
        f"rss {rep.rss_mb:.1f} MB  ops {rep.ops}  failed {rep.failed}  "
        + "  ".join(rep.notes),
        flush=True,
    )


def best_wall(reps: list[Rep], best: list[float]) -> float:
    """Wall time of a repetition with every part at its best.

    Each of a repetition's ``concurrency`` closed-loop callers is busy
    with one operation after another, so its wall time is the summed
    operation time divided by the concurrency plus the time outside
    operations.  Both parts are taken at their best over the repetitions.
    """
    width = reps[0].concurrency
    outside = min(
        r.wall_s - sum(t for t in r.op_seconds if t is not None) / width
        for r in reps
    )
    return outside + sum(best) / width


def end_to_end(reps: list[Rep]) -> tuple[dict[str, float], list[str]]:
    """Figures over the untraced repetitions, plus human-readable lines.

    Other tenants of a shared machine only ever slow work down, so times
    are best-of-repetitions at the finest grain measured.  On the serial
    workloads the i-th operation is the same computation in every
    repetition, so each operation's time is its best over the
    repetitions before percentiles are taken.  On plan-stream which hit
    lands behind a running search differs from round to round, so the
    percentiles of each round's exact-hit latencies are taken first and
    the best round's are reported.  Throughput is :func:`best_wall`; set-up
    time and memory are medians over the repetitions.  Times are then
    scaled to the reference speed (:data:`PROBE_REFERENCE_S`), except
    plan-stream's hit tail: a hit that lands behind a running search
    waits out the interpreter's fixed 5 ms thread-switch intervals, a
    wall-clock quantum that does not follow the CPU's speed.
    """
    probe = min((r.probe_s for r in reps), default=PROBE_REFERENCE_S)
    scale = PROBE_REFERENCE_S / probe
    raw, lines = measured(reps)
    concurrent = bool(reps) and reps[0].concurrency > 1
    values = {
        "ops_per_s": raw["ops_per_s"] / scale,
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb": raw["peak_rss_mb"],
        "op_p50_ms": raw["op_p50_ms"] * scale,
        "op_tail_ms": raw["op_tail_ms"] * (1.0 if concurrent else scale),
    }
    lines.append(
        f"speed probe {1000 * probe:.2f} ms (reference "
        f"{1000 * PROBE_REFERENCE_S:.2f} ms): times scaled by {scale:.4f}"
    )
    lines.append("unscaled " + "  ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    return values, lines


def measured(reps: list[Rep]) -> tuple[dict[str, float], list[str]]:
    """The unscaled end-to-end figures of :func:`end_to_end`."""
    ok = [r for r in reps if not r.traced and r.op_seconds and r.wall_s > 0]
    best = [
        min(times)
        for column in zip(*(r.op_seconds for r in ok))
        if (times := [t for t in column if t is not None])
    ]
    by_source = [r.by_source for r in ok if r.by_source is not None]
    if by_source:
        latency_sets = [bs["exact"] for bs in by_source if bs["exact"]]
        described = "exact-hit queries per round, best round"
    else:
        latency_sets = [best] if best else []
        described = f"operations, each the best of {len(ok)} repetitions"
    values = {
        "ops_per_s": ok[0].ops / best_wall(ok, best) if ok else 0.0,
        "setup_s": median(r.setup_s for r in ok),
        "peak_rss_mb": median(r.rss_mb for r in ok),
        "op_p50_ms": 1000.0 * min((median(s) for s in latency_sets),
                                  default=0.0),
        "op_tail_ms": 1000.0 * min((tail(s)[0] for s in latency_sets),
                                   default=0.0),
    }
    lines = []
    if latency_sets:
        sample = latency_sets[0]
        lines.append(f"op_tail_ms is p{tail(sample)[1]:.1f} of {len(sample)} "
                     + described)
    for label, names in (("hit", ("exact",)), ("miss", MISS_SOURCES)):
        samples = [[s for name in names for s in bs[name]] for bs in by_source]
        samples = [s for s in samples if s]
        if samples:
            p50 = 1000.0 * min(median(s) for s in samples)
            worst = 1000.0 * min(tail(s)[0] for s in samples)
            pct = tail(samples[0])[1]
            lines.append(
                f"{label}_p50_ms {p50:.3f} ms  {label}_tail_ms {worst:.3f} ms "
                f"(p{pct:.1f} of {len(samples[0])} per round, best round, "
                "unscaled)"
            )
    if by_source:
        exact = median(len(bs["exact"]) for bs in by_source)
        coalesced = median(len(bs["coalesced"]) for bs in by_source)
        lines.append(f"exact-hit share {exact / QUERIES_PER_ROUND:.3f}  "
                     f"coalesced {coalesced:g} per round")
    return values, lines


def per_layer(reps: list[Rep]) -> tuple[dict[str, float], list[str]]:
    """Medians over the traced repetitions, plus the layer table."""
    traced = [r for r in reps if r.traced and r.layer]
    untraced = [r for r in reps if not r.traced and r.wall_s > 0]
    values = {
        name: median(r.layer.get(name, 0.0) for r in traced)
        for name in PER_LAYER
    }
    values["trace.overhead_s"] = (
        min((r.wall_s for r in traced), default=0.0)
        - min((r.wall_s for r in untraced), default=0.0)
    )
    lines = [f"{'layer':26s} {'calls':>9s} {'self_s':>9s} {'share':>7s} "
             f"{'us/call':>9s}"]
    for layer in LAYERS:
        calls = values[f"{layer}.calls"]
        self_s = values[f"{layer}.self_s"]
        if calls:
            lines.append(
                f"{layer:26s} {calls:9.0f} {self_s:9.3f} "
                f"{values[f'{layer}.share']:7.1%} {1e6 * self_s / calls:9.1f}"
            )
    lines.append(
        f"tracing overhead {values['trace.overhead_s']:.3f} s: best traced "
        f"minus best untraced repetition wall time"
    )
    return values, lines


def check_work(reps: list[Rep], expected: dict) -> list[str]:
    """Work counts that differ from golden or between repetitions."""
    problems = []
    for number, rep in enumerate(reps, 1):
        for name, value in rep.work.items():
            want = expected.get(name, reps[0].work.get(name))
            if value != want:
                problems.append(f"rep {number}: {name} = {value:g}, "
                                f"expected {want:g}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}", flush=True)

    trace = bool(args.trace)
    if args.workload == "plan-stream":
        reps = run_plan_stream(args.seed, args.seconds, trace, golden,
                               deadline)
    else:
        check = check_fig7 if args.workload == "fig7-grid" else check_calibrate
        reps = repeat(
            lambda traced: batch_rep(args.workload, check, traced, golden,
                                     deadline),
            args.seconds, trace, deadline,
        )

    problems = check_work(reps, golden["work"][args.workload])
    for problem in problems:
        print(f"WORK MISMATCH {problem}")
    attempted = sum(r.ops for r in reps)
    failed = sum(r.failed for r in reps)
    if trace:
        values, lines = per_layer(reps)
        units = PER_LAYER
    else:
        values, lines = end_to_end(reps)
        units = END_TO_END
    for line in lines:
        print(line)
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:14.6g} {unit}")
    print(f"failed_share {failed / attempted if attempted else 1.0:g} "
          f"({failed}/{attempted})")
    work: dict[str, float] = {}
    for rep in reps:
        work.update(rep.work)
    print("work " + " ".join(f"{k}={v:g}" for k, v in work.items()))
    result = {
        "correct": failed == 0 and not problems and bool(reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
