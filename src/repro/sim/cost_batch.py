"""Vectorized cost-model pricing for whole config families.

The scalar :func:`repro.sim.cost.stage_time_table` walks every stage of a
family in Python, re-deriving layer counts and flop sums per call.  This
module prices the stages of many families in one numpy pass and — through
:func:`warm_family_tables` — seeds the shared table cache so every later
scalar lookup in the search cell (bounds, program builds, adjacent sweep
cells) is a pure hit.

**Bit-exactness is the contract**, property-tested under hypothesis in
``tests/test_differential.py``: the returned
:class:`~repro.sim.cost.StageTimes` must equal the scalar table's to the
last bit, because both the program builder and the analytical bound feed
off these floats and the search's byte-identical-winners guarantee rides
on them.  Three facts make that achievable:

- All *family-scalar* quantities — kernel efficiency, effective flop/s,
  TP all-reduce constants, pipeline transfer/launch — are computed by
  the exact same ``CostModel`` probe code the scalar path runs.
- Only the per-stage axis is vectorized (concatenated across families
  that share every family-scalar input), and layer counts vary the
  simplest possible way (``base + (stage < extra)``, the near-identical
  split of :class:`repro.core.placement.Placement`).
- Every numpy expression mirrors the scalar source's operator order
  left-associatively; elementwise float64 ufuncs are single IEEE-754
  operations, so identical operand order means identical bits.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import groupby
from typing import NamedTuple

import numpy as np

from repro.core.placement import Placement
from repro.hardware.cluster import ClusterSpec
from repro.implementations import ImplementationProfile, default_implementation_for
from repro.models.spec import TransformerSpec
from repro.parallel.config import ParallelConfig, ScheduleKind, Sharding
from repro.sim.calibration import Calibration
from repro.sim.cost import (
    CostModel,
    StageTimes,
    WarmStartSeed,
    comm_time_table,
    stage_time_table,
)

__all__ = [
    "BoundPartials",
    "CommRankSums",
    "bound_partials",
    "comm_rank_sums",
    "price_families",
    "warm_family_tables",
    "warm_seed_caches",
]

#: A batch-independent config family: the axes per-stage durations depend
#: on.  Everything else (n_dp, n_mb, sharding, schedule) shares the table.
Family = tuple[int, int, int, int]  # (n_pp, n_loop, microbatch_size, n_tp)


def price_families(
    spec: TransformerSpec,
    cluster: ClusterSpec,
    calibration: Calibration,
    implementation: ImplementationProfile,
    families: Iterable[Family],
) -> dict[Family, StageTimes]:
    """Price many families in one numpy pass *across* families.

    Concatenates the stage axes of every family that shares
    ``(microbatch_size, n_tp)`` — the axes all group-scalar quantities
    (kernel efficiency, effective flop/s, head-flop terms) depend on —
    and runs the forward/backward arithmetic once over the flat array.
    Per-family probes still supply the scalars that vary with ``n_pp``
    (TP/PP network selection, transfer and launch overheads).

    Every entry is bit-identical to the scalar
    :func:`repro.sim.cost.stage_time_table` (hypothesis-pinned): each
    flat elementwise expression applies the same IEEE-754 operations to
    the same operands as the scalar ``CostModel`` methods, and the group
    scalars come from the same probe code, so concatenation and split
    cannot change a single bit.
    """
    out: dict[Family, StageTimes] = {}
    grouped = sorted(set(families), key=lambda f: (f[2], f[3], f[0], f[1]))
    for (_smb, _ntp), members in groupby(grouped, key=lambda f: (f[2], f[3])):
        group = list(members)
        probes = []
        layer_arrays = []
        for n_pp, n_loop, microbatch_size, n_tp in group:
            probe = CostModel(
                spec=spec,
                config=ParallelConfig(
                    n_dp=1,
                    n_pp=n_pp,
                    n_tp=n_tp,
                    microbatch_size=microbatch_size,
                    n_microbatches=1,
                    n_loop=n_loop,
                    schedule=ScheduleKind.BREADTH_FIRST,
                ),
                cluster=cluster,
                implementation=implementation,
                calibration=calibration,
            )
            probes.append(probe)
            n_stages = n_pp * n_loop
            base, extra = divmod(spec.n_layers, n_stages)
            layer_arrays.append(base + (np.arange(n_stages) < extra))

        counts = [arr.size for arr in layer_arrays]
        offsets = np.cumsum(counts)
        last_idx = offsets - 1
        n_layers = np.concatenate(layer_arrays)

        first = probes[0]
        microbatch_size, n_tp = group[0][2], group[0][3]
        eff_flops = cluster.gpu.peak_flops * first.kernel_efficiency
        layer_flops = spec.flops_per_layer_per_sample(forward_only=True)
        head_flops = spec.head_flops_per_sample(forward_only=True)
        if n_tp > 1:
            tp_per_family = []
            for probe in probes:
                net = probe.tp_network
                bytes_per_layer = (
                    8.0 * 2 * spec.hidden_size * probe.tokens_per_microbatch
                )
                latency = net.latency * calibration.network_overhead_scale
                tp_per_family.append(
                    bytes_per_layer / net.bandwidth + 2 * latency
                )
            tp_exposed = n_layers * np.repeat(tp_per_family, counts)
        else:
            tp_exposed = 0.0

        fwd_flops = n_layers * layer_flops * microbatch_size / n_tp
        fwd_flops[last_idx] = (
            fwd_flops[last_idx] + head_flops * microbatch_size / n_tp
        )
        forward = fwd_flops / eff_flops + tp_exposed

        bwd_flops = 3.0 * n_layers * layer_flops * microbatch_size / n_tp
        bwd_flops[last_idx] = (
            bwd_flops[last_idx] + 2.0 * head_flops * microbatch_size / n_tp
        )
        backward = bwd_flops / eff_flops + tp_exposed

        fwd_parts = np.split(forward, offsets[:-1])
        bwd_parts = np.split(backward, offsets[:-1])
        for family, probe, fwd, bwd in zip(group, probes, fwd_parts, bwd_parts):
            out[family] = StageTimes(
                forward=tuple(fwd.tolist()),
                backward=tuple(bwd.tolist()),
                pp_transfer=probe.pp_transfer_time(),
                pp_launch=probe.pp_launch_overhead(),
            )
    return out


class BoundPartials(NamedTuple):
    """Per-rank bound ingredients shared by every candidate of a family.

    The step-time lower bound's rank loop decomposes into terms that
    depend only on the stage-time family axes ``(spec, cluster,
    calibration, implementation, n_pp, n_loop, microbatch_size, n_tp)``
    plus per-candidate scalars (``n_mb``, sharding, ``n_dp``).  Caching
    the family-level terms turns the bound from O(n_stages + n_pp^2) per
    candidate into a handful of multiply-adds — the dominant cost of the
    memory/bound stage once schedules are no longer materialized.

    Every entry is the *same float* the scalar ``CostModel`` methods
    produce (same summation order, computed by the same code), so a bound
    assembled from these partials is bit-identical to one assembled from
    per-candidate ``cost.rank_*`` calls — pinned by the bound property in
    ``tests/test_differential.py``.

    Attributes:
        fill: ``fill[r]`` = :meth:`CostModel.rank_fill_seconds`.
        drain: ``drain[r]`` = :meth:`CostModel.rank_drain_seconds`.
        sum_fb: ``sum_fb[r]`` = one micro-batch's forward+backward busy
            seconds over rank ``r``'s stages (the generator sum inside
            :meth:`CostModel.rank_compute_seconds`).
        per_mb_sends: pipeline messages rank ``r`` issues per micro-batch
            (``rank_send_count / n_mb``, an exact integer).
        rank_params: ``rank_params[r]`` =
            :meth:`CostModel.rank_params_local`.
    """

    fill: tuple[float, ...]
    drain: tuple[float, ...]
    sum_fb: tuple[float, ...]
    per_mb_sends: tuple[int, ...]
    rank_params: tuple[float, ...]


@lru_cache(maxsize=16384)
def bound_partials(
    spec: TransformerSpec,
    cluster: ClusterSpec,
    calibration: Calibration,
    implementation: ImplementationProfile,
    n_pp: int,
    n_loop: int,
    microbatch_size: int,
    n_tp: int,
) -> BoundPartials:
    """Memoized per-rank bound ingredients for one config family.

    The probe pins the axes the partials do not depend on (``n_dp = 1``,
    ``n_mb = 1``, DP0, breadth-first) and runs the *scalar* ``CostModel``
    methods once per family, so the cached floats are bit-identical to
    what any matching candidate's own method calls would return.
    """
    probe = CostModel(
        spec=spec,
        config=ParallelConfig(
            n_dp=1,
            n_pp=n_pp,
            n_tp=n_tp,
            microbatch_size=microbatch_size,
            n_microbatches=1,
            n_loop=n_loop,
            schedule=ScheduleKind.BREADTH_FIRST,
        ),
        cluster=cluster,
        implementation=implementation,
        calibration=calibration,
    )
    times = probe.stage_times()
    ranks = range(n_pp)
    return BoundPartials(
        fill=tuple(probe.rank_fill_seconds(r) for r in ranks),
        drain=tuple(probe.rank_drain_seconds(r) for r in ranks),
        sum_fb=tuple(
            sum(
                times.forward[s] + times.backward[s]
                for s in probe.placement.stages_of_device(r)
            )
            for r in ranks
        ),
        # Probe has n_mb = 1, so its send count *is* the per-micro-batch
        # count; candidates scale it by their own integer n_mb exactly.
        per_mb_sends=tuple(probe.rank_send_count(r) for r in ranks),
        rank_params=tuple(probe.rank_params_local(r) for r in ranks),
    )


class CommRankSums(NamedTuple):
    """Per-rank stage sums of the DP collective table.

    ``gather[r]`` / ``reduce[r]`` are ``sum(comm.gather[s] for s in
    stages_of_device(r))`` (resp. ``reduce``) in the exact generator
    order the bound's DP-stream certificate sums them, cached once per
    ``comm_time_table`` key instead of re-summed O(n_loop) per candidate.
    """

    gather: tuple[float, ...]
    reduce: tuple[float, ...]


@lru_cache(maxsize=16384)
def comm_rank_sums(
    spec: TransformerSpec,
    cluster: ClusterSpec,
    implementation: ImplementationProfile,
    n_pp: int,
    n_loop: int,
    n_tp: int,
    n_dp: int,
    sharding: Sharding,
) -> CommRankSums:
    """Memoized per-rank gather/reduce sums for one comm family."""
    comm = comm_time_table(
        spec, cluster, implementation, n_pp, n_loop, n_tp, n_dp, sharding
    )
    placement = Placement(spec.n_layers, n_pp, n_loop)
    return CommRankSums(
        gather=tuple(
            sum(comm.gather[s] for s in placement.stages_of_device(r))
            for r in range(n_pp)
        ),
        reduce=tuple(
            sum(comm.reduce[s] for s in placement.stages_of_device(r))
            for r in range(n_pp)
        ),
    )


def warm_family_tables(
    spec: TransformerSpec,
    cluster: ClusterSpec,
    calibration: Calibration,
    implementation: ImplementationProfile,
    families: Iterable[Family],
) -> tuple[int, int]:
    """Batch-price ``families`` into the shared stage-time cache.

    Seeds :func:`repro.sim.cost.stage_time_table` with vector-priced
    entries for every family not already cached, so the scalar lookups
    that follow — ``CostModel.stage_times()`` from the bound stage and
    the program builder — all hit.  Missing families are priced together
    through :func:`price_families` (one numpy pass per
    ``(s_mb, n_tp)`` group, bit-identical to scalar pricing).
    Returns ``(n_priced, n_already)`` for the search's
    ``search.batch.*`` obs counters.
    """
    n_already = 0
    missing: dict[Family, None] = {}
    for n_pp, n_loop, microbatch_size, n_tp in families:
        family = (n_pp, n_loop, microbatch_size, n_tp)
        key = (spec, cluster, calibration, implementation, *family)
        if stage_time_table.seeded(key) or family in missing:
            n_already += 1
        else:
            missing[family] = None
    priced = price_families(spec, cluster, calibration, implementation, missing)
    for family, times in priced.items():
        stage_time_table.seed(
            (spec, cluster, calibration, implementation, *family), times
        )
    return len(priced), n_already


def warm_seed_caches(
    spec: TransformerSpec,
    cluster: ClusterSpec,
    calibration: Calibration,
    seed: WarmStartSeed,
) -> int:
    """Pre-price the config families named by a neighbor-cell seed.

    For every config in ``seed`` this warms exactly the caches the
    search's own stages would fill for that family — the shared
    stage-time table (via the vectorized pricer), the per-rank bound
    partials, and the DP collective table with its rank sums.  All of
    them are keyed memos of deterministic functions, so seeding changes
    *when* values are computed, never *what* the search returns: a
    seeded ``best_configuration`` is byte-identical to a cold one
    (pinned by the planner's cache-equivalence tests).

    Returns the number of distinct stage-time families warmed, for the
    ``search.warm_start.seeded_families`` obs counter.
    """
    families: dict[tuple, None] = {}
    for config in seed.configs:
        implementation = default_implementation_for(config.schedule)
        family = (
            config.n_pp,
            config.n_loop,
            config.microbatch_size,
            config.n_tp,
        )
        families.setdefault((implementation, family), None)
        bound_partials(spec, cluster, calibration, implementation, *family)
        comm_time_table(
            spec,
            cluster,
            implementation,
            config.n_pp,
            config.n_loop,
            config.n_tp,
            config.n_dp,
            config.sharding,
        )
        comm_rank_sums(
            spec,
            cluster,
            implementation,
            config.n_pp,
            config.n_loop,
            config.n_tp,
            config.n_dp,
            config.sharding,
        )
    n_warmed = 0
    for implementation, family in families:
        n_priced, _ = warm_family_tables(
            spec, cluster, calibration, implementation, (family,)
        )
        n_warmed += n_priced
    return n_warmed
