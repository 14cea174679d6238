"""Enumeration of the Appendix E configuration spaces.

For each method and global batch size, the paper grid-searches over the
pipeline size, tensor-parallel size, micro-batch size, micro-batch count,
stages per device and sharding mode, excluding configurations that are
obviously inferior (excessive model parallelism, DP_FS inefficiently
combined with gradient accumulation) or certain to run out of memory.
The same rules are encoded here.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.hardware.cluster import ClusterSpec
from repro.implementations import (
    MEGATRON_LM,
    OUR_IMPLEMENTATION,
    ImplementationProfile,
)
from repro.models.spec import TransformerSpec
from repro.parallel.config import Method, ParallelConfig, ScheduleKind, Sharding
from repro.search.cell import DEFAULT_SETTINGS, SearchSettings

#: Search caps keeping the simulated space close to the paper's grid.
MAX_MICROBATCH_SIZE = 16
MAX_MICROBATCHES = 256


def _powers_of_two(limit: int) -> list[int]:
    values = []
    v = 1
    while v <= limit:
        values.append(v)
        v *= 2
    return values


def _candidate_grids(
    cluster: ClusterSpec, batch_size: int, *, pipeline: bool
) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield (n_dp, n_pp, n_tp, microbatch_size, n_microbatches)."""
    n_gpus = cluster.n_gpus
    for n_tp in _powers_of_two(cluster.node_size):
        pp_limit = n_gpus // n_tp
        pp_values = _powers_of_two(pp_limit) if pipeline else [1]
        for n_pp in pp_values:
            if pipeline and n_pp < 2:
                continue
            if n_tp * n_pp > n_gpus:
                continue
            if n_gpus % (n_tp * n_pp) != 0:
                continue
            n_dp = n_gpus // (n_tp * n_pp)
            if batch_size % n_dp != 0:
                continue
            per_replica = batch_size // n_dp
            for smb in _powers_of_two(min(MAX_MICROBATCH_SIZE, per_replica)):
                if per_replica % smb != 0:
                    continue
                n_mb = per_replica // smb
                if n_mb > MAX_MICROBATCHES:
                    continue
                yield n_dp, n_pp, n_tp, smb, n_mb


def _loop_values(spec: TransformerSpec, n_pp: int) -> list[int]:
    return [v for v in _powers_of_two(spec.n_layers // n_pp) if v >= 2]


def _sequence_sizes(n_pp: int, n_microbatches: int) -> list[int]:
    """Hybrid ``sequence_size`` values: divisors of ``N_mb`` in
    ``[N_PP, N_mb]`` (Section 4.2's "sequences of more than N_PP
    micro-batches", anchored at the depth-first boundary ``S = N_PP``)."""
    return [
        s
        for s in range(n_pp, n_microbatches + 1)
        if n_microbatches % s == 0
    ]


def configuration_space(
    method: Method,
    spec: TransformerSpec,
    cluster: ClusterSpec,
    batch_size: int,
    *,
    settings: SearchSettings = DEFAULT_SETTINGS,
) -> Iterator[tuple[ParallelConfig, ImplementationProfile]]:
    """All candidate (config, implementation) pairs for one search cell.

    ``settings`` is the same :class:`~repro.search.cell.SearchSettings`
    that configures the whole evaluation pipeline, so the enumeration
    and the pipeline can never disagree about which axes a cell
    searches; only its ``include_hybrid`` shapes the space.  The space
    is objective-independent by design: objectives change which
    candidates are *feasible* or *preferred*, never which exist, so
    every objective's counters partition the same enumeration.

    Every yielded configuration is valid against the model: stages never
    outnumber layers (a stage holds at least one transformer layer), so
    cell accounting — simulated + memory-excluded + bound-pruned — sums
    to exactly the enumerated space.

    Method-specific rules (Appendix E):

    - **Breadth-first**: our implementation, ``N_loop >= 2``, DP0 or DP_FS
      (the paper only tried DP_FS for breadth-first configs).  With
      ``settings.include_hybrid``, Section 4.2 hybrid-schedule
      candidates (the ``sequence_size`` axis, same sharding rules) join
      the space.
    - **Depth-first**: Megatron-LM, ``N_loop >= 2``, DP0 only, ``N_mb``
      a multiple of ``N_PP``.
    - **Non-looped**: both implementations — ours runs GPipe with DP0 or
      DP_PS, Megatron-LM runs 1F1B with DP0.
    - **No pipeline**: our implementation, breadth-first gradient
      accumulation (Appendix C), DP0 or DP_FS.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    include_hybrid = settings.include_hybrid
    pipeline = method is not Method.NO_PIPELINE

    for n_dp, n_pp, n_tp, smb, n_mb in _candidate_grids(
        cluster, batch_size, pipeline=pipeline
    ):
        # Non-looped stages are one per pipeline rank, so deep pipelines
        # can outnumber the model's layers; such configs cannot be built
        # and are excluded from the space (not silently skipped later —
        # the n_tried/n_excluded/n_pruned contract counts every yielded
        # candidate).  Looped values are bounded by n_layers // n_pp and
        # can never violate this.
        if n_pp > spec.n_layers:
            continue
        base = dict(
            n_dp=n_dp,
            n_pp=n_pp,
            n_tp=n_tp,
            microbatch_size=smb,
            n_microbatches=n_mb,
        )
        if method is Method.BREADTH_FIRST:
            for n_loop in _loop_values(spec, n_pp):
                shardings = [Sharding.NONE]
                if n_dp > 1:
                    shardings.append(Sharding.FULL)
                for sharding in shardings:
                    yield (
                        ParallelConfig(
                            **base,
                            n_loop=n_loop,
                            sharding=sharding,
                            schedule=ScheduleKind.BREADTH_FIRST,
                        ),
                        OUR_IMPLEMENTATION,
                    )
                    if not include_hybrid:
                        continue
                    for seq in _sequence_sizes(n_pp, n_mb):
                        yield (
                            ParallelConfig(
                                **base,
                                n_loop=n_loop,
                                sharding=sharding,
                                schedule=ScheduleKind.HYBRID,
                                sequence_size=seq,
                            ),
                            OUR_IMPLEMENTATION,
                        )
        elif method is Method.DEPTH_FIRST:
            if n_mb % n_pp != 0:
                continue
            for n_loop in _loop_values(spec, n_pp):
                yield (
                    ParallelConfig(
                        **base,
                        n_loop=n_loop,
                        sharding=Sharding.NONE,
                        schedule=ScheduleKind.DEPTH_FIRST,
                    ),
                    MEGATRON_LM,
                )
        elif method is Method.NON_LOOPED:
            shardings = [Sharding.NONE]
            if n_dp > 1:
                shardings.append(Sharding.PARTIAL)
            for sharding in shardings:
                yield (
                    ParallelConfig(
                        **base, sharding=sharding, schedule=ScheduleKind.GPIPE
                    ),
                    OUR_IMPLEMENTATION,
                )
            yield (
                ParallelConfig(
                    **base, sharding=Sharding.NONE, schedule=ScheduleKind.ONE_F_ONE_B
                ),
                MEGATRON_LM,
            )
        elif method is Method.NO_PIPELINE:
            shardings = [Sharding.NONE]
            # DP_FS with heavy gradient accumulation is excluded as
            # "obviously inferior" unless the accumulation is breadth-first
            # (which we use), so FS stays in the space.
            if n_dp > 1:
                shardings.append(Sharding.FULL)
            for sharding in shardings:
                yield (
                    ParallelConfig(
                        **base,
                        sharding=sharding,
                        schedule=ScheduleKind.BREADTH_FIRST,
                    ),
                    OUR_IMPLEMENTATION,
                )
        else:  # pragma: no cover - exhaustive over Method
            raise ValueError(f"unknown method {method}")
