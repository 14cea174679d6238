"""Per-device memory model, Eqs. (13)-(17) plus schedule-derived checkpoints.

The training-state terms follow Appendix A.2.1 with the implementation
split of Appendix E: the paper's library pre-allocates fp32 gradients
(20 B/param peak, 16 of which sharded data parallelism can amortize) while
Megatron-LM allocates them on the fly (18 B/param peak, 12 shardable).

Checkpoint memory is derived from the *schedule's in-flight structure*:
the peak number of (micro-batch, stage) forwards whose backward has not
yet run, times the per-stage checkpoint size (Eq. 17 factor).  This
reproduces the Table 4.1 caps — ``N_mb N_layers / N_PP`` for
GPipe/breadth-first, ``~2 N_layers`` for 1F1B, ``~N_layers + N_PP`` for
depth-first — without hard-coding them.  Callers holding a materialized
schedule pass it; without one the model uses
:func:`repro.core.schedules.base.max_in_flight_closed` (property-proven
equal to the materialized count), so the search's memory filter never
builds a schedule just to price a candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.core.placement import Placement
from repro.core.schedules.base import Schedule, max_in_flight_closed
from repro.models.spec import TransformerSpec
from repro.parallel.config import ParallelConfig, ScheduleKind, Sharding
from repro.implementations import ImplementationProfile


@dataclass(frozen=True)
class MemoryBreakdown:
    """Peak per-GPU memory of a configuration, in bytes.

    Attributes:
        state: Training state (weights, momenta, gradients, buffers).
        checkpoints: Activation checkpoints live at the schedule's peak.
        activations: Working activations of the layer being (re)computed.
        pp_buffers: Pipeline receive buffers (double-buffered).
        total: Sum of the above.
        total_min: Total with sharded state fully amortized (the
            "memory min" columns of Tables E.1-E.3: an arbitrarily large
            data-parallel group).
    """

    state: float
    checkpoints: float
    activations: float
    pp_buffers: float
    total: float
    total_min: float


def _rank_params(
    spec: TransformerSpec, placement: Placement, rank: int, n_tp: int
) -> float:
    """Parameters per TP shard on a pipeline rank (embedding on stage 0)."""
    params = 0.0
    for stage in placement.stages_of_device(rank):
        params += placement.n_layers_of_stage(stage) * spec.params_per_layer
        if stage == 0:
            params += spec.embedding_params
    return params / n_tp


@lru_cache(maxsize=16384)
def _rank_param_table(
    spec: TransformerSpec, n_pp: int, n_loop: int, n_tp: int
) -> tuple[tuple[float, int], ...]:
    """Per-rank ``(params_local, max_stage_layers)`` for one family.

    These depend only on the layer placement and the TP width — shared by
    every candidate of a ``(n_pp, n_loop, *, n_tp)`` family across
    micro-batch shapes, DP widths, sharding modes and schedules — so the
    table is memoized family-wide instead of being rebuilt O(n_stages)
    per candidate.  Entries are the *same floats* the uncached
    :func:`_rank_params` walk produces (identical summation order).
    """
    placement = Placement(spec.n_layers, n_pp, n_loop)
    return tuple(
        (
            _rank_params(spec, placement, rank, n_tp),
            max(
                placement.n_layers_of_stage(stage)
                for stage in placement.stages_of_device(rank)
            ),
        )
        for rank in range(n_pp)
    )


@lru_cache(maxsize=16384)
def _rank_param_groups(
    spec: TransformerSpec, n_pp: int, n_loop: int, n_tp: int
) -> tuple[tuple[int, float, int], ...]:
    """Distinct ``(first_rank, params_local, max_stage_layers)`` groups.

    The near-identical layer split leaves only a handful of distinct
    per-rank parameter profiles (rank 0 with the embedding, ranks with
    ``base + 1`` layers, ranks with ``base``).  Because the closed-form
    in-flight peak is non-increasing in rank for every schedule kind
    (earlier ranks hold more outstanding micro-batches; asserted by the
    property test in ``tests/test_differential.py``), the memory peak
    over a group is attained at its first rank — so the closed-form
    :func:`memory_model` path only evaluates one rank per group.
    """
    groups: dict[tuple[float, int], int] = {}
    for rank, key in enumerate(_rank_param_table(spec, n_pp, n_loop, n_tp)):
        groups.setdefault(key, rank)
    return tuple(
        (rank, params, layers) for (params, layers), rank in groups.items()
    )


def _state_bytes(
    params_local: float,
    max_layer_params_local: float,
    config: ParallelConfig,
    impl: ImplementationProfile,
) -> float:
    """Training-state bytes for one rank under the config's sharding."""
    buffer_bytes = impl.state_bytes_per_param - impl.shardable_bytes_per_param
    # With the breadth-first schedule (or a single micro-batch) gradients
    # are reduced as soon as each stage finishes, halving the buffer term
    # (the "2 or 4" of Eq. 14).
    if config.sharding is not Sharding.NONE and (
        config.schedule is ScheduleKind.BREADTH_FIRST
        or config.n_microbatches == 1
    ):
        buffer_bytes = max(buffer_bytes - 2.0, 2.0)

    if config.sharding is Sharding.NONE:
        return impl.state_bytes_per_param * params_local
    sharded = impl.shardable_bytes_per_param * params_local / config.n_dp
    if config.sharding is Sharding.PARTIAL:
        return buffer_bytes * params_local + sharded
    # FULL: layers are reconstructed on the fly; only two layers hold fp16
    # weight+gradient buffers at once (Eq. 15: 8 B/param over two layers).
    return 4.0 * 2.0 * max_layer_params_local + sharded


def _shardable_residual(
    params_local: float, config: ParallelConfig, impl: ImplementationProfile
) -> float:
    """State bytes an arbitrarily large DP group could still amortize.

    Appendix E's "memory min" accounting: exactly
    ``shardable_bytes_per_param`` per local parameter for unsharded
    configs (16 for ours, 12 for Megatron-LM), or the residual
    ``shardable / N_DP`` for configs already sharded over ``N_DP`` ranks.
    """
    divisor = 1.0 if config.sharding is Sharding.NONE else float(config.n_dp)
    return impl.shardable_bytes_per_param * params_local / divisor


def memory_model(
    spec: TransformerSpec,
    config: ParallelConfig,
    impl: ImplementationProfile,
    schedule: Schedule | None = None,
) -> MemoryBreakdown:
    """Peak per-GPU memory for ``config``; the max over pipeline ranks.

    With ``schedule=None`` the in-flight peak comes from the closed form
    (bit-identical totals, no schedule build) — the fast path the search's
    feasibility filter runs on every enumerated candidate.
    """
    param_table = _rank_param_table(spec, config.n_pp, config.n_loop, config.n_tp)

    ckpt_per_sample_per_layer = spec.checkpoint_bytes_per_sample_per_layer(
        config.n_tp
    )
    act_bytes = (
        spec.activation_bytes_per_sample(config.n_tp) * config.microbatch_size
    )
    pp_buffers = (
        4.0
        * config.microbatch_size
        * spec.seq_length
        * spec.hidden_size
        / config.n_tp
    )

    # The largest reconstruction unit under DP_FS is one transformer layer
    # or the embedding table, whichever is bigger (per TP shard).
    max_layer_params = (
        max(spec.params_per_layer, spec.embedding_params) / config.n_tp
    )

    if schedule is not None:
        # Schedule path: every rank, straight off the materialized counts.
        candidates = (
            (rank, params, layers)
            for rank, (params, layers) in enumerate(param_table)
        )
    else:
        # Closed-form path: one rank per distinct parameter profile — the
        # in-flight peak is non-increasing in rank, so each group's first
        # rank dominates it (see :func:`_rank_param_groups`).
        candidates = _rank_param_groups(
            spec, config.n_pp, config.n_loop, config.n_tp
        )
    worst_total = -1.0
    worst_state = worst_ckpts = worst_min = 0.0
    for rank, params_local, max_stage_layers in candidates:
        if schedule is not None:
            in_flight = schedule.max_in_flight(rank)
        else:
            in_flight = max_in_flight_closed(
                config.schedule,
                rank,
                config.n_pp,
                config.n_microbatches,
                config.n_loop,
                config.sequence_size,
            )
        ckpts = (
            in_flight
            * max_stage_layers
            * ckpt_per_sample_per_layer
            * config.microbatch_size
        )
        state = _state_bytes(params_local, max_layer_params, config, impl)
        total = state + ckpts + act_bytes + pp_buffers
        if total > worst_total:
            worst_total = total
            worst_state = state
            worst_ckpts = ckpts
            worst_min = total - _shardable_residual(
                params_local, config, impl
            )
    return MemoryBreakdown(
        state=worst_state,
        checkpoints=worst_ckpts,
        activations=act_bytes,
        pp_buffers=pp_buffers,
        total=worst_total,
        total_min=worst_min,
    )
