"""Sequenced looped schedules: depth-first and the Section 4.2 hybrid.

The depth-first schedule is Megatron-LM's interleaved 1F1B (Narayanan
et al. 2021), the paper's principal baseline.  Micro-batches advance in
*sequences* of ``N_PP``: a rank pushes one sequence through all of its
``N_loop`` stage chunks (depth) before starting the next sequence,
alternating forward and backward 1F1B-style in steady state.  This
requires ``N_mb`` to be a multiple of ``N_PP`` (Section 4.1) and caps
in-flight activations near ``N_layers + N_PP - 1`` checkpoints
(Table 4.1), at the cost of the poor communication overlap the paper
measures in Figure 6.

The ordering follows Megatron-LM's
``forward_backward_pipelining_with_interleaving`` (commit e156d2f, the
reference the paper evaluates against): virtual slot ``k`` maps to model
chunk ``(k mod S*N_loop) // S`` (mirrored for backward) and data
micro-batch ``(k // (S*N_loop)) * S + k mod S``, with ``S = N_PP``.

The paper notes that the depth-first schedule cannot hide pipeline
transfers because its sequences of exactly ``N_PP`` micro-batches leave
no slack: a transfer delay stalls the first device when the micro-batch
fails to loop around in time.  It conjectures (without verifying) that
*"running with sequences of more than N_PP micro-batches, essentially
forming a hybrid between the two schedules"* would fix this.

:func:`hybrid_order` implements that hybrid: the depth-first structure
with a configurable ``sequence_size`` ``S``, ``N_PP <= S <= N_mb``.
``S = N_PP`` is the depth-first schedule, which
:func:`repro.core.schedules.base.build_schedule` builds this way;
``S = N_mb`` approaches the breadth-first schedule (single sequence,
whole-batch breadth).  In between, activation memory grows with ``S``
(more in-flight micro-batches) while the extra ``S - N_PP`` micro-batches
of slack absorb transfer delays — the trade-off the benchmark
``test_hybrid_extension.py`` measures.  DP_FS repetition accounting runs
once per sequence (Eqs. 24-26 with the sequence as the repetition unit).
"""

from __future__ import annotations

from repro.core.ops import ComputeOp, backward, forward


def _chunk_of(slot: int, seq: int, n_loop: int, *, is_forward: bool) -> int:
    in_group = slot % (seq * n_loop)
    chunk = in_group // seq
    return chunk if is_forward else n_loop - chunk - 1


def _microbatch_of(slot: int, seq: int, n_loop: int) -> int:
    group = slot // (seq * n_loop)
    return group * seq + slot % seq


def hybrid_order(
    rank: int,
    n_pp: int,
    n_microbatches: int,
    n_loop: int,
    sequence_size: int,
) -> list[ComputeOp]:
    """Instruction stream of ``rank`` under the hybrid schedule.

    Args:
        rank: Pipeline rank in ``[0, n_pp)``.
        n_pp: Pipeline devices.
        n_microbatches: Sequential micro-batches; must be a multiple of
            ``sequence_size``.
        n_loop: Stage chunks per device.
        sequence_size: Micro-batches per depth-first sequence ``S``;
            ``S = n_pp`` is the depth-first schedule, larger values trade
            activation memory for transfer slack.
    """
    if n_pp < 1:
        raise ValueError(f"n_pp must be >= 1, got {n_pp}")
    if not 0 <= rank < n_pp:
        raise ValueError(f"rank {rank} out of range [0, {n_pp})")
    if n_microbatches < 1:
        raise ValueError(
            f"n_microbatches must be >= 1, got {n_microbatches}; an empty "
            "batch has no schedule"
        )
    if n_loop < 1:
        raise ValueError(f"n_loop must be >= 1, got {n_loop}")
    if sequence_size < n_pp:
        raise ValueError(
            f"sequence_size ({sequence_size}) must be >= N_PP ({n_pp}); "
            "smaller sequences starve the pipeline"
        )
    if n_microbatches % sequence_size != 0:
        raise ValueError(
            f"N_mb ({n_microbatches}) must be a multiple of sequence_size "
            f"({sequence_size})"
        )

    seq = sequence_size
    total = n_microbatches * n_loop

    def fwd_op(slot: int) -> ComputeOp:
        chunk = _chunk_of(slot, seq, n_loop, is_forward=True)
        return forward(_microbatch_of(slot, seq, n_loop), rank + chunk * n_pp)

    def bwd_op(slot: int) -> ComputeOp:
        chunk = _chunk_of(slot, seq, n_loop, is_forward=False)
        return backward(_microbatch_of(slot, seq, n_loop), rank + chunk * n_pp)

    if n_microbatches == seq:
        # Single sequence: the whole forward pass runs first, as in the
        # breadth-first/GPipe phase structure.
        n_warmup = total
    else:
        n_warmup = min(total, (n_pp - rank - 1) * 2 + (n_loop - 1) * seq)

    order = [fwd_op(slot) for slot in range(n_warmup)]
    n_steady = total - n_warmup
    for i in range(n_steady):
        order.append(fwd_op(n_warmup + i))
        order.append(bwd_op(i))
    order += [bwd_op(slot) for slot in range(n_steady, total)]
    return order
