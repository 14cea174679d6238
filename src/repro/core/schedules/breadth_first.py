"""Breadth-first looped schedule — the paper's contribution (Section 4.1).

A rank runs *all* micro-batches of its current stage before moving to its
next stage (breadth), pairing with the forward-first phase structure of
GPipe: the full forward pass over all stage chunks, then the full backward
pass in reverse chunk order (Figure 4d).

Why this order wins (Section 4.2):

- **Pipeline-parallel overlap.** While stage ``s`` computes micro-batch
  ``m+1``, micro-batch ``m``'s output is in flight to stage ``s+1``; with
  ``N_mb > N_PP`` the extra micro-batches absorb transfer delays, so the
  numerous small PP messages of a highly looped pipeline hide behind
  compute instead of stalling it (the depth-first schedule cannot do
  this — Figure 6).
- **Data-parallel overlap.** Each stage's gradients are complete after its
  *last* backward micro-batch, so reduction of stage ``s`` overlaps with
  the backward of stage ``s-1`` — the reduction overlaps with the entire
  batch rather than a single micro-batch (Eq. 23).
- **DP_FS compatibility.** Weights of each stage are reconstructed exactly
  once per pass (one all-gather before its first forward, one before its
  first backward, one reduce-scatter after its last backward) instead of
  once per micro-batch (Eq. 26), making fully sharded data parallelism
  affordable with pipeline parallelism.

With ``N_loop == 1`` this is GPipe (Huang et al. 2018, Figure 4a): every
rank runs all ``N_mb`` forwards of its single stage, then all backwards.
All activations stay live through the forward phase, so the in-flight
count reaches ``N_mb`` — the memory cost that motivates 1F1B.  With
``N_PP == 1`` it degenerates to the breadth-first gradient accumulation
of Appendix C.
"""

from __future__ import annotations

from repro.core.ops import ComputeOp, backward, forward


def breadth_first_order(
    rank: int, n_pp: int, n_microbatches: int, n_loop: int
) -> list[ComputeOp]:
    """Instruction stream of ``rank`` under the breadth-first schedule.

    Args:
        rank: Pipeline rank in ``[0, n_pp)``.
        n_pp: Pipeline devices.
        n_microbatches: Sequential micro-batches.
        n_loop: Stage chunks per device; stage ``rank + chunk * n_pp``.
    """
    if not 0 <= rank < n_pp:
        raise ValueError(f"rank {rank} out of range [0, {n_pp})")
    order: list[ComputeOp] = []
    for chunk in range(n_loop):
        stage = rank + chunk * n_pp
        order += [forward(mb, stage) for mb in range(n_microbatches)]
    for chunk in reversed(range(n_loop)):
        stage = rank + chunk * n_pp
        order += [backward(mb, stage) for mb in range(n_microbatches)]
    return order
