"""Static deadlock-freedom proof for lowered programs.

The event engine (:mod:`repro.sim.engine`) executes each (rank, stream)
instruction queue strictly in order, so a program deadlocks if and only
if the graph over *all* instructions — explicit dependency edges plus
the implicit FIFO edge from each instruction to its stream predecessor
— is cyclic, or some dependency names a uid no instruction carries
(a recv whose send was never emitted blocks its stream forever).

This module reports both, with no timing model:

- **P301 unmatched dependency**: a dep uid that exists nowhere in the
  program.  For pipeline transfer uids (``XA``/``XG``) this is exactly
  the "recv without a send" half of cross-rank p2p matching.
- **P302 orphan p2p send**: a transfer instruction no other instruction
  depends on — the "send without a recv" half.  The engine tolerates
  these (the transfer just runs), but a real NCCL send with no matching
  recv blocks its stream, so the verifier treats it as an error.
- **P303 dependency cycle**: the engine's wavefront core
  (:func:`repro.sim.engine.run_wavefront`) runs a copy of the program
  and stops exactly where dependency + FIFO edges cycle; each stream
  head it stops at is reported with what it still waits on, mirroring
  the engine's dynamic deadlock diagnostics.  An instruction that
  depends on itself is reported separately and does not block the run.
- **P304 duplicate uid**: two instructions share a uid, so dependency
  edges are ambiguous (the engine rejects this at load time).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.sim.engine import Instruction, run_wavefront
from repro.verify.labels import uid_label
from repro.verify.report import Finding

__all__ = ["check_dependency_graph"]

#: Uid tags of point-to-point pipeline transfers (activation send,
#: gradient send).  These must pair with exactly one consumer.
_P2P_TAGS = ("XA", "XG")


def _is_p2p(uid: object) -> bool:
    return isinstance(uid, tuple) and len(uid) > 0 and uid[0] in _P2P_TAGS


def check_dependency_graph(
    streams: Mapping[tuple[int, str], Sequence[Instruction]],
) -> list[Finding]:
    """Prove the program deadlock-free; return findings otherwise.

    ``streams`` is the exact structure :func:`repro.sim.program
    .build_program` produces: instruction queues keyed by
    ``(rank, stream_name)``.
    """
    findings: list[Finding] = []

    # Index every instruction; duplicates make the graph ambiguous.
    owner: dict[object, tuple[int, str, int]] = {}
    for (rank, stream), queue in streams.items():
        for position, instr in enumerate(queue):
            if instr.uid in owner:
                prev_rank, prev_stream, prev_pos = owner[instr.uid]
                findings.append(
                    Finding(
                        rule="P304",
                        location=f"rank {rank}/{stream}[{position}]",
                        message=(
                            f"duplicate instruction uid "
                            f"{uid_label(instr.uid)} (first emitted at "
                            f"rank {prev_rank}/{prev_stream}[{prev_pos}])"
                        ),
                    )
                )
                continue
            owner[instr.uid] = (rank, stream, position)

    # Unmatched dependencies, and consumer counts for orphan detection.
    consumers: dict[object, int] = {}
    for (rank, stream), queue in streams.items():
        for position, instr in enumerate(queue):
            for dep in instr.deps:
                if dep not in owner:
                    kind = (
                        "unmatched p2p recv: no instruction sends"
                        if _is_p2p(dep)
                        else "dependency on a uid no instruction carries:"
                    )
                    findings.append(
                        Finding(
                            rule="P301",
                            location=f"rank {rank}/{stream}[{position}]",
                            message=(
                                f"{uid_label(instr.uid)} waits on "
                                f"{kind} {uid_label(dep)}"
                            ),
                        )
                    )
                else:
                    consumers[dep] = consumers.get(dep, 0) + 1

    for (rank, stream), queue in streams.items():
        for position, instr in enumerate(queue):
            if _is_p2p(instr.uid) and instr.uid not in consumers:
                findings.append(
                    Finding(
                        rule="P302",
                        location=f"rank {rank}/{stream}[{position}]",
                        message=(
                            f"orphan p2p send {uid_label(instr.uid)}: no "
                            "instruction depends on it (send without recv)"
                        ),
                    )
                )

    # Run the engine's core over a copy in which unmatched deps (already
    # reported) count as done, so a missing send does not additionally
    # masquerade as a cycle; self-deps are dropped; and a repeated uid
    # runs under a fresh uid, so its dependents wait on the first
    # instruction that carries it.  The run stops at every stream whose
    # head waits, directly or through FIFO order, on a cycle.
    keys = sorted(streams)
    queues: list[list[Instruction]] = []
    for rank, stream in keys:
        copy: list[Instruction] = []
        for position, instr in enumerate(streams[(rank, stream)]):
            uid = instr.uid
            if owner[uid] != (rank, stream, position):
                uid = (object(),)  # equal to no other uid
            deps: list[object] = []
            for dep in instr.deps:
                if dep == uid:
                    findings.append(
                        Finding(
                            rule="P303",
                            location=f"rank {rank}/{stream}[{position}]",
                            message=f"{uid_label(uid)} depends on itself",
                        )
                    )
                elif dep in owner:
                    deps.append(dep)
            copy.append(Instruction(uid, 0.0, tuple(deps)))
        queues.append(copy)

    heads, finish = run_wavefront(queues)
    for (rank, stream), head in zip(keys, heads):
        original = streams[(rank, stream)]
        if head == len(original):
            continue
        instr = original[head]
        waiting = [
            uid_label(dep)
            for dep in instr.deps
            if dep in owner and dep not in finish
        ]
        findings.append(
            Finding(
                rule="P303",
                location=f"rank {rank}/{stream}[{head}]",
                message=(
                    "dependency cycle: "
                    f"{uid_label(instr.uid)} can never start"
                    + (f" (waits on {', '.join(waiting)})" if waiting else "")
                ),
            )
        )
    return findings
