"""Schedule executor: trains a real NumPy model on the virtual cluster.

The trainer instantiates ``N_DP`` pipeline replicas, each split into
stages per the schedule's placement, and drives every replica's pipeline
ranks through their *exact* per-rank instruction streams from
:mod:`repro.core.schedules` — the same objects the timing simulator
consumes.  Activations flow between stages through explicit buffers
(the virtual point-to-point transfers); gradients are reduced across
replicas with the in-process collectives under the configured ZeRO mode.

Ops run in the finish-time order of the schedule's logical-time
lowering (:func:`repro.core.validation.lower_schedule`, timed by the
simulator's engine): every op comes after the ops whose outputs it
consumes, and each rank's ops keep their stream order.

This is how schedule correctness is proven: any scheduling bug (wrong
dependency order, missing op, double compute) either deadlocks the
lowering or produces weights that differ from serial training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.placement import Placement
from repro.core.schedules.base import Schedule, dpfs_repetition_key
from repro.core.validation import lower_schedule
from repro.parallel.config import Sharding
from repro.runtime import collectives
from repro.runtime.model import ModelConfig, StageModule, build_stages
from repro.runtime.optimizer import Adam, AdamConfig
from repro.sim.engine import EngineDeadlock, run_streams


@dataclass
class TrainStepResult:
    """Outcome of one training step.

    Attributes:
        loss: Batch loss (mean over micro-batches and replicas).
        peak_in_flight: Max live micro-batch activations observed per
            pipeline rank (the schedule memory signature, Table 4.1).
        gather_events: DP_FS weight reconstructions performed, keyed by
            (stage, pass) — breadth-first does one per stage per pass,
            non-looped schedules one per micro-batch (Eqs. 24-26).
        collective_elements: Payload elements moved per collective kind.
    """

    loss: float
    peak_in_flight: dict[int, int] = field(default_factory=dict)
    gather_events: int = 0
    collective_elements: dict[str, float] = field(default_factory=dict)


class PipelineTrainer:
    """Data-parallel pipeline trainer over the virtual cluster.

    Args:
        config: Model dimensions and dtype.
        schedule: Pipeline schedule (defines N_PP, N_mb, N_loop and the
            per-rank instruction streams).
        n_dp: Data-parallel replicas.
        sharding: ZeRO mode — NONE (DP0), PARTIAL (DP_PS: sharded
            optimizer state) or FULL (DP_FS: additionally counts weight
            reconstructions per the schedule's repetition rule).
        adam: Optimizer hyper-parameters.
        seed: Weight initialization seed (shared with the reference).
    """

    def __init__(
        self,
        config: ModelConfig,
        schedule: Schedule,
        n_dp: int = 1,
        sharding: Sharding = Sharding.NONE,
        adam: AdamConfig | None = None,
        seed: int = 0,
    ) -> None:
        if n_dp < 1:
            raise ValueError(f"n_dp must be >= 1, got {n_dp}")
        if sharding is not Sharding.NONE and n_dp == 1:
            raise ValueError("sharded data parallelism needs n_dp > 1")
        self.config = config
        self.schedule = schedule
        self.n_dp = n_dp
        self.sharding = sharding
        self.placement = Placement(config.n_layers, schedule.n_pp, schedule.n_loop)
        self.replicas: list[list[StageModule]] = [
            build_stages(config, self.placement, seed) for _ in range(n_dp)
        ]
        self._param_names = sorted(self._replica_params(0))
        adam = adam or AdamConfig()
        flat0 = self._flatten(self._replica_params(0))
        if sharding is Sharding.NONE:
            self._optimizers = [Adam(adam, flat0) for _ in range(n_dp)]
        else:
            # Each replica's optimizer owns one shard of the flat state
            # (ZeRO: the shard bounds match reduce_scatter's).
            bounds = collectives._shard_bounds(flat0.size, n_dp)
            self._optimizers = [Adam(adam, flat0[s:e]) for s, e in bounds]
            self._shard_bounds = bounds

    # ------------------------------------------------------------- params

    def _replica_params(self, replica: int) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for stage in self.replicas[replica]:
            out.update(stage.named_params())
        return out

    def _replica_grads(self, replica: int) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for stage in self.replicas[replica]:
            out.update(stage.named_grads())
        return out

    def _flatten(self, named: dict[str, np.ndarray]) -> np.ndarray:
        return np.concatenate(
            [np.asarray(named[name], dtype=np.float64).ravel() for name in self._param_names]
        )

    def _unflatten(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        out = {}
        offset = 0
        reference = self._replica_params(0)
        for name in self._param_names:
            shape = reference[name].shape
            size = int(np.prod(shape)) if shape else 1
            out[name] = flat[offset : offset + size].reshape(shape)
            offset += size
        return out

    def named_params(self) -> dict[str, np.ndarray]:
        """Current parameters (replica 0; all replicas are identical)."""
        return self._replica_params(0)

    # -------------------------------------------------------------- train

    def step(self, tokens: np.ndarray, targets: np.ndarray) -> TrainStepResult:
        """One full training step over a global batch.

        ``tokens`` and ``targets`` are ``(batch, seq)`` integer arrays;
        the batch must equal ``n_dp * N_mb * S_mb`` for some integer
        micro-batch size.
        """
        n_mb = self.schedule.n_microbatches
        batch = tokens.shape[0]
        if batch % (self.n_dp * n_mb) != 0:
            raise ValueError(
                f"batch {batch} not divisible by n_dp*n_mb = {self.n_dp * n_mb}"
            )
        smb = batch // (self.n_dp * n_mb)
        per_replica = n_mb * smb

        collectives.STATS.reset()
        result = TrainStepResult(loss=0.0)
        losses = []
        for replica_idx, stages in enumerate(self.replicas):
            lo = replica_idx * per_replica
            mb_tokens = [
                tokens[lo + i * smb : lo + (i + 1) * smb] for i in range(n_mb)
            ]
            mb_targets = [
                targets[lo + i * smb : lo + (i + 1) * smb] for i in range(n_mb)
            ]
            losses.append(self._execute(stages, mb_tokens, mb_targets, result))
        result.loss = float(np.mean(losses))

        self._reduce_and_update()
        result.collective_elements = dict(collectives.STATS.elements)
        return result

    def _execute(
        self,
        stages: list[StageModule],
        mb_tokens: list[np.ndarray],
        mb_targets: list[np.ndarray],
        result: TrainStepResult,
    ) -> float:
        """Run one replica's ops in the finish-time order of the lowering."""
        schedule = self.schedule
        n_pp = schedule.n_pp
        last_stage = schedule.n_stages - 1
        for stage in stages:
            stage.zero_grads()

        streams = lower_schedule(schedule)
        try:
            finish = run_streams(streams, record_events=False).finish_times
        except EngineDeadlock as exc:
            raise RuntimeError(f"runtime executor: {exc}") from exc
        ops = sorted(
            (finish[instr.uid], rank, instr.uid)
            for (rank, _), queue in streams.items()
            for instr in queue
        )

        acts: dict[tuple[int, int], np.ndarray] = {}
        grads: dict[tuple[int, int], np.ndarray] = {}
        gathered: set[tuple[str, int, int]] = set()
        for _, rank, (tag, mb, s) in ops:
            if self.sharding is Sharding.FULL:
                key = (
                    tag,
                    s,
                    dpfs_repetition_key(
                        schedule.kind, mb, n_pp, schedule.sequence_size
                    ),
                )
                if key not in gathered:
                    gathered.add(key)
                    result.gather_events += 1
            if tag == "F":
                x = mb_tokens[mb] if s == 0 else acts.pop((mb, s - 1))
                tgt = mb_targets[mb] if s == last_stage else None
                out = stages[s].forward(mb, x, targets=tgt)
                if out is not None:
                    acts[(mb, s)] = out
            else:
                dy = None if s == last_stage else grads.pop((mb, s + 1))
                dx = stages[s].backward(mb, dy, loss_scale=1.0 / len(mb_tokens))
                if dx is not None and s > 0:
                    grads[(mb, s)] = dx
            live = max(
                stages[st].live_microbatches
                for st in range(s % n_pp, schedule.n_stages, n_pp)
            )
            result.peak_in_flight[rank] = max(
                result.peak_in_flight.get(rank, 0), live
            )

        mb_losses = [stages[last_stage].pop_loss(mb) for mb in range(len(mb_tokens))]
        return float(np.mean(mb_losses))

    # -------------------------------------------------------- dp + update

    def _reduce_and_update(self) -> None:
        flat_grads = [
            self._flatten(self._replica_grads(r)) for r in range(self.n_dp)
        ]
        if self.sharding is Sharding.NONE:
            reduced = collectives.all_reduce(flat_grads, op="mean")
            new_params = [
                opt.step(g) for opt, g in zip(self._optimizers, reduced)
            ]
            # All replicas computed the same update; install it.
            for replica_idx, flat in enumerate(new_params):
                self._install(replica_idx, flat)
        else:
            shards = collectives.reduce_scatter(flat_grads, op="mean")
            new_shards = [
                opt.step(g) for opt, g in zip(self._optimizers, shards)
            ]
            fulls = collectives.all_gather(new_shards)
            for replica_idx, flat in enumerate(fulls):
                self._install(replica_idx, flat)

    def _install(self, replica_idx: int, flat: np.ndarray) -> None:
        named = self._unflatten(flat)
        for stage in self.replicas[replica_idx]:
            stage.set_params(
                {k: v for k, v in named.items() if k in stage.named_params()}
            )
