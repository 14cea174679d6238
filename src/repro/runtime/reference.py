"""Serial reference trainer: the ground truth for equivalence tests."""

from __future__ import annotations

import numpy as np

from repro.core.placement import Placement
from repro.runtime.model import ModelConfig, build_stages
from repro.runtime.optimizer import Adam, AdamConfig


class ReferenceTrainer:
    """Single-device, single-micro-batch trainer.

    Mathematically equivalent to any (schedule x sharding x grid)
    combination run by :class:`~repro.runtime.executor.PipelineTrainer`:
    the pipeline versions must converge to the same weights within
    floating-point reordering tolerance.
    """

    def __init__(
        self,
        config: ModelConfig,
        adam: AdamConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.config = config
        placement = Placement(config.n_layers, 1, 1)
        self.stage = build_stages(config, placement, seed)[0]
        self._param_names = sorted(self.stage.named_params())
        flat = self._flatten(self.stage.named_params())
        self.optimizer = Adam(adam or AdamConfig(), flat)

    def _flatten(self, named: dict[str, np.ndarray]) -> np.ndarray:
        return np.concatenate(
            [np.asarray(named[n], dtype=np.float64).ravel() for n in self._param_names]
        )

    def _unflatten(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        out = {}
        offset = 0
        reference = self.stage.named_params()
        for name in self._param_names:
            shape = reference[name].shape
            size = int(np.prod(shape)) if shape else 1
            out[name] = flat[offset : offset + size].reshape(shape)
            offset += size
        return out

    def named_params(self) -> dict[str, np.ndarray]:
        return self.stage.named_params()

    def step(self, tokens: np.ndarray, targets: np.ndarray) -> float:
        """One full-batch training step; returns the loss."""
        self.stage.zero_grads()
        self.stage.forward(0, tokens, targets=targets)
        self.stage.backward(0, None, loss_scale=1.0)
        loss = self.stage.pop_loss(0)
        flat_grad = self._flatten(self.stage.named_grads())
        new_flat = self.optimizer.step(flat_grad)
        self.stage.set_params(self._unflatten(new_flat))
        return loss

    @staticmethod
    def make_batch(
        config: ModelConfig, batch: int, seed: int = 1234
    ) -> tuple[np.ndarray, np.ndarray]:
        """Synthetic next-token data: random tokens, shifted targets."""
        rng = np.random.default_rng(seed)
        tokens = rng.integers(0, config.vocab, size=(batch, config.seq))
        targets = np.roll(tokens, -1, axis=1)
        return tokens, targets
