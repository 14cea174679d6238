"""Transformer model specification and the paper's counting formulas.

Implements the Appendix A.1 setup: ``N_layers`` identical transformer
encoder layers of hidden size ``S_hidden`` with ``N_heads x S_head``
attention and a 4x MLP, trained with mixed precision, Adam and activation
checkpointing.  Parameter and flop counts follow Eqs. (11)-(12); note the
paper's Eq. (11) is per *token* inside the bracket, so we carry the
sequence-length factor explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TransformerSpec:
    """A transformer language model, in the paper's parameterization.

    Attributes:
        name: Label used in reports.
        n_layers: Number of identical transformer layers.
        n_heads: Attention heads per layer.
        head_size: Dimension per head (``N_heads * S_head == S_hidden``).
        hidden_size: Model width ``S_hidden``.
        seq_length: Training sequence length ``S_seq``.
        vocab_size: Vocabulary size ``S_voc`` (embedding + output head).
    """

    name: str
    n_layers: int
    n_heads: int
    head_size: int
    hidden_size: int
    seq_length: int
    vocab_size: int = 51200

    def __post_init__(self) -> None:
        for field in ("n_layers", "n_heads", "head_size", "hidden_size",
                      "seq_length", "vocab_size"):
            value = getattr(self, field)
            if value < 1:
                raise ValueError(f"{field} must be >= 1, got {value}")
        if self.n_heads * self.head_size != self.hidden_size:
            raise ValueError(
                "the paper assumes N_heads * S_head == S_hidden, got "
                f"{self.n_heads} * {self.head_size} != {self.hidden_size}"
            )

    @property
    def mlp_size(self) -> int:
        """MLP hidden size; the paper assumes ``S_mlp = 4 S_hidden``."""
        return 4 * self.hidden_size

    @property
    def params_per_layer(self) -> float:
        """Parameters in one transformer layer, ``~12 S_hidden^2``.

        4 h^2 for QKV+output projections plus 8 h^2 for the two MLP
        matrices; biases and layer norms are negligible and omitted, as in
        the paper.
        """
        return 12.0 * self.hidden_size**2

    @property
    def embedding_params(self) -> float:
        """Token embedding parameters (tied with the output head)."""
        return float(self.vocab_size * self.hidden_size)

    @property
    def n_params(self) -> float:
        """Total parameters, ``~12 N_layers S_hidden^2`` plus embeddings."""
        return self.n_layers * self.params_per_layer + self.embedding_params

    # ---------------------------------------------------------------- flops

    def flops_per_token(self, *, with_recompute: bool = True) -> float:
        """Training flop per token for the full model (Eq. 11 bracket).

        The ``96 = 8 flop/param x 12 h^2`` coefficient covers forward (2x),
        backward (4x) and forward recomputation from activation
        checkpointing (2x); without recomputation the coefficient drops to
        72.  The ``S_seq / 6`` term is self-attention and the vocabulary
        term is the (non-recomputed) output head.
        """
        coefficient = 96.0 if with_recompute else 72.0
        bracket = (
            self.hidden_size
            + self.seq_length / 6.0
            + self.vocab_size / (16.0 * self.n_layers)
        )
        return coefficient * self.n_layers * self.hidden_size * bracket

    def flops_per_sample(self, *, with_recompute: bool = True) -> float:
        """Training flop per sample (full model, all layers)."""
        return self.flops_per_token(with_recompute=with_recompute) * self.seq_length

    def flops_per_layer_per_sample(
        self, *, forward_only: bool, with_recompute: bool = False
    ) -> float:
        """Flop per sample for one transformer layer (no output head).

        The simulator charges compute per (micro-batch, stage) op, so it
        needs the single-layer cost: forward is ``2 flop/param`` plus
        attention, backward twice that; recomputation (when activation
        checkpointing is simulated) adds another forward.
        """
        per_token_fwd = 24.0 * self.hidden_size * (
            self.hidden_size + self.seq_length / 6.0
        )
        fwd = per_token_fwd * self.seq_length
        if forward_only:
            return fwd
        bwd = 2.0 * fwd
        if with_recompute:
            bwd += fwd
        return bwd

    def head_flops_per_sample(self, *, forward_only: bool) -> float:
        """Flop per sample for the output head (logits matmul)."""
        fwd = 2.0 * self.hidden_size * self.vocab_size * self.seq_length
        return fwd if forward_only else 2.0 * fwd

    # ------------------------------------------------------------ activation

    def activation_bytes_per_sample(self, n_tp: int = 1) -> float:
        """Working activation memory per sample, Eq. (16), in bytes."""
        if n_tp < 1:
            raise ValueError(f"n_tp must be >= 1, got {n_tp}")
        return (
            self.seq_length
            * self.hidden_size
            * (
                10.0
                + 24.0 / n_tp
                + 5.0 * self.seq_length * self.n_heads / (self.hidden_size * n_tp)
            )
        )

    def checkpoint_bytes_per_sample_per_layer(self, n_tp: int = 1) -> float:
        """Activation-checkpoint memory per sample per layer, Eq. (17) factor."""
        if n_tp < 1:
            raise ValueError(f"n_tp must be >= 1, got {n_tp}")
        return 2.0 * self.seq_length * self.hidden_size / n_tp

    def __str__(self) -> str:
        billions = self.n_params / 1e9
        return (
            f"{self.name}: {billions:.1f}B params, {self.n_layers} layers, "
            f"hidden {self.hidden_size}, {self.n_heads} heads x {self.head_size}, "
            f"seq {self.seq_length}"
        )
