"""Contextual encoder: a small post-norm transformer over token embeddings.

One tower serves queries and passages alike (Siamese use is the caller's
concern).  A forward pass takes a batch of texts padded to the longest;
[PAD] positions are masked out of attention columns so no real row ever
attends to padding.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ShapeError
from .tokenizer import PAD_ID

INIT_STD = 0.02
LAYER_NORM_EPS = 1e-5
# Additive attention bias for padded columns; exp() underflows to exactly 0.
MASK_BIAS = -1e30


@dataclass(frozen=True)
class EncoderConfig:
    """Shape of the encoder stack and the two truncation lengths.

    The field order is the order of the `config.*` entries in a checkpoint.
    """

    dim: int = 64
    layers: int = 2
    heads: int = 2
    ffn_multiplier: int = 4
    max_query_len: int = 64
    max_passage_len: int = 192

    # Inclusive range of every field; a length must fit CLS + token + SEP.
    BOUNDS: ClassVar[dict[str, tuple[int, int]]] = {
        "dim": (1, 4096),
        "layers": (1, 64),
        "heads": (1, 256),
        "ffn_multiplier": (1, 32),
        "max_query_len": (3, 65_536),
        "max_passage_len": (3, 65_536),
    }

    def __post_init__(self):
        for f in fields(self):
            low, high = self.BOUNDS[f.name]
            value = getattr(self, f.name)
            if not low <= value <= high:
                raise ValueError(f"{f.name} must be in [{low}, {high}], got {value}")
        if self.dim % self.heads != 0:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")

    @property
    def max_len(self) -> int:
        """Size of the positional table."""
        return max(self.max_query_len, self.max_passage_len)

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


@dataclass
class EncodedBatch:
    """Output of one encoder forward pass over `B` texts padded to length `n`.

    `token_ids` and `real_mask` are [B, n], `hidden` is [B, n, dim]; pad rows
    hold finite values that no weight or loss reads.
    """

    token_ids: np.ndarray
    hidden: Tensor
    real_mask: np.ndarray

    def __len__(self) -> int:
        return len(self.token_ids)


class ContextEncoder:
    """Token + position embeddings followed by `layers` transformer blocks."""

    def __init__(
        self,
        vocab_size: int,
        config: EncoderConfig | None = None,
        rng: int | np.random.Generator = 42,
    ):
        if vocab_size < 5:
            raise ValueError(f"vocab_size must cover the reserved ids, got {vocab_size}")
        self.config = config or EncoderConfig()
        self.vocab_size = vocab_size
        if isinstance(rng, np.random.Generator):
            self._rng = rng
        else:
            self._rng = np.random.default_rng(rng)
        self.params: dict[str, Tensor] = {}
        self._init_parameters()

    # Parameter creation order is fixed, so one seed pins every weight.
    def _normal(self, name: str, shape: tuple[int, ...]) -> None:
        self.params[name] = Tensor(
            self._rng.normal(0.0, INIT_STD, size=shape), requires_grad=True
        )

    def _zeros(self, name: str, shape: tuple[int, ...]) -> None:
        self.params[name] = Tensor(np.zeros(shape), requires_grad=True)

    def _ones(self, name: str, shape: tuple[int, ...]) -> None:
        self.params[name] = Tensor(np.ones(shape), requires_grad=True)

    def _init_parameters(self) -> None:
        cfg = self.config
        d = cfg.dim
        self._normal("embeddings.token", (self.vocab_size, d))
        self._normal("embeddings.position", (cfg.max_len, d))
        self._ones("embeddings.norm.gain", (d,))
        self._zeros("embeddings.norm.bias", (d,))
        hidden = d * cfg.ffn_multiplier
        for i in range(cfg.layers):
            for part in ("query", "key", "value", "output"):
                self._normal(f"layers.{i}.attn.{part}.weight", (d, d))
                self._zeros(f"layers.{i}.attn.{part}.bias", (d,))
            self._ones(f"layers.{i}.norm1.gain", (d,))
            self._zeros(f"layers.{i}.norm1.bias", (d,))
            self._normal(f"layers.{i}.ffn.expand.weight", (d, hidden))
            self._zeros(f"layers.{i}.ffn.expand.bias", (hidden,))
            self._normal(f"layers.{i}.ffn.contract.weight", (hidden, d))
            self._zeros(f"layers.{i}.ffn.contract.bias", (d,))
            self._ones(f"layers.{i}.norm2.gain", (d,))
            self._zeros(f"layers.{i}.norm2.bias", (d,))

    def named_parameters(self) -> dict[str, Tensor]:
        return dict(self.params)

    def forward(self, batch: Sequence[Sequence[int]]) -> EncodedBatch:
        """Encode a batch of id sequences, each padded with [PAD] to the longest.

        Linear layers run on all `B*n` rows at once; attention, pooling and
        the heads stay per text.  A batch of equal-length texts is never
        padded, so each text then comes out exactly as it would alone.
        """
        cfg = self.config
        lengths = [len(seq) for seq in batch]
        if not lengths or min(lengths) == 0:
            raise ShapeError("forward expects a non-empty batch of non-empty id sequences")
        b, n = len(lengths), max(lengths)
        if n > cfg.max_len:
            raise ShapeError(
                f"sequence length {n} exceeds positional table size {cfg.max_len}"
            )
        ids = np.full((b, n), PAD_ID, dtype=np.int64)
        for row, seq in zip(ids, batch):
            row[: len(seq)] = seq
        if ids.min() < 0 or ids.max() >= self.vocab_size:
            raise ShapeError(
                f"token id outside vocabulary of size {self.vocab_size}"
            )
        real = ids != PAD_ID
        p = self.params
        h = cfg.heads
        dh = cfg.head_dim
        scale = 1.0 / math.sqrt(dh)

        def linear(t: Tensor, name: str) -> Tensor:
            return ag.add(ag.matmul(t, p[f"{name}.weight"]), p[f"{name}.bias"])

        def norm(t: Tensor, name: str) -> Tensor:
            return ag.layer_norm(t, p[f"{name}.gain"], p[f"{name}.bias"], LAYER_NORM_EPS)

        def split_heads(t: Tensor) -> Tensor:
            return ag.permute(ag.reshape(t, (b, n, h, dh)), (0, 2, 1, 3))

        # Rows are `B*n` positions, text by text.
        x = ag.add(
            ag.gather(p["embeddings.token"], ids.reshape(-1)),
            ag.gather(p["embeddings.position"], np.arange(b * n) % n),
        )
        x = norm(x, "embeddings.norm")

        # Padded columns get a huge negative bias; rows stay untouched, so
        # every row (real or pad) still softmaxes to a proper distribution.
        mask_bias = Tensor(np.where(real, 0.0, MASK_BIAS).reshape(b, 1, 1, n))

        for i in range(cfg.layers):
            layer = f"layers.{i}"
            q, k, v = (
                split_heads(linear(x, f"{layer}.attn.{part}"))
                for part in ("query", "key", "value")
            )
            logits = ag.add(ag.mul(ag.matmul(q, ag.transpose_last_two(k)), scale), mask_bias)
            weights = ag.softmax(logits, axis=-1)
            ctx = ag.reshape(ag.permute(ag.matmul(weights, v), (0, 2, 1, 3)), (b * n, cfg.dim))
            x = norm(ag.add(x, linear(ctx, f"{layer}.attn.output")), f"{layer}.norm1")
            expanded = ag.relu(linear(x, f"{layer}.ffn.expand"))
            x = norm(ag.add(x, linear(expanded, f"{layer}.ffn.contract")), f"{layer}.norm2")

        return EncodedBatch(ids, ag.reshape(x, (b, n, cfg.dim)), real)
