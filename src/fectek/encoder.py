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


def dense(params: dict[str, Tensor], name: str, x: Tensor, relu: bool = False) -> Tensor:
    """Linear layer `name` of `params`: `x @ name.weight + name.bias`, relu if asked."""
    return ag.linear(x, params[f"{name}.weight"], params[f"{name}.bias"], relu)


@dataclass
class EncodedBatch:
    """Output of one encoder forward pass over `B` texts padded to length `n`.

    `token_ids` and `real_mask` are [B, n], `hidden` is [B, n, dim]; pad rows
    hold finite values that no weight or loss reads.
    """

    token_ids: np.ndarray
    hidden: Tensor
    real_mask: np.ndarray


class ContextEncoder:
    """Token + position embeddings followed by `layers` transformer blocks,
    read by checkpoint entry name from `params`."""

    def __init__(self, config: EncoderConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params
        self.vocab_size = len(params["embeddings.token"].data)

    def forward(self, batch: Sequence[Sequence[int]]) -> EncodedBatch:
        """Encode a batch of id sequences, each padded with [PAD] to the longest.

        Linear layers run on all `B*n` rows at once; attention never mixes
        texts.  A batch of equal-length texts is never padded, so each text
        then comes out exactly as it would alone.
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
        scale = 1.0 / math.sqrt(cfg.head_dim)

        def norm(t: Tensor, name: str) -> Tensor:
            return ag.layer_norm(t, p[f"{name}.gain"], p[f"{name}.bias"])

        # Rows are `B*n` positions, text by text.
        x = ag.add(
            ag.gather(p["embeddings.token"], ids.reshape(-1)),
            ag.gather(p["embeddings.position"], np.arange(b * n) % n),
        )
        x = norm(x, "embeddings.norm")

        # Padded columns get a huge negative bias; rows stay untouched, so
        # every row (real or pad) still softmaxes to a proper distribution.
        mask_bias = np.where(real, 0.0, MASK_BIAS)

        for i in range(cfg.layers):
            layer = f"layers.{i}"
            q, k, v = (dense(p, f"{layer}.attn.{part}", x) for part in ("query", "key", "value"))
            ctx = ag.attention(q, k, v, mask_bias, cfg.heads, scale)
            x = norm(ag.add(x, dense(p, f"{layer}.attn.output", ctx)), f"{layer}.norm1")
            expanded = dense(p, f"{layer}.ffn.expand", x, relu=True)
            x = norm(ag.add(x, dense(p, f"{layer}.ffn.contract", expanded)), f"{layer}.norm2")

        return EncodedBatch(ids, ag.reshape(x, (b, n, cfg.dim)), real)
