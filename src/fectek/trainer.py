"""Joint training loop: AdamW with linear warmup/decay over triple batches.

Dataset rows are JSON lines {"query", "positive", "negatives"}; each step
consumes a batch of queries, builds the contrastive and term-level losses,
clips the global gradient norm, and applies one decoupled-weight-decay Adam
update.  Training runs in the dtype of the model's parameters, float32
for every model `new_model` or `load_model` makes, so gradients and both
Adam moments are float32 too; the loss values it logs are Python floats,
and a checkpoint stores the float32 values as they are.  Everything
downstream of the seed is deterministic: two runs with the same seed
produce bit-identical checkpoints.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .errors import DataFormatError, TrainingDivergedError, json_rows
from .model import EncodedTriple, FecTekModel, batch_loss, save_model
from .tokenizer import Vocabulary


@dataclass
class TrainingTriple:
    """One query with its positive passage and mined negative passages."""

    query: str
    positive: str
    negatives: list[str]


def load_triples(path: str | Path) -> list[TrainingTriple]:
    """Parse a JSONL triples file, reporting the offending line on errors."""
    triples: list[TrainingTriple] = []
    for lineno, row in json_rows(path):
        if not isinstance(row, dict):
            raise DataFormatError(f"{path}:{lineno}: expected an object")
        try:
            query = row["query"]
            positive = row["positive"]
            negatives = row.get("negatives", [])
        except KeyError as exc:
            raise DataFormatError(f"{path}:{lineno}: missing key {exc}") from exc
        if (
            not isinstance(query, str)
            or not isinstance(positive, str)
            or not isinstance(negatives, list)
            or not all(isinstance(n, str) for n in negatives)
        ):
            raise DataFormatError(
                f"{path}:{lineno}: query/positive must be strings, "
                "negatives a list of strings"
            )
        triples.append(TrainingTriple(query, positive, list(negatives)))
    if not triples:
        raise DataFormatError(f"{path}: no training triples found")
    return triples


def linear_warmup_decay(
    step: int, total_steps: int, peak_lr: float, warmup_ratio: float
) -> float:
    """Piecewise-linear rate: 0 at step 0, peak at the end of warmup, 0 at the end.

    `step` counts optimizer updates; the first update uses step 1.
    """
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if not 0.0 <= warmup_ratio < 1.0:
        raise ValueError("warmup_ratio must be in [0, 1)")
    step = min(max(step, 0), total_steps)
    warmup = warmup_ratio * total_steps
    if step <= warmup:
        return peak_lr * (step / warmup) if warmup > 0 else peak_lr
    return peak_lr * (total_steps - step) / (total_steps - warmup)


# AdamW's moment decays and denominator guard.  The rate comes with each
# step and the weight decay from TrainerConfig.
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Adam with decoupled weight decay; moments start at zero."""

    def __init__(self, params: dict[str, Tensor], weight_decay: float):
        self.params = dict(params)
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self, rate: float) -> None:
        """Apply one update at `rate`; a missing gradient counts as zero."""
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - BETA1**t
        bias2 = 1.0 - BETA2**t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= rate * (
                m_hat / (np.sqrt(v_hat) + ADAM_EPS) + self.weight_decay * p.data
            )


def clip_global_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most `max_norm`.

    Returns the pre-clip norm; a non-finite one leaves the gradients as they
    are, for the caller to stop on.
    """
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if math.inf > norm > max_norm > 0.0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


@dataclass
class TrainerConfig:
    """Desk-scale defaults; larger-scale values are reachable via the CLI."""

    epochs: int = 5
    batch_queries: int = 4
    max_negatives: int = 7
    peak_lr: float = 1e-3
    warmup_ratio: float = 0.1
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    seed: int = 42
    enable_term_loss: bool = True

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_queries <= 0:
            raise ValueError("epochs and batch_queries must be positive")
        if self.max_negatives < 0:
            raise ValueError("max_negatives cannot be negative")
        if not (math.isfinite(self.peak_lr) and self.peak_lr > 0.0):
            raise ValueError(f"peak_lr must be positive and finite, got {self.peak_lr}")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ValueError(f"warmup_ratio must be in [0, 1), got {self.warmup_ratio}")
        # A clip_norm of 0 turns clipping off.
        for name in ("weight_decay", "clip_norm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def encode_triples(
    triples: Sequence[TrainingTriple],
    vocab: Vocabulary,
    max_query_len: int,
    max_passage_len: int,
    max_negatives: int,
) -> list[EncodedTriple]:
    return [
        EncodedTriple(
            query_ids=vocab.encode(t.query, max_query_len),
            positive_ids=vocab.encode(t.positive, max_passage_len),
            negative_ids=[
                vocab.encode(n, max_passage_len) for n in t.negatives[:max_negatives]
            ],
        )
        for t in triples
    ]


def train_step(
    model: FecTekModel,
    optimizer: AdamW,
    batch: Sequence[EncodedTriple],
    lr: float,
    config: TrainerConfig,
) -> dict[str, float]:
    """One forward/backward/update cycle; gradients are zeroed afterward.
    A forward pass the parameters' dtype cannot carry is divergence once an
    update has run; before one, the FloatingPointError propagates."""
    try:
        loss, metrics = batch_loss(model, batch, enable_term=config.enable_term_loss)
    except FloatingPointError as exc:
        if optimizer.step_count == 0:
            raise
        raise TrainingDivergedError(f"{exc} in the forward pass of a training step") from exc
    for component in ("text_loss", "term_loss"):
        if not math.isfinite(metrics[component]):
            raise TrainingDivergedError(
                f"non-finite {component} ({metrics[component]}) in training step"
            )
    loss.backward()
    grad_norm = clip_global_norm(optimizer.params, config.clip_norm)
    if not math.isfinite(grad_norm):
        raise TrainingDivergedError(f"non-finite gradient norm ({grad_norm}) in training step")
    optimizer.step(lr)
    model.zero_grad()
    metrics["grad_norm"] = grad_norm
    metrics["lr"] = lr
    return metrics


def train(
    model: FecTekModel,
    triples: Sequence[TrainingTriple],
    vocab: Vocabulary,
    config: TrainerConfig,
    out_dir: str | Path,
    inputs: dict | None = None,
) -> Path:
    """Run the full loop; returns the final checkpoint path.

    Updates `model`'s parameters in place.  Writes `metrics.jsonl` (a
    header line with every setting of the run plus the caller's `inputs`,
    then one line per step) and a checkpoint per epoch next to the final one.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    encoded = encode_triples(
        triples,
        vocab,
        model.config.max_query_len,
        model.config.max_passage_len,
        config.max_negatives,
    )
    n = len(encoded)
    steps_per_epoch = math.ceil(n / config.batch_queries)
    total_steps = steps_per_epoch * config.epochs
    optimizer = AdamW(model.params, config.weight_decay)
    rng = np.random.default_rng(config.seed)
    final_path = out / "model.ftck"
    metrics_path = out / "metrics.jsonl"
    settings = asdict(config)
    settings["term_guidance"] = settings.pop("enable_term_loss")
    header = {
        **asdict(model.config),
        "feature_gate": model.use_feature_gate,
        **settings,
        "vocab_size": len(vocab),
        "queries": len(triples),
        **(inputs or {}),
    }
    step = 0
    with open(metrics_path, "w", encoding="utf-8") as log:
        log.write(json.dumps({"config": header}, sort_keys=True) + "\n")
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(n)
            for start in range(0, n, config.batch_queries):
                batch = [encoded[i] for i in order[start : start + config.batch_queries]]
                step += 1
                lr = linear_warmup_decay(
                    step, total_steps, config.peak_lr, config.warmup_ratio
                )
                metrics = train_step(model, optimizer, batch, lr, config)
                row = {"step": step, "epoch": epoch}
                row.update(metrics)
                log.write(json.dumps(row, sort_keys=True) + "\n")
            save_model(model, out / f"model.epoch{epoch:03d}.ftck")
    save_model(model, final_path)
    return final_path
