"""Term-weight model: feature-context gating plus two linear heads.

The retrieval score between two texts is a sparse dot product over their
shared vocabulary terms, where each term's weight comes from a contextual
encoder.  Two refinements shape the weights during training:

- a squeeze-excitation style gate rescales every hidden channel using a
  sequence-level summary before the weight head reads it;
- an auxiliary per-position classifier is trained to predict whether the
  term at that position also occurs in the paired text, pushing the encoder
  to separate shared from non-shared terms.

Weights are `log1p(relu(w . f + b))`, so they are non-negative and a term
whose pre-activation is negative drops out of the sparse vector entirely.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import checkpoint as ckpt
from .autograd import Tensor
from .encoder import ContextEncoder, EncoderConfig, EncodedSequence
from .errors import CorruptFileError, ShapeError
from .tokenizer import SPECIAL_IDS

AGGREGATIONS = ("max", "sum")


def scorable_mask(token_ids: np.ndarray) -> np.ndarray:
    """True at positions that carry a real vocabulary term.

    [PAD]/[UNK]/[CLS]/[SEP] never receive weights, labels, or probabilities.
    """
    ids = np.asarray(token_ids)
    mask = np.ones(ids.shape, dtype=bool)
    for special in SPECIAL_IDS:
        mask &= ids != special
    return mask


@dataclass
class TermLabels:
    """Per-position binary targets plus the mask of positions that count."""

    labels: np.ndarray
    mask: np.ndarray


def indicator_labels(
    query_ids: Sequence[int], passage_ids: Sequence[int]
) -> tuple[TermLabels, TermLabels]:
    """Label each scorable position 1 iff its term occurs in the other text.

    The shared-term set is symmetric, so a query position and a passage
    position holding the same term always agree.
    """
    q = np.asarray(query_ids)
    p = np.asarray(passage_ids)
    q_mask = scorable_mask(q)
    p_mask = scorable_mask(p)
    q_terms = set(q[q_mask].tolist())
    p_terms = set(p[p_mask].tolist())
    q_labels = np.where(q_mask & np.isin(q, list(p_terms)), 1.0, 0.0)
    p_labels = np.where(p_mask & np.isin(p, list(q_terms)), 1.0, 0.0)
    return TermLabels(q_labels, q_mask), TermLabels(p_labels, p_mask)


class TermWeightVector:
    """Sparse term -> weight mapping tied into the autograd graph.

    `term_ids[i]` pairs with `weights[i]`; duplicate occurrences of a term
    have already been collapsed (max keeps the strongest occurrence and
    routes the gradient only to it, sum spreads gradient across all).
    """

    __slots__ = ("term_ids", "weights", "_index")

    def __init__(self, term_ids: list[int], weights: Tensor):
        if weights.data.ndim != 1 or weights.data.shape[0] != len(term_ids):
            raise ShapeError(
                f"term/weight length mismatch: {len(term_ids)} ids, "
                f"weights shape {weights.data.shape}"
            )
        self.term_ids = term_ids
        self.weights = weights
        self._index = {t: i for i, t in enumerate(term_ids)}

    @classmethod
    def from_positions(
        cls,
        token_ids: np.ndarray,
        position_weights: Tensor,
        aggregation: str = "max",
    ) -> "TermWeightVector":
        if aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {aggregation!r}, expected max|sum")
        ids = np.asarray(token_ids)
        if position_weights.data.shape != ids.shape:
            raise ShapeError(
                f"position weights shape {position_weights.data.shape} does not "
                f"match {len(ids)} token positions"
            )
        mask = scorable_mask(ids)
        groups: dict[int, list[int]] = {}
        for pos in np.flatnonzero(mask):
            groups.setdefault(int(ids[pos]), []).append(int(pos))
        terms = sorted(groups)
        if not terms:
            return cls([], Tensor(np.zeros(0)))
        values = position_weights.data
        if aggregation == "max":
            picks = [max(groups[t], key=lambda pos: (values[pos], -pos)) for t in terms]
            weights = ag.gather(position_weights, np.asarray(picks, dtype=np.intp))
        else:
            pool = np.zeros((len(terms), len(ids)))
            for row, t in enumerate(terms):
                pool[row, groups[t]] = 1.0
            weights = ag.matmul(Tensor(pool), position_weights)
        return cls(terms, weights)

    def __len__(self) -> int:
        return len(self.term_ids)

    def weight_of(self, term_id: int) -> float:
        i = self._index.get(term_id)
        return float(self.weights.data[i]) if i is not None else 0.0

    def as_dict(self) -> dict[int, float]:
        """Plain float mapping; exact zeros are dropped (term absent)."""
        return {
            t: float(w)
            for t, w in zip(self.term_ids, self.weights.data)
            if w != 0.0
        }

    def positions_of(self, term_ids: Sequence[int]) -> np.ndarray:
        return np.asarray([self._index[t] for t in term_ids], dtype=np.intp)


def match_score(query_vec: TermWeightVector, passage_vec: TermWeightVector) -> Tensor:
    """Sum over shared terms of query weight times passage weight.

    Equals the dense vocabulary-dimension dot product of the two sparse
    vectors.  No shared terms means a constant 0 score.
    """
    shared = sorted(set(query_vec.term_ids) & set(passage_vec.term_ids))
    if not shared:
        return Tensor(0.0)
    q = ag.gather(query_vec.weights, query_vec.positions_of(shared))
    p = ag.gather(passage_vec.weights, passage_vec.positions_of(shared))
    return ag.reduce_sum(ag.mul(q, p))


class FeatureContextGate:
    """Squeeze-excitation over hidden channels, pooled across real positions.

    The pooled vector passes through a bottleneck (d -> max(1, d//16) -> d)
    ending in a sigmoid, producing one gate per channel in (0, 1); every row
    of the sequence is rescaled by the same gate vector.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = dim
        self.bottleneck = max(1, dim // 16)
        from .encoder import INIT_STD

        self.params = {
            "feature_gate.squeeze.weight": Tensor(
                rng.normal(0.0, INIT_STD, size=(dim, self.bottleneck)),
                requires_grad=True,
            ),
            "feature_gate.squeeze.bias": Tensor(
                np.zeros(self.bottleneck), requires_grad=True
            ),
            "feature_gate.excite.weight": Tensor(
                rng.normal(0.0, INIT_STD, size=(self.bottleneck, dim)),
                requires_grad=True,
            ),
            "feature_gate.excite.bias": Tensor(np.zeros(dim), requires_grad=True),
        }

    def gate_vector(self, hidden: Tensor, real_mask: np.ndarray) -> Tensor:
        n_real = int(real_mask.sum())
        if n_real == 0:
            raise ShapeError("feature gate needs at least one real position")
        if hidden.data.ndim != 2 or hidden.data.shape[1] != self.dim:
            raise ShapeError(
                f"feature gate built for width {self.dim}, got hidden shape "
                f"{hidden.data.shape}"
            )
        # Mean over real positions as a constant row times H: gradient flows
        # through the matmul, pad rows contribute nothing.
        pool = np.where(real_mask, 1.0 / n_real, 0.0)
        pooled = ag.matmul(Tensor(pool), hidden)
        squeezed = ag.relu(
            ag.add(
                ag.matmul(pooled, self.params["feature_gate.squeeze.weight"]),
                self.params["feature_gate.squeeze.bias"],
            )
        )
        return ag.sigmoid(
            ag.add(
                ag.matmul(squeezed, self.params["feature_gate.excite.weight"]),
                self.params["feature_gate.excite.bias"],
            )
        )

    def __call__(self, hidden: Tensor, real_mask: np.ndarray) -> Tensor:
        return ag.mul(hidden, self.gate_vector(hidden, real_mask))


class FecTekModel:
    """Encoder plus gate and heads; one instance scores queries and passages."""

    def __init__(
        self,
        vocab_size: int,
        config: EncoderConfig | None = None,
        *,
        use_feature_gate: bool = True,
        aggregation: str = "max",
        seed: int = 42,
    ):
        if aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {aggregation!r}, expected max|sum")
        self.config = config or EncoderConfig()
        self.vocab_size = vocab_size
        self.use_feature_gate = use_feature_gate
        self.aggregation = aggregation
        rng = np.random.default_rng(seed)
        self.encoder = ContextEncoder(vocab_size, self.config, rng=rng)
        self.feature_gate = FeatureContextGate(self.config.dim, rng)
        d = self.config.dim
        from .encoder import INIT_STD

        self.weight_w = Tensor(rng.normal(0.0, INIT_STD, size=(d,)), requires_grad=True)
        self.weight_b = Tensor(0.0, requires_grad=True)
        self.prob_w = Tensor(rng.normal(0.0, INIT_STD, size=(d,)), requires_grad=True)
        self.prob_b = Tensor(0.0, requires_grad=True)

    def named_parameters(self) -> dict[str, Tensor]:
        params = dict(self.encoder.named_parameters())
        params.update(self.feature_gate.params)
        params["weight_head.weight"] = self.weight_w
        params["weight_head.bias"] = self.weight_b
        params["prob_head.weight"] = self.prob_w
        params["prob_head.bias"] = self.prob_b
        return params

    def zero_grad(self) -> None:
        for p in self.named_parameters().values():
            p.grad = None

    def encode_ids(
        self, token_ids: Sequence[int], collect_attention: bool = False
    ) -> EncodedSequence:
        return self.encoder.forward(token_ids, collect_attention)

    def term_weights(self, seq: EncodedSequence) -> TermWeightVector:
        """Sparse weight vector for one encoded text."""
        features = (
            self.feature_gate(seq.hidden, seq.real_mask)
            if self.use_feature_gate
            else seq.hidden
        )
        raw = ag.add(ag.matmul(features, self.weight_w), self.weight_b)
        position_weights = ag.log1p(ag.relu(raw))
        return TermWeightVector.from_positions(
            seq.token_ids, position_weights, self.aggregation
        )

    def term_probabilities(self, seq: EncodedSequence) -> Tensor:
        """Per-position probability that the term also occurs in the pair text.

        Reads the raw hidden states, not the gated features.
        """
        return ag.sigmoid(ag.add(ag.matmul(seq.hidden, self.prob_w), self.prob_b))


# -- losses ------------------------------------------------------------------


def text_level_loss(
    query_vec: TermWeightVector,
    positive_vec: TermWeightVector,
    negative_vecs: Sequence[TermWeightVector],
) -> Tensor:
    """Softmax cross-entropy of the positive against the negatives.

    With no negatives this is log-softmax over a singleton, exactly 0.
    """
    candidates = [positive_vec, *negative_vecs]
    scores = [match_score(query_vec, c) for c in candidates]
    stacked = ag.concat([ag.reshape(s, (1,)) for s in scores])
    return ag.softmax_nll(stacked, 0)


def term_level_loss(
    query_probs: Tensor,
    query_labels: TermLabels,
    passage_probs: Tensor,
    passage_labels: TermLabels,
) -> Tensor:
    """Masked BCE on both sides of a (query, positive passage) pair."""
    q = ag.binary_cross_entropy(query_probs, query_labels.labels, query_labels.mask)
    p = ag.binary_cross_entropy(
        passage_probs, passage_labels.labels, passage_labels.mask
    )
    return ag.add(q, p)


@dataclass
class EncodedTriple:
    """Token-id view of one training example."""

    query_ids: list[int]
    positive_ids: list[int]
    negative_ids: list[list[int]]


def triple_loss(
    model: FecTekModel,
    triple: EncodedTriple,
    *,
    enable_term: bool = True,
) -> tuple[Tensor, float, float]:
    """Loss for one triple; returns (total, text part, term part as floats)."""
    query_seq = model.encode_ids(triple.query_ids)
    positive_seq = model.encode_ids(triple.positive_ids)

    query_vec = model.term_weights(query_seq)
    positive_vec = model.term_weights(positive_seq)
    negative_vecs = [
        model.term_weights(model.encode_ids(ids)) for ids in triple.negative_ids
    ]
    text = text_level_loss(query_vec, positive_vec, negative_vecs)
    text_value = text.item()
    total = ag.add(Tensor(0.0), text)
    term_value = 0.0
    if enable_term:
        # Guidance comes from the positive passage only; negatives are
        # untouched by this branch.
        q_labels, p_labels = indicator_labels(triple.query_ids, triple.positive_ids)
        term = term_level_loss(
            model.term_probabilities(query_seq),
            q_labels,
            model.term_probabilities(positive_seq),
            p_labels,
        )
        term_value = term.item()
        total = ag.add(total, term)
    return total, text_value, term_value


def batch_loss(
    model: FecTekModel,
    triples: Sequence[EncodedTriple],
    *,
    enable_term: bool = True,
) -> tuple[Tensor, dict[str, float]]:
    """Mean triple loss over a batch, plus float metrics for logging."""
    if not triples:
        raise ValueError("batch_loss on an empty batch")
    total = Tensor(0.0)
    text_sum = 0.0
    term_sum = 0.0
    for triple in triples:
        loss, text_value, term_value = triple_loss(
            model, triple, enable_term=enable_term
        )
        total = ag.add(total, loss)
        text_sum += text_value
        term_sum += term_value
    n = len(triples)
    mean = ag.mul(total, 1.0 / n)
    metrics = {
        "total_loss": mean.item(),
        "text_loss": text_sum / n,
        "term_loss": term_sum / n,
    }
    return mean, metrics


# -- persistence ---------------------------------------------------------------

_AGGREGATION_CODES = {name: float(i) for i, name in enumerate(AGGREGATIONS)}


def save_model(model: FecTekModel, path: str | Path) -> None:
    """Checkpoint the model: config scalars first, then every parameter."""
    entries: dict[str, np.ndarray] = {
        "config.vocab_size": np.float64(model.vocab_size),
        "config.dim": np.float64(model.config.dim),
        "config.layers": np.float64(model.config.layers),
        "config.heads": np.float64(model.config.heads),
        "config.ffn_multiplier": np.float64(model.config.ffn_multiplier),
        "config.max_query_len": np.float64(model.config.max_query_len),
        "config.max_passage_len": np.float64(model.config.max_passage_len),
        "config.use_feature_gate": np.float64(1.0 if model.use_feature_gate else 0.0),
        "config.aggregation": np.float64(_AGGREGATION_CODES[model.aggregation]),
    }
    for name, tensor in model.named_parameters().items():
        entries[name] = tensor.data
    ckpt.save_tensors(path, entries)


def load_model(path: str | Path) -> FecTekModel:
    """Rebuild a model from a checkpoint; shapes must match the stored config."""
    entries = ckpt.load_tensors(path)

    def scalar(name: str, low: int, high: int) -> int:
        """Config entry as a bounded integer; anything else is corruption."""
        if name not in entries:
            raise CorruptFileError(f"{path}: missing checkpoint entry {name!r}")
        value = entries[name]
        if value.ndim != 0:
            raise CorruptFileError(f"{path}: entry {name!r} should be scalar")
        raw = float(value)
        if not (math.isfinite(raw) and raw == int(raw) and low <= raw <= high):
            raise CorruptFileError(
                f"{path}: entry {name!r} = {raw!r} is not an integer "
                f"in [{low}, {high}]"
            )
        return int(raw)

    vocab_size = scalar("config.vocab_size", len(SPECIAL_IDS) + 1, 50_000_000)
    dim = scalar("config.dim", 1, 4096)
    max_query_len = scalar("config.max_query_len", 3, 65_536)
    max_passage_len = scalar("config.max_passage_len", 3, 65_536)
    aggregation_code = scalar("config.aggregation", 0, len(AGGREGATIONS) - 1)

    # The two embedding tables dominate the constructor's allocations, and
    # their stored shapes are bounded by the file's actual size, so checking
    # them against the config scalars first keeps a corrupted header from
    # provoking a huge allocation before the ordinary shape checks run.
    for name, expected in (
        ("embeddings.token", (vocab_size, dim)),
        ("embeddings.position", (max(max_query_len, max_passage_len), dim)),
    ):
        if name not in entries:
            raise CorruptFileError(f"{path}: missing parameter {name!r}")
        if entries[name].shape != expected:
            raise CorruptFileError(
                f"{path}: parameter {name!r} has shape {entries[name].shape}, "
                f"expected {expected}"
            )

    try:
        config = EncoderConfig(
            dim=dim,
            layers=scalar("config.layers", 1, 64),
            heads=scalar("config.heads", 1, 256),
            ffn_multiplier=scalar("config.ffn_multiplier", 1, 32),
            max_query_len=max_query_len,
            max_passage_len=max_passage_len,
        )
        model = FecTekModel(
            vocab_size=vocab_size,
            config=config,
            use_feature_gate=bool(scalar("config.use_feature_gate", 0, 1)),
            aggregation=AGGREGATIONS[aggregation_code],
        )
    except ValueError as exc:
        raise CorruptFileError(f"{path}: inconsistent stored config: {exc}") from exc
    for name, tensor in model.named_parameters().items():
        if name not in entries:
            raise CorruptFileError(f"{path}: missing parameter {name!r}")
        stored = entries[name]
        if stored.shape != tensor.data.shape:
            raise CorruptFileError(
                f"{path}: parameter {name!r} has shape {stored.shape}, "
                f"expected {tensor.data.shape}"
            )
        if not np.isfinite(stored).all():
            raise CorruptFileError(f"{path}: parameter {name!r} is not finite")
        tensor.data = stored.astype(np.float64)
    return model


def checkpoints_equal(path_a: str | Path, path_b: str | Path) -> bool:
    return Path(path_a).read_bytes() == Path(path_b).read_bytes()
