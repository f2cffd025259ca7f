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
Everything runs on batches of texts.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import checkpoint as ckpt
from .autograd import Tensor
from .encoder import INIT_STD, ContextEncoder, EncodedBatch, EncoderConfig
from .errors import CorruptFileError, ShapeError
from .tokenizer import SPECIAL_IDS

AGGREGATIONS = ("max", "sum")
# Inference runs at most this many texts per forward pass; 16, 32 and 64
# encoded the desk corpus at rates within host noise of each other.
CHUNK_TEXTS = 32


def scorable_mask(token_ids: np.ndarray) -> np.ndarray:
    """True at positions that carry a real vocabulary term.

    [PAD]/[UNK]/[CLS]/[SEP] never receive weights, labels, or probabilities;
    they hold the lowest ids, so every id above them is a term.
    """
    return np.asarray(token_ids) >= len(SPECIAL_IDS)


@dataclass
class TermLabels:
    """Per-position binary targets plus the mask of positions that count."""

    labels: np.ndarray
    mask: np.ndarray


def indicator_labels(
    query_ids: np.ndarray, passage_ids: np.ndarray
) -> tuple[TermLabels, TermLabels]:
    """Label each scorable position 1 iff its term occurs in the other text.

    Takes one pair of id sequences, or [Q, n] batches whose rows pair up.
    The shared-term set is symmetric, so a query position and a passage
    position holding the same term always agree.
    """
    q = np.asarray(query_ids)
    p = np.asarray(passage_ids)
    q_mask = scorable_mask(q)
    p_mask = scorable_mask(p)
    same = q[..., :, None] == p[..., None, :]
    q_labels = np.where(q_mask & (same & p_mask[..., None, :]).any(axis=-1), 1.0, 0.0)
    p_labels = np.where(p_mask & (same & q_mask[..., :, None]).any(axis=-2), 1.0, 0.0)
    return TermLabels(q_labels, q_mask), TermLabels(p_labels, p_mask)


@dataclass
class TermWeights:
    """Term weights of a batch of texts, one column per term.

    `weights[b, j]` is the weight of term `terms[j]` in text b, and 0 where
    the text lacks it.  Duplicate occurrences of a term have already been
    collapsed (max keeps the strongest occurrence and routes the gradient
    only to it, sum spreads gradient across all).
    """

    terms: np.ndarray
    weights: Tensor

    @classmethod
    def from_positions(
        cls,
        token_ids: np.ndarray,
        position_weights: Tensor,
        aggregation: str = "max",
        terms: np.ndarray | None = None,
    ) -> "TermWeights":
        """Collapse [B, n] position weights onto `terms`, a sorted array
        holding every scorable id of `token_ids` (default: exactly those)."""
        ids = np.asarray(token_ids)
        if position_weights.data.shape != ids.shape:
            raise ShapeError(
                f"position weights shape {position_weights.data.shape} does not "
                f"match token ids shape {ids.shape}"
            )
        scorable = scorable_mask(ids)
        if terms is None:
            terms = np.unique(ids[scorable])
        columns = np.where(scorable, np.searchsorted(terms, ids), -1)
        return cls(terms, ag.scatter(position_weights, columns, len(terms), aggregation))

    def rows(self) -> list[dict[int, float]]:
        """One plain float mapping per text; exact zeros are dropped."""
        terms = self.terms.tolist()
        return [
            {t: w for t, w in zip(terms, row) if w != 0.0}
            for row in self.weights.data.tolist()
        ]

    def as_dict(self) -> dict[int, float]:
        """The mapping of a one-text batch."""
        (row,) = self.rows()
        return row


def match_score(queries: TermWeights, passages: TermWeights) -> Tensor:
    """[Q, C] scores of every query against every passage.

    Both sides share one term column set, so each score is the dense
    vocabulary-dimension dot product of the two sparse vectors.
    """
    if not np.array_equal(queries.terms, passages.terms):
        raise ShapeError("match_score needs queries and passages on the same terms")
    return ag.matmul(queries.weights, ag.transpose_last_two(passages.weights))


class FeatureContextGate:
    """Squeeze-excitation over hidden channels, pooled across real positions.

    The pooled vector passes through a bottleneck (d -> max(1, d//16) -> d)
    ending in a sigmoid, producing one gate per channel in (0, 1); every row
    of a text is rescaled by that text's gate vector.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = dim
        self.bottleneck = max(1, dim // 16)
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
        """[B, 1, d] gates for [B, n, d] hidden states."""
        n_real = real_mask.sum(axis=1)
        if not n_real.all():
            raise ShapeError("feature gate needs at least one real position per text")
        if hidden.data.ndim != 3 or hidden.data.shape[2] != self.dim:
            raise ShapeError(
                f"feature gate built for width {self.dim}, got hidden shape "
                f"{hidden.data.shape}"
            )
        # Mean over real positions as a constant [1, n] row times each
        # text's [n, d] states: pad rows contribute nothing.
        pool = real_mask[:, None, :] / n_real[:, None, None]
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

    def encode_ids(self, token_ids: Sequence[int]) -> EncodedBatch:
        """One text as a batch of one."""
        return self.encoder.forward([token_ids])

    def term_weights(self, batch: EncodedBatch, terms: np.ndarray | None = None) -> TermWeights:
        """Weights of every text of the batch, over `terms` if given."""
        features = (
            self.feature_gate(batch.hidden, batch.real_mask)
            if self.use_feature_gate
            else batch.hidden
        )
        # [B, n, d] @ [d] is one matrix-vector product per text, the BLAS
        # call a text alone gets, so its weights keep the same bits.
        raw = ag.add(ag.matmul(features, self.weight_w), self.weight_b)
        return TermWeights.from_positions(
            batch.token_ids, ag.log1p(ag.relu(raw)), self.aggregation, terms
        )

    def term_probabilities(self, batch: EncodedBatch) -> Tensor:
        """[B, n] probability that each position's term also occurs in the
        pair text.  Reads the raw hidden states, not the gated features."""
        return ag.sigmoid(ag.add(ag.matmul(batch.hidden, self.prob_w), self.prob_b))

    def weigh(self, id_lists: Sequence[Sequence[int]]) -> list[dict[int, float]]:
        """Term weights of each text, in input order, recorded on no tape.

        Texts run in chunks of at most `CHUNK_TEXTS` of exactly equal length,
        so no forward pass pads and each text's weights are bit-identical to
        weighing it alone, whatever else is in the list.
        """
        out: list[dict[int, float]] = [{} for _ in id_lists]
        by_length: dict[int, list[int]] = {}
        for i, ids in enumerate(id_lists):
            by_length.setdefault(len(ids), []).append(i)
        with ag.no_grad():
            for members in by_length.values():
                for start in range(0, len(members), CHUNK_TEXTS):
                    chunk = members[start : start + CHUNK_TEXTS]
                    batch = self.encoder.forward([id_lists[i] for i in chunk])
                    for i, weights in zip(chunk, self.term_weights(batch).rows()):
                        out[i] = weights
        return out


# -- losses ------------------------------------------------------------------


@dataclass
class EncodedTriple:
    """Token-id view of one training example."""

    query_ids: list[int]
    positive_ids: list[int]
    negative_ids: list[list[int]]


def batch_loss(
    model: FecTekModel,
    triples: Sequence[EncodedTriple],
    *,
    enable_term: bool = True,
) -> tuple[Tensor, dict[str, float]]:
    """Mean triple loss over a batch, plus float metrics for logging.

    The queries run as one padded batch and the passages (each triple's
    positive, then its negatives) as another.  The text loss is a softmax
    cross-entropy of each positive against its own triple's negatives, read
    from one [Q, C] score product; with no negatives it is exactly 0.  The
    term loss is a masked BCE on both sides of each (query, positive) pair.
    """
    if not triples:
        raise ValueError("batch_loss on an empty batch")
    n = len(triples)
    sizes = [1 + len(t.negative_ids) for t in triples]
    positives = np.cumsum([0, *sizes[:-1]])
    own = np.arange(n)[:, None] == np.repeat(np.arange(n), sizes)[None, :]
    queries = model.encoder.forward([t.query_ids for t in triples])
    passages = model.encoder.forward(
        [ids for t in triples for ids in (t.positive_ids, *t.negative_ids)]
    )
    ids = np.concatenate([queries.token_ids.reshape(-1), passages.token_ids.reshape(-1)])
    terms = np.unique(ids[scorable_mask(ids)])
    scores = match_score(
        model.term_weights(queries, terms), model.term_weights(passages, terms)
    )
    text = ag.softmax_nll(scores, positives, own)
    total = text
    term_value = 0.0
    if enable_term:
        # Guidance comes from the positive passage only; negatives are
        # untouched by this branch.
        q_labels, p_labels = indicator_labels(
            queries.token_ids, passages.token_ids[positives]
        )
        term = ag.add(
            ag.binary_cross_entropy(
                model.term_probabilities(queries), q_labels.labels, q_labels.mask
            ),
            ag.binary_cross_entropy(
                ag.gather(model.term_probabilities(passages), positives),
                p_labels.labels,
                p_labels.mask,
            ),
        )
        term_value = term.item()
        total = ag.add(total, term)
    mean = ag.mul(total, 1.0 / n)
    metrics = {
        "total_loss": mean.item(),
        "text_loss": text.item() / n,
        "term_loss": term_value / n,
    }
    return mean, metrics


# -- persistence ---------------------------------------------------------------

_AGGREGATION_CODES = {name: float(i) for i, name in enumerate(AGGREGATIONS)}


def save_model(model: FecTekModel, path: str | Path) -> None:
    """Checkpoint the model: config scalars first, then every parameter."""
    config = {
        "vocab_size": model.vocab_size,
        **asdict(model.config),
        "use_feature_gate": 1.0 if model.use_feature_gate else 0.0,
        "aggregation": _AGGREGATION_CODES[model.aggregation],
    }
    entries = {f"config.{name}": np.float64(value) for name, value in config.items()}
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
    stored = {
        f.name: scalar(f"config.{f.name}", *EncoderConfig.BOUNDS[f.name])
        for f in fields(EncoderConfig)
    }
    use_feature_gate = bool(scalar("config.use_feature_gate", 0, 1))
    aggregation = AGGREGATIONS[scalar("config.aggregation", 0, len(AGGREGATIONS) - 1)]
    try:
        config = EncoderConfig(**stored)
    except ValueError as exc:
        raise CorruptFileError(f"{path}: inconsistent stored config: {exc}") from exc

    # The two embedding tables dominate the constructor's allocations, and
    # their stored shapes are bounded by the file's actual size, so checking
    # them against the config scalars first keeps a corrupted header from
    # provoking a huge allocation before the ordinary shape checks run.
    for name, expected in (
        ("embeddings.token", (vocab_size, config.dim)),
        ("embeddings.position", (config.max_len, config.dim)),
    ):
        if name not in entries:
            raise CorruptFileError(f"{path}: missing parameter {name!r}")
        if entries[name].shape != expected:
            raise CorruptFileError(
                f"{path}: parameter {name!r} has shape {entries[name].shape}, "
                f"expected {expected}"
            )

    model = FecTekModel(
        vocab_size, config, use_feature_gate=use_feature_gate, aggregation=aggregation
    )
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
