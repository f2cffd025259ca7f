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
from .encoder import ContextEncoder, EncodedBatch, EncoderConfig, dense
from .errors import CorruptFileError, ShapeError
from .tokenizer import SPECIAL_IDS

# Inference runs at most this many texts per forward pass; 16, 32 and 64
# encoded the desk corpus at rates within host noise of each other.
CHUNK_TEXTS = 32
INIT_STD = 0.02


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
    the text lacks it.  Repeated occurrences of a term have already been
    collapsed to the strongest one, which alone receives the gradient.
    """

    terms: np.ndarray
    weights: Tensor

    @classmethod
    def from_positions(
        cls,
        token_ids: np.ndarray,
        position_weights: Tensor,
        terms: np.ndarray | None = None,
    ) -> "TermWeights":
        """Collapse [B, n] position weights onto `terms`, a sorted array
        holding every scorable id of `token_ids` (default: exactly those)."""
        ids = np.asarray(token_ids)
        scorable = scorable_mask(ids)
        if terms is None:
            terms = np.unique(ids[scorable])
        columns = np.where(scorable, np.searchsorted(terms, ids), -1)
        return cls(terms, ag.scatter(position_weights, columns, len(terms)))

    def rows(self) -> list[dict[int, float]]:
        """One plain float mapping per text, in ascending term order; exact
        zeros are dropped."""
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
    return ag.matmul(queries.weights, ag.transpose(passages.weights))


def parameter_shapes(vocab_size: int, config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's checkpoint entry name and shape, in creation order."""
    d = config.dim
    hidden, bottleneck = d * config.ffn_multiplier, max(1, d // 16)

    def linear(name: str, *weight: int) -> dict[str, tuple[int, ...]]:
        return {f"{name}.weight": weight, f"{name}.bias": weight[1:]}

    def norm(name: str) -> dict[str, tuple[int, ...]]:
        return {f"{name}.gain": (d,), f"{name}.bias": (d,)}

    shapes = {
        "embeddings.token": (vocab_size, d),
        "embeddings.position": (config.max_len, d),
        **norm("embeddings.norm"),
    }
    for i in range(config.layers):
        for part in ("query", "key", "value", "output"):
            shapes |= linear(f"layers.{i}.attn.{part}", d, d)
        shapes |= norm(f"layers.{i}.norm1") | linear(f"layers.{i}.ffn.expand", d, hidden)
        shapes |= linear(f"layers.{i}.ffn.contract", hidden, d) | norm(f"layers.{i}.norm2")
    shapes |= linear("feature_gate.squeeze", d, bottleneck)
    shapes |= linear("feature_gate.excite", bottleneck, d)
    return shapes | linear("weight_head", d) | linear("prob_head", d)


def init_parameters(
    shapes: dict[str, tuple[int, ...]], rng: np.random.Generator
) -> dict[str, Tensor]:
    """Fresh trainable parameters: gains 1, biases 0, and every other entry
    N(0, INIT_STD^2) draws from `rng` in table order, so one seed pins all."""
    params = {}
    for name, shape in shapes.items():
        if name.endswith(".gain"):
            data = np.ones(shape)
        elif name.endswith(".bias"):
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, INIT_STD, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def feature_gates(params: dict[str, Tensor], hidden: Tensor, real_mask: np.ndarray) -> Tensor:
    """[B, 1, d] feature-context gates for [B, n, d] hidden states.

    Squeeze-excitation over hidden channels: each text's mean over its real
    positions passes a bottleneck (d -> max(1, d//16) -> d) ending in a
    sigmoid, one gate per channel in (0, 1) for every row of that text.
    """
    n_real = real_mask.sum(axis=1)
    if not n_real.all():
        raise ShapeError("feature gate needs at least one real position per text")
    # Mean over real positions as a constant [1, n] row times each
    # text's [n, d] states: pad rows contribute nothing.
    pool = real_mask[:, None, :] / n_real[:, None, None]
    pooled = ag.matmul(Tensor(pool.astype(hidden.data.dtype, copy=False)), hidden)
    squeezed = dense(params, "feature_gate.squeeze", pooled, relu=True)
    return ag.sigmoid(dense(params, "feature_gate.excite", squeezed))


class FecTekModel:
    """Encoder plus gate and heads; one instance scores queries and passages.
    All of them read `params`, every parameter by checkpoint entry name."""

    def __init__(
        self, config: EncoderConfig, params: dict[str, Tensor], *, use_feature_gate: bool = True
    ):
        self.config = config
        self.params = params
        self.use_feature_gate = use_feature_gate
        self.encoder = ContextEncoder(config, params)
        self.vocab_size = self.encoder.vocab_size

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def encode_ids(self, token_ids: Sequence[int]) -> EncodedBatch:
        """One text as a batch of one."""
        return self.encoder.forward([token_ids])

    def term_weights(self, batch: EncodedBatch, terms: np.ndarray | None = None) -> TermWeights:
        """Weights of every text of the batch, over `terms` if given."""
        features = batch.hidden
        if self.use_feature_gate:
            features = ag.mul(features, feature_gates(self.params, features, batch.real_mask))
        # [B, n, d] @ [d] is one matrix-vector product per text, the BLAS
        # call a text alone gets, so its weights keep the same bits.
        raw = dense(self.params, "weight_head", features)
        return TermWeights.from_positions(
            batch.token_ids, ag.log1p(ag.relu(raw)), terms
        )

    def term_probabilities(self, batch: EncodedBatch) -> Tensor:
        """[B, n] probability that each position's term also occurs in the
        pair text.  Reads the raw hidden states, not the gated features."""
        return ag.sigmoid(dense(self.params, "prob_head", batch.hidden))

    @np.errstate(over="raise", invalid="raise")  # not under: masked attention underflows to 0
    def weigh(self, id_lists: Sequence[Sequence[int]]) -> list[dict[int, float]]:
        """Term weights of each text, in input order, recorded on no tape.

        Texts run in chunks of at most `CHUNK_TEXTS` of exactly equal length,
        so no forward pass pads and each text's weights are bit-identical to
        weighing it alone, whatever else is in the list.  Inference runs in
        the parameters' dtype, float32 for every model a command loads or
        makes: the index keeps 8-bit impacts, so float64's extra precision
        would not survive into it.  A value that dtype cannot carry raises
        FloatingPointError.
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


def new_model(
    vocab_size: int, config: EncoderConfig, *, use_feature_gate: bool = True, seed: int = 42
) -> FecTekModel:
    """A fresh float32 model (its float64 draws rounded once); one seed pins every weight."""
    if vocab_size < len(SPECIAL_IDS) + 1:
        raise ValueError(f"vocab_size must cover the reserved ids, got {vocab_size}")
    params = init_parameters(parameter_shapes(vocab_size, config), np.random.default_rng(seed))
    for p in params.values():
        p.data = p.data.astype(np.float32)
    return FecTekModel(config, params, use_feature_gate=use_feature_gate)


# -- losses ------------------------------------------------------------------


@dataclass
class EncodedTriple:
    """Token-id view of one training example."""

    query_ids: list[int]
    positive_ids: list[int]
    negative_ids: list[list[int]]


@np.errstate(over="raise", invalid="raise")
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
    A value the parameters' dtype cannot carry raises FloatingPointError.
    """
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
    mean = ag.mul(total, Tensor(1.0 / n))
    metrics = {
        "total_loss": mean.item(),
        "text_loss": text.item() / n,
        "term_loss": term_value / n,
    }
    return mean, metrics


# -- persistence ---------------------------------------------------------------

def save_model(model: FecTekModel, path: str | Path) -> None:
    """Checkpoint the model: config scalars first, then every parameter as
    float32 (a float64 model, which only `FecTekModel(...)` builds, is rounded)."""
    config = {
        "vocab_size": model.vocab_size,
        **asdict(model.config),
        "use_feature_gate": 1.0 if model.use_feature_gate else 0.0,
    }
    entries = {f"config.{name}": np.float64(value) for name, value in config.items()}
    for name, tensor in model.params.items():
        entries[name] = tensor.data.astype(np.float32, copy=False)
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
    try:
        config = EncoderConfig(**stored)
    except ValueError as exc:
        raise CorruptFileError(f"{path}: inconsistent stored config: {exc}") from exc

    # Every entry is checked against the stored config before anything is
    # allocated, so a small file claiming a huge model fails cheaply.
    shapes = parameter_shapes(vocab_size, config)
    config_names = ("vocab_size", *stored, "use_feature_gate")
    known = {f"config.{name}" for name in config_names} | shapes.keys()
    for name in entries:
        if name not in known:
            raise CorruptFileError(f"{path}: unexpected checkpoint entry {name!r}")
    params = {}
    for name, shape in shapes.items():
        if name not in entries:
            raise CorruptFileError(f"{path}: missing parameter {name!r}")
        array = entries[name]
        if array.shape != shape:
            raise CorruptFileError(
                f"{path}: parameter {name!r} has shape {array.shape}, expected {shape}"
            )
        if array.dtype != np.float32:
            raise CorruptFileError(f"{path}: parameter {name!r} is {array.dtype}, not float32")
        if not math.isfinite(float(array.min()) + float(array.max())):  # no copy of the entry
            raise CorruptFileError(f"{path}: parameter {name!r} is not finite")
        params[name] = Tensor(array, requires_grad=True)
    return FecTekModel(config, params, use_feature_gate=use_feature_gate)
