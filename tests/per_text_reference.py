"""The per-text model path that batching replaced, kept as a test oracle.

Each function handles one text (or one triple) with the same autograd ops
and parameters the model uses: `forward` is the encoder at a text's own
length, `from_positions` collapses positions into sorted terms, and
`triple_loss` is one triple's joint loss built from sparse match scores.
"""

from __future__ import annotations

import math

import numpy as np

import fectek.autograd as ag
from fectek.autograd import Tensor
from fectek.encoder import LAYER_NORM_EPS, MASK_BIAS
from fectek.model import indicator_labels, scorable_mask
from fectek.tokenizer import PAD_ID


def forward(encoder, token_ids) -> tuple[np.ndarray, Tensor, np.ndarray]:
    """(ids, [n, d] hidden states, real mask) of one id sequence."""
    cfg = encoder.config
    ids = np.asarray(token_ids, dtype=np.int64)
    n = int(ids.size)
    real = ids != PAD_ID
    p = encoder.params
    h, dh = cfg.heads, cfg.head_dim
    scale = 1.0 / math.sqrt(dh)

    def linear(t, name):
        return ag.add(ag.matmul(t, p[f"{name}.weight"]), p[f"{name}.bias"])

    def norm(t, name):
        return ag.layer_norm(t, p[f"{name}.gain"], p[f"{name}.bias"], LAYER_NORM_EPS)

    def split_heads(t):
        return ag.permute(ag.reshape(t, (n, h, dh)), (1, 0, 2))

    x = ag.add(
        ag.gather(p["embeddings.token"], ids),
        ag.gather(p["embeddings.position"], np.arange(n)),
    )
    x = norm(x, "embeddings.norm")
    mask_bias = Tensor(np.where(real, 0.0, MASK_BIAS).reshape(1, 1, n))
    for i in range(cfg.layers):
        layer = f"layers.{i}"
        q, k, v = (
            split_heads(linear(x, f"{layer}.attn.{part}"))
            for part in ("query", "key", "value")
        )
        logits = ag.add(ag.mul(ag.matmul(q, ag.transpose_last_two(k)), scale), mask_bias)
        weights = ag.softmax(logits, axis=-1)
        ctx = ag.reshape(ag.permute(ag.matmul(weights, v), (1, 0, 2)), (n, cfg.dim))
        x = norm(ag.add(x, linear(ctx, f"{layer}.attn.output")), f"{layer}.norm1")
        expanded = ag.relu(linear(x, f"{layer}.ffn.expand"))
        x = norm(ag.add(x, linear(expanded, f"{layer}.ffn.contract")), f"{layer}.norm2")
    return ids, x, real


def gate(model, hidden: Tensor, real: np.ndarray) -> Tensor:
    """Feature-gated [n, d] states of one text."""
    params = model.feature_gate.params
    pool = np.where(real, 1.0 / int(real.sum()), 0.0)
    pooled = ag.matmul(Tensor(pool), hidden)
    squeezed = ag.relu(
        ag.add(
            ag.matmul(pooled, params["feature_gate.squeeze.weight"]),
            params["feature_gate.squeeze.bias"],
        )
    )
    gates = ag.sigmoid(
        ag.add(
            ag.matmul(squeezed, params["feature_gate.excite.weight"]),
            params["feature_gate.excite.bias"],
        )
    )
    return ag.mul(hidden, gates)


def from_positions(token_ids, position_weights: Tensor, aggregation: str):
    """(sorted term ids, their weights): max keeps the lowest position of
    the largest value, sum adds every occurrence."""
    ids = np.asarray(token_ids)
    groups: dict[int, list[int]] = {}
    for pos in np.flatnonzero(scorable_mask(ids)):
        groups.setdefault(int(ids[pos]), []).append(int(pos))
    terms = sorted(groups)
    if not terms:
        return [], Tensor(np.zeros(0))
    values = position_weights.data
    if aggregation == "max":
        picks = [max(groups[t], key=lambda pos: (values[pos], -pos)) for t in terms]
        return terms, ag.gather(position_weights, np.asarray(picks, dtype=np.intp))
    pool = np.zeros((len(terms), len(ids)))
    for row, t in enumerate(terms):
        pool[row, groups[t]] = 1.0
    return terms, ag.matmul(Tensor(pool), position_weights)


def term_weights(model, token_ids):
    """(ids, hidden, terms, weights) of one text."""
    ids, hidden, real = forward(model.encoder, token_ids)
    features = gate(model, hidden, real) if model.use_feature_gate else hidden
    raw = ag.add(ag.matmul(features, model.weight_w), model.weight_b)
    terms, weights = from_positions(ids, ag.log1p(ag.relu(raw)), model.aggregation)
    return ids, hidden, terms, weights


def as_dict(terms, weights: Tensor) -> dict[int, float]:
    return {t: float(w) for t, w in zip(terms, weights.data) if w != 0.0}


def match_score(query, passage) -> Tensor:
    """Sum over shared terms of query weight times passage weight."""
    (q_terms, q_weights), (p_terms, p_weights) = query, passage
    shared = sorted(set(q_terms) & set(p_terms))
    if not shared:
        return Tensor(0.0)
    q = ag.gather(q_weights, [q_terms.index(t) for t in shared])
    p = ag.gather(p_weights, [p_terms.index(t) for t in shared])
    return ag.reduce_sum(ag.mul(q, p))


def triple_loss(model, triple, enable_term: bool = True) -> tuple[Tensor, float, float]:
    """Loss for one triple; returns (total, text part, term part as floats)."""
    q_ids, q_hidden, *query = term_weights(model, triple.query_ids)
    p_ids, p_hidden, *positive = term_weights(model, triple.positive_ids)
    negatives = [term_weights(model, ids)[2:] for ids in triple.negative_ids]
    scores = [match_score(query, c) for c in (positive, *negatives)]
    # The candidate scores as one vector: each score times its one-hot row.
    eye = np.eye(len(scores))
    for i, s in enumerate(scores):
        term = ag.mul(ag.reshape(s, (1,)), Tensor(eye[i]))
        stacked = term if i == 0 else ag.add(stacked, term)
    text = ag.softmax_nll(stacked, 0)
    total, term_value = text, 0.0
    if enable_term:
        q_labels, p_labels = indicator_labels(q_ids, p_ids)

        def probs(hidden):
            return ag.sigmoid(ag.add(ag.matmul(hidden, model.prob_w), model.prob_b))

        term = ag.add(
            ag.binary_cross_entropy(probs(q_hidden), q_labels.labels, q_labels.mask),
            ag.binary_cross_entropy(probs(p_hidden), p_labels.labels, p_labels.mask),
        )
        term_value = term.item()
        total = ag.add(total, term)
    return total, text.item(), term_value
