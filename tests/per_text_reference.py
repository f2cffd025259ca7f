"""The per-text model path that batching replaced, kept as a test oracle.

Each function handles one text (or one triple) with the same parameters the
model uses: `forward` is the encoder at a text's own length,
`from_positions` collapses positions into sorted terms, and `triple_loss` is
one triple's joint loss built from sparse match scores.  `linear` and
`attention` are the chains of single ops that the fused autograd ops replace.
They and the heads are built on ops the model no longer records: `softmax`,
`reduce_sum`, `permute`, `transpose_last_two`, and the general `matmul`
that promotes 1-d operands.  The reference path runs on them, so it stays
independent of the kernels it checks.  Like the model, it computes in its
parameters' dtype, float64 or float32.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

import fectek.autograd as ag
from fectek.autograd import Tensor
from fectek.encoder import MASK_BIAS
from fectek.errors import ShapeError
from fectek.model import indicator_labels, scorable_mask
from fectek.tokenizer import PAD_ID


def softmax(a, axis: int = -1) -> Tensor:
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    z = np.exp(x - m)
    data = z / z.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        ag._accumulate(a, data * (g - inner))

    return ag._record(data, (a,), backward, "softmax")


def reduce_sum(a) -> Tensor:
    """Sum of every element, as a scalar."""
    data = a.data.sum()

    def backward(g):
        ag._accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return ag._record(data, (a,), backward, "sum")


def permute(a, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    data = np.transpose(a.data, axes)

    def backward(g):
        ag._accumulate(a, np.transpose(g, np.argsort(axes)))

    return ag._record(data, (a,), backward, "permute")


def transpose_last_two(a) -> Tensor:
    if a.data.ndim < 2:
        raise ShapeError(f"transpose needs at least 2 dims, got shape {a.data.shape}")
    axes = list(range(a.data.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return permute(a, axes)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy semantics: 1-D operands are promoted and the
    result squeezed back; leading batch dimensions broadcast."""
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0:
        raise ShapeError(
            f"matmul needs at least 1-d operands, got {ad.shape} x {bd.shape}"
        )
    a_vec = ad.ndim == 1
    b_vec = bd.ndim == 1
    A = ad[None, :] if a_vec else ad
    B = bd[:, None] if b_vec else bd
    if A.shape[-1] != B.shape[-2]:
        raise ShapeError(
            f"matmul: inner dimensions disagree: {tuple(ad.shape)} x {tuple(bd.shape)}"
        )
    try:
        C = np.matmul(A, B)
    except ValueError as exc:
        raise ShapeError(
            f"matmul: batch dimensions incompatible: {tuple(ad.shape)} x {tuple(bd.shape)}"
        ) from exc
    data = C
    if b_vec:
        data = data[..., 0]
    if a_vec:
        data = data[..., 0, :] if not b_vec else data[..., 0]

    def backward(g):
        G = g
        if a_vec and b_vec:
            G = G.reshape(1, 1)
        elif a_vec:
            G = np.expand_dims(G, -2)
        elif b_vec:
            G = np.expand_dims(G, -1)
        if a.requires_grad:
            dA = np.matmul(G, np.swapaxes(B, -1, -2))
            ag._accumulate(a, ag._unbroadcast(dA, A.shape).reshape(ad.shape))
        if b.requires_grad:
            dB = np.matmul(np.swapaxes(A, -1, -2), G)
            ag._accumulate(b, ag._unbroadcast(dB, B.shape).reshape(bd.shape))

    return ag._record(data, (a, b), backward, "matmul")


def linear(x, weight, bias, relu: bool = False) -> Tensor:
    """`ag.linear` as the matmul / add / relu chain."""
    out = ag.add(matmul(x, weight), bias)
    return ag.relu(out) if relu else out


def attention(q, k, v, mask_bias, heads: int, scale: float) -> Tensor:
    """`ag.attention` as the matmul / scale / mask / softmax / matmul chain."""
    b, n = mask_bias.shape
    d, dtype = q.data.shape[-1], q.data.dtype

    def split_heads(t):
        return permute(ag.reshape(t, (b, n, heads, d // heads)), (0, 2, 1, 3))

    q, k, v = split_heads(q), split_heads(k), split_heads(v)
    logits = ag.add(
        ag.mul(matmul(q, transpose_last_two(k)), Tensor(np.asarray(scale, dtype))),
        Tensor(mask_bias.reshape(b, 1, 1, n).astype(dtype)),
    )
    weights = softmax(logits, axis=-1)
    return ag.reshape(permute(matmul(weights, v), (0, 2, 1, 3)), (b * n, d))


def forward(encoder, token_ids) -> tuple[np.ndarray, Tensor, np.ndarray]:
    """(ids, [n, d] hidden states, real mask) of one id sequence."""
    cfg = encoder.config
    ids = np.asarray(token_ids, dtype=np.int64)
    n = int(ids.size)
    real = ids != PAD_ID
    p = encoder.params
    scale = 1.0 / math.sqrt(cfg.head_dim)

    def dense(t, name, relu=False):
        return linear(t, p[f"{name}.weight"], p[f"{name}.bias"], relu)

    def norm(t, name):
        return ag.layer_norm(t, p[f"{name}.gain"], p[f"{name}.bias"])

    x = ag.add(
        ag.gather(p["embeddings.token"], ids),
        ag.gather(p["embeddings.position"], np.arange(n)),
    )
    x = norm(x, "embeddings.norm")
    mask_bias = np.where(real, 0.0, MASK_BIAS).reshape(1, n)
    for i in range(cfg.layers):
        layer = f"layers.{i}"
        q, k, v = (dense(x, f"{layer}.attn.{part}") for part in ("query", "key", "value"))
        ctx = attention(q, k, v, mask_bias, cfg.heads, scale)
        x = norm(ag.add(x, dense(ctx, f"{layer}.attn.output")), f"{layer}.norm1")
        expanded = dense(x, f"{layer}.ffn.expand", relu=True)
        x = norm(ag.add(x, dense(expanded, f"{layer}.ffn.contract")), f"{layer}.norm2")
    return ids, x, real


def gate(model, hidden: Tensor, real: np.ndarray) -> Tensor:
    """Feature-gated [n, d] states of one text."""
    params = model.params
    pool = np.where(real, 1.0 / int(real.sum()), 0.0).astype(hidden.data.dtype)
    pooled = matmul(Tensor(pool), hidden)
    squeezed = ag.relu(
        ag.add(
            matmul(pooled, params["feature_gate.squeeze.weight"]),
            params["feature_gate.squeeze.bias"],
        )
    )
    gates = ag.sigmoid(
        ag.add(
            matmul(squeezed, params["feature_gate.excite.weight"]),
            params["feature_gate.excite.bias"],
        )
    )
    return ag.mul(hidden, gates)


def from_positions(token_ids, position_weights: Tensor):
    """(sorted term ids, their weights): each term keeps the lowest position
    of its largest value."""
    ids = np.asarray(token_ids)
    groups: dict[int, list[int]] = {}
    for pos in np.flatnonzero(scorable_mask(ids)):
        groups.setdefault(int(ids[pos]), []).append(int(pos))
    terms = sorted(groups)
    if not terms:
        return [], Tensor(np.zeros(0))
    values = position_weights.data
    picks = [max(groups[t], key=lambda pos: (values[pos], -pos)) for t in terms]
    return terms, ag.gather(position_weights, np.asarray(picks, dtype=np.intp))


def term_weights(model, token_ids):
    """(ids, hidden, terms, weights) of one text."""
    ids, hidden, real = forward(model.encoder, token_ids)
    features = gate(model, hidden, real) if model.use_feature_gate else hidden
    head = model.params
    raw = ag.add(matmul(features, head["weight_head.weight"]), head["weight_head.bias"])
    terms, weights = from_positions(ids, ag.log1p(ag.relu(raw)))
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
    return reduce_sum(ag.mul(q, p))


def triple_loss(model, triple, enable_term: bool = True) -> tuple[Tensor, float, float]:
    """Loss for one triple; returns (total, text part, term part as floats)."""
    q_ids, q_hidden, *query = term_weights(model, triple.query_ids)
    p_ids, p_hidden, *positive = term_weights(model, triple.positive_ids)
    negatives = [term_weights(model, ids)[2:] for ids in triple.negative_ids]
    scores = [match_score(query, c) for c in (positive, *negatives)]
    # The candidate scores as one [1, C] row: each score times its one-hot row.
    eye = np.eye(len(scores))
    for i, s in enumerate(scores):
        term = ag.mul(ag.reshape(s, (1, 1)), Tensor(eye[i : i + 1]))
        stacked = term if i == 0 else ag.add(stacked, term)
    text = ag.softmax_nll(stacked, [0], np.ones((1, len(scores)), dtype=bool))
    total, term_value = text, 0.0
    if enable_term:
        q_labels, p_labels = indicator_labels(q_ids, p_ids)

        def probs(hidden):
            head = model.params
            return ag.sigmoid(ag.add(matmul(hidden, head["prob_head.weight"]), head["prob_head.bias"]))

        term = ag.add(
            ag.binary_cross_entropy(probs(q_hidden), q_labels.labels, q_labels.mask),
            ag.binary_cross_entropy(probs(p_hidden), p_labels.labels, p_labels.mask),
        )
        term_value = term.item()
        total = ag.add(total, term)
    return total, text.item(), term_value
