"""Reverse-mode automatic differentiation over numpy float64 or float32 arrays.

The engine is define-by-run: each operation on `Tensor` produces a new node
holding its inputs and a backward closure, so every forward pass lays down a
fresh tape.  `Tensor.backward()` linearizes that tape topologically and
replays it once in reverse, accumulating gradients into `.grad` buffers.

Conventions that the rest of the package relies on:

- a tensor keeps a float32 or float64 array's dtype and makes anything else
  float64, and the network ops and their gradients compute in their inputs'
  dtype: training and inference run in float32, the dtype of every model
  `new_model` or `load_model` makes, while a float64 model (the gradient
  check's) stays float64; only the loss scalars are float64 either way;
- ops take `Tensor` operands (wrap a constant in `Tensor` first); only
  indices, masks and labels are plain arrays;
- relu'(0) is exactly 0;
- broadcasting in add/mul follows numpy, with gradients summed back to the
  operand's shape;
- under `no_grad()` the same functions run but record nothing, which is how
  corpus encoding and finite-difference probes stay cheap.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ShapeError

_grad_enabled: bool = True

# Probabilities fed into the cross-entropy are clamped to this range before
# taking logs, so a saturated sigmoid cannot produce an infinite loss.
PROB_CLAMP = 1e-7

# Added to each row's variance before layer_norm takes its square root.
LAYER_NORM_EPS = 1e-5


@contextlib.contextmanager
def no_grad():
    """Run a block without recording the tape."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """Dense float64 or float32 array that can participate in gradient computation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = (
            data
            if type(data) is np.ndarray and data.dtype.char in "fd"
            else np.asarray(data, dtype=np.float64)
        )
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._op = ""

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Reverse-replay the tape below this scalar, filling `.grad` buffers."""
        if self.data.ndim != 0:
            raise ShapeError(
                f"backward() requires a scalar, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            # Loss is a constant (e.g. no parameter reached it); nothing to do.
            return
        tape = build_tape(self)
        self.grad = np.ones_like(self.data)
        # Each interior node runs once; after it has passed its gradient on,
        # its gradient, closure and parents are dropped so the graph can be
        # freed as the replay goes.  Leaves keep `.grad`.
        while tape:
            node = tape.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = None
            node._parents = ()

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag}, op={self._op or 'leaf'!r})"


def build_tape(root: Tensor) -> list[Tensor]:
    """Topological order of the graph below `root` (inputs before outputs).

    Reversing the list replays each recorded operation exactly once, which is
    what keeps gradient accumulation correct when a node fans out.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _record(data, parents: tuple[Tensor, ...], backward, op: str) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
        out._op = op
    return out


def _accumulate(t: Tensor, grad: np.ndarray, fresh: bool = False) -> None:
    """Add `grad` into `t.grad`.

    `fresh` hands over a C-contiguous array in `t`'s dtype that the op built
    for `t` alone, which becomes `t.grad` as it is.  Any other first gradient
    is copied in `t`'s dtype, since it may be shared with another operand or
    be a view; C order keeps later summations independent of the layout it
    arrived in.
    """
    if t.grad is None:
        t.grad = grad if fresh else np.array(grad, dtype=t.data.dtype, order="C")
    else:
        t.grad += grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeezed = tuple(
        i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1
    )
    if squeezed:
        grad = grad.sum(axis=squeezed, keepdims=True)
    return grad.reshape(shape)


# -- elementwise ----------------------------------------------------------


def add(a, b) -> Tensor:
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _record(data, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(data, (a, b), backward, "mul")


def relu(a) -> Tensor:
    # Strict comparison: the derivative at 0 is defined as 0.
    mask = a.data > 0.0
    data = np.where(mask, a.data, 0.0)

    def backward(g):
        _accumulate(a, g * mask)

    return _record(data, (a,), backward, "relu")


def sigmoid(a) -> Tensor:
    # exp(-|x|) never overflows, so both saturated tails stay finite.
    e = np.exp(-np.abs(a.data))
    data = np.where(a.data >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        _accumulate(a, g * data * (1.0 - data))

    return _record(data, (a,), backward, "sigmoid")


def log1p(a) -> Tensor:
    data = np.log1p(a.data)

    def backward(g):
        _accumulate(a, g / (1.0 + a.data))

    return _record(data, (a,), backward, "log1p")


# -- shape manipulation ----------------------------------------------------


def reshape(a, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _record(data, (a,), backward, "reshape")


def transpose(a) -> Tensor:
    """The transpose of a 2-d tensor."""
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d tensor, got shape {a.data.shape}")

    def backward(g):
        _accumulate(a, g.T)

    return _record(a.data.T, (a,), backward, "transpose")


def gather(a, indices) -> Tensor:
    """Select rows (axis 0) of `a`; the gradient scatter-adds back."""
    idx = np.asarray(indices, dtype=np.intp)
    data = a.data[idx]

    def backward(g):
        flat = idx.reshape(-1)
        buf = np.zeros(a.data.shape, a.data.dtype)
        if flat.size:
            # Sort the picks by row (stably, so each run keeps position
            # order), then sum each row's run in one call.
            order = np.argsort(flat, kind="stable")
            rows = flat[order]
            starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
            pieces = g.reshape(flat.size, *a.data.shape[1:])[order]
            buf[rows[starts]] = np.add.reduceat(pieces, starts, axis=0)
        _accumulate(a, buf, fresh=True)

    return _record(data, (a,), backward, "gather")


def scatter(a, columns, width: int) -> Tensor:
    """Collapse each row's positions into `width` cells by max.

    `a` is [B, n]; `columns[b, i]` names the cell of position i of row b,
    and a negative column drops the position.  The result is [B, width]:
    each cell holds the max of its positions' values, and a cell no
    position reaches is 0.  The gradient goes only to the lowest position
    holding the cell's maximum.
    """
    cols = np.asarray(columns, dtype=np.intp)
    if a.data.ndim != 2 or cols.shape != a.data.shape:
        raise ShapeError(
            f"scatter: values {a.data.shape} and columns {cols.shape} must be "
            "the same [B, n] shape"
        )
    if cols.size and cols.max() >= width:
        raise ShapeError(f"scatter: column {cols.max()} outside {width} cells")
    rows, n = a.data.shape
    flat = cols.reshape(-1)
    sources = np.flatnonzero(flat >= 0)
    cells = sources // n * width + flat[sources]
    values = a.data.reshape(-1)[sources]
    data = np.full(rows * width, -np.inf, dtype=a.data.dtype)
    np.maximum.at(data, cells, values)
    empty = np.ones(data.size, dtype=bool)
    empty[cells] = False
    data[empty] = 0.0

    def backward(g):
        # The lowest flat position among those equal to their cell's max.
        at_max = values == data[cells]
        winner = np.full(data.size, a.data.size)
        np.minimum.at(winner, cells[at_max], sources[at_max])
        dst = np.flatnonzero(winner < a.data.size)
        grad = np.zeros(a.data.shape, dtype=a.data.dtype)
        grad.reshape(-1)[winner[dst]] = g.reshape(-1)[dst]
        _accumulate(a, grad, fresh=True)

    return _record(data.reshape(rows, width), (a,), backward, "scatter")


# -- linear algebra ---------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product of [..., m, k] and [..., k, n] operands with equal
    batch dimensions.  A 1-d operand is a `ShapeError`."""
    ad, bd = a.data, b.data
    if (
        ad.ndim < 2
        or bd.ndim < 2
        or ad.shape[:-2] != bd.shape[:-2]
        or ad.shape[-1] != bd.shape[-2]
    ):
        raise ShapeError(
            f"matmul needs [..., m, k] x [..., k, n] operands with equal batch "
            f"dimensions, got {ad.shape} x {bd.shape}"
        )
    data = np.matmul(ad, bd)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, np.matmul(g, np.swapaxes(bd, -1, -2)))
        if b.requires_grad:
            _accumulate(b, np.matmul(np.swapaxes(ad, -1, -2), g))

    return _record(data, (a, b), backward, "matmul")


# -- fused network ops -------------------------------------------------------
#
# Each fused op does the same float operations in the same order as the chain
# of single ops it replaces, so results are bit-identical; it only keeps fewer
# intermediates alive on the tape.


def linear(x, weight, bias, relu: bool = False) -> Tensor:
    """`x @ weight + bias`, then relu if asked, as one node.

    `x` is [..., d] (at least 2-d); `weight` is [d, d'] with a [d'] bias, or
    a head's [d] vector with a scalar bias, which gives a [...] output.  The
    relu is `max(pre, +0.0)`: +0.0 wherever the pre-activation is zero or
    negative, derivative 0 at 0.  A NaN pre-activation stays NaN, where the
    unfused `relu` writes 0.  In the encoder such a NaN can only come from a
    NaN in `x` (checkpoints and training reject non-finite parameters), and
    the residual add carries that NaN past this op anyway.
    """
    xd, wd = x.data, weight.data
    if (
        xd.ndim < 2
        or wd.ndim not in (1, 2)
        or xd.shape[-1] != wd.shape[0]
        or bias.data.shape != wd.shape[1:]
    ):
        raise ShapeError(
            f"linear: {xd.shape} x {wd.shape} + {bias.data.shape} "
            "needs x [..., d], weight [d, d'] and bias [d'], or weight [d] and bias []"
        )
    data = np.matmul(xd, wd)
    data += bias.data
    if relu:
        np.maximum(data, 0.0, out=data)

    def backward(g):
        if relu:
            # `g` is this node's own buffer; max(pre, 0) > 0 exactly when
            # pre > 0, so the kept output is the mask.
            g *= data > 0.0
        if bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias.data.shape))
        # A vector weight acts as its [d, 1] column, and `g` as [..., n, 1].
        w, g = (wd, g) if wd.ndim == 2 else (wd[:, None], g[..., None])
        if x.requires_grad:
            _accumulate(x, np.matmul(g, w.T), fresh=True)
        if weight.requires_grad:
            dw = _unbroadcast(np.matmul(np.swapaxes(xd, -1, -2), g), w.shape)
            _accumulate(weight, dw.reshape(wd.shape))

    return _record(data, (x, weight, bias), backward, "linear")


def attention(q, k, v, mask_bias, heads: int, scale: float) -> Tensor:
    """Multi-head scaled dot-product attention over B texts of n rows each.

    `q`, `k` and `v` are [B*n, d], text by text; `mask_bias` is a [B, n]
    array added to every logit of key column j of text b (0 keeps a column,
    a large negative value drops it).  Returns the [B*n, d] context, heads
    side by side.  Only the softmax weights are kept for the backward pass.
    """
    mask_bias = np.asarray(mask_bias, dtype=q.data.dtype)
    if mask_bias.ndim != 2:
        raise ShapeError(f"attention: mask_bias must be [B, n], got {mask_bias.shape}")
    b, n = mask_bias.shape
    rows, d = b * n, q.data.shape[-1]
    if any(t.data.shape != (rows, d) for t in (q, k, v)) or d % heads:
        raise ShapeError(
            f"attention: q/k/v {q.data.shape} / {k.data.shape} / {v.data.shape} "
            f"must all be [{rows}, d] with d divisible by {heads} heads"
        )
    dh = d // heads

    def split(a: np.ndarray) -> np.ndarray:  # [B*n, d] -> [B, heads, n, dh]
        return a.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

    def merge(a: np.ndarray) -> np.ndarray:  # [B, heads, n, dh] -> a new [B*n, d]
        out = np.empty((rows, d), dtype=a.dtype)
        split(out)[...] = a
        return out

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    weights = np.matmul(qh, kh.swapaxes(-1, -2))
    weights *= scale
    weights += mask_bias[:, None, None, :]
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    data = merge(np.matmul(weights, vh))

    def backward(g):
        g = np.ascontiguousarray(split(g))
        if v.requires_grad:
            dv = np.matmul(weights.swapaxes(-1, -2), g)
            _accumulate(v, merge(dv), fresh=True)
        dlogits = np.matmul(g, vh.swapaxes(-1, -2))
        # Softmax backward, then the scale: weights * (g - sum(g * weights)).
        inner = (dlogits * weights).sum(axis=-1, keepdims=True)
        dlogits -= inner
        dlogits *= weights
        dlogits *= scale
        if q.requires_grad:
            _accumulate(q, merge(np.matmul(dlogits, kh)), fresh=True)
        if k.requires_grad:
            dk = np.matmul(qh.swapaxes(-1, -2), dlogits)  # [B, heads, dh, n]
            _accumulate(k, merge(dk.swapaxes(-1, -2)), fresh=True)

    return _record(data, (q, k, v), backward, "attention")


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    n = x.data.shape[-1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(
            f"layer_norm: gain/bias must be ({n},), got {gain.data.shape} / {bias.data.shape}"
        )
    # sum / n is exactly np.mean, without its Python-level overhead.
    mu = x.data.sum(axis=-1, keepdims=True) / n
    xhat = x.data - mu  # centered, then scaled to unit variance in place
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    data = xhat * gain.data
    data += bias.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        buf = g * xhat
        if gain.requires_grad:
            _accumulate(gain, buf.sum(axis=lead))
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=lead))
        if x.requires_grad:
            # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), with
            # the same roundings, in two buffers.
            dxhat = g * gain.data
            term = dxhat.mean(axis=-1, keepdims=True)
            np.multiply(dxhat, xhat, out=buf)
            proj = buf.mean(axis=-1, keepdims=True)
            dxhat -= term
            np.multiply(xhat, proj, out=buf)
            dxhat -= buf
            dxhat *= inv
            _accumulate(x, dxhat, fresh=True)

    return _record(data, (x, gain, bias), backward, "layer_norm")


def softmax_nll(scores, target, mask) -> Tensor:
    """Negative log softmax of each row's target score, summed over rows.

    `scores` is [Q, C], `target` one column per row, and `mask` a [Q, C]
    array that limits each row's softmax to the columns it marks; every
    row's target must be among them.
    """
    s = scores.data
    if s.ndim != 2:
        raise ShapeError(f"softmax_nll expects [Q, C] scores, got {s.shape}")
    q, c = s.shape
    if c == 0:
        raise ValueError("softmax_nll on an empty score vector")
    t = np.asarray(target, dtype=np.intp)
    if t.shape != (q,):
        raise ShapeError(f"softmax_nll needs one target per row, got {t.size} for {q}")
    if t.min() < 0 or t.max() >= c:
        raise ValueError(f"target index outside score vector of length {c}")
    rows = np.arange(q)
    keep = np.asarray(mask, dtype=bool)
    if keep.shape != s.shape or not keep[rows, t].all():
        raise ValueError("softmax_nll mask must match the scores and keep each target")
    x = np.where(keep, s, -np.inf)
    m = x.max(axis=1, keepdims=True)
    z = np.exp(x - m)
    total = z.sum(axis=1, keepdims=True)
    loss = (np.log(total[:, 0]) + m[:, 0] - s[rows, t]).sum()

    def backward(g):  # `g` is float64, like the loss
        p = z / total
        p[rows, t] -= 1.0
        _accumulate(scores, (p * g).astype(s.dtype, copy=False), fresh=True)

    return _record(np.float64(loss), (scores,), backward, "softmax_nll")


def binary_cross_entropy(probs, labels, mask) -> Tensor:
    """BCE averaged over each row's masked positions, summed over rows.

    A 1-d input is one row; a row whose mask selects nothing adds 0, and a
    mask that selects nothing at all gives a 0 constant.  Probabilities are
    clamped away from {0,1}.  `labels` and `mask` are plain arrays (no
    gradient flows into them).
    """
    y = np.asarray(labels, dtype=np.float64)
    m = np.asarray(mask, dtype=bool)
    if y.shape != probs.data.shape or m.shape != probs.data.shape:
        raise ShapeError(
            f"binary_cross_entropy: shape mismatch probs={probs.data.shape} "
            f"labels={y.shape} mask={m.shape}"
        )
    counts = m.sum(axis=-1, keepdims=True)
    if not counts.any():
        return Tensor(0.0)
    counts = np.maximum(counts, 1)
    p = np.clip(probs.data, PROB_CLAMP, 1.0 - PROB_CLAMP)
    per = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    loss = ((per * m).sum(axis=-1, keepdims=True) / counts).sum()

    def backward(g):
        # Clamped positions are flat: no gradient leaks through the clip.
        in_range = (probs.data > PROB_CLAMP) & (probs.data < 1.0 - PROB_CLAMP)
        dp = np.where(m & in_range, (p - y) / (p * (1.0 - p)), 0.0) / counts  # float64, as `y`
        _accumulate(probs, (dp * g).astype(probs.data.dtype, copy=False), fresh=True)

    return _record(np.float64(loss), (probs,), backward, "bce")
