"""Reverse-mode automatic differentiation over numpy float64 arrays.

The engine is define-by-run: each operation on `Tensor` produces a new node
holding its inputs and a backward closure, so every forward pass lays down a
fresh tape.  `Tensor.backward()` linearizes that tape topologically and
replays it once in reverse, accumulating gradients into `.grad` buffers.

Conventions that the rest of the package relies on:

- every value is float64, end to end;
- relu'(0) is exactly 0;
- broadcasting in add/mul follows numpy, with gradients summed back to the
  operand's shape;
- under `no_grad()` the same functions run but record nothing, which is how
  corpus encoding and finite-difference probes stay cheap.
"""

from __future__ import annotations

import contextlib
from collections.abc import Sequence

import numpy as np

from .errors import ShapeError

_grad_enabled: bool = True

# Probabilities fed into the cross-entropy are clamped to this range before
# taking logs, so a saturated sigmoid cannot produce an infinite loss.
PROB_CLAMP = 1e-7


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
    """Dense float64 array that can participate in gradient computation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._op = ""

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

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


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(data, parents: tuple[Tensor, ...], backward, op: str) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
        out._op = op
    return out


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # A copy, since `grad` may be shared with another operand; C order
        # keeps later summations independent of the layout it arrived in.
        t.grad = np.array(grad, dtype=np.float64, order="C")
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
    a, b = _coerce(a), _coerce(b)
    data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _record(data, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(data, (a, b), backward, "mul")


def relu(a) -> Tensor:
    a = _coerce(a)
    # Strict comparison: the derivative at 0 is defined as 0.
    mask = a.data > 0.0
    data = np.where(mask, a.data, 0.0)

    def backward(g):
        _accumulate(a, g * mask)

    return _record(data, (a,), backward, "relu")


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    # exp(-|x|) never overflows, so both saturated tails stay finite.
    e = np.exp(-np.abs(a.data))
    data = np.where(a.data >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        _accumulate(a, g * data * (1.0 - data))

    return _record(data, (a,), backward, "sigmoid")


def log1p(a) -> Tensor:
    a = _coerce(a)
    data = np.log1p(a.data)

    def backward(g):
        _accumulate(a, g / (1.0 + a.data))

    return _record(data, (a,), backward, "log1p")


# -- shape manipulation ----------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    data = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _record(data, (a,), backward, "reshape")


def permute(a, axes: Sequence[int]) -> Tensor:
    a = _coerce(a)
    axes = tuple(axes)
    data = np.transpose(a.data, axes)

    def backward(g):
        _accumulate(a, np.transpose(g, np.argsort(axes)))

    return _record(data, (a,), backward, "permute")


def transpose_last_two(a) -> Tensor:
    a = _coerce(a)
    if a.data.ndim < 2:
        raise ShapeError(f"transpose needs at least 2 dims, got shape {a.data.shape}")
    axes = list(range(a.data.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return permute(a, axes)


def gather(a, indices) -> Tensor:
    """Select rows (axis 0) of `a`; the gradient scatter-adds back."""
    a = _coerce(a)
    idx = np.asarray(indices, dtype=np.intp)
    data = a.data[idx]

    def backward(g):
        if not a.requires_grad:
            return
        flat = idx.reshape(-1)
        buf = np.zeros_like(a.data)
        if flat.size:
            # Sort the picks by row (stably, so each run keeps position
            # order), then sum each row's run in one call.
            order = np.argsort(flat, kind="stable")
            rows = flat[order]
            starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
            pieces = g.reshape(flat.size, *a.data.shape[1:])[order]
            buf[rows[starts]] = np.add.reduceat(pieces, starts, axis=0)
        _accumulate(a, buf)

    return _record(data, (a,), backward, "gather")


def scatter(a, columns, width: int, reduce: str) -> Tensor:
    """Collapse each row's positions into `width` cells.

    `a` is [B, n]; `columns[b, i]` names the cell of position i of row b,
    and a negative column drops the position.  The result is [B, width]:
    each cell holds the max or the sum of its positions' values, and a cell
    no position reaches is 0.  Under max the gradient goes only to the
    lowest position holding the cell's maximum; under sum it goes to every
    position of the cell.
    """
    if reduce not in ("max", "sum"):
        raise ValueError(f"unknown reduction {reduce!r}, expected max|sum")
    a = _coerce(a)
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
    if reduce == "max":
        data = np.full(rows * width, -np.inf)
        np.maximum.at(data, cells, values)
        empty = np.ones(data.size, dtype=bool)
        empty[cells] = False
        data[empty] = 0.0
    else:
        data = np.zeros(rows * width)
        np.add.at(data, cells, values)

    def backward(g):
        src, dst = sources, cells
        if reduce == "max":
            # The lowest flat position among those equal to their cell's max.
            at_max = values == data[cells]
            winner = np.full(data.size, a.data.size)
            np.minimum.at(winner, cells[at_max], sources[at_max])
            dst = np.flatnonzero(winner < a.data.size)
            src = winner[dst]
        grad = np.zeros(a.data.size)
        grad[src] = g.reshape(-1)[dst]
        _accumulate(a, grad.reshape(a.data.shape))

    return _record(data.reshape(rows, width), (a,), backward, "scatter")


# -- reductions ------------------------------------------------------------


def reduce_sum(a) -> Tensor:
    """Sum of every element, as a scalar."""
    a = _coerce(a)
    data = a.data.sum()

    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _record(data, (a,), backward, "sum")


# -- linear algebra ---------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product with numpy semantics: 1-D operands are promoted and the
    result squeezed back; leading batch dimensions broadcast."""
    a, b = _coerce(a), _coerce(b)
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
            _accumulate(a, _unbroadcast(dA, A.shape).reshape(ad.shape))
        if b.requires_grad:
            dB = np.matmul(np.swapaxes(A, -1, -2), G)
            _accumulate(b, _unbroadcast(dB, B.shape).reshape(bd.shape))

    return _record(data, (a, b), backward, "matmul")


# -- fused network ops -------------------------------------------------------


def softmax(a, axis: int = -1) -> Tensor:
    a = _coerce(a)
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    z = np.exp(x - m)
    data = z / z.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(a, data * (g - inner))

    return _record(data, (a,), backward, "softmax")


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    n = x.data.shape[-1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(
            f"layer_norm: gain/bias must be ({n},), got {gain.data.shape} / {bias.data.shape}"
        )
    # sum / n is exactly np.mean, without its Python-level overhead.
    mu = x.data.sum(axis=-1, keepdims=True) / n
    centered = x.data - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    data = xhat * gain.data + bias.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).sum(axis=lead))
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=lead))
        if x.requires_grad:
            dxhat = g * gain.data
            term = dxhat.mean(axis=-1, keepdims=True)
            proj = (dxhat * xhat).mean(axis=-1, keepdims=True)
            _accumulate(x, inv * (dxhat - term - xhat * proj))

    return _record(data, (x, gain, bias), backward, "layer_norm")


def softmax_nll(scores, target, mask=None) -> Tensor:
    """Negative log softmax of each row's target score, summed over rows.

    `scores` is one row (1-d, `target` an int) or [Q, C] rows (`target` one
    column per row).  `mask`, if given, limits each row's softmax to the
    columns it marks; every row's target must be among them.
    """
    scores = _coerce(scores)
    if scores.data.ndim not in (1, 2):
        raise ShapeError(f"softmax_nll expects 1-d or 2-d scores, got {scores.data.shape}")
    s = np.atleast_2d(scores.data)
    q, c = s.shape
    if c == 0:
        raise ValueError("softmax_nll on an empty score vector")
    t = np.asarray(target, dtype=np.intp).reshape(-1)
    if t.shape != (q,):
        raise ShapeError(f"softmax_nll needs one target per row, got {t.size} for {q}")
    if t.min() < 0 or t.max() >= c:
        raise ValueError(f"target index outside score vector of length {c}")
    rows = np.arange(q)
    keep = np.ones(s.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if keep.shape != s.shape or not keep[rows, t].all():
        raise ValueError("softmax_nll mask must match the scores and keep each target")
    x = np.where(keep, s, -np.inf)
    m = x.max(axis=1, keepdims=True)
    z = np.exp(x - m)
    total = z.sum(axis=1, keepdims=True)
    loss = (np.log(total[:, 0]) + m[:, 0] - s[rows, t]).sum()

    def backward(g):
        p = z / total
        p[rows, t] -= 1.0
        _accumulate(scores, (p * g).reshape(scores.data.shape))

    return _record(np.float64(loss), (scores,), backward, "softmax_nll")


def binary_cross_entropy(probs, labels, mask) -> Tensor:
    """BCE averaged over each row's masked positions, summed over rows.

    A 1-d input is one row; a row whose mask selects nothing adds 0, and a
    mask that selects nothing at all gives a 0 constant.  Probabilities are
    clamped away from {0,1}.  `labels` and `mask` are plain arrays (no
    gradient flows into them).
    """
    probs = _coerce(probs)
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
        dp = np.where(m & in_range, (p - y) / (p * (1.0 - p)), 0.0) / counts
        _accumulate(probs, dp * g)

    return _record(np.float64(loss), (probs,), backward, "bce")
