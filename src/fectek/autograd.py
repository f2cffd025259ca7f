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
import math
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
        for node in reversed(tape):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

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
        t.grad = np.zeros_like(t.data)
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
    inverse = tuple(np.argsort(axes))

    def backward(g):
        _accumulate(a, np.transpose(g, inverse))

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
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            np.add.at(buf, idx, g)
            _accumulate(a, buf)

    return _record(data, (a,), backward, "gather")


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [_coerce(t) for t in tensors]
    if not ts:
        raise ValueError("concat needs at least one tensor")
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    split_points = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(ts, np.split(g, split_points, axis=axis)):
            _accumulate(t, piece)

    return _record(data, tuple(ts), backward, "concat")


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
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
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


def softmax_nll(scores, target: int) -> Tensor:
    """Negative log of softmax(scores)[target] for a 1-d score vector."""
    scores = _coerce(scores)
    if scores.data.ndim != 1:
        raise ShapeError(f"softmax_nll expects a 1-d vector, got {scores.data.shape}")
    n = scores.data.shape[0]
    if n == 0:
        raise ValueError("softmax_nll on an empty score vector")
    if not 0 <= target < n:
        raise ValueError(f"target index {target} outside score vector of length {n}")
    m = scores.data.max()
    z = np.exp(scores.data - m)
    total = z.sum()
    loss = math.log(total) + m - float(scores.data[target])

    def backward(g):
        p = z / total
        p = p.copy()
        p[target] -= 1.0
        _accumulate(scores, p * g)

    return _record(np.float64(loss), (scores,), backward, "softmax_nll")


def binary_cross_entropy(probs, labels, mask) -> Tensor:
    """Mean BCE over masked positions; probabilities clamped away from {0,1}.

    `labels` and `mask` are plain arrays (no gradient flows into them).
    Returns a 0 constant when the mask selects nothing.
    """
    probs = _coerce(probs)
    y = np.asarray(labels, dtype=np.float64)
    m = np.asarray(mask, dtype=bool)
    if y.shape != probs.data.shape or m.shape != probs.data.shape:
        raise ShapeError(
            f"binary_cross_entropy: shape mismatch probs={probs.data.shape} "
            f"labels={y.shape} mask={m.shape}"
        )
    count = int(m.sum())
    if count == 0:
        return Tensor(0.0)
    p = np.clip(probs.data, PROB_CLAMP, 1.0 - PROB_CLAMP)
    per = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    loss = float((per * m).sum() / count)

    def backward(g):
        # Clamped positions are flat: no gradient leaks through the clip.
        in_range = (probs.data > PROB_CLAMP) & (probs.data < 1.0 - PROB_CLAMP)
        dp = np.where(m & in_range, (p - y) / (p * (1.0 - p)), 0.0) / count
        _accumulate(probs, dp * g)

    return _record(np.float64(loss), (probs,), backward, "bce")
