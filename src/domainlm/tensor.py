"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is deliberately small: matmul, add, mul, scale, transpose,
reshape, last-axis concat, embedding gather, softmax, layer_norm, gelu,
cross_entropy, sum and cosine_similarity. Everything the encoder
and the losses need is composed from these. Graphs are dynamic: each
forward pass records fresh backward closures on its output tensors, and
``backward`` replays them in reverse construction order.

All storage is 64-bit; desk-scale sizes make the precision cheaper than
debugging float32 gradient-check noise.
"""
from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

_node_ids = itertools.count()


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class GraphError(RuntimeError):
    """Raised on autodiff contract violations (e.g. backward on a non-scalar)."""


class Tensor:
    """A dense float64 array with an optional gradient slot.

    ``data`` is the value, ``grad`` (filled by :func:`backward`) holds
    d(loss)/d(self) for leaf tensors with ``requires_grad``. Tensors
    produced by ops carry closures linking them to their parents; leaf
    tensors have none.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn", "_node_id")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Optional[Callable[[np.ndarray], tuple]] = None
        self._node_id = next(_node_ids)

    # ------------------------------------------------------------------ basics

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError(f"item() on non-scalar tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # ---------------------------------------------------------------- operators

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return add(self, scale(other, -1.0))

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def sum(self, axis: Optional[int] = None) -> "Tensor":
        return tensor_sum(self, axis)


def _make(data: np.ndarray, parents: Sequence[Tensor], grad_fn) -> Tensor:
    """Wrap an op result; the closure is kept only if a parent needs gradients."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    return out


def _reduce_to_shape(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum out axes that broadcasting added, so grad matches the operand shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -------------------------------------------------------------------- backward


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

    Pops the newest node holding a gradient until none is left. A parent
    is always older than its children, so each node is visited once, after
    every contribution to its gradient, in reverse construction order.
    Repeated calls accumulate into leaf grads until ``zero_grad``.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    heap = [(-loss._node_id, loss)]
    while heap:
        node = heapq.heappop(heap)[1]
        g = flowing.pop(id(node))
        if node._grad_fn is None:
            # requires_grad leaf: accumulate into the public slot.
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._grad_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in flowing:
                flowing[key] = flowing[key] + pg
            else:
                flowing[key] = pg
                heapq.heappush(heap, (-parent._node_id, parent))


# ------------------------------------------------------------------ primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product on the trailing two axes; leading axes must match or be absent."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    data = a.data @ b.data

    def grad_fn(g: np.ndarray):
        ga = _reduce_to_shape(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _reduce_to_shape(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _make(data, (a, b), grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; trailing-axis bias broadcast is the supported mismatch."""
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: incompatible shapes {a.shape} + {b.shape}") from exc

    def grad_fn(g: np.ndarray):
        return _reduce_to_shape(g, a.shape), _reduce_to_shape(g, b.shape)

    return _make(data, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product."""
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul: incompatible shapes {a.shape} * {b.shape}") from exc

    def grad_fn(g: np.ndarray):
        return (
            _reduce_to_shape(g * b.data, a.shape),
            _reduce_to_shape(g * a.data, b.shape),
        )

    return _make(data, (a, b), grad_fn)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def grad_fn(g: np.ndarray):
        return (g * s,)

    return _make(a.data * s, (a,), grad_fn)


def transpose(a: Tensor, axis0: int = -2, axis1: int = -1) -> Tensor:
    data = np.swapaxes(a.data, axis0, axis1)

    def grad_fn(g: np.ndarray):
        return (np.swapaxes(g, axis0, axis1),)

    return _make(data, (a,), grad_fn)


def reshape(a: Tensor, shape) -> Tensor:
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    shape = tuple(int(s) for s in shape)
    data = a.data.reshape(shape)

    def grad_fn(g: np.ndarray):
        return (g.reshape(a.shape),)

    return _make(data, (a,), grad_fn)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    if not tensors:
        raise ShapeError("concat: empty tensor sequence")
    data = np.concatenate([t.data for t in tensors], axis=-1)
    sizes = [t.shape[-1] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g: np.ndarray):
        return tuple(np.split(g, splits, axis=-1))

    return _make(data, tuple(tensors), grad_fn)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``table`` (V x d) by an integer id array."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"embedding: id out of range [0, {table.shape[0]}) in lookup"
        )
    data = table.data[ids]

    def grad_fn(g: np.ndarray):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make(data, (table,), grad_fn)


def softmax(a: Tensor) -> Tensor:
    """Stable softmax along the last axis; rows sum to 1."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g: np.ndarray):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return ((g - inner) * out,)

    return _make(out, (a,), grad_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean / unit-variance over the last axis, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} must match last dim ({d},)"
        )
    # Means as sum / d on one centred array: numpy's mean/var arithmetic,
    # bit for bit, without their per-call overhead.
    centred = x.data - x.data.sum(axis=-1, keepdims=True) / d
    var = (centred * centred).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    out = xhat * gain.data + bias.data

    def grad_fn(g: np.ndarray):
        gxhat = g * gain.data
        m1 = gxhat.sum(axis=-1, keepdims=True) / d
        m2 = (gxhat * xhat).sum(axis=-1, keepdims=True) / d
        gx = (gxhat - m1 - xhat * m2) * inv
        axes = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=axes)
        gbias = g.sum(axis=axes)
        return gx, ggain, gbias

    return _make(out, (x, gain, bias), grad_fn)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-form) GELU."""
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = x.data * cdf

    def grad_fn(g: np.ndarray):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        return (g * (cdf + x.data * pdf),)

    return _make(out, (x,), grad_fn)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-softmax of the target class, over rows of a B x V matrix."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-D, got {logits.shape}")
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    n, v = logits.shape
    if t.shape[0] != n:
        raise ShapeError(f"cross_entropy: {t.shape[0]} targets for {n} rows")
    if t.size and (t.min() < 0 or t.max() >= v):
        raise IndexError(f"cross_entropy: target out of range [0, {v})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.data.max(axis=1)
    nll = lse - logits.data[np.arange(n), t]
    out = np.asarray(nll.mean())

    def grad_fn(g: np.ndarray):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), t] -= 1.0
        return (float(g) * p / n,)

    return _make(out, (logits,), grad_fn)


def tensor_sum(a: Tensor, axis: Optional[int] = None) -> Tensor:
    data = a.data.sum(axis=axis)

    def grad_fn(g: np.ndarray):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)

    return _make(np.asarray(data), (a,), grad_fn)


def cosine_similarity(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """All-pairs cosine similarity between rows: (m x d, n x d) -> m x n.

    Row norms are clamped at ``eps`` so zero rows stay finite; the backward
    pass differentiates the clamped forward exactly.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"cosine_similarity: incompatible shapes {a.shape}, {b.shape}")
    na = np.linalg.norm(a.data, axis=1, keepdims=True)
    nb = np.linalg.norm(b.data, axis=1, keepdims=True)
    ca = np.maximum(na, eps)
    cb = np.maximum(nb, eps)
    ah = a.data / ca
    bh = b.data / cb
    out = ah @ bh.T

    def grad_fn(g: np.ndarray):
        # d(a_i/||a_i||)/da_i = (I - ah ah^T)/||a_i||; the projection term
        # vanishes where the norm was clamped (linear map a/eps).
        gah = g @ bh
        proj_a = (gah * ah).sum(axis=1, keepdims=True) * (na > eps)
        ga = (gah - proj_a * ah) / ca
        gbh = g.T @ ah
        proj_b = (gbh * bh).sum(axis=1, keepdims=True) * (nb > eps)
        gb = (gbh - proj_b * bh) / cb
        return ga, gb

    return _make(out, (a, b), grad_fn)
