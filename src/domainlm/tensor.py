"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is deliberately small: matmul (with an optional bias, so an
affine map is one node), add, mul, scale, transpose, reshape, last-axis
concat, embedding gather, softmax, layer_norm, gelu, cross_entropy, sum
and cosine_similarity. Everything the encoder and the losses need is
composed from these. Graphs are dynamic: each forward pass records fresh
backward closures on its output tensors, and ``backward`` replays them in
reverse construction order.

All storage is 64-bit; desk-scale sizes make the precision cheaper than
debugging float32 gradient-check noise. GELU's erf is numpy code, bit
for bit the compiled Cephes erf, so it needs no library beyond numpy.

``field_check`` is the one check of the settings dataclasses' field values;
it lives here because every module that defines such a record imports this one.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import fields
from typing import Callable, Literal, Optional, Sequence, get_args, get_origin, get_type_hints

import numpy as np

LN_EPS = 1e-5  # added to layer_norm's variance
_F64 = np.dtype(np.float64)
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Cephes ndtr.c's erf coefficients, as 0-d arrays: numpy dispatches them faster than floats.
_ERF_T, _ERF_U, _ERF_P, _ERF_Q = (tuple(map(np.array, coefs)) for coefs in (
    (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
     7.00332514112805075473E3, 5.55923013010394962768E4),
    (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
     2.26290000613890934246E4, 4.92673942608635921086E4),
    (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
     4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
     9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2),
    (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
     9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
     1.65666309194161350182E3, 5.57535340817727675546E2)))

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
        self.data = data if type(data) is np.ndarray and data.dtype is _F64 \
            else np.asarray(data, dtype=np.float64)
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
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._grad_fn = grad_fn
            break
    return out


def _reduce_to_shape(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum out axes that broadcasting added, so grad matches the operand shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = np.add.reduce(grad, axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = np.add.reduce(grad, axis=axis, keepdims=True)
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


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Matrix product on the trailing two axes; leading axes must match or be absent.
    With ``bias``, the affine map ``a @ b + bias`` as one node, bit for bit matmul then add."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    data = a.data @ b.data
    if bias is not None:
        try:
            data += bias.data
        except ValueError as exc:
            raise ShapeError(f"matmul: bias {bias.shape} does not fit {data.shape}") from exc

    def grad_fn(g: np.ndarray):
        ga = (_reduce_to_shape(g @ b.data.swapaxes(-1, -2), a.shape)
              if a.requires_grad else None)
        if not b.requires_grad:
            gb = None
        elif b.ndim == 2:  # a weight shared by every row of a: one GEMM over the flat rows
            gb = a.data.reshape(-1, b.shape[0]).T @ g.reshape(-1, b.shape[1])
        else:
            gb = _reduce_to_shape(a.data.swapaxes(-1, -2) @ g, b.shape)
        if bias is None:
            return ga, gb
        return ga, gb, _reduce_to_shape(g, bias.shape) if bias.requires_grad else None

    return _make(data, (a, b) if bias is None else (a, b, bias), grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; trailing-axis bias broadcast is the supported mismatch."""
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: incompatible shapes {a.shape} + {b.shape}") from exc

    def grad_fn(g: np.ndarray):
        return (_reduce_to_shape(g, a.shape) if a.requires_grad else None,
                _reduce_to_shape(g, b.shape) if b.requires_grad else None)

    return _make(data, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product."""
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul: incompatible shapes {a.shape} * {b.shape}") from exc

    def grad_fn(g: np.ndarray):
        return (
            _reduce_to_shape(g * b.data, a.shape) if a.requires_grad else None,
            _reduce_to_shape(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _make(data, (a, b), grad_fn)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def grad_fn(g: np.ndarray):
        return (g * s,)

    return _make(a.data * s, (a,), grad_fn)


def transpose(a: Tensor, axis0: int = -2, axis1: int = -1) -> Tensor:
    data = a.data.swapaxes(axis0, axis1)

    def grad_fn(g: np.ndarray):
        return (g.swapaxes(axis0, axis1),)

    return _make(data, (a,), grad_fn)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
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
    out = a.data - np.maximum.reduce(a.data, axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)

    def grad_fn(g: np.ndarray):
        ga = g - np.add.reduce(g * out, axis=-1, keepdims=True)
        ga *= out
        return (ga,)

    return _make(out, (a,), grad_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Zero-mean / unit-variance over the last axis, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} must match last dim ({d},)"
        )
    # Means as sum / d on one centred array: numpy's mean/var arithmetic,
    # bit for bit, without their per-call overhead.
    xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / d
    out = xhat * xhat
    inv = 1.0 / np.sqrt(np.add.reduce(out, axis=-1, keepdims=True) / d + LN_EPS)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def grad_fn(g: np.ndarray):
        gx = g * gain.data
        tmp = gx * xhat
        m2 = np.add.reduce(tmp, axis=-1, keepdims=True) / d
        gx -= np.add.reduce(gx, axis=-1, keepdims=True) / d
        gx -= np.multiply(xhat, m2, out=tmp)
        gx *= inv
        axes = tuple(range(g.ndim - 1))
        ggain = np.add.reduce(np.multiply(g, xhat, out=tmp), axis=axes)
        return gx, ggain, np.add.reduce(g, axis=axes)

    return _make(out, (x, gain, bias), grad_fn)


def _horner(x: np.ndarray, coefs: tuple) -> np.ndarray:  # Cephes' polevl (p1evl: lead 1.0)
    acc = x * coefs[0]
    acc += coefs[1]  # in place: one more temporary tripled the time at 22,528 elements
    for c in coefs[2:]:
        acc *= x
        acc += c
    return acc


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes' erf, bit for bit: its formulas, op for op, and libm's exp."""
    flat = x.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):  # only where |x| > 1, replaced below
        z = flat * flat
        out = _horner(z, _ERF_T)
        out *= flat
        out /= _horner(z, _ERF_U)
    far = (z > 1.0).nonzero()[0]  # |x| > 1; not NaN, which the near formula propagates
    if far.size:  # a few per mille in training; math.exp is libm's, np.exp can be 1 ulp off
        a = np.minimum(np.abs(flat[far]), 8.0)  # 1 - erfc rounds to 1.0 from erfc(8) < 1.2e-29 on
        y = np.fromiter(map(math.exp, (-a * a).tolist()), np.float64, a.size)
        out[far] = np.copysign(1.0 - y * _horner(a, _ERF_P) / _horner(a, _ERF_Q), flat[far])
    return out.reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-form) GELU."""
    cdf = 0.5 * (1.0 + _erf(x.data * _INV_SQRT2))
    out = x.data * cdf

    def grad_fn(g: np.ndarray):
        gx = x.data * -0.5  # g * (cdf + x * pdf), pdf = exp(-0.5 * x * x) / sqrt(2 pi)
        gx *= x.data
        np.exp(gx, out=gx)
        gx *= _INV_SQRT2PI
        gx *= x.data
        gx += cdf
        gx *= g
        return (gx,)

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
    rows = np.arange(n)
    row_max = np.maximum.reduce(logits.data, axis=1, keepdims=True)
    e = logits.data - row_max
    np.exp(e, out=e)
    total = np.add.reduce(e, axis=1, keepdims=True)
    nll = np.log(total[:, 0]) + row_max[:, 0] - logits.data[rows, t]
    out = np.asarray(np.add.reduce(nll) / n)  # nll.mean(), bit for bit

    def grad_fn(g: np.ndarray):
        p = e / total  # a fresh array: e is reused by every call
        p[rows, t] -= 1.0
        p *= float(g)
        p /= n
        return (p,)

    return _make(out, (logits,), grad_fn)


def tensor_sum(a: Tensor, axis: Optional[int] = None) -> Tensor:
    data = a.data.sum(axis=axis)

    def grad_fn(g: np.ndarray):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)

    return _make(np.asarray(data), (a,), grad_fn)


def cosine_similarity(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """All-pairs cosine similarity between rows: (..., m, d) x (..., n, d) -> (..., m, n).

    Leading axes must match: one (m, n) block per batch entry, so one call
    covers a step's pairs. Row norms are clamped at ``eps`` so zero rows
    stay finite; the backward pass differentiates the clamped forward exactly.
    """
    if (a.ndim < 2 or b.ndim != a.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-1]):
        raise ShapeError(f"cosine_similarity: incompatible shapes {a.shape}, {b.shape}")
    na = np.linalg.norm(a.data, axis=-1, keepdims=True)
    nb = np.linalg.norm(b.data, axis=-1, keepdims=True)
    ca = np.maximum(na, eps)
    cb = np.maximum(nb, eps)
    ah = a.data / ca
    bh = b.data / cb
    out = ah @ bh.swapaxes(-1, -2)

    def grad_fn(g: np.ndarray):
        # d(a_i/||a_i||)/da_i = (I - ah ah^T)/||a_i||; the projection term
        # vanishes where the norm was clamped (linear map a/eps).
        gah = g @ bh
        proj_a = (gah * ah).sum(axis=-1, keepdims=True) * (na > eps)
        ga = (gah - proj_a * ah) / ca
        gbh = g.swapaxes(-1, -2) @ ah
        proj_b = (gbh * bh).sum(axis=-1, keepdims=True) * (nb > eps)
        gb = (gbh - proj_b * bh) / cb
        return ga, gb

    return _make(out, (a, b), grad_fn)


# ------------------------------------------------------------ settings records


def field_check(cls: type, bounds: dict[str, str]) -> Callable[[dict], None]:
    """The check of values of dataclass ``cls``'s fields, its annotations read here, once.

    ``bounds`` maps ``">= n"``, ``"> n"`` or ``"[a, b]"`` to the names of the fields it
    bounds. The check raises ValueError naming the first field whose value is not of its
    annotated type or ``Literal`` (an int is a float, no number a bool), is a float that is
    not finite (save NaN where the default is NaN, an unset marker) or breaks its bound.
    """
    def rule(hint, default, bound: str) -> Callable[[object], Optional[str]]:
        if get_origin(hint) is Literal:
            return lambda value: None if value in get_args(hint) else \
                f"be one of {' or '.join(map(repr, get_args(hint)))}, got {value!r}"
        kinds = [k for k in get_args(hint) or (hint,) if k in (int, float, bool, type(None))]
        accepted = tuple((int, float) if k is float else k for k in kinds)
        nan_ok = isinstance(default, float) and math.isnan(default)
        low, high = map(float, bound[1:-1].split(",") if bound[0] == "["
                        else (bound.split()[1], "inf"))
        strict = bound.startswith("> ")

        def fault(value) -> Optional[str]:  # the words after "must" that ``value`` breaks
            if not isinstance(value, accepted) or isinstance(value, bool) != (bool in kinds):
                return f"be of type {' or '.join(k.__name__ for k in kinds)}, got {value!r}"
            if isinstance(value, float) and not math.isfinite(value):
                return None if nan_ok and math.isnan(value) else f"be finite, got {value}"
            if value is None or (value > low if strict else value >= low) and value <= high:
                return None
            return f"lie in {bound}" if bound[0] == "[" else f"be {bound}"
        return fault

    hints = get_type_hints(cls)
    bound_of = {name: bound for bound, names in bounds.items() for name in names.split()}
    rules = {f.name: rule(hints[f.name], f.default, bound_of.get(f.name, "[-inf, inf]"))
             for f in fields(cls)}

    def check(values: dict) -> None:
        for name, value in values.items():
            if broken := rules[name](value):
                raise ValueError(f"{name} must {broken}")
    return check
