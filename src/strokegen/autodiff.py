"""Dense-tensor kernel with reverse-mode automatic differentiation.

Covers exactly the operations the encoder needs: matmul (2-d and stacked
3-d), elementwise arithmetic, ReLU, masked softmax, layer normalization,
embedding lookup and cross-entropy, plus two fused nodes that the encoder
uses in place of compositions of those ops: ``feed_forward`` (matmul, bias,
ReLU, matmul, bias) and ``attention`` (scaled q @ k^T, masked softmax, @ v).
Each fused node is one tape node with a hand-written backward; the public
ops stay as its reference.

Every op output is checked for NaN/Inf; a violation raises NonFiniteError,
naming the op and the output shape, instead of propagating. The fused nodes
also check the one intermediate whose non-finite values their output would
hide: the pre-activation ``x @ w1 + b1`` of ``feed_forward`` (ReLU maps -inf
to 0) and the scaled scores of ``attention`` before the mask bias (exp maps
-inf to 0).

Gradient ownership: a backward hands its gradient arrays to ``_accumulate``,
which stores the first one as the tensor's ``.grad`` as is and rebinds on
later writes (``grad = grad + g``). Gradients therefore alias one another
(``add`` gives the same array to both operands, ``reshape`` a view of its
own), so no backward writes in place into an array it did not allocate, and
callers treat ``.grad`` as read-only.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np


class NonFiniteError(ArithmeticError):
    """A tensor operation produced NaN or Inf."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Skip tape recording inside the block (evaluation and sampling)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        return self.data

    def backward(self):
        backward(self)

    def __repr__(self):
        return (f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, "
                f"requires_grad={self.requires_grad})")

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def _check_finite(arr: np.ndarray, op: str, what: str = "output"):
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values in its {what} "
                             f"of shape {arr.shape}")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    # every backward is a closure defined inside its op: "matmul.<locals>.grad_fn"
    _check_finite(data, backward_fn.__qualname__.partition(".")[0])
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._backward_fn = backward_fn
    else:
        out._parents = ()
        out._backward_fn = None
    return out


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if g.dtype != t.data.dtype:
        g = g.astype(t.data.dtype)
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(loss: Tensor):
    """Reverse-topological gradient accumulation from a scalar loss."""
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim not in (2, 3) or b.data.ndim != a.data.ndim:
        raise ValueError(f"matmul needs matching 2-d or 3-d operands, got "
                         f"{a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul inner extents differ: "
                         f"{a.data.shape} @ {b.data.shape}")
    if a.data.ndim == 3 and a.data.shape[0] != b.data.shape[0]:
        raise ValueError("stacked matmul needs equal leading extents")
    out_data = a.data @ b.data

    def grad_fn(g):
        _accumulate(a, g @ np.swapaxes(b.data, -1, -2))
        _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

    return _make(out_data, (a, b), grad_fn)


def add(a: Tensor, b) -> Tensor:
    a = _as_tensor(a)
    if isinstance(b, Tensor):
        out_data = a.data + b.data

        def grad_fn(g):
            _accumulate(a, _unbroadcast(g, a.data.shape))
            _accumulate(b, _unbroadcast(g, b.data.shape))

        return _make(out_data, (a, b), grad_fn)

    const = np.asarray(b, dtype=a.data.dtype)

    def grad_fn_const(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))

    return _make(a.data + const, (a,), grad_fn_const)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, mul(b, -1.0))


def mul(a: Tensor, b) -> Tensor:
    a = _as_tensor(a)
    if isinstance(b, Tensor):
        out_data = a.data * b.data

        def grad_fn(g):
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

        return _make(out_data, (a, b), grad_fn)

    const = np.asarray(b, dtype=a.data.dtype)

    def grad_fn_const(g):
        _accumulate(a, _unbroadcast(g * const, a.data.shape))

    return _make(a.data * const, (a,), grad_fn_const)


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out_data = np.maximum(x.data, 0.0)

    def grad_fn(g):
        _accumulate(x, g * (x.data > 0.0))

    return _make(out_data, (x,), grad_fn)


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(shape)
    out_data = x.data.reshape(shape)

    def grad_fn(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _make(out_data, (x,), grad_fn)


def transpose(x: Tensor, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out_data = np.transpose(x.data, axes)

    def grad_fn(g):
        _accumulate(x, np.transpose(g, inverse))

    # transposed views are fine to keep; ops downstream copy as needed
    return _make(np.ascontiguousarray(out_data), (x,), grad_fn)


def reduce_sum(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out_data = np.asarray(x.data.sum())

    def grad_fn(g):
        _accumulate(x, np.full(x.data.shape, g, dtype=x.data.dtype))

    return _make(out_data, (x,), grad_fn)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: ids of any shape index the first axis of the table."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError("token ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError(
            f"token id out of range [0, {table.data.shape[0]})"
        )
    out_data = table.data[ids]

    def grad_fn(g):
        if not table.requires_grad:
            return
        rows = np.zeros_like(table.data)
        np.add.at(rows, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        _accumulate(table, rows)

    return _make(out_data, (table,), grad_fn)


def softmax(x: Tensor, axis: int = -1, mask: np.ndarray | None = None) -> Tensor:
    """Max-subtracted softmax; masked-out entries get probability exactly 0.

    ``mask`` is a boolean array broadcastable to x (True = allowed). Every
    position must keep at least one allowed entry along ``axis``.
    """
    x = _as_tensor(x)
    z = x.data
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), z.shape)
        z = np.where(mask, z, -np.inf)
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        _accumulate(x, out_data * (g - dot))

    return _make(out_data, (x,), grad_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.data.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = gain.data * xhat + bias.data

    def grad_fn(g):
        dxhat = g * gain.data
        term = (d * dxhat
                - dxhat.sum(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
        _accumulate(x, inv / d * term)
        lead = tuple(range(g.ndim - gain.data.ndim))
        _accumulate(gain, (g * xhat).sum(axis=lead))
        _accumulate(bias, g.sum(axis=lead))

    return _make(out_data, (x, gain, bias), grad_fn)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-softmax probability of the target ids.

    logits: [N, V]; targets: int array [N] with every id < V.
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise ValueError("cross_entropy expects [batch, vocab] logits")
    n, v = logits.data.shape
    targets = np.asarray(targets)
    if targets.shape != (n,):
        raise ValueError(f"targets must have shape ({n},)")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ValueError(f"target id out of range [0, {v})")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    denom = e.sum(axis=1)
    rows = np.arange(n)
    out_data = np.asarray((np.log(denom) - z[rows, targets]).mean())

    def grad_fn(g):
        p = e / denom[:, None]
        p[rows, targets] -= 1.0
        p *= g / n
        _accumulate(logits, p)

    return _make(out_data, (logits,), grad_fn)


# ---------------------------------------------------------------------------
# Fused nodes
# ---------------------------------------------------------------------------

def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
                 b2: Tensor) -> Tensor:
    """Position-wise feed-forward block relu(x @ w1 + b1) @ w2 + b2.

    One tape node; equal to the composition of matmul, add, relu, matmul and
    add. x: [N, d]; w1: [d, ff]; b1: [ff]; w2: [ff, d_out]; b2: [d_out].
    """
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    if (x.data.ndim != 2 or w1.data.ndim != 2 or w2.data.ndim != 2
            or w1.data.shape[0] != x.data.shape[1]
            or b1.data.shape != w1.data.shape[1:]
            or w2.data.shape[0] != w1.data.shape[1]
            or b2.data.shape != w2.data.shape[1:]):
        raise ValueError(
            f"feed_forward shapes do not chain: x {x.data.shape}, "
            f"w1 {w1.data.shape}, b1 {b1.data.shape}, w2 {w2.data.shape}, "
            f"b2 {b2.data.shape}")
    hidden = x.data @ w1.data
    hidden += b1.data
    _check_finite(hidden, "feed_forward", "pre-activation x @ w1 + b1")
    np.maximum(hidden, 0.0, out=hidden)
    out_data = hidden @ w2.data
    out_data += b2.data

    def grad_fn(g):
        _accumulate(b2, g.sum(axis=0))
        _accumulate(w2, hidden.T @ g)
        dpre = g @ w2.data.T
        dpre *= hidden > 0.0
        _accumulate(b1, dpre.sum(axis=0))
        _accumulate(w1, x.data.T @ dpre)
        _accumulate(x, dpre @ w1.data.T)

    return _make(out_data, (x, w1, b1, w2, b2), grad_fn)


def attention(q: Tensor, k: Tensor, v: Tensor,
              bias: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention softmax(q @ k^T / sqrt(hd) + bias) @ v.

    One tape node; equal to matmul(softmax(mul(matmul(q, transpose(k)),
    1 / sqrt(hd)), mask=bias == 0), v). q, k, v: [n, L, hd]. ``bias`` is an
    additive [L, L] array, 0 where position i may attend to j and -inf where
    it may not, or None for no mask. A row with no allowed entry makes the
    output non-finite, which raises NonFiniteError.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if (q.data.ndim != 3 or k.data.shape != q.data.shape
            or v.data.ndim != 3 or v.data.shape[:2] != k.data.shape[:2]):
        raise ValueError(f"attention needs q and k of one [n, L, hd] shape and "
                         f"v of [n, L, *], got {q.data.shape}, {k.data.shape}, "
                         f"{v.data.shape}")
    scale = np.asarray(1.0 / math.sqrt(q.data.shape[-1]), dtype=q.data.dtype)
    p = q.data @ np.swapaxes(k.data, -1, -2)
    p *= scale
    _check_finite(p, "attention", "scaled scores q @ k^T / sqrt(hd)")
    if bias is not None:
        p += bias
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out_data = p @ v.data

    def grad_fn(g):
        _accumulate(v, np.swapaxes(p, -1, -2) @ g)
        ds = g @ np.swapaxes(v.data, -1, -2)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        _accumulate(q, ds @ k.data)
        _accumulate(k, np.swapaxes(ds, -1, -2) @ q.data)

    return _make(out_data, (q, k, v), grad_fn)
