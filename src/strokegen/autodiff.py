"""Dense-tensor kernel with reverse-mode automatic differentiation.

Public ops: matmul (``[..., n] @ [n, m]`` and stacked 3-d), elementwise
arithmetic, ReLU, reshape, transpose, masked softmax, layer normalization,
embedding lookup and cross-entropy over ``[..., V]`` logits. The encoder
runs on fused nodes, each one tape node with a hand-written backward, and
the public ops stay as their reference:

- ``multi_head_attention``: one matmul for q, k and v, head split by views,
  masked softmax(q @ k^T / sqrt(hd) + bias) @ v, concatenation and ``@ wo``.
  1/sqrt(hd) sits in the query columns of the q, k, v weight, and the
  softmax sums divide the context after the value product; only the
  backward normalises the weights. Checks the scaled scores before the mask
  bias (exp maps -inf to 0). For sampling without a tape, its ``last_only``
  form queries from the last position only, and its ``cache`` form writes
  the keys and values of the new positions into a buffer that already holds
  the earlier ones and attends over all of them.
- ``add_layer_norm``: residual connection and normalization, LN(x + y).
  Checks the per-position variance (an overflow to inf zeroes the
  normalized values, leaving the finite bias).
- ``feed_forward``: relu(x @ w1 + b1) @ w2 + b2 over ``[..., d]``. Checks
  the pre-activation (ReLU maps -inf to 0).

``cross_entropy`` takes ``[..., V]`` logits or, in training and evaluation,
the pair ``(h, w)`` of final hidden states and output weight: the output
head is then computed inside the loss, one node with no logits node. It
works in cache-sized row blocks on one buffer it owns, ``[N, V]`` with a
tape and one block without, so evaluation never holds the logits array.

Finite checks: by default every op checks its output, and the fused nodes
and the pair-form loss the intermediates named above, for NaN/Inf; a
violation raises NonFiniteError, naming the op, the output or checked
intermediate and its shape, instead of propagating. ``model.encoder_forward``
and ``training.batch_loss`` run through ``checked_once``, which keeps one
rule: the forward runs with the op-output checks off and its result is
checked once; on a NonFiniteError or a non-finite result it runs again with
every op checked, which raises the per-op error, and the per-op warnings
under the caller's errstate. The forward changes no state unless its result
is finite. A NaN or an infinity in the encoder reaches that result unless an
op hides it, in one of four places: ReLU and exp map -inf to 0 in the
feed-forward pre-activation, the attention scores and the pair-form logits,
and an overflowing layer-norm variance zeroes the normalized values. Those
keep their check with the op checks off: the first three test their array's
min, which is NaN or -inf where either is present (a +inf passes through
ReLU and the max-subtracted exp as +inf or NaN), and the variance, one value
per position, is scanned in full.

Gradient ownership: a backward hands its gradient arrays to ``_accumulate``,
which stores the first one as the tensor's ``.grad`` as is and rebinds on
later writes (``grad = grad + g``). Gradients therefore alias one another
(``add`` gives the same array to both operands, ``reshape`` a view of its
own), so no backward writes in place into an array it did not allocate, and
callers treat ``.grad`` as read-only. ``backward`` releases a node's
gradient once the node's backward has consumed it, so after the pass only
the root and the leaves (parameters and inputs) hold one: callers read
``.grad`` on leaves only. Two nodes turn an array they own into a gradient,
so their backward runs once per tape, and a second ``backward()`` over it
raises RuntimeError: ``cross_entropy`` its buffer into the logits' gradient,
``feed_forward`` its hidden activations into the pre-activation's. Every
other array a node saves lives as long as the tape.
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


def grad_enabled() -> bool:
    """Whether operations record a tape (False inside ``no_grad``)."""
    return _grad_enabled


_op_checks = True  # _make checks every op output; off in checked_once's run


def checked_once(run) -> Tensor:
    """``run()``, a forward returning a Tensor, with the op checks off and
    its result checked once.

    The one rule: ``run()`` first runs with ``_op_checks`` off, under
    ``np.errstate(over="ignore", invalid="ignore")``. On a NonFiniteError or
    a non-finite result it runs once more with every op checked: that replay
    is the per-op path, so it raises its error and, under the caller's
    errstate, its warnings. ``run()`` must change no state unless its result
    is finite. A call made while the op checks are off runs ``run()`` as it
    is, and the outer call checks.
    """
    global _op_checks
    if not _op_checks:
        return run()
    _op_checks = False
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = run()
        if np.isfinite(out.data).all():
            return out
    except NonFiniteError:
        pass
    finally:
        _op_checks = True
    return run()


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

    def backward(self):
        backward(self)

    def __repr__(self):
        return (f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, "
                f"requires_grad={self.requires_grad})")


def _check_finite(arr: np.ndarray, op: str, what: str = "output",
                  shape: tuple[int, ...] | None = None):
    """Raise NonFiniteError on NaN/Inf in ``arr``, a block of ``shape`` if given."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values in its {what} "
                             f"of shape {arr.shape if shape is None else shape}")


def _check_masked(arr: np.ndarray, op: str, what: str,
                  shape: tuple[int, ...] | None = None):
    """``_check_finite`` of an array whose -inf the next step maps to 0; with
    the op checks off only if its min, NaN or -inf where either is present,
    is not finite."""
    if _op_checks or not arr.size or not np.isfinite(arr.min()):
        _check_finite(arr, op, what, shape)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    if _op_checks:
        # every backward is a closure defined inside its op:
        # "matmul.<locals>.grad_fn"
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
            if node is not loss:  # spent: only the root and leaves keep one
                node.grad = None


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for ``[..., n] @ [n, m]`` or stacked ``[s, n, k] @ [s, k, m]``.

    The first form projects every position of a batch through one weight
    matrix as one product over the flattened leading axes.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim not in (2, 3) or (
            b.data.ndim == 3 and a.data.ndim != 3):
        raise ValueError(f"matmul needs [..., n] @ [n, m] or stacked 3-d "
                         f"operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul inner extents differ: "
                         f"{a.data.shape} @ {b.data.shape}")
    if b.data.ndim == 3:
        if a.data.shape[0] != b.data.shape[0]:
            raise ValueError("stacked matmul needs equal leading extents")

        def grad_stacked(g):
            _accumulate(a, g @ np.swapaxes(b.data, -1, -2))
            _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

        return _make(a.data @ b.data, (a, b), grad_stacked)

    n, m = b.data.shape
    a2 = a.data.reshape(-1, n)
    out_data = (a2 @ b.data).reshape(a.data.shape[:-1] + (m,))

    def grad_fn(g):
        g2 = g.reshape(-1, m)
        _accumulate(a, (g2 @ b.data.T).reshape(a.data.shape))
        _accumulate(b, a2.T @ g2)

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

    # contiguous: a copy of x.data unless the axes keep its order
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


# values per row block of cross_entropy: a float32 block (512 KB) stays in a
# core's L2 cache through the shift, exp, sum and gradient passes
_CE_BLOCK_VALUES = 1 << 17


def cross_entropy(logits, targets: np.ndarray) -> Tensor:
    """Mean negative log-softmax probability of the target ids.

    logits: a [..., V] Tensor, or the pair ``(h, w)`` of [..., d] final
    hidden states and the [d, V] output weight, standing for ``matmul(h, w)``
    as one tape node with no logits node (cut cross-entropy, Wijmans et al.,
    arXiv:2411.09009). targets: int array of the leading shape with every
    id < V.

    Rows run in balanced blocks of about ``_CE_BLOCK_VALUES`` values. With a
    tape, one [N, V] buffer the node owns holds the logits (the pair form
    writes ``h @ w`` there with one gemm), then their shifted exponentials,
    and becomes the gradient in the backward, which for the pair form runs
    the two gemms of matmul's backward; loss and gradients are bitwise those
    of ``cross_entropy(matmul(h, w), targets)``. Without a tape, one
    [rows, V] scratch buffer takes each block in turn (the pair form's
    ``h_block @ w`` included), so no [N, V] array is made. The pair form
    checks the logits ``h @ w`` for NaN/Inf.
    """
    pair = isinstance(logits, tuple)
    if pair:
        h, w = (_as_tensor(t) for t in logits)
        if (h.data.ndim < 2 or w.data.ndim != 2
                or h.data.shape[-1] != w.data.shape[0]):
            raise ValueError(f"cross_entropy expects (h, w) of shapes [..., d] "
                             f"and [d, V], got {h.data.shape} and "
                             f"{w.data.shape}")
        parents = (h, w)
        v = w.data.shape[1]
        shape = h.data.shape[:-1] + (v,)
        h2 = h.data.reshape(-1, h.data.shape[-1])
        dtype = np.result_type(h.data, w.data)
    else:
        logits = _as_tensor(logits)
        if logits.data.ndim < 2:
            raise ValueError("cross_entropy expects [..., vocab] logits")
        parents = (logits,)
        shape, v = logits.data.shape, logits.data.shape[-1]
        z = logits.data.reshape(-1, v)
        dtype = z.dtype
    targets = np.asarray(targets)
    if targets.shape != shape[:-1]:
        raise ValueError(f"targets must have shape {shape[:-1]}, "
                         f"got {targets.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ValueError(f"target id out of range [0, {v})")

    targets = targets.reshape(-1)
    n = targets.size
    taped = _grad_enabled and any(p.requires_grad for p in parents)
    # block sizes differ by at most one row: a short remainder block could
    # take a BLAS small-matrix kernel that rounds h @ w differently
    count = max(1, -(-n // max(1, _CE_BLOCK_VALUES // v)))
    edges = [n * i // count for i in range(count + 1)]
    rows = np.arange(-(-n // count))
    if taped:
        buf = h2 @ w.data if pair else np.empty((n, v), dtype=dtype)
    else:
        buf = np.empty((len(rows), v), dtype=dtype)
    denom = np.empty(n, dtype=dtype)
    row_loss = np.empty(n, dtype=dtype)
    for start, stop in zip(edges, edges[1:]):
        zb = eb = buf[start: stop] if taped else buf[: stop - start]
        if pair:
            if not taped:
                np.matmul(h2[start: stop], w.data, out=eb)
            _check_masked(eb, "cross_entropy", "logits h @ w", shape)
        else:
            zb = z[start: stop]
        np.subtract(zb, zb.max(axis=1, keepdims=True), out=eb)
        picked = eb[rows[: stop - start], targets[start: stop]]
        np.exp(eb, out=eb)
        denom[start: stop] = eb.sum(axis=1)
        row_loss[start: stop] = np.log(denom[start: stop]) - picked
    out_data = np.asarray(row_loss.mean())

    def grad_fn(g):
        nonlocal buf
        if buf is None:
            raise RuntimeError("cross_entropy: backward already ran; its "
                               "buffer is now the logits' gradient")
        p, buf = buf, None  # softmax, then the gradient, in the buffer it owns
        scale = g / n
        for start, stop in zip(edges, edges[1:]):
            pb = p[start: stop]
            pb /= denom[start: stop, None]
            pb[rows[: stop - start], targets[start: stop]] -= 1.0
            pb *= scale
        if pair:
            _accumulate(h, (p @ w.data.T).reshape(h.data.shape))
            _accumulate(w, h2.T @ p)
        else:
            _accumulate(logits, p.reshape(shape))

    return _make(out_data, parents, grad_fn)


# ---------------------------------------------------------------------------
# Fused nodes
# ---------------------------------------------------------------------------

def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
                 b2: Tensor) -> Tensor:
    """Position-wise feed-forward block relu(x @ w1 + b1) @ w2 + b2.

    One tape node; equal to the composition of matmul, add, relu, matmul and
    add. x: [..., d]; w1: [d, ff]; b1: [ff]; w2: [ff, d_out]; b2: [d_out].
    The backward writes the pre-activation's gradient into the [N, ff]
    hidden array after reading w2's gradient and the ReLU mask from it, so
    it runs once per tape.
    """
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    if (x.data.ndim < 1 or w1.data.ndim != 2 or w2.data.ndim != 2
            or w1.data.shape[0] != x.data.shape[-1]
            or b1.data.shape != w1.data.shape[1:]
            or w2.data.shape[0] != w1.data.shape[1]
            or b2.data.shape != w2.data.shape[1:]):
        raise ValueError(
            f"feed_forward shapes do not chain: x {x.data.shape}, "
            f"w1 {w1.data.shape}, b1 {b1.data.shape}, w2 {w2.data.shape}, "
            f"b2 {b2.data.shape}")
    x2 = x.data.reshape(-1, x.data.shape[-1])
    d_out = w2.data.shape[1]
    hidden = x2 @ w1.data
    hidden += b1.data
    _check_masked(hidden, "feed_forward", "pre-activation x @ w1 + b1")
    np.maximum(hidden, 0.0, out=hidden)
    out_data = hidden @ w2.data
    out_data += b2.data

    def grad_fn(g):
        nonlocal hidden
        if hidden is None:
            raise RuntimeError("feed_forward: backward already ran; its "
                               "hidden array is now the pre-activation's "
                               "gradient")
        g = g.reshape(-1, d_out)
        _accumulate(b2, g.sum(axis=0))
        _accumulate(w2, hidden.T @ g)
        mask = hidden > 0.0
        dpre, hidden = hidden, None  # g @ w2^T goes into the hidden array
        np.matmul(g, w2.data.T, out=dpre)
        dpre *= mask
        _accumulate(b1, dpre.sum(axis=0))
        _accumulate(w1, x2.T @ dpre)
        _accumulate(x, (dpre @ w1.data.T).reshape(x.data.shape))

    return _make(out_data.reshape(x.data.shape[:-1] + (d_out,)),
                 (x, w1, b1, w2, b2), grad_fn)


def add_layer_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor,
                   eps: float = 1e-5) -> Tensor:
    """Residual connection and normalization ``layer_norm(x + y)`` as one node.

    x, y: [..., d] of one shape; gain, bias: [d]. The per-position variance
    is checked, in full also with the op checks off: when it overflows to
    +inf, which its min need not show, the normalized values become 0 and
    the output would be the finite bias.
    """
    x, y, gain, bias = (_as_tensor(t) for t in (x, y, gain, bias))
    if (x.data.shape != y.data.shape or x.data.ndim < 1
            or gain.data.shape != x.data.shape[-1:]
            or bias.data.shape != gain.data.shape):
        raise ValueError(f"add_layer_norm needs x and y of one [..., d] shape "
                         f"and [d] gain and bias, got {x.data.shape}, "
                         f"{y.data.shape}, {gain.data.shape}, {bias.data.shape}")
    d = x.data.shape[-1]
    xhat = x.data + y.data
    # np.add.reduce / d is ndarray.mean without its Python wrapper, bitwise
    xhat -= np.add.reduce(xhat, axis=-1, keepdims=True) / d
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d
    _check_finite(var, "add_layer_norm", "variance of x + y")
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out_data = gain.data * xhat + bias.data

    def grad_fn(g):
        dxhat = g * gain.data
        term = (d * dxhat
                - dxhat.sum(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
        dx = inv / d * term
        _accumulate(x, dx)
        _accumulate(y, dx)
        lead = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=lead))
        _accumulate(bias, g.sum(axis=lead))

    return _make(out_data, (x, y, gain, bias), grad_fn)


def multi_head_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
                         wo: Tensor, n_heads: int,
                         bias: np.ndarray | None, *,
                         last_only: bool = False,
                         cache: tuple[np.ndarray, int] | None = None) -> Tensor:
    """Masked multi-head self-attention sub-layer as one tape node.

    Per head h of width hd = d / n_heads: softmax(q_h @ k_h^T / sqrt(hd) +
    bias) @ v_h with q, k, v = x @ wq, x @ wk, x @ wv; the heads are
    concatenated and projected by wo. x: [..., L, d]; wq, wk, wv, wo: [d, d].
    ``bias`` is an additive [L, L] array, 0 where position i may attend to j
    and -inf where it may not, or None for no mask. A row with no allowed
    entry makes the output non-finite, which raises NonFiniteError. The
    caller applies residual connection and norm.

    q = x @ (wq / sqrt(hd)), so the scores k @ q^T come out scaled. The
    forward keeps the exponentials unnormalised and divides the context by
    their sums (Dao et al., arXiv:2205.14135); the first backward turns them
    into the weights in place, and a second one reuses those.

    With ``last_only`` only the last position queries: keys and values still
    cover all L positions, the bias row of the last position applies and the
    output is [..., 1, d].

    ``cache = (buffer, start)`` keeps the keys and values of a growing window
    for sampling: ``buffer`` is [2, b, n_heads, capacity, hd] (keys, then
    values) and already holds positions [0, start), and x holds the
    positions from ``start`` on. Their keys and values are written into the
    buffer, and the queries attend over every position up to their last;
    ``bias`` is then [start + L, start + L], or None for one new position,
    which may attend to all of them.

    Both forms record no tape, so they raise ValueError while gradients are
    enabled (use them under ``no_grad``).
    """
    x, wq, wk, wv, wo = (_as_tensor(t) for t in (x, wq, wk, wv, wo))
    if x.data.ndim < 2 or x.data.shape[-1] % n_heads:
        raise ValueError(f"multi_head_attention needs x of shape [..., L, d] "
                         f"with d divisible by {n_heads} heads, got "
                         f"{x.data.shape}")
    *lead, l, d = x.data.shape
    if any(w.data.shape != (d, d) for w in (wq, wk, wv, wo)):
        raise ValueError(f"multi_head_attention weights must be [{d}, {d}], "
                         f"got {[w.data.shape for w in (wq, wk, wv, wo)]}")
    if (last_only or cache is not None) and _grad_enabled:
        raise ValueError("multi_head_attention(last_only=True) and its cache "
                         "record no tape; call it under no_grad()")
    b, hd = math.prod(lead), d // n_heads
    lq = 1 if last_only else l  # query positions
    scale = 1.0 / math.sqrt(hd)
    x2 = x.data.reshape(b * l, d)
    # q comes out scaled, and so does k @ q^T
    w_qkv = np.concatenate((wq.data * scale, wk.data, wv.data), axis=1)
    # [b, l, 3, heads, hd] -> views q, k, v of [b, heads, l, hd]
    qkv = (x2 @ w_qkv).reshape(b, l, 3, n_heads, hd)
    q, k, v = qkv.transpose(2, 0, 3, 1, 4)
    keys = l  # key positions
    if cache is not None:
        buffer, start = cache
        keys = start + l
        buffer[:, :, :, start: keys] = qkv[:, :, 1:].transpose(2, 0, 3, 1, 4)
        k, v = buffer[:, :, :, :keys]
    if last_only:
        q = q[..., -1:, :]
    # scores key-major, a[..., j, i] for query i and key j: the softmax
    # reductions then run across rows, vectorised over the queries
    a = k @ np.swapaxes(q, -1, -2)
    _check_masked(a, "multi_head_attention",
                  "scaled scores q @ k^T / sqrt(hd)")
    if bias is not None:
        a += np.ascontiguousarray(bias[keys - lq:].T)
    a -= a.max(axis=-2, keepdims=True)
    np.exp(a, out=a)
    # the sums divide the [b, heads, lq, hd] context, not a
    sums = a.sum(axis=-2, keepdims=True)
    ctx = np.swapaxes(a, -1, -2) @ v
    ctx /= np.swapaxes(sums, -1, -2)
    ctx = ctx.transpose(0, 2, 1, 3).reshape(b * lq, d)
    out_data = (ctx @ wo.data).reshape(*lead, lq, d)
    normalised = False

    def grad_fn(g):
        nonlocal normalised
        if not normalised:  # the exponentials become the weights, once
            np.divide(a, sums, out=a)
            normalised = True
        g = g.reshape(b * l, d)
        _accumulate(wo, ctx.T @ g)
        dctx = (g @ wo.data.T).reshape(b, l, n_heads, hd).transpose(0, 2, 1, 3)
        dqkv = np.empty_like(qkv)
        dq, dk, dv = dqkv.transpose(2, 0, 3, 1, 4)
        np.matmul(a, dctx, out=dv)
        da = v @ np.swapaxes(dctx, -1, -2)
        da -= (da * a).sum(axis=-2, keepdims=True)
        da *= a
        np.matmul(np.swapaxes(da, -1, -2), k, out=dq)
        np.matmul(da, q, out=dk)
        dqkv = dqkv.reshape(b * l, 3 * d)
        dw = x2.T @ dqkv
        dw[:, :d] *= scale  # q = x @ (wq * scale)
        _accumulate(wq, dw[:, :d])
        _accumulate(wk, dw[:, d: 2 * d])
        _accumulate(wv, dw[:, 2 * d:])
        _accumulate(x, (dqkv @ w_qkv.T).reshape(x.data.shape))

    return _make(out_data, (x, wq, wk, wv, wo), grad_fn)
