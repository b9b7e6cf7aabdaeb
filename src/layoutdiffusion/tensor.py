"""Dense tensors with reverse-mode gradients for the denoiser graph.

This is a deliberately small tape: it covers exactly the operations the
denoiser and its loss need (affine maps as one ``matmul`` node with its
bias, concatenation, row gather and scatter between packed and padded
tokens, residual adds, layer normalization, multi-head self-attention as
one ``attention`` node, GELU/ReLU feedforward, squared-error reduction).
``masked_softmax`` and ``transpose`` remain as the parts that
``attention`` fuses, to check it against.  It is not a general autodiff
system.

Data is never mutated in place; every operation returns a new tensor, and
takes a plain array wherever it takes a tensor.  The package holds its
parameters as name -> array dicts: only a training step wraps them as
gradient-tracked leaves, and :func:`collect_grads` reads the leaves'
gradients back as arrays.  Gradients accumulate on leaves after calling
:func:`backward` on a scalar.
Gradients, like data, are never mutated in place either, so a gradient may
share memory with another tensor's gradient and is stored without a copy.

A graph is differentiated once.  :func:`backward` releases each interior node
as soon as it has passed its gradient on: its backward closure, its gradient
and its links to its parents go, so the arrays that only the backward pass
needed are freed while the pass runs rather than when the step returns.
Leaves keep their gradients, and interior nodes keep their data.  A second
:func:`backward` through a released node raises :class:`NumericError`.
"""
from __future__ import annotations

import numpy as np

from .exceptions import NumericError


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; everything routes through the module-level ops.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _coerce(a, b):
    """Wrap operands, keeping Python-number scalars in the tensor's dtype.

    Without this a bare float would become a float64 array and silently
    upcast float32 graphs.
    """
    if isinstance(a, Tensor) and isinstance(b, (int, float)) and a.data.dtype.kind == "f":
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if isinstance(b, Tensor) and isinstance(a, (int, float)) and b.data.dtype.kind == "f":
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return as_tensor(a), as_tensor(b)


def _result(data, parents, backward_fn):
    needs = any(p.requires_grad for p in parents)
    if not needs:
        return Tensor(data)
    return Tensor(data, requires_grad=True, _parents=parents, _backward=backward_fn)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _accumulate(t: Tensor, g: np.ndarray):
    if t.grad is None:
        t.grad = np.asarray(g)
    else:
        t.grad = t.grad + g


def _released(g):
    raise NumericError("this graph was already differentiated: its interior nodes are "
                       "released, so build the loss again")


def backward(loss: Tensor):
    """Reverse-mode sweep from a scalar loss; fills ``.grad`` on leaves and releases
    every interior node it passes (see the module docstring).

    A loss that does not depend on any gradient-tracked tensor is legal
    (gradients are simply zero everywhere); a non-scalar loss is not.
    """
    if not isinstance(loss, Tensor):
        raise NumericError("backward expects a Tensor produced by this graph")
    if loss.data.shape != ():
        raise NumericError(f"backward expects a scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones((), dtype=loss.data.dtype)
    # Popped in reverse topological order, a node has every consumer's gradient; once it
    # has passed its own on, nothing here holds it or what its closure kept alive.
    while order:
        node = order.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node._backward, node.grad, node._parents = _released, None, ()


# ---------------------------------------------------------------------------
# primitive operations


def add(a, b) -> Tensor:
    a, b = _coerce(a, b)
    out_data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _result(out_data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _coerce(a, b)
    out_data = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _result(out_data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _coerce(a, b)
    out_data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(out_data, (a, b), bwd)


def matmul(a, b, bias=None) -> Tensor:
    """Matrix product with leading batch dimensions on either operand, plus an optional
    ``bias`` broadcast over the product: an affine map as one tape node."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data
    parents = (a, b)
    if bias is not None:
        bias = as_tensor(bias)
        out_data += bias.data  # the fresh product, so no other tensor sees the write
        parents = (a, b, bias)

    def bwd(g):
        if bias is not None and bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias.data.shape))
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            _accumulate(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            _accumulate(b, _unbroadcast(gb, b.data.shape))

    return _result(out_data, parents, bwd)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(a.data.shape))

    return _result(out_data, (a,), bwd)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    out_data = np.transpose(a.data, axes)
    inverse = np.argsort(axes)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, np.transpose(g, inverse))

    return _result(out_data, (a,), bwd)


def concat(a, b, axis=-1) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.concatenate([a.data, b.data], axis=axis)
    split_at = a.data.shape[axis]

    def bwd(g):
        ga, gb = np.split(g, [split_at], axis=axis)
        if a.requires_grad:
            _accumulate(a, ga)
        if b.requires_grad:
            _accumulate(b, gb)

    return _result(out_data, (a, b), bwd)


def take_rows(a, index) -> Tensor:
    """Rows ``a[index]`` along the first axis; ``index`` holds distinct row numbers."""
    a = as_tensor(a)
    index = np.asarray(index)
    out_data = a.data[index]

    def bwd(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            ga[index] = g  # distinct rows, so assignment needs no np.add.at
            _accumulate(a, ga)

    return _result(out_data, (a,), bwd)


def put_rows(a, index, rows: int) -> Tensor:
    """``rows`` zero rows holding the rows of ``a`` at ``index``; inverse of take_rows."""
    a = as_tensor(a)
    index = np.asarray(index)
    out_data = np.zeros((rows,) + a.data.shape[1:], dtype=a.data.dtype)
    out_data[index] = a.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g[index])

    return _result(out_data, (a,), bwd)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if not a.requires_grad:
            return
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _result(out_data, (a,), bwd)


def embedding(table, ids) -> Tensor:
    """Row lookup ``table[ids]`` with scatter-add gradient into the table."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    out_data = table.data[ids]

    def bwd(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))
            _accumulate(table, gt)

    return _result(out_data, (table,), bwd)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * (a.data > 0))

    return _result(out_data, (a,), bwd)


_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def gelu(a) -> Tensor:
    """GELU in its tanh form; smooth, with a closed-form derivative."""
    a = as_tensor(a)
    x = a.data
    # ``x**3`` would go through libm pow, several times slower.  The backward computes
    # ``x * x`` again rather than keep a third array of this size on the tape.
    inner = _GELU_C * (x + _GELU_A * (x * x) * x)
    th = np.tanh(inner)
    out_data = 0.5 * x * (1.0 + th)

    def bwd(g):
        if a.requires_grad:
            sech2 = 1.0 - th * th
            local = 0.5 * (1.0 + th) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3.0 * _GELU_A * (x * x))
            _accumulate(a, g * local)

    return _result(out_data, (a,), bwd)


def layer_norm(a, scale, shift, eps=1e-12) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    The tiny eps keeps the pre-affine output variance within 1e-6 of one
    for non-degenerate inputs while still guarding the zero-variance case.
    """
    a, scale, shift = as_tensor(a), as_tensor(scale), as_tensor(shift)
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    out_data = y * scale.data + shift.data

    def bwd(g):
        if shift.requires_grad:
            _accumulate(shift, _unbroadcast(g, shift.data.shape))
        if scale.requires_grad:
            _accumulate(scale, _unbroadcast(g * y, scale.data.shape))
        if a.requires_grad:
            dy = g * scale.data
            m1 = dy.mean(axis=-1, keepdims=True)
            m2 = (dy * y).mean(axis=-1, keepdims=True)
            _accumulate(a, inv * (dy - m1 - y * m2))

    return _result(out_data, (a, scale, shift), bwd)


def _softmax(logits: np.ndarray, key_mask) -> np.ndarray:
    """Masked softmax over the last axis, computed in one fresh array."""
    key_mask = np.broadcast_to(np.asarray(key_mask, dtype=bool), logits.shape)
    p = np.where(key_mask, logits, -np.inf)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def _softmax_grad(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The logits' gradient, given the output's gradient ``g`` and the softmax ``p``."""
    out = g - (g * p).sum(axis=-1, keepdims=True)
    out *= p
    return out


def masked_softmax(logits, key_mask) -> Tensor:
    """Softmax over the last axis with masked keys excluded.

    ``key_mask`` broadcasts against ``logits``; masked entries get -inf
    logits before the softmax, so their probability (and gradient) is
    exactly zero.  Every row must keep at least one valid key.
    """
    logits = as_tensor(logits)
    p = _softmax(logits.data, key_mask)

    def bwd(g):
        if logits.requires_grad:
            _accumulate(logits, _softmax_grad(g, p))

    return _result(p, (logits,), bwd)


def attention(q, k, v, mask, heads: int) -> Tensor:
    """Multi-head self-attention over packed tokens, as one tape node.

    ``q``, ``k`` and ``v`` are [T, d]: the valid slots of the [B, N] boolean
    ``mask`` in row-major order.  Each is scattered into a zero-padded
    head-major [B, H, N, d / H] array; every query attends to the valid keys
    of its own row through ``masked_softmax``'s arithmetic, and the context
    comes back as [T, d].  Backward keeps only the three padded arrays and
    the attention weights, and rebuilds the rest.  Every row of ``mask``
    needs at least one valid slot: an empty row's softmax warns of an invalid
    value and leaves that row's context all zero.  ``denoise`` refuses such a
    mask before any op runs.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    mask = np.asarray(mask, dtype=bool)
    rows, slots = np.nonzero(mask)
    b, n = mask.shape
    t, d = q.data.shape
    hd = d // heads

    def pad(x):
        out = np.zeros((b, heads, n, hd), dtype=x.dtype)
        out[rows, :, slots] = x.reshape(t, heads, hd)
        return out

    def unpad(x):
        return x[rows, :, slots].reshape(t, d)

    qp, kp, vp = pad(q.data), pad(k.data), pad(v.data)
    scale = float(1.0 / np.sqrt(hd))  # a Python float keeps a float32 graph in float32
    logits = qp @ np.swapaxes(kp, -1, -2)
    logits *= scale
    p = _softmax(logits, mask[:, None, None, :])
    out_data = unpad(p @ vp)

    def bwd(g):
        gc = pad(g)
        gl = _softmax_grad(gc @ np.swapaxes(vp, -1, -2), p)
        gl *= scale
        if q.requires_grad:
            _accumulate(q, unpad(gl @ kp))
        if k.requires_grad:
            _accumulate(k, unpad(np.swapaxes(np.swapaxes(qp, -1, -2) @ gl, -1, -2)))
        if v.requires_grad:
            _accumulate(v, unpad(np.swapaxes(p, -1, -2) @ gc))

    return _result(out_data, (q, k, v), bwd)


def collect_grads(loss: Tensor, leaves: dict) -> dict:
    """Run backward from ``loss`` and return the gradient array of each named leaf.

    The leaves' gradients are cleared first; leaves the loss never touched
    get explicit zero gradients.
    """
    for t in leaves.values():
        t.grad = None
    backward(loss)
    grads = {}
    for name, t in leaves.items():
        if t.grad is None:
            grads[name] = np.zeros_like(t.data)
        else:
            grads[name] = t.grad
        if not np.all(np.isfinite(grads[name])):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
    return grads
