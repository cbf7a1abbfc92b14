"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

A Tensor wraps a numpy array together with the links needed to replay the
computation backwards. Gradients are accumulated into ``Tensor.grad`` of the
leaves by ``backward``; calling ``backward`` twice without resetting grads
adds the contributions (additive contract).
"""

from __future__ import annotations

import numpy as np

EPS_NORM = 1e-8


class Tensor:
    """Node in a recorded computation. ``parents`` and ``_vjp`` are empty
    for leaves (constants and parameters)."""

    __slots__ = ("data", "grad", "parents", "_vjp", "name")

    def __init__(self, data, parents=(), vjp=None, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = tuple(parents)
        self._vjp = vjp  # out_grad -> tuple of parent grads
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, name={self.name!r})"

    # operator sugar; non-Tensor operands are treated as constants
    def __add__(self, other):
        return add(self, as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))

    def __getitem__(self, idx):
        return getitem(self, idx)


class Parameter(Tensor):
    """Trainable leaf tensor. Grad starts at zero so that parameters
    unreachable from a loss report exactly zero gradient."""

    def __init__(self, data, name=None):
        super().__init__(data, name=name)
        if not self.data.flags.c_contiguous:
            # the optimizer updates flat views of data
            self.data = self.data.copy()
        self.grad = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad[...] = 0.0


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


class ComputationRecord:
    """Topologically ordered list of the tensors reachable from a root,
    reconstructed from parent links."""

    def __init__(self, nodes):
        self.nodes = nodes

    @classmethod
    def trace(cls, root):
        order = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                stack.append((p, False))
        return cls(order)


def backward(loss, wrt=None):
    """Accumulate d(loss)/d(leaf) into ``grad`` of the leaves reachable
    from ``loss``. ``loss`` must be scalar.

    Only leaves (tensors without parents) receive gradient; intermediate
    nodes keep ``grad`` as it was. A leaf whose ``grad`` is ``None`` gets a
    fresh array, any other leaf is added to in place, so two calls without
    resetting grads add the contributions.

    ``wrt`` (an iterable of leaves) restricts the pass to those leaves:
    nodes from which none of them is reachable are not differentiated, and
    every other leaf's ``grad`` is left untouched. The gradients that do
    reach ``wrt`` are summed in the same order as without it, so they are
    bit-identical to a full pass.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    nodes = ComputationRecord.trace(loss).nodes
    if wrt is not None:
        # keep the nodes from which a leaf in wrt is reachable (parents
        # come before children in the record)
        live = {id(p) for p in wrt}
        for node in nodes:
            if any(id(p) in live for p in node.parents):
                live.add(id(node))
        nodes = [node for node in nodes if id(node) in live]
    adjoint = {id(loss): np.ones_like(loss.data)}
    for node in reversed(nodes):
        g = adjoint.get(id(node))
        if g is None or node._vjp is None:
            continue
        for parent, pg in zip(node.parents, node._vjp(g)):
            if pg is None:
                continue
            acc = adjoint.get(id(parent))
            adjoint[id(parent)] = pg if acc is None else acc + pg
    for node in nodes:
        g = adjoint.get(id(node))
        if g is None or node.parents:
            continue
        if node.grad is None:
            node.grad = np.array(g, dtype=np.float64)
        else:
            np.add(node.grad, g, out=node.grad)


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives


def add(a, b):
    return Tensor(a.data + b.data, (a, b),
                  lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b):
    return Tensor(a.data - b.data, (a, b),
                  lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b):
    return Tensor(a.data * b.data, (a, b),
                  lambda g: (_unbroadcast(g * b.data, a.shape),
                             _unbroadcast(g * a.data, b.shape)))


def div(a, b):
    return Tensor(a.data / b.data, (a, b),
                  lambda g: (_unbroadcast(g / b.data, a.shape),
                             _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def scale(a, c):
    c = float(c)
    return Tensor(a.data * c, (a,), lambda g: (g * c,))


def matmul(a, b):
    out = a.data @ b.data

    def vjp(g):
        if a.ndim == 1 and b.ndim == 1:
            return g * b.data, g * a.data
        ad = a.data if a.ndim > 1 else a.data[None, :]
        bd = b.data if b.ndim > 1 else b.data[:, None]
        gd = g
        if a.ndim == 1:
            gd = gd[..., None, :]
        if b.ndim == 1:
            gd = gd[..., :, None]
        ga = gd @ np.swapaxes(bd, -1, -2)
        gb = np.swapaxes(ad, -1, -2) @ gd
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return Tensor(out, (a, b), vjp)


def reshape(a, shape):
    return Tensor(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes):
    inv = np.argsort(axes)
    return Tensor(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def getitem(a, idx):
    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return Tensor(a.data[idx], (a,), vjp)


def concat(tensors, axis=0):
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(np.concatenate(datas, axis=axis), tuple(tensors), vjp)


def stack(tensors, axis=0):
    def vjp(g):
        return tuple(np.moveaxis(g, axis, 0))

    return Tensor(np.stack([t.data for t in tensors], axis=axis), tuple(tensors), vjp)


def tsum(a, axis=None, keepdims=False):
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return Tensor(out, (a,), vjp)


def tmean(a, axis=None, keepdims=False):
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def relu(a):
    mask = a.data > 0
    return Tensor(a.data * mask, (a,), lambda g: (g * mask,))


def tabs(a):
    s = np.sign(a.data)
    return Tensor(np.abs(a.data), (a,), lambda g: (g * s,))


def exp(a):
    out = np.exp(a.data)
    return Tensor(out, (a,), lambda g: (g * out,))


def log(a):
    return Tensor(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a):
    out = np.sqrt(a.data)
    # guard keeps the vjp finite at exactly zero; callers stay away from it
    return Tensor(out, (a,), lambda g: (g * 0.5 / np.maximum(out, EPS_NORM),))


def sin(a):
    return Tensor(np.sin(a.data), (a,), lambda g: (g * np.cos(a.data),))


def cos(a):
    return Tensor(np.cos(a.data), (a,), lambda g: (-g * np.sin(a.data),))


def softplus(a):
    # stable softplus: log(1 + e^x) = max(x, 0) + log1p(e^-|x|)
    out = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    sig = 1.0 / (1.0 + np.exp(-a.data))
    return Tensor(out, (a,), lambda g: (g * sig,))


def softmax_rows(a):
    """Softmax over the last axis, max-subtracted for stability."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return Tensor(out, (a,), vjp)


def unit_rows(a, eps=EPS_NORM):
    """Normalize the last axis to unit norm with a floor of ``eps`` on the
    divisor, so all-zero rows stay zero."""
    norm = np.linalg.norm(a.data, axis=-1, keepdims=True)
    denom = np.maximum(norm, eps)
    out = a.data / denom

    def vjp(g):
        live = (norm > eps).astype(np.float64)
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - live * dot * out) / denom,)

    return Tensor(out, (a,), vjp)


def dense(x, w, b):
    return add(matmul(x, w), b)


def mse(a, b):
    d = sub(a, b)
    return tmean(mul(d, d))


def row_norms(a):
    """Euclidean norm of the last axis; gradient guarded at zero."""
    return sqrt(tsum(mul(a, a), axis=-1))


# ---------------------------------------------------------------------------
# finite-difference harness


def gradient_check(fn, tensors, rng, n_probe=6, step=1e-5):
    """Compare analytic gradients of the scalar closure ``fn()`` against
    central finite differences on randomly probed entries of ``tensors``
    (the leaves ``fn`` reads).

    Returns the worst relative error seen. Relative error uses
    ``|a - n| / max(|a|, |n|, 1)`` so near-zero gradients are judged on an
    absolute scale.
    """
    for t in tensors:
        t.grad = np.zeros_like(t.data)
    backward(fn())
    worst = 0.0
    for t in tensors:
        flat = t.data.reshape(-1)
        k = min(n_probe, flat.size)
        idxs = rng.choice(flat.size, size=k, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            hi = float(fn().data)
            flat[i] = orig - step
            lo = float(fn().data)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            analytic = t.grad.reshape(-1)[i]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
            worst = max(worst, err)
    return worst
