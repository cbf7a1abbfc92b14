"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

A Tensor wraps a numpy array together with the links needed to replay the
computation backwards. ``backward(loss, wrt)`` returns the gradients of a
scalar loss as values, one array per leaf of ``wrt``; no tensor holds
gradient state. ``add``, ``sub``, ``mul``, ``matmul`` and the ``x`` of
``dense`` and ``softmax_dense`` also take plain arrays and numbers:
constants, which are never recorded and never get a gradient.

Recording contract: outside ``no_grad`` every op returns a node whose
``parents`` are its Tensor operands and whose vjp replays it. Inside
``no_grad`` every op computes the same float64 array and returns it as a
parentless Tensor with no vjp, so nothing is kept for a backward pass that
will not come; ``backward`` treats such a result as a leaf. Which mode an
op runs in is decided when it is called, by one process-wide flag that
only ``no_grad`` sets.
"""

from __future__ import annotations

import numpy as np

from . import heatmap as hm

EPS_NORM = 1e-8
LOG_FLOOR = 1e-300  # the entropy vjp's log max(p, LOG_FLOOR): finite at p = 0

_recording = True  # False inside no_grad


class Tensor:
    """Node in a recorded computation. ``parents`` and ``_vjp`` are empty
    for leaves (parameters, tensors made from plain data, and op results
    under ``no_grad``)."""

    __slots__ = ("data", "parents", "_vjp", "name")

    def __init__(self, data, parents=(), vjp=None, name=None):
        self.data = np.asarray(data, dtype=np.float64)
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

    def __getitem__(self, idx):
        return getitem(self, idx)


class Parameter(Tensor):
    """Trainable leaf tensor."""

    __slots__ = ()

    def __init__(self, data, name=None):
        super().__init__(data, name=name)
        if not self.data.flags.c_contiguous:
            # the optimizer updates flat views of data
            self.data = self.data.copy()


# aliases for ``_node``: looking the two attributes up on every op result
# made a batch-1 forward (about 80 ops) measurably slower
_new_tensor = object.__new__
_ndarray = np.ndarray


def _node(out, parents=(), vjp=None):
    """The Tensor of an op's result, built without ``Tensor.__init__``: the
    op computed a float64 array from float64 data, or a numpy scalar (a
    full reduction, or an op on 0-d operands), which becomes a 0-d array.
    Without ``parents`` it is an unrecorded result."""
    t = _new_tensor(Tensor)
    t.data = out if type(out) is _ndarray else np.asarray(out, dtype=np.float64)
    t.parents = parents
    t._vjp = vjp
    t.name = None
    return t


class no_grad:
    """Context manager running the ops of its block without recording them
    (see the module docstring). Nests, and restores the previous mode on
    exit, also when the block raises."""

    __slots__ = ("_saved",)

    def __enter__(self):
        global _recording
        self._saved, _recording = _recording, False

    def __exit__(self, *exc):
        global _recording
        _recording = self._saved


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


def backward(loss, wrt):
    """The gradients d(loss)/d(leaf), one array per leaf of the sequence
    ``wrt``, in its order; a leaf the loss does not reach gets zeros.
    ``loss`` must be scalar.

    Only the nodes from which a leaf of ``wrt`` is reachable are
    differentiated. The adjoints are summed in the same order whatever
    ``wrt`` holds, so a gradient is bit-identical to the one a pass over
    every leaf gives. The returned arrays may share memory with each other
    (``add`` hands both operands one adjoint): read them, do not write
    them.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    nodes = ComputationRecord.trace(loss).nodes
    # keep the nodes from which a leaf in wrt is reachable (parents come
    # before children in the record)
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
    return [adjoint[id(p)] if id(p) in adjoint else np.zeros(p.data.shape) for p in wrt]


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


def _binary(a, b, op, da, db):
    """The node ``op(a, b)``; a non-Tensor operand is a float64 constant and
    no parent, so its vjp (``da`` or ``db``, of ``(g, x, y)``) never runs."""
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    x = a.data if ta else np.asarray(a, dtype=np.float64)
    y = b.data if tb else np.asarray(b, dtype=np.float64)
    if not _recording:
        return _node(op(x, y))
    # bool-repeated tuples: a comprehension here costs as much as a batch-1 op
    live = ((a, da),) * ta + ((b, db),) * tb
    return _node(op(x, y), (a,) * ta + (b,) * tb,
                 lambda g: tuple(_unbroadcast(d(g, x, y), t.shape) for t, d in live))


# the operand vjps of the binary ops, of (g, x, y)
def _g(g, x, y):
    return g


def _neg_g(g, x, y):
    return -g


def _g_times_y(g, x, y):
    return g * y


def _g_times_x(g, x, y):
    return g * x


def _g_matmul_yt(g, x, y):
    return g @ np.swapaxes(y, -1, -2)


def _xt_matmul_g(g, x, y):
    return np.swapaxes(x, -1, -2) @ g


def add(a, b):
    return _binary(a, b, np.add, _g, _g)


def sub(a, b):
    return _binary(a, b, np.subtract, _g, _neg_g)


def mul(a, b):
    return _binary(a, b, np.multiply, _g_times_y, _g_times_x)


def scale(a, c):
    return mul(a, float(c))


def _matmul(x, y):
    if x.ndim < 2 or y.ndim < 2:
        raise ValueError(f"matmul needs operands of 2 or more axes, got "
                         f"shapes {x.shape} and {y.shape}")
    return np.matmul(x, y)


def matmul(a, b):
    """Matrix product of operands with at least two axes each; leading
    axes broadcast."""
    return _binary(a, b, _matmul, _g_matmul_yt, _xt_matmul_g)


def reshape(a, shape):
    out = a.data.reshape(shape)
    if not _recording:
        return _node(out)
    return _node(out, (a,), lambda g: (g.reshape(a.shape),))


def getitem(a, idx):
    out = a.data[idx]
    if not _recording:
        return _node(out)

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return _node(out, (a,), vjp)


def tsum(a, axis=None, keepdims=False):
    out = a.data.sum(axis=axis, keepdims=keepdims)
    if not _recording:
        return _node(out)

    def vjp(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _node(out, (a,), vjp)


def tmean(a, axis=None, keepdims=False):
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def relu(a):
    out = np.maximum(a.data, 0.0)
    if not _recording:
        return _node(out)
    mask = a.data > 0
    return _node(out, (a,), lambda g: (g * mask,))


def exp(a):
    out = np.exp(a.data)
    if not _recording:
        return _node(out)
    return _node(out, (a,), lambda g: (g * out,))


def log(a):
    out = np.log(a.data)
    if not _recording:
        return _node(out)
    return _node(out, (a,), lambda g: (g / a.data,))


def sqrt(a):
    out = np.sqrt(a.data)
    if not _recording:
        return _node(out)
    # guard keeps the vjp finite at exactly zero; callers stay away from it
    return _node(out, (a,), lambda g: (g * 0.5 / np.maximum(out, EPS_NORM),))


def softplus(a):
    # stable softplus: log(1 + e^x) = max(x, 0) + log1p(e^-|x|)
    out = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    if not _recording:
        return _node(out)
    sig = 1.0 / (1.0 + np.exp(-a.data))
    return _node(out, (a,), lambda g: (g * sig,))


def unit_rows(a):
    """Normalize the last axis to unit norm with a floor of ``EPS_NORM`` on
    the divisor, so all-zero rows stay zero."""
    norm = np.linalg.norm(a.data, axis=-1, keepdims=True)
    denom = np.maximum(norm, EPS_NORM)
    out = a.data / denom
    if not _recording:
        return _node(out)

    def vjp(g):
        live = (norm > EPS_NORM).astype(np.float64)
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - live * dot * out) / denom,)

    return _node(out, (a,), vjp)


def _affine(x, w, b):
    """The fresh product ``x @ w`` with the bias added in place, the Tensor
    operands and their vjp, that of ``add(matmul(x, w), b)``. ``x`` may be
    a constant, which gets no gradient; ``w`` and ``b`` are Tensors."""
    tx = isinstance(x, Tensor)
    xd = x.data if tx else np.asarray(x, dtype=np.float64)
    wd = w.data
    out = _matmul(xd, wd)
    out += b.data

    def vjp(g):
        gw = _unbroadcast(_xt_matmul_g(g, xd, wd), wd.shape)
        gb = _unbroadcast(g, b.shape)
        if not tx:
            return gw, gb
        return _unbroadcast(_g_matmul_yt(g, xd, wd), xd.shape), gw, gb

    return out, (x,) * tx + (w, b), vjp


def dense(x, w, b):
    """``x @ w + b`` as one node (see ``_affine``)."""
    out, parents, vjp = _affine(x, w, b)
    return _node(out, parents, vjp) if _recording else _node(out)


def softmax_dense(x, w, b, shape):
    """The localization head: joint PDFs softmax(x @ w + b) over each grid
    of the (..., J, H, W) ``shape`` and their entropies H, from one
    ``hm.entropy`` pass over the fresh product (looked up at call time, so
    a wrapper there sees every call). Returns the (..., J, H*W) PDF rows,
    one node over ``x``, ``w`` and ``b`` with the vjp of a softmax of
    ``dense(x, w, b)``; their ``shape`` view; and the (..., J) entropies, a
    node over that view whose vjp -(log max(p, LOG_FLOOR) + 1) per cell is
    finite at zero."""
    z, parents, affine_vjp = _affine(x, w, b)
    ent = hm.entropy(z.reshape(shape))
    out = z.reshape(shape[:-2] + (shape[-2] * shape[-1],))
    if not _recording:
        return _node(out), _node(z.reshape(shape)), _node(ent)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return affine_vjp((out * (g - dot)).reshape(z.shape))

    rows = _node(out, parents, vjp)
    heat = reshape(rows, shape)
    return rows, heat, _node(ent, (heat,), lambda g: (
        (np.log(np.maximum(heat.data, LOG_FLOOR)) + 1.0) * -g[..., None, None],))


def rotate_zyx(x, angles):
    """``x @ R(angles)ᵀ`` as one node: (B, J, 3) points turned by the
    rotations of (B, 3) intrinsic Z-Y-X angles, R = Rz·Ry·Rx as in
    ``skeleton.euler_to_rotation``. Both operands are Tensors. R's
    closed-form entries and the vjps group every product and order every
    sum as a graph of elementwise ``mul``/``sub``/``add`` nodes on the
    sines and cosines does, so the two give the same bits."""
    a = angles.data
    ca, sa = np.cos(a[:, 0]), np.sin(a[:, 0])
    cb, sb = np.cos(a[:, 1]), np.sin(a[:, 1])
    cc, sc = np.cos(a[:, 2]), np.sin(a[:, 2])
    casb, sasb = ca * sb, sa * sb
    rot = np.stack([ca * cb, casb * sc - sa * cc, casb * cc + sa * sc,
                    sa * cb, sasb * sc + ca * cc, sasb * cc - ca * sc,
                    sb * -1.0, cb * sc, cb * cc], axis=1).reshape(-1, 3, 3)
    rt = rot.transpose(0, 2, 1)
    xd = x.data
    out = _matmul(xd, rt)
    if not _recording:
        return _node(out)

    def vjp(g):
        g0, g1, g2, g3, g4, g5, g6, g7, g8 = (
            _xt_matmul_g(g, xd, rt).transpose(0, 2, 1).reshape(-1, 9).T)
        gca = g0 * cb + (g1 * sc) * sb + (g2 * cc) * sb + g4 * cc + (-g5) * sc
        gsa = (-g1) * cc + g2 * sc + g3 * cb + (g4 * sc) * sb + (g5 * cc) * sb
        gcb = g0 * ca + g3 * sa + g7 * sc + g8 * cc
        gsb = (g1 * sc) * ca + (g2 * cc) * ca + (g4 * sc) * sa + (g5 * cc) * sa + g6 * -1.0
        gcc = (-g1) * sa + g2 * casb + g4 * ca + g5 * sasb + g8 * cb
        gsc = g1 * casb + g2 * sa + g4 * sasb + (-g5) * ca + g7 * cb
        ga = np.stack([(-gca) * sa + gsa * ca, (-gcb) * sb + gsb * cb,
                       (-gcc) * sc + gsc * cc], axis=1)
        return _g_matmul_yt(g, xd, rt), ga

    return _node(out, (x, angles), vjp)


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
    grads = backward(fn(), tensors)
    worst = 0.0
    for t, grad in zip(tensors, grads):
        flat = t.data.reshape(-1)
        k = min(n_probe, flat.size)
        idxs = rng.choice(flat.size, size=k, replace=False)
        for i in idxs:
            orig = flat[i]
            with no_grad():  # the probes are never differentiated
                flat[i] = orig + step
                hi = float(fn().data)
                flat[i] = orig - step
                lo = float(fn().data)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            analytic = grad.reshape(-1)[i]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
            worst = max(worst, err)
    return worst
