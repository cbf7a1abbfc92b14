"""Adam optimizer and parameter checkpoint IO.

Each loss term in a training loop owns its own ``Adam`` instance, so the
first/second moments of one loss never mix with another's. ``Adam.step``
takes the gradients ``autodiff.backward`` returns for ``Adam.params``;
neither the optimizer nor the parameters keep them.

``Adam.step`` walks each parameter in chunks of ``CHUNK`` floats and runs
the whole update on one chunk before moving on. The update reads four
arrays (data, gradient and both moments), writes three of them, and uses
two scratch buffers; at 32k float64 values per array a chunk's six arrays
take 1.5 MB and stay in a 2 MB per-core L2 cache, where whole-array
passes over the 947k-float model would stream every array through memory
once per operation. Chunking changes no arithmetic: the results are
bit-identical to whole-array updates.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .autodiff import Parameter
from .synthdata import DataInvariantError

CHUNK = 1 << 15


class Adam:
    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(p.data.shape) for p in self.params]
        self.v = [np.zeros(p.data.shape) for p in self.params]
        n = min(CHUNK, max((p.data.size for p in self.params), default=0))
        self._scratch = (np.empty(n), np.empty(n))

    def step(self, grads):
        """One update of ``params`` from ``grads``, one array per parameter
        in the same order; the gradients are only read."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        # bias-corrected step size; moments stay uncorrected in place
        alpha = self.lr / (1.0 - b1 ** self.t)
        corr2 = np.sqrt(1.0 - b2 ** self.t)
        for p, grad, m, v in zip(self.params, grads, self.m, self.v):
            flat = (p.data.reshape(-1), grad.reshape(-1), m.reshape(-1), v.reshape(-1))
            for lo in range(0, flat[0].size, CHUNK):
                x, g, mc, vc = (a[lo:lo + CHUNK] for a in flat)
                tmp, denom = (s[:x.size] for s in self._scratch)
                mc *= b1
                mc += np.multiply(g, 1.0 - b1, out=tmp)
                vc *= b2
                vc += np.multiply(np.square(g, out=tmp), 1.0 - b2, out=tmp)
                np.sqrt(vc, out=denom)
                denom /= corr2
                denom += self.eps
                x -= np.divide(np.multiply(mc, alpha, out=tmp), denom, out=tmp)


def save_params(params, path_prefix):
    """Write a JSON manifest (``.json``) plus one flat float64 blob
    (``.bin``). Round-trips bit exactly."""
    manifest = []
    offset = 0
    chunks = []
    for p in params:
        if p.name is None:
            raise ValueError("checkpointed parameters must be named")
        flat = np.ascontiguousarray(p.data, dtype="<f8").reshape(-1)
        manifest.append({"name": p.name, "shape": list(p.data.shape),
                         "offset": offset, "size": int(flat.size)})
        chunks.append(flat)
        offset += flat.size
    with open(path_prefix + ".bin", "wb") as f:
        f.write(np.concatenate(chunks).tobytes() if chunks else b"")
    with open(path_prefix + ".json", "w") as f:
        json.dump({"dtype": "<f8", "params": manifest}, f, indent=1, sort_keys=True)


def load_params(path_prefix):
    """Read a checkpoint written by ``save_params``. Returns an ordered
    dict name -> Parameter. The blob is read once and each parameter is a
    view of its own part of it. A manifest that does not describe the blob
    exactly raises ``DataInvariantError``."""
    try:
        with open(path_prefix + ".json") as f:
            entries = [(e["name"], tuple(e["shape"]), e["offset"], e["size"])
                       for e in json.load(f)["params"]]
    except (KeyError, TypeError, ValueError) as e:
        raise DataInvariantError(f"checkpoint {path_prefix}: bad manifest: {e!r}") from e
    for name, shape, lo, size in entries:
        # exactly int: not a bool (an int subclass), nor a float like 256.0
        if not all(type(n) is int and n >= 0 for n in (*shape, lo, size)):
            raise DataInvariantError(f"checkpoint {path_prefix}: entry {name!r} needs "
                                     f"non-negative integers, got shape {list(shape)}, "
                                     f"offset {lo!r}, size {size!r}")
    blob = np.fromfile(path_prefix + ".bin", dtype="<f8")
    total = sum(size for _, _, _, size in entries)
    if blob.size != total:
        raise DataInvariantError(f"checkpoint {path_prefix}: blob holds {blob.size} "
                                 f"floats, manifest sizes sum to {total}")
    for name, shape, lo, size in entries:
        if lo + size > blob.size or math.prod(shape) != size:
            raise DataInvariantError(f"checkpoint {path_prefix}: entry {name!r} with "
                                     f"shape {list(shape)} does not fit offset {lo}, "
                                     f"size {size}")
    spans = sorted((lo, lo + size, name) for name, _, lo, size in entries)
    for (_, end, _), (lo, _, name) in zip(spans, spans[1:]):
        if lo < end:  # the two views would share memory
            raise DataInvariantError(f"checkpoint {path_prefix}: entry {name!r} at "
                                     f"offset {lo} overlaps another entry")
    return {name: Parameter(blob[lo:lo + size].reshape(shape), name=name)
            for name, shape, lo, size in entries}


def load_checkpoint(path_prefix, shapes):
    """The parameters of a checkpoint that must hold exactly the names and
    shapes of ``shapes`` (dict name -> shape tuple), in that dict's order.
    Anything else raises ``DataInvariantError``."""
    loaded = load_params(path_prefix)
    missing = sorted(set(shapes) - set(loaded))
    extra = sorted(set(loaded) - set(shapes))
    if missing or extra:
        raise DataInvariantError(f"checkpoint {path_prefix}: missing entries {missing}, "
                                 f"unexpected entries {extra}")
    for name, p in loaded.items():
        if p.data.shape != shapes[name]:
            raise DataInvariantError(f"checkpoint {path_prefix}: entry {name!r} has shape "
                                     f"{list(p.data.shape)}, model expects "
                                     f"{list(shapes[name])}")
    return {name: loaded[name] for name in shapes}

