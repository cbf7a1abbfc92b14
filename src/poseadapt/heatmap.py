"""Per-joint spatial probability maps: the softmax and entropy pass over
the localization head's logits, ground-truth rendering and flips.

A heatmap is a (J, H, W) array where each joint slice is a PDF over the
grid. Grid cell (row, col) covers the normalized image point
(u, v) = ((col + 0.5) / W, (row + 0.5) / H); see skeleton module for the
2D coordinate convention.
"""

from __future__ import annotations

import numpy as np

BLOCK_CELLS = 1 << 16  # entropy's block: 512 KB of float64, 256 joints at 16 x 16


def cell_centers(h, w):
    """(H*W, 2) array of (u, v) cell-center coordinates, row-major."""
    cols, rows = np.meshgrid(np.arange(w), np.arange(h))
    u = (cols.reshape(-1) + 0.5) / w
    v = (rows.reshape(-1) + 0.5) / h
    return np.stack([u, v], axis=-1)


def entropy(logits):
    """Softmax and self-entropy (natural log) of the joint slices of a
    C-contiguous float64 (..., J, H, W) logit stack, in one pass: each
    slice z becomes, in place, its PDF e / s with e = exp(z - max z) and
    s = sum e, rounded as a three-pass softmax rounds it, and its entropy
    log s - sum(e * (z - max z)) / s needs no per-cell log. Returns the
    (..., J) entropies, NaN for a joint with a NaN or infinite logit.
    Blocks of at most ``BLOCK_CELLS`` cells (or one slice) run in cache."""
    n = logits.shape[-2] * logits.shape[-1]
    rows = logits.reshape(-1, n)
    step = max(1, BLOCK_CELLS // n)
    ent = np.empty(len(rows))
    buf = np.empty((min(step, len(rows)), n))
    for lo in range(0, len(rows), step):
        w = rows[lo:lo + step]
        w -= w.max(axis=-1, keepdims=True)
        e = np.exp(w, out=buf[:len(w)])
        s = e.sum(axis=-1)
        # one (1, n) @ (n, 1) product per row: no (rows, n) temporary
        dot = (e[:, None, :] @ w[:, :, None]).reshape(-1)
        np.divide(e, s[:, None], out=w)
        np.subtract(np.log(s), dot / s, out=ent[lo:lo + step])
    return ent.reshape(logits.shape[:-2])


def render_gaussian_heatmap(q, sigma, grid_hw):
    """Isotropic Gaussian per joint evaluated at cell centers and
    renormalized to a PDF: (..., J, 2) poses give (..., J, H, W) heatmaps.
    ``sigma`` is in grid cells. Joints outside the frame still render
    (possibly tiny mass) and renormalize."""
    q = np.asarray(q, dtype=np.float64)
    h, w = grid_hw
    # distances in cell units so sigma means the same on any grid; a cell's
    # squared distance is a column term plus a row term, so the sum is the
    # only full-size grid, and everything after it runs in place on it
    du2 = (((np.arange(w) + 0.5) / w - q[..., None, 0]) * w) ** 2  # (..., J, W)
    dv2 = (((np.arange(h) + 0.5) / h - q[..., None, 1]) * h) ** 2  # (..., J, H)
    e = du2[..., None, :] + dv2[..., :, None]
    np.negative(e, out=e)
    e /= 2.0 * sigma ** 2
    e = e.reshape(q.shape[:-1] + (h * w,))
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e.reshape(q.shape[:-1] + (h, w))


def flip_heatmap(heat, tree):
    """Mirror the width axis and permute joints by the left/right swap."""
    return np.asarray(heat)[tree.lr_swap, :, ::-1].copy()


def flip_joint_ids(arr, tree):
    """Permute the joint axis (second to last) of a (..., J, C) array by
    the left/right swap; for 2D poses (C = 2) also mirror the horizontal
    coordinate (u -> 1 - u)."""
    out = np.asarray(arr, dtype=np.float64)[..., tree.lr_swap, :]
    if out.shape[-1] == 2:
        out[..., 0] = 1.0 - out[..., 0]
    return out
