"""Per-joint spatial probability maps: softmax, soft-argmax, confidence,
entropy, ground-truth rendering and flips.

A heatmap is a (J, H, W) array where each joint slice is a PDF over the
grid. Grid cell (row, col) covers the normalized image point
(u, v) = ((col + 0.5) / W, (row + 0.5) / H); see skeleton module for the
2D coordinate convention.
"""

from __future__ import annotations

import numpy as np

LOG_FLOOR = 1e-300  # entropy and its vjp take log max(p, LOG_FLOOR): finite at 0


def cell_centers(h, w):
    """(H*W, 2) array of (u, v) cell-center coordinates, row-major."""
    cols, rows = np.meshgrid(np.arange(w), np.arange(h))
    u = (cols.reshape(-1) + 0.5) / w
    v = (rows.reshape(-1) + 0.5) / h
    return np.stack([u, v], axis=-1)


def spatial_softmax(logits):
    """Per-joint softmax over the grid, max-subtracted for stability."""
    logits = np.asarray(logits, dtype=np.float64)
    j, h, w = logits.shape
    flat = logits.reshape(j, h * w)
    flat = flat - flat.max(axis=-1, keepdims=True)
    e = np.exp(flat)
    return (e / e.sum(axis=-1, keepdims=True)).reshape(j, h, w)


def soft_argmax(heat):
    """Expected (u, v) coordinate per joint under the heatmap PDF."""
    heat = np.asarray(heat, dtype=np.float64)
    j, h, w = heat.shape
    return heat.reshape(j, h * w) @ cell_centers(h, w)


def joint_confidence(heat):
    """Per-joint peak value; in [1/(H*W), 1] for a PDF."""
    heat = np.asarray(heat, dtype=np.float64)
    return heat.reshape(heat.shape[0], -1).max(axis=-1)


def entropy(heat):
    """Self-entropy (natural log) of joint slices; 0*log(0) := 0.
    A (..., J, H, W) stack gives (..., J) entropies. A joint with a NaN or
    negative cell is no PDF: its entropy is NaN."""
    heat = np.asarray(heat, dtype=np.float64)
    flat = heat.reshape(heat.shape[:-2] + (-1,))
    # exact zeros give 0 * log(LOG_FLOOR) = -0.0, NaN cells stay NaN
    terms = np.maximum(flat, LOG_FLOOR)
    np.log(terms, out=terms)
    terms *= flat
    np.copyto(terms, np.nan, where=flat < 0)
    return -terms.sum(axis=-1)


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
