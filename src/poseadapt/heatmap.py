"""Per-joint spatial probability maps: softmax, soft-argmax, confidence,
entropy, ground-truth rendering, flips, and debug serialization.

A heatmap is a (J, H, W) array where each joint slice is a PDF over the
grid. Grid cell (row, col) covers the normalized image point
(u, v) = ((col + 0.5) / W, (row + 0.5) / H); see skeleton module for the
2D coordinate convention.
"""

from __future__ import annotations

import json

import numpy as np


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


def entropy(heat, j=None):
    """Self-entropy (natural log) of joint slices; 0*log(0) := 0.

    A (..., J, H, W) stack gives (..., J) entropies; with ``j`` given a
    single (J, H, W) heatmap gives the scalar entropy of joint ``j``.
    """
    heat = np.asarray(heat, dtype=np.float64)
    flat = heat.reshape(heat.shape[:-2] + (-1,))
    terms = np.where(flat > 0, flat * np.log(np.maximum(flat, 1e-300)), 0.0)
    ent = -terms.sum(axis=-1)
    return ent if j is None else float(ent[j])


def render_gaussian_heatmap(q, sigma, grid_hw):
    """Isotropic Gaussian per joint evaluated at cell centers and
    renormalized to a PDF: (..., J, 2) poses give (..., J, H, W) heatmaps.
    ``sigma`` is in grid cells. Joints outside the frame still render
    (possibly tiny mass) and renormalize."""
    q = np.asarray(q, dtype=np.float64)
    h, w = grid_hw
    centers = cell_centers(h, w)  # (H*W, 2)
    # distances in cell units so sigma means the same on any grid
    du2 = ((centers[:, 0] - q[..., None, 0]) * w) ** 2
    dv2 = ((centers[:, 1] - q[..., None, 1]) * h) ** 2
    # in place from here: a stack of poses keeps three grids alive, not five
    e = -(du2 + dv2) / (2.0 * sigma ** 2)
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


def save_heatmap(heat, path_prefix, joint_names=None):
    """Debug dump: flat little-endian float32 blob plus JSON sidecar."""
    heat = np.asarray(heat, dtype="<f4")
    with open(path_prefix + ".bin", "wb") as f:
        f.write(heat.tobytes())
    sidecar = {"shape": list(heat.shape), "dtype": "<f4"}
    if joint_names is not None:
        sidecar["joint_names"] = list(joint_names)
    with open(path_prefix + ".json", "w") as f:
        json.dump(sidecar, f, indent=1)


def load_heatmap(path_prefix):
    with open(path_prefix + ".json") as f:
        sidecar = json.load(f)
    blob = np.fromfile(path_prefix + ".bin", dtype="<f4")
    return blob.reshape(sidecar["shape"]).astype(np.float64)
