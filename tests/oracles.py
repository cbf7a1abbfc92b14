"""Reference implementations the tests compare the package against.

Each is the straightforward numpy form of what the package computes in a
fused or batched way: the per-joint softmax and peak value the
localization head produced before the softmax and entropy became one pass
over its logits, the soft-argmax as an explicit expectation, and the
heatmap-form self-entropy ``-sum p log p``.
"""

import numpy as np

from poseadapt.heatmap import cell_centers

LOG_FLOOR = 1e-300  # the floor of the entropy vjp in poseadapt.autodiff


def spatial_softmax(logits):
    """Per-joint softmax of a (..., J, H, W) stack over each grid, as three
    separate passes: subtract the max, exp, divide by the sum."""
    logits = np.asarray(logits, dtype=np.float64)
    h, w = logits.shape[-2:]
    flat = logits.reshape(logits.shape[:-2] + (h * w,))
    flat = flat - flat.max(axis=-1, keepdims=True)
    e = np.exp(flat)
    return (e / e.sum(axis=-1, keepdims=True)).reshape(logits.shape)


def soft_argmax(heat):
    """Expected (u, v) coordinate per joint under the heatmap PDF."""
    heat = np.asarray(heat, dtype=np.float64)
    j, h, w = heat.shape
    return heat.reshape(j, h * w) @ cell_centers(h, w)


def joint_confidence(heat):
    """Per-joint peak value; in [1/(H*W), 1] for a PDF."""
    heat = np.asarray(heat, dtype=np.float64)
    return heat.reshape(heat.shape[0], -1).max(axis=-1)


def heatmap_entropy(heat):
    """Self-entropy (natural log) of the joint slices of a (..., J, H, W)
    stack; 0*log(0) := 0. A joint with a NaN or negative cell is no PDF:
    its entropy is NaN."""
    heat = np.asarray(heat, dtype=np.float64)
    flat = heat.reshape(heat.shape[:-2] + (-1,))
    # exact zeros give 0 * log(LOG_FLOOR) = -0.0, NaN cells stay NaN
    terms = np.maximum(flat, LOG_FLOOR)
    np.log(terms, out=terms)
    terms *= flat
    np.copyto(terms, np.nan, where=flat < 0)
    return -terms.sum(axis=-1)
