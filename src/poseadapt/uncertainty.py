"""Pose- and joint-level uncertainty measures and the flip-equivariance
pseudo-label selection rules.

Selection always runs on a frozen model snapshot: it only reads forward
passes, never parameters, so training between refreshes cannot leak in.
Arrays in, arrays out: prediction, scoring and pseudo-label building each
work on the whole (N, J, ...) prediction arrays at once, with no loop
over samples or ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import heatmap as hm
from .synthdata import mirror_pose3d


def pose_uncertainty(out):
    """Disagreement between the two heads: mean per-joint Euclidean
    distance between the soft-argmax and projected 2D poses. Returns a
    differentiable (B,) Tensor."""
    diff = ad.sub(out.q_loc, out.q_proj)
    return ad.tmean(ad.row_norms(diff), axis=-1)


def pose_uncertainty_np(q_loc, q_proj):
    """Numpy twin of ``pose_uncertainty`` for frozen predictions."""
    return np.linalg.norm(q_loc - q_proj, axis=-1).mean(axis=-1)


def joint_uncertainty(out):
    """Per-joint heatmap self-entropy as a differentiable (B, J) Tensor.
    The 1e-12 floor inside the log keeps exact zeros finite; cells with
    zero mass contribute exactly zero."""
    b, j = out.heatmap.shape[:2]
    flat = ad.reshape(out.heatmap, (b, j, -1))
    terms = ad.mul(flat, ad.log(ad.add(flat, 1e-12)))
    return ad.scale(ad.tsum(terms, axis=-1), -1.0)


def flip_consistency(q_loc, q_proj, q_loc_f, q_proj_f, tree):
    """Equivariance error between predictions on an image and on its
    mirror: |q_proj - F(q_loc')| + |q_loc - F(q_proj')| with each |.| a
    mean per-joint distance. (..., J, 2) inputs give (...) errors; a single
    pose gives a float."""
    a = np.linalg.norm(q_proj - hm.flip_joint_ids(q_loc_f, tree), axis=-1).mean(axis=-1)
    b = np.linalg.norm(q_loc - hm.flip_joint_ids(q_proj_f, tree), axis=-1).mean(axis=-1)
    return a + b


def predict(model, samples, batch_size=64):
    """Frozen forward over a sample list or an (N, R, R) observation
    stack, run under ``autodiff.no_grad``; plain numpy (N, ...) outputs."""
    obs = samples if isinstance(samples, np.ndarray) else np.stack([s.obs for s in samples])
    q_loc, q_proj, pose_cam, conf, ent = [], [], [], [], []
    for lo in range(0, len(obs), batch_size):
        with ad.no_grad():
            out = model.forward(obs[lo:lo + batch_size])
        q_loc.append(out.q_loc.data)
        q_proj.append(out.q_proj.data)
        pose_cam.append(out.pose_cam.data)
        conf.append(out.conf)
        ent.append(hm.entropy(out.heatmap.data))
    return {"q_loc": np.concatenate(q_loc), "q_proj": np.concatenate(q_proj),
            "pose_cam": np.concatenate(pose_cam), "conf": np.concatenate(conf),
            "entropy": np.concatenate(ent)}


def _predict_with_flip(model, samples):
    """Predictions on the samples and on their horizontal mirrors."""
    obs = np.stack([s.obs for s in samples])
    return predict(model, obs), predict(model, obs[:, :, ::-1])


def _pseudo_labels(model, pred, pred_f, ids, sigma):
    """Pseudo-labels of the samples ``ids`` as three dicts keyed by id: the
    2D pose (mean of the four equivariance instances of the 2D
    prediction), its rendered heatmaps, and the 3D pose (mean of the
    prediction and the mirrored prediction on the mirror image)."""
    tree = model.tree
    q = 0.25 * (pred["q_loc"][ids] + pred["q_proj"][ids]
                + hm.flip_joint_ids(pred_f["q_loc"][ids], tree)
                + hm.flip_joint_ids(pred_f["q_proj"][ids], tree))
    size = model.config.heatmap_size
    h = hm.render_gaussian_heatmap(q, sigma, (size, size))
    p = 0.5 * (pred["pose_cam"][ids] + mirror_pose3d(pred_f["pose_cam"][ids], tree))
    return dict(zip(ids, q)), dict(zip(ids, h)), dict(zip(ids, p))


@dataclass
class PseudoLabelSet:
    """Flip-consistent target samples promoted to training targets."""

    ids: list
    q: dict            # id -> (J, 2) pseudo 2D pose
    h: dict            # id -> (J, H, W) pseudo heatmaps
    p: dict            # id -> (J, 3) pseudo 3D pose
    scores: np.ndarray
    threshold: float
    iteration: int = 0

    def __len__(self):
        return len(self.ids)

    def to_json(self):
        return json.dumps({"iteration": self.iteration, "threshold": self.threshold,
                           "ids": self.ids, "scores": self.scores.tolist()}, indent=1)


def select_pose_pseudo_labels(model, samples, alpha_p, sigma=1.0, iteration=0):
    """Samples whose flip-equivariance error is below ``alpha_p``; pseudo
    ground truth is the prediction average over the equivariance
    instances, with heatmaps on the model's grid."""
    pred, pred_f = _predict_with_flip(model, samples)
    scores = flip_consistency(pred["q_loc"], pred["q_proj"], pred_f["q_loc"],
                              pred_f["q_proj"], model.tree)
    ids = np.flatnonzero(scores < alpha_p).tolist()
    q, h, p = _pseudo_labels(model, pred, pred_f, ids, sigma)
    return PseudoLabelSet(ids=ids, q=q, h=h, p=p, scores=scores,
                          threshold=alpha_p, iteration=iteration)


@dataclass
class JointSelection:
    """Per-(sample, joint) segregation into confident in-view pairs,
    high-uncertainty out-view pairs, and an untouched mid band."""

    in_view: set       # of (sample id, joint id)
    out_view: set
    q: dict            # sample id -> (J, 2); valid only at selected joints
    h: dict
    p: dict
    in_mask: np.ndarray   # (N, J) bool
    out_mask: np.ndarray
    scores: np.ndarray    # (N, J) selection scores
    alpha_q: float
    alpha_h: float
    iteration: int = 0

    def __len__(self):
        """The number of selected in-view (sample, joint) pairs."""
        return len(self.in_view)

    def to_json(self):
        return json.dumps({
            "iteration": self.iteration, "alpha_q": self.alpha_q,
            "alpha_h": self.alpha_h,
            "in_view": np.argwhere(self.in_mask).tolist(),
            "out_view": np.argwhere(self.out_mask).tolist(),
        }, indent=1)


def joint_selection_scores(pred, pred_f, tree):
    """Entropy times per-joint flip error, (N, J)."""
    flip_err = np.linalg.norm(pred["q_loc"] - hm.flip_joint_ids(pred_f["q_proj"], tree),
                              axis=-1)
    return pred["entropy"] * flip_err


def select_joint_pseudo_labels(model, samples, alpha_q, alpha_h, sigma=1.0,
                               iteration=0):
    """Pairs scoring below ``alpha_q`` become in-view pseudo-labels; pairs
    scoring above ``alpha_h`` become out-view; the band in between gets no
    loss. Every sample with an in-view pair gets pseudo-labels."""
    pred, pred_f = _predict_with_flip(model, samples)
    scores = joint_selection_scores(pred, pred_f, model.tree)
    in_mask = scores < alpha_q
    # a pair can satisfy both only if alpha_h < alpha_q; in-view wins
    out_mask = (scores > alpha_h) & ~in_mask
    ids = np.flatnonzero(in_mask.any(axis=1)).tolist()
    q, h, p = _pseudo_labels(model, pred, pred_f, ids, sigma)
    return JointSelection(in_view=set(zip(*np.nonzero(in_mask))),
                          out_view=set(zip(*np.nonzero(out_mask))), q=q, h=h, p=p,
                          in_mask=in_mask, out_mask=out_mask, scores=scores,
                          alpha_q=alpha_q, alpha_h=alpha_h, iteration=iteration)
