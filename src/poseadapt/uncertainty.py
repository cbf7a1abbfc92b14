"""Pose- and joint-level uncertainty measures and the flip-equivariance
pseudo-label selection rules.

Selection always runs on a frozen model snapshot: it only reads forward
passes, never parameters, so training between refreshes cannot leak in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import heatmap as hm
from .synthdata import flip_observation, mirror_pose3d


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
    terms = ad.mul(flat, ad.log(ad.add(flat, ad.Tensor(1e-12))))
    return ad.scale(ad.tsum(terms, axis=-1), -1.0)


def flip_consistency(q_loc, q_proj, q_loc_f, q_proj_f, tree):
    """Equivariance error between predictions on an image and on its
    mirror: |q_proj - F(q_loc')| + |q_loc - F(q_proj')| with each |.| a
    mean per-joint distance."""
    a = np.linalg.norm(q_proj - hm.flip_joint_ids(q_loc_f, tree), axis=-1).mean()
    b = np.linalg.norm(q_loc - hm.flip_joint_ids(q_proj_f, tree), axis=-1).mean()
    return float(a + b)


def predict(model, samples, batch_size=64):
    """Frozen forward over a sample list; plain numpy outputs."""
    q_loc, q_proj, pose_cam, conf, ent = [], [], [], [], []
    for lo in range(0, len(samples), batch_size):
        obs = np.stack([s.obs for s in samples[lo:lo + batch_size]])
        out = model.forward(obs)
        q_loc.append(out.q_loc.data)
        q_proj.append(out.q_proj.data)
        pose_cam.append(out.pose_cam.data)
        conf.append(out.conf)
        ent.append(np.stack([hm.entropy(h) for h in out.heatmap.data]))
    return {"q_loc": np.concatenate(q_loc), "q_proj": np.concatenate(q_proj),
            "pose_cam": np.concatenate(pose_cam), "conf": np.concatenate(conf),
            "entropy": np.concatenate(ent)}


def _flip_predictions(model, samples, tree, batch_size=64):
    flipped = [flip_observation(s, tree) for s in samples]
    return predict(model, flipped, batch_size)


def _pseudo_2d(pred, pred_f, tree, i):
    """Mean of the four equivariance instances of the 2D prediction."""
    return 0.25 * (pred["q_loc"][i] + pred["q_proj"][i]
                   + hm.flip_joint_ids(pred_f["q_loc"][i], tree)
                   + hm.flip_joint_ids(pred_f["q_proj"][i], tree))


def _pseudo_3d(pred, pred_f, tree, i):
    return 0.5 * (pred["pose_cam"][i] + mirror_pose3d(pred_f["pose_cam"][i], tree))


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

    def __contains__(self, i):
        return i in self.q

    def __len__(self):
        return len(self.ids)

    def to_json(self):
        return json.dumps({"iteration": self.iteration, "threshold": self.threshold,
                           "ids": list(map(int, self.ids)),
                           "scores": [float(s) for s in self.scores]}, indent=1)


def select_pose_pseudo_labels(model, samples, alpha_p, heatmap_size=16,
                              sigma=1.0, iteration=0):
    """Samples whose flip-equivariance error is below ``alpha_p``; pseudo
    ground truth is the prediction average over the equivariance
    instances."""
    tree = model.tree
    pred = predict(model, samples)
    pred_f = _flip_predictions(model, samples, tree)
    scores = np.array([
        flip_consistency(pred["q_loc"][i], pred["q_proj"][i],
                         pred_f["q_loc"][i], pred_f["q_proj"][i], tree)
        for i in range(len(samples))])
    ids = [i for i in range(len(samples)) if scores[i] < alpha_p]
    q, h, p = {}, {}, {}
    for i in ids:
        q[i] = _pseudo_2d(pred, pred_f, tree, i)
        h[i] = hm.render_gaussian_heatmap(q[i], sigma, (heatmap_size, heatmap_size))
        p[i] = _pseudo_3d(pred, pred_f, tree, i)
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
            "in_view": sorted([int(a), int(b)] for a, b in self.in_view),
            "out_view": sorted([int(a), int(b)] for a, b in self.out_view),
        }, indent=1)


def joint_selection_scores(pred, pred_f, tree):
    """Entropy times per-joint flip error, (N, J)."""
    n = len(pred["entropy"])
    flip_err = np.stack([
        np.linalg.norm(pred["q_loc"][i] - hm.flip_joint_ids(pred_f["q_proj"][i], tree),
                       axis=-1)
        for i in range(n)])
    return pred["entropy"] * flip_err


def select_joint_pseudo_labels(model, samples, alpha_q, alpha_h,
                               heatmap_size=16, sigma=1.0, iteration=0):
    """Pairs scoring below ``alpha_q`` become in-view pseudo-labels; pairs
    scoring above ``alpha_h`` become out-view; the band in between gets no
    loss."""
    tree = model.tree
    pred = predict(model, samples)
    pred_f = _flip_predictions(model, samples, tree)
    scores = joint_selection_scores(pred, pred_f, tree)
    in_mask = scores < alpha_q
    out_mask = scores > alpha_h
    # a pair can satisfy both only if alpha_h < alpha_q; in-view wins
    out_mask &= ~in_mask
    q, h, p = {}, {}, {}
    for i in range(len(samples)):
        if in_mask[i].any():
            q[i] = _pseudo_2d(pred, pred_f, tree, i)
            h[i] = hm.render_gaussian_heatmap(q[i], sigma, (heatmap_size, heatmap_size))
            p[i] = _pseudo_3d(pred, pred_f, tree, i)
    in_view = {(i, j) for i, j in zip(*np.nonzero(in_mask))}
    out_view = {(i, j) for i, j in zip(*np.nonzero(out_mask))}
    return JointSelection(in_view=in_view, out_view=out_view, q=q, h=h, p=p,
                          in_mask=in_mask, out_mask=out_mask, scores=scores,
                          alpha_q=alpha_q, alpha_h=alpha_h, iteration=iteration)
