"""Kinematic skeleton: topology, forward kinematics, canonical frame,
scaled-orthographic camera, and pose-error metrics.

Conventions used throughout the package:
  * 3D poses are (J, 3) arrays, root (pelvis) at index 0.
  * 2D poses are (J, 2) arrays in normalized image coordinates where
    column 0 is horizontal (u, left to right) and column 1 is vertical
    (v, top to bottom); [0, 1]^2 covers the frame but values may leave it.
  * Canonical poses have the pelvis at the origin and face the +X axis;
    the hip axis lies in the X-Y plane with the right hip at negative Y.
  * Euler angles are intrinsic Z-Y-X.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

EPS = 1e-8


class DegenerateFaceError(ValueError):
    """Hips and neck are collinear; the facing direction is undefined."""


@dataclass(frozen=True)
class KinematicTree:
    """Skeleton topology with fixed bone lengths.

    ``parent[0] == 0`` marks the root. ``lr_swap`` is the involutive
    permutation exchanging left and right joints.
    """

    names: tuple
    parent: np.ndarray
    bone_length: np.ndarray
    lr_swap: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "parent", np.asarray(self.parent, dtype=int))
        object.__setattr__(self, "bone_length", np.asarray(self.bone_length, dtype=np.float64))
        object.__setattr__(self, "lr_swap", np.asarray(self.lr_swap, dtype=int))
        j = self.joint_count
        if not (len(self.names) == len(self.parent) == len(self.bone_length)
                == len(self.lr_swap) == j):
            raise ValueError("inconsistent per-joint array lengths")
        if self.parent[0] != 0:
            raise ValueError("root (index 0) must be its own parent")
        if np.any(self.bone_length[1:] <= 0):
            raise ValueError("non-root bone lengths must be positive")
        if not np.array_equal(self.lr_swap[self.lr_swap], np.arange(j)):
            raise ValueError("lr_swap must be an involution")
        for name in ("left_hip", "right_hip", "neck"):
            if name not in self.names:
                raise ValueError(f"tree must contain a joint named {name!r}")
        # reject cycles: every joint must reach the root
        order = self.topological_order()
        if len(order) != j:
            raise ValueError("parent array contains a cycle")

    @property
    def joint_count(self):
        return len(self.names)

    def index(self, name):
        return self.names.index(name)

    def topological_order(self):
        """Joint indices in parent-before-child order, root first."""
        order = [0]
        placed = {0}
        remaining = set(range(1, len(self.parent)))
        while remaining:
            progress = [j for j in remaining if int(self.parent[j]) in placed]
            if not progress:
                break
            for j in sorted(progress):
                order.append(j)
                placed.add(j)
                remaining.discard(j)
        return order

    def ancestor_matrix(self):
        """A[j, k] = 1 iff joint k lies on the root-to-j chain (k != root).
        Forward kinematics is then A @ (bone_length[:, None] * limbs)."""
        j = self.joint_count
        a = np.zeros((j, j))
        for child in self.topological_order()[1:]:
            a[child] = a[int(self.parent[child])]
            a[child, child] = 1.0
        return a

    def to_json(self):
        pairs = sorted({tuple(sorted((i, int(self.lr_swap[i]))))
                        for i in range(self.joint_count) if self.lr_swap[i] != i})
        return json.dumps({
            "names": list(self.names),
            "parents": self.parent.tolist(),
            "bone_lengths": self.bone_length.tolist(),
            "lr_swap_pairs": [list(p) for p in pairs],
        }, indent=1)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        names = tuple(doc["names"])
        swap = np.arange(len(names))
        for a, b in doc["lr_swap_pairs"]:
            swap[a], swap[b] = b, a
        return cls(names=names, parent=np.array(doc["parents"]),
                   bone_length=np.array(doc["bone_lengths"], dtype=np.float64),
                   lr_swap=swap)


_DEFAULT_NAMES = (
    "pelvis", "spine", "neck", "nose", "head_top",
    "left_shoulder", "left_elbow", "left_wrist",
    "right_shoulder", "right_elbow", "right_wrist",
    "left_hip", "left_knee", "left_ankle",
    "right_hip", "right_knee", "right_ankle",
)
_DEFAULT_PARENT = (0, 0, 1, 2, 3, 2, 5, 6, 2, 8, 9, 0, 11, 12, 0, 14, 15)
# relative bone-length table in canonical units (root entry unused)
_DEFAULT_LENGTH = (1.0, 0.45, 0.25, 0.12, 0.12,
                   0.18, 0.28, 0.24, 0.18, 0.28, 0.24,
                   0.14, 0.42, 0.40, 0.14, 0.42, 0.40)
_DEFAULT_SWAP = (0, 1, 2, 3, 4, 8, 9, 10, 5, 6, 7, 14, 15, 16, 11, 12, 13)


def default_tree():
    """17-joint H3.6M-style skeleton with a fixed bone-length ratio table."""
    return KinematicTree(names=_DEFAULT_NAMES, parent=np.array(_DEFAULT_PARENT),
                         bone_length=np.array(_DEFAULT_LENGTH),
                         lr_swap=np.array(_DEFAULT_SWAP))


@dataclass(frozen=True)
class CameraParams:
    """Scaled-orthographic camera: rotation (intrinsic Z-Y-X Euler angles),
    uniform scale, 2D translation in normalized image units."""

    euler: np.ndarray
    scale: float
    translation: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        object.__setattr__(self, "euler", np.asarray(self.euler, dtype=np.float64))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=np.float64))
        if not self.scale > 0:
            raise ValueError("camera scale must be positive")


def normalize_limb_vectors(raw, root=0):
    """Divide each row by max(norm, eps); zero the root row."""
    raw = np.asarray(raw, dtype=np.float64)
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    out = raw / np.maximum(norms, EPS)
    out[root] = 0.0
    return out


def forward_kinematics(tree, limbs):
    """Place each joint at parent + bone_length * unit limb direction, in
    topological order. Root lands at the origin."""
    limbs = np.asarray(limbs, dtype=np.float64)
    coords = np.zeros((tree.joint_count, 3))
    for j in tree.topological_order()[1:]:
        coords[j] = coords[int(tree.parent[j])] + tree.bone_length[j] * limbs[j]
    return coords


def face_direction(pose, tree):
    """Unit normal of (left_hip -> neck) x (left_hip -> right_hip)."""
    pose = np.asarray(pose, dtype=np.float64)
    lh, rh, nk = (pose[tree.index(n)] for n in ("left_hip", "right_hip", "neck"))
    cross = np.cross(nk - lh, rh - lh)
    norm = np.linalg.norm(cross)
    if norm < 1e-9:
        raise DegenerateFaceError("hips and neck are collinear")
    return cross / norm


def canonicalize(pose, tree):
    """Move the pelvis to the origin and rotate so the skeleton faces +X,
    with the hip axis in the X-Y plane and the right hip at negative Y."""
    pose = np.asarray(pose, dtype=np.float64) - np.asarray(pose, dtype=np.float64)[0]
    e1 = face_direction(pose, tree)
    hip = pose[tree.index("right_hip")] - pose[tree.index("left_hip")]
    h_perp = hip - (hip @ e1) * e1
    norm = np.linalg.norm(h_perp)
    if norm < 1e-9:
        raise DegenerateFaceError("hip axis parallel to the facing direction")
    e2 = -h_perp / norm  # right hip maps to negative Y
    e3 = np.cross(e1, e2)
    rot = np.stack([e1, e2, e3])
    return pose @ rot.T


def euler_to_rotation(euler):
    """Intrinsic Z-Y-X rotation matrix from three angles."""
    a, b, c = np.asarray(euler, dtype=np.float64)
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cc, sc = np.cos(c), np.sin(c)
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cc, -sc], [0.0, sc, cc]])
    return rz @ ry @ rx


def camera_transform(pose_c, cam):
    """Rotate the canonical pose into camera space, then project by uniform
    scale plus 2D translation. Returns (camera-space 3D pose, 2D pose)."""
    rot = euler_to_rotation(cam.euler)
    pose_cam = np.asarray(pose_c, dtype=np.float64) @ rot.T
    q = cam.scale * pose_cam[:, :2] + cam.translation
    return pose_cam, q


def apply_lr_swap(arr, tree):
    """Permute the joint axis (axis 0) by the left/right swap."""
    return np.asarray(arr)[tree.lr_swap]


def mpjpe(pred, gt):
    """Mean per-joint Euclidean distance after root-aligning both poses.
    (..., J, 3) stacks give (...) errors; a single pose gives a float."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    err = np.linalg.norm((pred - pred[..., :1, :]) - (gt - gt[..., :1, :]),
                         axis=-1).mean(axis=-1)
    return float(err) if err.ndim == 0 else err


def procrustes_align(pred, gt):
    """Similarity transform (rotation, uniform scale, translation) minimizing
    the sum of squared distances to ``gt``, via cross-covariance SVD.

    Returns (aligned pred, degenerate flag). On a rank-deficient covariance
    the alignment falls back to translation only and the flag is True.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    pred_c = pred - pred.mean(axis=0)
    gt_c = gt - gt.mean(axis=0)
    denom = np.sum(pred_c ** 2)
    cov = pred_c.T @ gt_c
    sv = np.linalg.svd(cov, compute_uv=False)
    if denom < 1e-12 or (sv > 1e-9 * max(sv[0], 1e-300)).sum() < 2:
        return pred_c + gt.mean(axis=0), True
    u, s, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    flip = np.ones(3)
    flip[-1] = d
    rot = vt.T @ np.diag(flip) @ u.T
    scale = (s * flip).sum() / denom
    return scale * pred_c @ rot.T + gt.mean(axis=0), False


def pa_mpjpe(pred, gt):
    """Mean per-joint distance after optimal similarity alignment."""
    aligned, _ = procrustes_align(pred, gt)
    return float(np.mean(np.linalg.norm(aligned - np.asarray(gt, dtype=np.float64), axis=-1)))
