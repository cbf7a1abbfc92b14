"""Procedural toy image domains: pose sampling, blob rendering with a
per-domain appearance, backgrounds, occlusion/truncation simulation, and
horizontal flip.

A domain is defined by a DomainSpec; generation is a pure function of
(spec, seed), so datasets rebuild bit exactly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .heatmap import flip_heatmap, flip_joint_ids, render_gaussian_heatmap
from .skeleton import (CameraParams, camera_transform, canonicalize,
                       forward_kinematics, normalize_limb_vectors)


class DataInvariantError(ValueError):
    """A loaded dataset violates its declared invariants."""


@dataclass(frozen=True)
class DomainSpec:
    """Appearance, camera and pose distribution of one toy domain."""

    name: str
    appearance_seed: int
    euler_range: tuple = ((-0.4, 0.4), (-0.4, 0.4), (-0.4, 0.4))
    scale_range: tuple = (0.22, 0.3)
    trans_range: tuple = ((0.4, 0.6), (0.45, 0.6))
    cone_angle: float = 0.35          # radians around the rest limb directions
    noise_level: float = 0.02
    bg_amplitude: float = 0.25
    blob_amp_range: tuple = (0.6, 1.0)
    blob_sigma_px: float = 1.4

    def __post_init__(self):
        object.__setattr__(self, "euler_range", tuple(tuple(r) for r in self.euler_range))
        object.__setattr__(self, "scale_range", tuple(self.scale_range))
        object.__setattr__(self, "trans_range", tuple(tuple(r) for r in self.trans_range))
        object.__setattr__(self, "blob_amp_range", tuple(self.blob_amp_range))
        for lo, hi in list(self.euler_range) + [self.scale_range] + list(self.trans_range):
            if hi < lo:
                raise ValueError("invalid range in DomainSpec")
        if self.scale_range[0] <= 0:
            raise ValueError("scale range must be positive")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, doc):
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown DomainSpec keys: {sorted(unknown)}")
        return cls(**doc)


@dataclass
class Sample:
    """One toy observation with full ground truth."""

    obs: np.ndarray          # (R, R) in [0, 1]
    gt_p: np.ndarray         # (J, 3) camera-space pose, pelvis at origin
    gt_q: np.ndarray         # (J, 2) normalized image coordinates
    gt_h: np.ndarray         # (J, H, W) PDF heatmaps
    visibility: np.ndarray   # (J,) bool, True = in-view
    domain: str
    occlusion: str = "none"  # none | object | truncation
    is_background: bool = False
    cam: CameraParams | None = None


# rest limb directions in the canonical frame: face +X, left +Y, up +Z
_REST_DIRS = {
    "spine": (0, 0, 1), "neck": (0, 0, 1), "nose": (1, 0, 0.5), "head_top": (0, 0, 1),
    "left_shoulder": (0, 1, 0), "left_elbow": (0, 0.25, -1), "left_wrist": (0, 0, -1),
    "right_shoulder": (0, -1, 0), "right_elbow": (0, -0.25, -1), "right_wrist": (0, 0, -1),
    "left_hip": (0, 1, 0), "left_knee": (0, 0, -1), "left_ankle": (0, 0, -1),
    "right_hip": (0, -1, 0), "right_knee": (0, 0, -1), "right_ankle": (0, 0, -1),
}


def rest_limbs(tree):
    dirs = np.zeros((tree.joint_count, 3))
    for j, name in enumerate(tree.names):
        if name in _REST_DIRS:
            dirs[j] = _REST_DIRS[name]
    return normalize_limb_vectors(dirs)


def _rotate_about(v, axis, angle):
    axis = axis / np.linalg.norm(axis)
    return (v * np.cos(angle) + np.cross(axis, v) * np.sin(angle)
            + axis * (axis @ v) * (1.0 - np.cos(angle)))


def sample_pose(rng, spec, tree):
    """Draw limb directions within per-limb cones around the rest pose,
    run forward kinematics, canonicalize; draw a camera from the spec
    ranges. Returns (canonical pose, camera)."""
    rest = rest_limbs(tree)
    limbs = np.zeros_like(rest)
    for j in range(1, tree.joint_count):
        d = rest[j]
        theta = spec.cone_angle * np.sqrt(rng.uniform())
        r = rng.normal(size=3)
        perp = r - (r @ d) * d
        nrm = np.linalg.norm(perp)
        if nrm < 1e-9 or theta == 0.0:
            limbs[j] = d
        else:
            limbs[j] = _rotate_about(d, perp / nrm, theta)
    limbs = normalize_limb_vectors(limbs)
    pose = canonicalize(forward_kinematics(tree, limbs), tree)
    euler = np.array([rng.uniform(lo, hi) for lo, hi in spec.euler_range])
    scale = rng.uniform(*spec.scale_range)
    trans = np.array([rng.uniform(lo, hi) for lo, hi in spec.trans_range])
    return pose, CameraParams(euler=euler, scale=scale, translation=trans)


_appearance_cache = {}


def domain_appearance(spec, tree, image_size):
    """Deterministic per-domain appearance: left/right symmetric per-joint
    blob amplitudes and a fixed background texture."""
    key = (spec, tree.joint_count, image_size)
    if key in _appearance_cache:
        return _appearance_cache[key]
    rng = np.random.default_rng(spec.appearance_seed)
    lo, hi = spec.blob_amp_range
    amps = rng.uniform(lo, hi, size=tree.joint_count)
    amps = 0.5 * (amps + amps[tree.lr_swap])  # symmetric so flip commutes with render
    px = (np.arange(image_size) + 0.5) / image_size
    uu, vv = np.meshgrid(px, px, indexing="xy")
    bg = np.zeros((image_size, image_size))
    for _ in range(5):
        freq = rng.uniform(0.5, 3.0)
        phi = rng.uniform(0, 2 * np.pi)
        psi = rng.uniform(0, 2 * np.pi)
        bg += rng.uniform(0.3, 1.0) * np.cos(
            2 * np.pi * freq * (np.cos(phi) * uu + np.sin(phi) * vv) + psi)
    bg = 0.5 * (bg + bg[:, ::-1])  # mirror-symmetric so flip commutes with render
    bg -= bg.min()
    bg *= spec.bg_amplitude / max(bg.max(), 1e-9)
    _appearance_cache[key] = (amps, bg)
    return amps, bg


def render_observation(gt_q, visibility, spec, rng, tree, image_size):
    """Background texture plus one Gaussian intensity blob per visible
    joint, plus pixel noise. Invisible joints render nothing."""
    amps, bg = domain_appearance(spec, tree, image_size)
    img = bg.copy()
    px = (np.arange(image_size) + 0.5) / image_size
    uu, vv = np.meshgrid(px, px, indexing="xy")
    sig = spec.blob_sigma_px / image_size
    for j in np.flatnonzero(visibility):
        du = uu - gt_q[j, 0]
        dv = vv - gt_q[j, 1]
        img += amps[j] * np.exp(-(du ** 2 + dv ** 2) / (2.0 * sig ** 2))
    if spec.noise_level > 0:
        img += rng.normal(0.0, spec.noise_level, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def make_sample(spec, rng, tree, image_size=32, heatmap_size=16, sigma=1.0):
    pose_c, cam = sample_pose(rng, spec, tree)
    gt_p, gt_q = camera_transform(pose_c, cam)
    visibility = np.all((gt_q >= 0.0) & (gt_q <= 1.0), axis=-1)
    obs = render_observation(gt_q, visibility, spec, rng, tree, image_size)
    gt_h = render_gaussian_heatmap(gt_q, sigma, (heatmap_size, heatmap_size))
    return Sample(obs=obs, gt_p=gt_p, gt_q=gt_q, gt_h=gt_h, visibility=visibility,
                  domain=spec.name, cam=cam)


def make_background(spec, rng, tree, image_size=32, heatmap_size=16, sigma=1.0):
    """Person-free image: the domain background texture plus noise."""
    sample = make_sample(spec, rng, tree, image_size, heatmap_size, sigma)
    vis = np.zeros(tree.joint_count, dtype=bool)
    obs = render_observation(sample.gt_q, vis, spec, rng, tree, image_size)
    return Sample(obs=obs, gt_p=sample.gt_p, gt_q=sample.gt_q, gt_h=sample.gt_h,
                  visibility=vis, domain=spec.name, is_background=True, cam=sample.cam)


TRUNCATION_KEEP = 0.6  # fraction of the frame kept by a truncation zoom


def simulate_occlusion(sample, rng, mode, heatmap_size=16, sigma=1.0,
                       spec=None, tree=None):
    """Object mode erases a rectangle back to the domain background (the
    figure passes behind scenery), so occluded regions look exactly like
    person-free background; truncation mode zooms isotropically into the
    top or bottom of the frame. Ground-truth 2D coordinates for out-view
    joints are retained for evaluation. Without ``spec``/``tree`` the
    object occluder falls back to a flat noisy patch."""
    r = sample.obs.shape[0]
    if mode == "object":
        wf = rng.uniform(0.2, 0.6)
        hf = rng.uniform(0.2, 0.6)
        u0 = rng.uniform(0.0, 1.0 - wf)
        v0 = rng.uniform(0.0, 1.0 - hf)
        obs = sample.obs.copy()
        c0, c1 = int(round(u0 * r)), int(round((u0 + wf) * r))
        r0, r1 = int(round(v0 * r)), int(round((v0 + hf) * r))
        if c1 > c0 and r1 > r0:
            if spec is not None and tree is not None:
                _, bg = domain_appearance(spec, tree, r)
                patch = bg[r0:r1, c0:c1]
                if spec.noise_level > 0:
                    patch = patch + rng.normal(0.0, spec.noise_level,
                                               size=patch.shape)
            else:
                patch = (rng.uniform(0.2, 0.9)
                         + 0.15 * rng.standard_normal((r1 - r0, c1 - c0)))
            obs[r0:r1, c0:c1] = np.clip(patch, 0.0, 1.0)
        covered = ((sample.gt_q[:, 0] >= u0) & (sample.gt_q[:, 0] <= u0 + wf)
                   & (sample.gt_q[:, 1] >= v0) & (sample.gt_q[:, 1] <= v0 + hf))
        vis = sample.visibility & ~covered
        return Sample(obs=obs, gt_p=sample.gt_p.copy(), gt_q=sample.gt_q.copy(),
                      gt_h=sample.gt_h.copy(), visibility=vis,
                      domain=sample.domain, occlusion="object", cam=sample.cam)
    if mode == "truncation":
        keep = TRUNCATION_KEEP
        v0 = 0.0 if rng.uniform() < 0.5 else 1.0 - keep
        u0 = (1.0 - keep) / 2.0
        obs = _bilinear_zoom(sample.obs, u0, v0, keep)
        gt_q = (sample.gt_q - np.array([u0, v0])) / keep
        vis = np.all((gt_q >= 0.0) & (gt_q <= 1.0), axis=-1)
        gt_h = render_gaussian_heatmap(gt_q, sigma, (heatmap_size, heatmap_size))
        cam = None
        if sample.cam is not None:
            cam = CameraParams(euler=sample.cam.euler.copy(),
                               scale=sample.cam.scale / keep,
                               translation=(sample.cam.translation - np.array([u0, v0])) / keep)
        return Sample(obs=obs, gt_p=sample.gt_p.copy(), gt_q=gt_q, gt_h=gt_h,
                      visibility=vis, domain=sample.domain, occlusion="truncation", cam=cam)
    raise ValueError(f"unknown occlusion mode {mode!r}")


def _bilinear_zoom(img, u0, v0, frac):
    """Resample the (u0, v0, frac) window of a square image back to full
    resolution with bilinear interpolation."""
    r = img.shape[0]
    out_px = (np.arange(r) + 0.5) / r
    src_u = (u0 + frac * out_px) * r - 0.5
    src_v = (v0 + frac * out_px) * r - 0.5
    iu = np.clip(np.floor(src_u).astype(int), 0, r - 2)
    iv = np.clip(np.floor(src_v).astype(int), 0, r - 2)
    fu = np.clip(src_u - iu, 0.0, 1.0)
    fv = np.clip(src_v - iv, 0.0, 1.0)
    fv_c, fu_c = fv[:, None], fu[None, :]
    iv_c, iu_c = iv[:, None], iu[None, :]
    return ((1 - fv_c) * (1 - fu_c) * img[iv_c, iu_c]
            + (1 - fv_c) * fu_c * img[iv_c, iu_c + 1]
            + fv_c * (1 - fu_c) * img[iv_c + 1, iu_c]
            + fv_c * fu_c * img[iv_c + 1, iu_c + 1])


def mirror_pose3d(pose, tree):
    """3D analog of the image flip: negate the axis that projects to the
    horizontal image coordinate, then swap left/right joint ids; takes
    (..., J, 3) poses."""
    out = np.asarray(pose, dtype=np.float64).copy()
    out[..., 0] = -out[..., 0]
    return out[..., tree.lr_swap, :]


def flip_observation(sample, tree):
    """Horizontally mirrored copy of a sample with all ground truth
    transformed consistently."""
    return Sample(obs=sample.obs[:, ::-1].copy(),
                  gt_p=mirror_pose3d(sample.gt_p, tree),
                  gt_q=flip_joint_ids(sample.gt_q, tree),
                  gt_h=flip_heatmap(sample.gt_h, tree),
                  visibility=sample.visibility[tree.lr_swap].copy(),
                  domain=sample.domain, occlusion=sample.occlusion,
                  is_background=sample.is_background, cam=None)


def build_dataset(spec, n, occlusion_mix, rng, tree, image_size=32,
                  heatmap_size=16, sigma=1.0, backgrounds=False):
    """Generate ``n`` samples; each gets an independent seed derived from
    ``rng`` so generation order never affects content."""
    seeds = rng.integers(0, 2 ** 63 - 1, size=n)
    out = []
    for i in range(n):
        sub = np.random.default_rng(int(seeds[i]))
        if backgrounds:
            out.append(make_background(spec, sub, tree, image_size, heatmap_size, sigma))
            continue
        sample = make_sample(spec, sub, tree, image_size, heatmap_size, sigma)
        if occlusion_mix > 0 and sub.uniform() < occlusion_mix:
            mode = "object" if sub.uniform() < 0.5 else "truncation"
            sample = simulate_occlusion(sample, sub, mode, heatmap_size, sigma,
                                        spec=spec, tree=tree)
        out.append(sample)
    return out


# ---------------------------------------------------------------------------
# dataset files: JSON manifest + float32 blobs


_FIELDS = ("obs", "gt_p", "gt_q", "gt_h", "visibility")


def save_dataset(samples, out_dir, name="dataset"):
    os.makedirs(out_dir, exist_ok=True)
    arrays = {
        "obs": np.stack([s.obs for s in samples]).astype("<f4"),
        "gt_p": np.stack([s.gt_p for s in samples]).astype("<f4"),
        "gt_q": np.stack([s.gt_q for s in samples]).astype("<f4"),
        "gt_h": np.stack([s.gt_h for s in samples]).astype("<f4"),
        "visibility": np.stack([s.visibility for s in samples]).astype("<f4"),
    }
    manifest = {"n": len(samples), "fields": {}, "samples": []}
    for key, arr in arrays.items():
        path = f"{name}.{key}.f32"
        with open(os.path.join(out_dir, path), "wb") as f:
            f.write(np.ascontiguousarray(arr).tobytes())
        manifest["fields"][key] = {"file": path, "shape": list(arr.shape)}
    for s in samples:
        cam = None
        if s.cam is not None:
            cam = {"euler": s.cam.euler.tolist(), "scale": s.cam.scale,
                   "translation": s.cam.translation.tolist()}
        manifest["samples"].append({"domain": s.domain, "occlusion": s.occlusion,
                                    "is_background": s.is_background, "cam": cam})
    with open(os.path.join(out_dir, f"{name}.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)


def load_dataset(out_dir, name="dataset", validate=True):
    with open(os.path.join(out_dir, f"{name}.json")) as f:
        manifest = json.load(f)
    arrays = {}
    for key in _FIELDS:
        meta = manifest["fields"][key]
        blob = np.fromfile(os.path.join(out_dir, meta["file"]), dtype="<f4")
        arrays[key] = blob.reshape(meta["shape"]).astype(np.float64)
    samples = []
    for i, meta in enumerate(manifest["samples"]):
        cam = None
        if meta["cam"] is not None:
            cam = CameraParams(euler=np.array(meta["cam"]["euler"]),
                               scale=meta["cam"]["scale"],
                               translation=np.array(meta["cam"]["translation"]))
        samples.append(Sample(obs=arrays["obs"][i], gt_p=arrays["gt_p"][i],
                              gt_q=arrays["gt_q"][i], gt_h=arrays["gt_h"][i],
                              visibility=arrays["visibility"][i] > 0.5,
                              domain=meta["domain"], occlusion=meta["occlusion"],
                              is_background=meta["is_background"], cam=cam))
    if validate:
        validate_samples(samples)
    return samples


def validate_samples(samples):
    """Check the declared invariants of loaded samples; float32 storage
    loosens the PDF tolerance slightly."""
    for i, s in enumerate(samples):
        sums = s.gt_h.reshape(s.gt_h.shape[0], -1).sum(axis=-1)
        if not np.allclose(sums, 1.0, atol=1e-4):
            raise DataInvariantError(f"sample {i}: heatmap slices are not PDFs")
        if np.any(s.gt_h < 0):
            raise DataInvariantError(f"sample {i}: negative heatmap mass")
        in_frame = np.all((s.gt_q >= -1e-6) & (s.gt_q <= 1 + 1e-6), axis=-1)
        if np.any(s.visibility & ~in_frame):
            raise DataInvariantError(f"sample {i}: in-view joint outside the frame")
        if not np.isfinite(s.gt_p).all() or not np.isfinite(s.obs).all():
            raise DataInvariantError(f"sample {i}: non-finite values")
