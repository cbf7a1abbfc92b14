"""Procedural toy image domains: pose sampling, blob rendering with a
per-domain appearance, backgrounds, occlusion/truncation simulation, and
horizontal flip.

A domain is defined by a DomainSpec; generation is a pure function of
(spec, seed), so datasets rebuild bit exactly.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .heatmap import flip_heatmap, flip_joint_ids, render_gaussian_heatmap
from .skeleton import (CameraParams, canonicalize, forward_kinematics,
                       normalize_limb_vectors, project, row_dot, row_norm)


class DataInvariantError(ValueError):
    """A loaded dataset violates its declared invariants."""


def _is_real(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


# annotation -> (test, description) of the scalar config field types
_SCALARS = {"int": (lambda x: _is_real(x) and isinstance(x, numbers.Integral), "an integer"),
            "float": (_is_real, "a real number"),
            "str": (lambda x: isinstance(x, str), "a string")}


def check_field_types(config):
    """Raise ``ValueError`` naming ``Class.key`` for the first int, float
    or str field of the dataclass ``config`` that holds a value of another
    type. A bool is not a number here."""
    for f in fields(config):
        test, what = _SCALARS.get(f.type, (None, None))
        value = getattr(config, f.name)
        if test is not None and not test(value):
            raise ValueError(f"{type(config).__name__}.{f.name} must be {what}, "
                             f"not {value!r}")


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
        check_field_types(self)
        if self.appearance_seed < 0:
            raise ValueError("DomainSpec.appearance_seed must be nonnegative")
        # range -> how many (low, high) pairs it holds; 0 for a bare pair
        for name, count in {"euler_range": 3, "scale_range": 0, "trans_range": 2,
                            "blob_amp_range": 0}.items():
            value = getattr(self, name)
            try:
                pairs = tuple(tuple(r) for r in (value if count else [value]))
            except TypeError:
                pairs = ()
            if not (len(pairs) == max(count, 1) and all(
                    len(p) == 2 and all(_is_real(x) and math.isfinite(x) for x in p)
                    for p in pairs)):
                what = f"{count} (low, high) pairs" if count else "a (low, high) pair"
                raise ValueError(f"DomainSpec.{name} must be {what} of finite real "
                                 f"numbers, not {value!r}")
            if any(hi < lo for lo, hi in pairs):
                raise ValueError(f"DomainSpec.{name}: a range has high < low")
            object.__setattr__(self, name, pairs if count else pairs[0])
        if self.scale_range[0] <= 0:
            raise ValueError("DomainSpec.scale_range must be positive")
        for name in ("cone_angle", "noise_level", "bg_amplitude"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"DomainSpec.{name} must be nonnegative and finite")
        if not 0 < self.blob_sigma_px < math.inf:
            raise ValueError("DomainSpec.blob_sigma_px must be positive and finite")


@dataclass
class Sample:
    """One toy observation with full ground truth. ``obs`` and ``gt_h``
    are float32 when loaded from disk (views of their field's stored
    array), float64 when generated; every consumer converts them to
    float64 where it does arithmetic. ``gt_p`` and ``gt_q`` are float64."""

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


def _cone_limbs(rest, theta, normal):
    """Tilt each rest direction by ``theta`` about the part of ``normal``
    perpendicular to it (Rodrigues' rotation). (N, J) angles and (N, J, 3)
    normals give (N, J, 3) directions; a row with no usable axis or a zero
    angle keeps its rest direction."""
    perp = normal - row_dot(normal, rest)[..., None] * rest
    nrm = row_norm(perp)
    straight = (nrm < 1e-9) | (theta == 0.0)
    axis = perp / np.where(straight, 1.0, nrm)[..., None]
    # normalized a second time, which moves the last bits of the datasets
    axis = axis / np.where(straight, 1.0, row_norm(axis))[..., None]
    cos, sin = np.cos(theta)[..., None], np.sin(theta)[..., None]
    tilted = (rest * cos + np.cross(axis, rest) * sin
              + axis * row_dot(axis, rest)[..., None] * (1.0 - cos))
    return np.where(straight[..., None], rest, tilted)


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


def render_observation(gt_q, visibility, spec, tree, image_size, noise=None):
    """Background texture plus one Gaussian intensity blob per visible
    joint, plus ``noise`` if given, clipped to [0, 1]. Invisible joints
    render nothing. (..., J, 2) poses with (..., J) visibility give
    (..., R, R) images."""
    amps, bg = domain_appearance(spec, tree, image_size)
    q = np.asarray(gt_q, dtype=np.float64)
    lead = q.shape[:-2]
    q = q.reshape(-1, tree.joint_count, 2)
    visibility = np.asarray(visibility).reshape(len(q), tree.joint_count)
    img = np.repeat(bg[None], len(q), axis=0)
    px = (np.arange(image_size) + 0.5) / image_size
    sig = spec.blob_sigma_px / image_size
    for j in range(tree.joint_count):  # each image sums its blobs in joint order
        idx = np.flatnonzero(visibility[:, j])
        # squared distance = column term + row term: square the (N, R)
        # offsets, then one full-size sum and the rest in place
        du2 = (px - q[idx, j, 0, None]) ** 2
        dv2 = (px - q[idx, j, 1, None]) ** 2
        blob = du2[:, None, :] + dv2[:, :, None]
        np.negative(blob, out=blob)
        blob /= 2.0 * sig ** 2
        np.exp(blob, out=blob)
        blob *= amps[j]
        if idx.size == len(img):
            img += blob
        else:
            img[idx] += blob
    if noise is not None:
        img += np.reshape(noise, img.shape)
    return np.clip(img, 0.0, 1.0).reshape(lead + img.shape[1:])


TRUNCATION_KEEP = 0.6  # fraction of the frame kept by a truncation zoom
OCCLUSION_MODES = ("none", "object", "truncation")
_OBJECT, _TRUNCATION = 1, 2


def _bilinear_zoom(img, u0, v0, frac):
    """Resample the (u0, v0, frac) window of each image of an (N, R, R)
    stack back to full resolution with bilinear interpolation; ``v0`` is
    one offset per image."""
    r = img.shape[-1]
    out_px = (np.arange(r) + 0.5) / r
    src_u = (u0 + frac * out_px) * r - 0.5
    src_v = (np.asarray(v0)[:, None] + frac * out_px) * r - 0.5
    iu = np.clip(np.floor(src_u).astype(int), 0, r - 2)
    iv = np.clip(np.floor(src_v).astype(int), 0, r - 2)
    fu = np.clip(src_u - iu, 0.0, 1.0)
    fv = np.clip(src_v - iv, 0.0, 1.0)
    fv_c, fu_c = fv[:, :, None], fu[None, :]
    n, iv_c, iu_c = np.arange(len(img))[:, None, None], iv[:, :, None], iu[None, :]
    return ((1 - fv_c) * (1 - fu_c) * img[n, iv_c, iu_c]
            + (1 - fv_c) * fu_c * img[n, iv_c, iu_c + 1]
            + fv_c * (1 - fu_c) * img[n, iv_c + 1, iu_c]
            + fv_c * fu_c * img[n, iv_c + 1, iu_c + 1])


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


def _draw(spec, seeds, occlusion_mix, backgrounds, joint_count, image_size):
    """The one loop over samples: every random number of each sample, from
    its own ``default_rng(seed)`` stream in a fixed order. No draw depends
    on the geometry, so everything else runs on whole stacks."""
    n, r = len(seeds), image_size
    d = SimpleNamespace(
        u=np.zeros((n, joint_count)), normal=np.zeros((n, joint_count, 3)),
        euler=np.zeros((n, 3)), scale=np.zeros(n), trans=np.zeros((n, 2)),
        noise=np.zeros((n, r, r)),             # zero where the spec has no noise
        mode=np.zeros(n, dtype=int),
        box=np.zeros((n, 4)),                  # object: u0, v0, width, height
        rect=np.zeros((n, 4), dtype=int),      # object: rows r0:r1, cols c0:c1
        patch_noise=np.zeros((n, r, r)),       # object: noise of the erased rectangle
        top=np.zeros(n, dtype=bool))           # truncation: keep the top of the frame
    noisy = spec.noise_level > 0
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(int(seed))
        for j in range(1, joint_count):  # limb cone angle and tilt axis
            d.u[i, j] = rng.uniform()
            d.normal[i, j] = rng.normal(size=3)
        d.euler[i] = [rng.uniform(lo, hi) for lo, hi in spec.euler_range]
        d.scale[i] = rng.uniform(*spec.scale_range)
        d.trans[i] = [rng.uniform(lo, hi) for lo, hi in spec.trans_range]
        if noisy:
            d.noise[i] = rng.normal(0.0, spec.noise_level, size=(r, r))
        if backgrounds:
            # the person-free image that replaces this one has its own noise
            if noisy:
                d.noise[i] = rng.normal(0.0, spec.noise_level, size=(r, r))
            continue
        if not (occlusion_mix > 0 and rng.uniform() < occlusion_mix):
            continue
        if rng.uniform() < 0.5:
            d.mode[i] = _OBJECT
            wf, hf = rng.uniform(0.2, 0.6), rng.uniform(0.2, 0.6)
            u0, v0 = rng.uniform(0.0, 1.0 - wf), rng.uniform(0.0, 1.0 - hf)
            d.box[i] = u0, v0, wf, hf
            c0, c1 = int(round(u0 * r)), int(round((u0 + wf) * r))
            r0, r1 = int(round(v0 * r)), int(round((v0 + hf) * r))
            d.rect[i] = r0, r1, c0, c1
            patch = d.patch_noise[i, r0:r1, c0:c1]
            if noisy and c1 > c0 and r1 > r0:
                patch[...] = rng.normal(0.0, spec.noise_level, size=patch.shape)
        else:
            d.mode[i] = _TRUNCATION
            d.top[i] = rng.uniform() < 0.5
    return d


def _in_frame(q):
    return np.all((q >= 0.0) & (q <= 1.0), axis=-1)


def build_dataset(spec, n, occlusion_mix, rng, tree, image_size=32,
                  heatmap_size=16, sigma=1.0, backgrounds=False):
    """Generate ``n`` samples; each gets an independent seed derived from
    ``rng`` so generation order never affects content.

    A sample draws limb directions within per-limb cones around the rest
    pose, runs forward kinematics, canonicalizes and projects through a
    camera drawn from the spec ranges. Its image is the domain background
    plus a blob per in-view joint plus pixel noise; a background sample
    keeps the pose and camera but renders no blob. With probability
    ``occlusion_mix`` a sample is then occluded, half the time by an object
    and half the time by truncation:

    * object: a rectangle is erased back to the domain background (the
      figure passes behind scenery), so occluded regions look exactly like
      person-free background, and the joints it covers leave view;
    * truncation: the frame zooms isotropically into its top or bottom,
      and the 2D pose, camera, visibility and heatmaps follow.

    Ground-truth 2D coordinates of out-view joints are kept for
    evaluation."""
    seeds = rng.integers(0, 2 ** 63 - 1, size=n)
    j = tree.joint_count
    d = _draw(spec, seeds, occlusion_mix, backgrounds, j, image_size)
    theta = spec.cone_angle * np.sqrt(d.u)
    limbs = normalize_limb_vectors(_cone_limbs(rest_limbs(tree), theta, d.normal))
    pose = canonicalize(forward_kinematics(tree, limbs), tree)
    gt_p, gt_q = project(pose, d.euler, d.scale, d.trans)
    vis = np.zeros((n, j), dtype=bool) if backgrounds else _in_frame(gt_q)
    obs = render_observation(gt_q, vis, spec, tree, image_size, d.noise)

    # object: erase the rectangle back to background; covered joints leave view
    obj = np.flatnonzero(d.mode == _OBJECT)
    _, bg = domain_appearance(spec, tree, image_size)
    patch = bg + d.patch_noise[obj]
    px = np.arange(image_size)
    r0, r1, c0, c1 = d.rect[obj].T[..., None]
    erased = ((px >= r0) & (px < r1))[:, :, None] & ((px >= c0) & (px < c1))[:, None, :]
    obs[obj] = np.where(erased, np.clip(patch, 0.0, 1.0), obs[obj])
    u0, v0, wf, hf = d.box[obj].T[..., None]
    q = gt_q[obj]
    vis[obj] &= ~((q[..., 0] >= u0) & (q[..., 0] <= u0 + wf)
                  & (q[..., 1] >= v0) & (q[..., 1] <= v0 + hf))

    # truncation: zoom into the top or bottom; 2D pose, view and camera follow
    trunc = np.flatnonzero(d.mode == _TRUNCATION)
    keep = TRUNCATION_KEEP
    v0 = np.where(d.top[trunc], 0.0, 1.0 - keep)
    corner = np.stack([np.full_like(v0, (1.0 - keep) / 2.0), v0], axis=-1)
    obs[trunc] = _bilinear_zoom(obs[trunc], (1.0 - keep) / 2.0, v0, keep)
    gt_q[trunc] = (gt_q[trunc] - corner[:, None, :]) / keep
    vis[trunc] = _in_frame(gt_q[trunc])
    d.scale[trunc] /= keep
    d.trans[trunc] = (d.trans[trunc] - corner) / keep

    gt_h = render_gaussian_heatmap(gt_q, sigma, (heatmap_size, heatmap_size))
    return [Sample(obs=obs[i], gt_p=gt_p[i], gt_q=gt_q[i], gt_h=gt_h[i],
                   visibility=vis[i], domain=spec.name,
                   occlusion=OCCLUSION_MODES[d.mode[i]], is_background=backgrounds,
                   cam=CameraParams(euler=d.euler[i], scale=float(d.scale[i]),
                                    translation=d.trans[i]))
            for i in range(n)]


# ---------------------------------------------------------------------------
# dataset files: JSON manifest + float32 blobs


# field -> the axes of its array: N samples, J joints, an R x R image and
# an H x W heatmap grid
_FIELDS = {"obs": "NRR", "gt_p": "NJ3", "gt_q": "NJ2", "gt_h": "NJHW", "visibility": "NJ"}


def save_dataset(samples, out_dir, name="dataset"):
    os.makedirs(out_dir, exist_ok=True)
    arrays = {key: np.stack([getattr(s, key) for s in samples]).astype("<f4")
              for key in _FIELDS}
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


def _camera(doc):
    if doc is None:
        return None
    return CameraParams(euler=np.array(doc["euler"]), scale=doc["scale"],
                        translation=np.array(doc["translation"]))


def load_dataset(out_dir, name="dataset", validate=True):
    """Read the dataset ``name`` that ``save_dataset`` wrote to ``out_dir``
    as a list of ``Sample``, whose ``obs`` and ``gt_h`` are float32 views
    of one array per field (see ``Sample``). A manifest that does not
    describe its field files raises ``DataInvariantError``, as does, with
    ``validate``, a sample that breaks an invariant (see
    ``validate_arrays``). A file that cannot be read raises ``OSError``."""
    try:
        with open(os.path.join(out_dir, f"{name}.json")) as f:
            manifest = json.load(f)
        meta = [(m["domain"], m["occlusion"], m["is_background"], _camera(m["cam"]))
                for m in manifest["samples"]]
        files = {key: (os.path.join(out_dir, manifest["fields"][key]["file"]),
                       manifest["fields"][key]["shape"]) for key in _FIELDS}
    except (KeyError, TypeError, ValueError) as e:  # JSON syntax errors are ValueErrors
        raise DataInvariantError(f"bad manifest: {e!r}") from e
    dims = {"N": len(meta)}
    arrays = {}
    for key, axes in _FIELDS.items():
        path, shape = files[key]
        if not (isinstance(shape, list) and len(shape) == len(axes)
                and all(type(size) is int and size >= 1 for size in shape)):
            raise DataInvariantError(f"field {key!r}: shape {shape!r} is not {len(axes)} "
                                     f"positive integers ({', '.join(axes)})")
        want = [int(a) if a.isdigit() else dims.setdefault(a, size)
                for a, size in zip(axes, shape)]
        if shape != want:
            raise DataInvariantError(f"field {key!r} has shape {shape}, expected {want} "
                                     f"({', '.join(axes)}; the manifest lists "
                                     f"{dims['N']} samples)")
        blob = np.fromfile(path, dtype="<f4")
        if blob.size != np.prod(shape):
            raise DataInvariantError(f"field {key!r}: {path} holds {blob.size} floats, "
                                     f"shape {shape} needs {np.prod(shape)}")
        arrays[key] = blob.reshape(shape)
    # images and heatmaps stay the stored float32 arrays; the poses, which
    # evaluation does arithmetic on, become float64
    obs, gt_h = arrays["obs"], arrays["gt_h"]
    gt_p, gt_q = arrays["gt_p"].astype(np.float64), arrays["gt_q"].astype(np.float64)
    vis = arrays["visibility"] > 0.5
    if validate:
        validate_arrays(obs, gt_p, gt_q, gt_h, vis)
    return [Sample(obs=obs[i], gt_p=gt_p[i], gt_q=gt_q[i], gt_h=gt_h[i],
                   visibility=vis[i], domain=domain, occlusion=occlusion,
                   is_background=is_background, cam=cam)
            for i, (domain, occlusion, is_background, cam) in enumerate(meta)]


_INVARIANTS = ("heatmap slices are not PDFs", "negative heatmap mass",
               "in-view joint outside the frame", "non-finite values")


def validate_arrays(obs, gt_p, gt_q, gt_h, visibility):
    """Check the declared invariants of a stack of N samples: (N, R, R)
    images, (N, J, 3) and (N, J, 2) poses, (N, J, H, W) heatmaps and
    (N, J) bool visibility. Each invariant is one whole-array check; the
    first failing sample raises ``DataInvariantError`` naming the first
    invariant it breaks, in ``_INVARIANTS`` order. ``obs`` and ``gt_h``
    may be float32; the PDF sums accumulate in float64 either way, and
    float32 storage loosens their tolerance slightly."""
    sums = gt_h.reshape(gt_h.shape[:2] + (-1,)).sum(axis=-1, dtype=np.float64)
    in_frame = np.all((gt_q >= -1e-6) & (gt_q <= 1 + 1e-6), axis=-1)
    failed = np.stack([  # (invariant, sample)
        ~np.isclose(sums, 1.0, atol=1e-4).all(axis=1),
        (gt_h < 0).any(axis=(1, 2, 3)),
        (visibility & ~in_frame).any(axis=1),
        ~(np.isfinite(gt_p).all(axis=(1, 2)) & np.isfinite(obs).all(axis=(1, 2)))])
    if failed.any():
        i = int(failed.any(axis=0).argmax())
        raise DataInvariantError(f"sample {i}: {_INVARIANTS[int(failed[:, i].argmax())]}")

