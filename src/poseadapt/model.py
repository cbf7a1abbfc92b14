"""Two-head pose network: shared fully-connected encoder, a heatmap
localization head, and a regression head that goes through forward
kinematics and a scaled-orthographic camera, plus the fusion regressor.

The forward pass is differentiable end to end via the autodiff module;
all outputs come back as Tensors on a shared computation record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .heatmap import cell_centers
from .optim import copy_checkpoint, save_params
from .skeleton import KinematicTree, default_tree
from .synthdata import DataInvariantError

SCALE_FLOOR = 0.1  # softplus shift keeping the projection from collapsing


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 32
    heatmap_size: int = 16
    encoder_widths: tuple = (256, 128)
    trunk_width: int = 128
    trunk_blocks: int = 2
    fusion_width: int = 64
    fusion_blocks: int = 3

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, doc):
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown ModelConfig keys: {sorted(unknown)}")
        doc = dict(doc)
        if "encoder_widths" in doc:
            doc["encoder_widths"] = tuple(doc["encoder_widths"])
        return cls(**doc)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=1)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


@dataclass
class NetworkOutputs:
    """All per-batch head outputs. Tensor fields are (B, ...) and live on
    one computation record; ``conf`` is detached (plain numpy) because
    confidence weights never receive gradient."""

    heatmap: Tensor      # (B, J, H, W) PDFs
    q_loc: Tensor        # (B, J, 2) soft-argmax coordinates
    conf: np.ndarray     # (B, J) per-joint peak values
    limbs: Tensor        # (B, J, 3) unit limb directions, root row zero
    pose_canon: Tensor   # (B, J, 3) forward-kinematics output
    cam_angles: Tensor   # (B, 3)
    cam_scale: Tensor    # (B,) > SCALE_FLOOR
    cam_trans: Tensor    # (B, 2)
    pose_cam: Tensor     # (B, J, 3) rotated 3D pose
    q_proj: Tensor       # (B, J, 2) projected coordinates


def _init_dense(rng, fan_in, fan_out, name, params):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    w = Parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)), name=name + ".w")
    b = Parameter(np.zeros(fan_out), name=name + ".b")
    params[w.name] = w
    params[b.name] = b
    return w, b


def _dense(params, name, x):
    return ad.dense(x, params[name + ".w"], params[name + ".b"])


def residual_fc_block(params, name, x):
    """x + Dense(ReLU(Dense(x))); in/out widths equal."""
    h = ad.relu(_dense(params, name + ".fc1", x))
    return ad.add(x, _dense(params, name + ".fc2", h))


class PoseNet:
    """The main two-head model. Parameters live in ``self.params`` keyed by
    layer name; the forward pass is a pure function of (params, obs)."""

    def __init__(self, config=None, tree=None, rng=None):
        self.config = config or ModelConfig()
        self.tree = tree or default_tree()
        rng = rng or np.random.default_rng(0)
        c = self.config
        j = self.tree.joint_count
        hw = c.heatmap_size * c.heatmap_size
        self.params = {}
        widths = (c.image_size * c.image_size,) + tuple(c.encoder_widths)
        for i in range(len(widths) - 1):
            _init_dense(rng, widths[i], widths[i + 1], f"enc{i}", self.params)
        _init_dense(rng, widths[-1], j * hw, "loc_head", self.params)
        _init_dense(rng, widths[-1], c.trunk_width, "trunk_in", self.params)
        for i in range(c.trunk_blocks):
            _init_dense(rng, c.trunk_width, c.trunk_width, f"trunk_res{i}.fc1", self.params)
            _init_dense(rng, c.trunk_width, c.trunk_width, f"trunk_res{i}.fc2", self.params)
        _init_dense(rng, c.trunk_width, 6, "cam_head", self.params)
        _init_dense(rng, c.trunk_width, 3 * j, "limb_head", self.params)
        # constants of the kinematic chain
        self._grid = cell_centers(c.heatmap_size, c.heatmap_size)
        self._ancestors = self.tree.ancestor_matrix()
        self._lengths = self.tree.bone_length[:, None].copy()
        self._lengths[0] = 0.0  # root row never contributes
        self._nonroot = np.ones((j, 1))
        self._nonroot[0] = 0.0

    def parameters(self):
        return list(self.params.values())

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def encode(self, obs):
        x = Tensor(np.asarray(obs, dtype=np.float64).reshape(len(obs), -1))
        for i in range(len(self.config.encoder_widths)):
            x = ad.relu(_dense(self.params, f"enc{i}", x))
        return x

    def forward(self, obs):
        """Run the full two-head forward on a (B, R, R) observation batch."""
        obs = np.asarray(obs, dtype=np.float64)
        if obs.ndim == 2:
            obs = obs[None]
        c = self.config
        j = self.tree.joint_count
        hs = c.heatmap_size
        feat = self.encode(obs)

        # localization head
        logits = ad.reshape(_dense(self.params, "loc_head", feat), (len(obs), j, hs * hs))
        heat_flat = ad.softmax_rows(logits)
        q_loc = ad.matmul(heat_flat, Tensor(self._grid))
        conf = heat_flat.data.max(axis=-1)
        heatmap = ad.reshape(heat_flat, (len(obs), j, hs, hs))

        # regression head
        trunk = ad.relu(_dense(self.params, "trunk_in", feat))
        for i in range(c.trunk_blocks):
            trunk = residual_fc_block(self.params, f"trunk_res{i}", trunk)
        limbs_raw = ad.reshape(_dense(self.params, "limb_head", trunk), (len(obs), j, 3))
        limbs = ad.mul(ad.unit_rows(limbs_raw), Tensor(self._nonroot))
        scaled = ad.mul(limbs, Tensor(self._lengths))
        pose_canon = ad.matmul(Tensor(self._ancestors), scaled)

        cam_raw = _dense(self.params, "cam_head", trunk)
        cam_angles = cam_raw[:, :3]
        cam_scale = ad.add(ad.softplus(cam_raw[:, 3]), Tensor(SCALE_FLOOR))
        cam_trans = cam_raw[:, 4:6]
        rot = _euler_zyx_batch(cam_angles)
        pose_cam = ad.matmul(pose_canon, ad.transpose(rot, (0, 2, 1)))
        q_proj = ad.add(
            ad.mul(ad.reshape(cam_scale, (len(obs), 1, 1)), pose_cam[:, :, :2]),
            ad.reshape(cam_trans, (len(obs), 1, 2)))

        return NetworkOutputs(heatmap=heatmap, q_loc=q_loc, conf=conf, limbs=limbs,
                              pose_canon=pose_canon, cam_angles=cam_angles,
                              cam_scale=cam_scale, cam_trans=cam_trans,
                              pose_cam=pose_cam, q_proj=q_proj)

    def save(self, path_prefix):
        save_params(sorted(self.params.values(), key=lambda p: p.name), path_prefix)
        with open(path_prefix + ".config.json", "w") as f:
            f.write(self.config.to_json())
        with open(path_prefix + ".skeleton.json", "w") as f:
            f.write(self.tree.to_json())

    @classmethod
    def load(cls, path_prefix):
        try:
            with open(path_prefix + ".config.json") as f:
                config = ModelConfig.from_json(f.read())
            with open(path_prefix + ".skeleton.json") as f:
                tree = KinematicTree.from_json(f.read())
        except (KeyError, TypeError, ValueError) as e:
            raise DataInvariantError(f"checkpoint {path_prefix}: bad model "
                                     f"description: {e!r}") from e
        net = cls(config=config, tree=tree)
        copy_checkpoint(net.params, path_prefix)
        return net


def _euler_zyx_batch(angles):
    """(B, 3) intrinsic Z-Y-X angles -> (B, 3, 3) rotation matrices,
    differentiable. Matches skeleton.euler_to_rotation."""
    ca, sa = ad.cos(angles[:, 0]), ad.sin(angles[:, 0])
    cb, sb = ad.cos(angles[:, 1]), ad.sin(angles[:, 1])
    cc, sc = ad.cos(angles[:, 2]), ad.sin(angles[:, 2])
    entries = [
        ad.mul(ca, cb),
        ad.sub(ad.mul(ad.mul(ca, sb), sc), ad.mul(sa, cc)),
        ad.add(ad.mul(ad.mul(ca, sb), cc), ad.mul(sa, sc)),
        ad.mul(sa, cb),
        ad.add(ad.mul(ad.mul(sa, sb), sc), ad.mul(ca, cc)),
        ad.sub(ad.mul(ad.mul(sa, sb), cc), ad.mul(ca, sc)),
        ad.scale(sb, -1.0),
        ad.mul(cb, sc),
        ad.mul(cb, cc),
    ]
    flat = ad.stack(entries, axis=1)
    return ad.reshape(flat, (flat.shape[0], 3, 3))


class FusionNet:
    """Small regressor combining the 3D pose, the localization head's 2D
    pose, and the joint confidences into the final 3D prediction.

    The output is the input 3D pose plus a learned correction, so an
    untrained (or unhelpful) fusion network starts at the regression
    head's accuracy instead of having to re-learn the pose from scratch.
    """

    def __init__(self, tree=None, config=None, rng=None):
        self.tree = tree or default_tree()
        self.config = config or ModelConfig()
        rng = rng or np.random.default_rng(0)
        j = self.tree.joint_count
        w = self.config.fusion_width
        self.params = {}
        _init_dense(rng, 6 * j, w, "fuse_in", self.params)
        for i in range(self.config.fusion_blocks):
            _init_dense(rng, w, w, f"fuse_res{i}.fc1", self.params)
            _init_dense(rng, w, w, f"fuse_res{i}.fc2", self.params)
        _init_dense(rng, w, 3 * j, "fuse_out", self.params)
        # zero correction at init: the fused pose starts equal to the input
        self.params["fuse_out.w"].data[...] = 0.0
        self.params["fuse_out.b"].data[...] = 0.0

    def parameters(self):
        return list(self.params.values())

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def forward(self, pose_cam, q_loc, conf):
        """Inputs may be Tensors or numpy; returns a (B, J, 3) Tensor."""
        pose_cam = ad.as_tensor(pose_cam)
        q_loc = ad.as_tensor(q_loc)
        conf = ad.as_tensor(conf)
        b = pose_cam.shape[0]
        j = self.tree.joint_count
        x = ad.concat([ad.reshape(pose_cam, (b, 3 * j)),
                       ad.reshape(q_loc, (b, 2 * j)),
                       ad.reshape(conf, (b, j))], axis=1)
        x = ad.relu(_dense(self.params, "fuse_in", x))
        for i in range(self.config.fusion_blocks):
            x = residual_fc_block(self.params, f"fuse_res{i}", x)
        out = _dense(self.params, "fuse_out", x)
        return ad.add(pose_cam, ad.reshape(out, (b, j, 3)))

    def save(self, path_prefix):
        save_params(sorted(self.params.values(), key=lambda p: p.name), path_prefix)

    def load_weights(self, path_prefix):
        copy_checkpoint(self.params, path_prefix)
