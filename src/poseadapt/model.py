"""Two-head pose network: shared fully-connected encoder, a heatmap
localization head, and a regression head that goes through forward
kinematics and a scaled-orthographic camera, plus the fusion regressor.
The localization head is one ``autodiff.softmax_dense`` pass, which also
yields the entropies H; the camera's rotation is one ``rotate_zyx`` node.

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
from .optim import load_checkpoint, save_params
from .skeleton import KinematicTree, default_tree
from .synthdata import DataInvariantError, check_field_types

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

    def __post_init__(self):
        check_field_types(self)
        object.__setattr__(self, "encoder_widths", tuple(self.encoder_widths))
        sizes = [("image_size", self.image_size, 1), ("heatmap_size", self.heatmap_size, 1),
                 ("trunk_width", self.trunk_width, 1), ("trunk_blocks", self.trunk_blocks, 0),
                 ("fusion_width", self.fusion_width, 1),
                 ("fusion_blocks", self.fusion_blocks, 0)]
        sizes += [(f"encoder_widths[{i}]", w, 1) for i, w in enumerate(self.encoder_widths)]
        for name, value, least in sizes:
            if not (isinstance(value, int) and not isinstance(value, bool) and value >= least):
                raise ValueError(f"ModelConfig.{name} must be an integer >= {least}, "
                                 f"not {value!r}")


@dataclass
class NetworkOutputs:
    """All per-batch head outputs. Tensor fields are (B, ...) and live on
    one computation record; ``conf`` is detached (plain numpy) because
    confidence weights never receive gradient."""

    heatmap: Tensor      # (B, J, H, W) PDFs
    entropy: Tensor      # (B, J) heatmap self-entropies H, a node over heatmap
    q_loc: Tensor        # (B, J, 2) soft-argmax coordinates
    conf: np.ndarray     # (B, J) per-joint peak values
    limbs: Tensor        # (B, J, 3) unit limb directions, root row zero
    pose_canon: Tensor   # (B, J, 3) forward-kinematics output
    cam_angles: Tensor   # (B, 3)
    cam_scale: Tensor    # (B,) > SCALE_FLOOR
    cam_trans: Tensor    # (B, 2)
    pose_cam: Tensor     # (B, J, 3) rotated 3D pose
    q_proj: Tensor       # (B, J, 2) projected coordinates


def _dense_shapes(layers):
    """name -> shape of the weights and the bias of each (name, fan_in,
    fan_out) dense layer, in the order of ``layers``."""
    shapes = {}
    for name, fan_in, fan_out in layers:
        shapes[name + ".w"] = (fan_in, fan_out)
        shapes[name + ".b"] = (fan_out,)
    return shapes


def _init_params(rng, shapes):
    """Glorot-uniform weights and zero biases for a ``_dense_shapes``
    table, drawn from ``rng`` in the table's order."""
    params = {}
    for name, shape in shapes.items():
        if name.endswith(".w"):
            bound = np.sqrt(6.0 / sum(shape))
            params[name] = Parameter(rng.uniform(-bound, bound, size=shape), name=name)
        else:
            params[name] = Parameter(np.zeros(shape), name=name)
    return params


def _posenet_shapes(c, tree):
    """The parameter table of a PoseNet with config ``c`` on ``tree``."""
    j = tree.joint_count
    widths = (c.image_size * c.image_size,) + tuple(c.encoder_widths)
    layers = [(f"enc{i}", widths[i], widths[i + 1]) for i in range(len(widths) - 1)]
    layers += [("loc_head", widths[-1], j * c.heatmap_size * c.heatmap_size),
               ("trunk_in", widths[-1], c.trunk_width)]
    layers += [(f"trunk_res{i}.fc{k}", c.trunk_width, c.trunk_width)
               for i in range(c.trunk_blocks) for k in (1, 2)]
    layers += [("cam_head", c.trunk_width, 6), ("limb_head", c.trunk_width, 3 * j)]
    return _dense_shapes(layers)


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
        self._setup(config or ModelConfig(), tree or default_tree())
        self.params = _init_params(rng or np.random.default_rng(0),
                                   _posenet_shapes(self.config, self.tree))

    def _setup(self, config, tree):
        """Config, tree and the constants of the kinematic chain: all of
        the network but its parameters."""
        self.config, self.tree = config, tree
        self._grid = cell_centers(config.heatmap_size, config.heatmap_size)
        self._ancestors = tree.ancestor_matrix()
        self._lengths = tree.bone_length[:, None].copy()
        self._lengths[0] = 0.0  # root row never contributes
        self._nonroot = np.ones((tree.joint_count, 1))
        self._nonroot[0] = 0.0

    def parameters(self):
        return list(self.params.values())

    def encode(self, obs):
        x = obs.reshape(len(obs), -1)
        for i in range(len(self.config.encoder_widths)):
            x = ad.relu(_dense(self.params, f"enc{i}", x))
        return x

    def forward(self, obs):
        """Run the full two-head forward on a (B, R, R) observation batch."""
        obs = np.asarray(obs)
        if obs.ndim == 2:
            obs = obs[None]
        c = self.config
        j = self.tree.joint_count
        hs = c.heatmap_size
        feat = self.encode(obs)

        # localization head
        heat_flat, heatmap, entropy = ad.softmax_dense(
            feat, self.params["loc_head.w"], self.params["loc_head.b"], (len(obs), j, hs, hs))
        q_loc = ad.matmul(heat_flat, self._grid)
        conf = heat_flat.data.max(axis=-1)

        # regression head
        trunk = ad.relu(_dense(self.params, "trunk_in", feat))
        for i in range(c.trunk_blocks):
            trunk = residual_fc_block(self.params, f"trunk_res{i}", trunk)
        limbs_raw = ad.reshape(_dense(self.params, "limb_head", trunk), (len(obs), j, 3))
        limbs = ad.mul(ad.unit_rows(limbs_raw), self._nonroot)
        scaled = ad.mul(limbs, self._lengths)
        pose_canon = ad.matmul(self._ancestors, scaled)

        cam_raw = _dense(self.params, "cam_head", trunk)
        cam_angles = cam_raw[:, :3]
        cam_scale = ad.add(ad.softplus(cam_raw[:, 3]), SCALE_FLOOR)
        cam_trans = cam_raw[:, 4:6]
        pose_cam = ad.rotate_zyx(pose_canon, cam_angles)
        q_proj = ad.add(
            ad.mul(ad.reshape(cam_scale, (len(obs), 1, 1)), pose_cam[:, :, :2]),
            ad.reshape(cam_trans, (len(obs), 1, 2)))

        return NetworkOutputs(heatmap=heatmap, entropy=entropy, q_loc=q_loc, conf=conf,
                              limbs=limbs,
                              pose_canon=pose_canon, cam_angles=cam_angles,
                              cam_scale=cam_scale, cam_trans=cam_trans,
                              pose_cam=pose_cam, q_proj=q_proj)

    def save(self, path_prefix):
        save_params(sorted(self.params.values(), key=lambda p: p.name), path_prefix)
        with open(path_prefix + ".config.json", "w") as f:
            json.dump(asdict(self.config), f, indent=1)
        with open(path_prefix + ".skeleton.json", "w") as f:
            f.write(self.tree.to_json())

    @classmethod
    def load(cls, path_prefix):
        try:
            with open(path_prefix + ".config.json") as f:
                config = ModelConfig(**json.load(f))
            with open(path_prefix + ".skeleton.json") as f:
                tree = KinematicTree.from_json(f.read())
        except (KeyError, TypeError, ValueError) as e:
            raise DataInvariantError(f"checkpoint {path_prefix}: bad model "
                                     f"description: {e!r}") from e
        net = cls.__new__(cls)  # no initial weights: the checkpoint has them all
        net._setup(config, tree)
        net.params = load_checkpoint(path_prefix, _posenet_shapes(config, tree))
        return net


def heatmap_residual(pose_cam, q_loc):
    """(B, J, 2) gap between the heatmap 2D pose back-projected into the
    regression head's camera frame and the head's own x/y.

    Each sample's scaled-orthographic camera is fitted by least squares to
    ``q_loc ~ s * pose_cam[..., :2] + t``, with ``s`` floored at
    ``SCALE_FLOOR`` so that a collapsed 2D pose (flat heatmaps) cannot blow
    the back-projection ``(q_loc - t) / s`` up. Plain numpy: the residual
    is a constant to every loss."""
    j = q_loc.shape[1]
    # centring by a (J, J) product: numpy's broadcast subtraction of
    # (B, 1, 2) joint means from a (B, J, 2) stack is several times slower
    centre = np.eye(j) - 1.0 / j
    dp = centre @ pose_cam[..., :2]
    dq = centre @ q_loc
    num = np.einsum("bjk,bjk->b", dp, dq)
    den = np.einsum("bjk,bjk->b", dp, dp)
    dq /= np.maximum(num / np.maximum(den, 1e-12), SCALE_FLOOR)[:, None, None]
    # t = mean(q_loc) - s * mean(xy), so (q_loc - t) / s - xy = dq / s - dp
    dq -= dp
    return dq


class FusionNet:
    """Combines the regression head's 3D pose, the localization head's 2D
    pose and the joint confidences into the final 3D prediction.

    x/y: the head's x/y plus ``w`` times ``heatmap_residual``, the pull
    toward the heatmap 2D pose back-projected through a camera fitted per
    sample. ``w`` is the checkpointed scalar ``fuse_blend`` in [0, 1],
    set in closed form by ``train_fusion`` on source data and never
    stepped by an optimizer (``parameters()`` leaves it out).

    Depth: the head's z plus a per-joint correction from a residual MLP
    over all three inputs. An MLP free to move x/y as well learns an x/y
    correction on source images that does not carry over to the target
    domain's appearance; the 2D evidence of the heatmaps does.

    At ``w = 0`` and the zero-initialised output layer the fused pose is
    the input pose, so an untrained (or unhelpful) fusion network stays at
    the regression head's accuracy instead of having to re-learn the pose
    from scratch.
    """

    BLEND = "fuse_blend"

    def __init__(self, tree=None, config=None, rng=None):
        self.tree = tree or default_tree()
        self.config = config or ModelConfig()
        rng = rng or np.random.default_rng(0)
        j = self.tree.joint_count
        w = self.config.fusion_width
        layers = [("fuse_in", 6 * j, w)]
        layers += [(f"fuse_res{i}.fc{k}", w, w)
                   for i in range(self.config.fusion_blocks) for k in (1, 2)]
        layers += [("fuse_out", w, j)]
        self.params = _init_params(rng, _dense_shapes(layers))
        # zero correction at init: the fused pose starts equal to the input
        self.params["fuse_out.w"].data[...] = 0.0
        self.params[self.BLEND] = Parameter(np.zeros(()), name=self.BLEND)
        self._z = np.array([[0.0, 0.0, 1.0]])

    def parameters(self):
        """The parameters an optimizer steps: all but ``fuse_blend``."""
        return [p for name, p in self.params.items() if name != self.BLEND]

    def forward(self, pose_cam, q_loc, conf):
        """Numpy (B, J, 3), (B, J, 2) and (B, J) inputs, which are
        constants: no gradient flows back into them. Returns a (B, J, 3)
        Tensor."""
        b, j = pose_cam.shape[:2]
        x = np.concatenate([pose_cam.reshape(b, -1), q_loc.reshape(b, -1), conf], axis=1)
        x = ad.relu(_dense(self.params, "fuse_in", x))
        for i in range(self.config.fusion_blocks):
            x = residual_fc_block(self.params, f"fuse_res{i}", x)
        dz = ad.reshape(_dense(self.params, "fuse_out", x), (b, j, 1))
        # products with (2, 3) and (1, 3) embeddings write x/y and z: numpy's
        # strided and broadcast updates of (B, J, 3) stacks are slower
        base = pose_cam + heatmap_residual(pose_cam, q_loc) @ (
            self.params[self.BLEND].data * np.eye(2, 3))
        return ad.add(base, ad.matmul(dz, self._z))

    def save(self, path_prefix):
        save_params(sorted(self.params.values(), key=lambda p: p.name), path_prefix)

    def load_weights(self, path_prefix):
        """Replace the parameters by views of a checkpoint that holds
        exactly their names and shapes; on any other checkpoint raise
        ``DataInvariantError`` and keep them."""
        self.params = load_checkpoint(
            path_prefix, {name: p.data.shape for name, p in self.params.items()})
