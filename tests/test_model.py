"""Structural contracts of the two-head network and the fusion regressor."""

import numpy as np
import pytest

from poseadapt import autodiff as ad
from poseadapt.heatmap import soft_argmax
from poseadapt.autodiff import Parameter
from poseadapt.model import SCALE_FLOOR, FusionNet, ModelConfig, PoseNet
from poseadapt.optim import load_params, save_params
from poseadapt.skeleton import default_tree
from poseadapt.synthdata import DataInvariantError


def small_model(seed=0):
    cfg = ModelConfig(encoder_widths=(64, 32), trunk_width=32, trunk_blocks=1,
                      fusion_width=16, fusion_blocks=1)
    return PoseNet(config=cfg, rng=np.random.default_rng(seed))


def random_obs(rng, b, size=32):
    return rng.uniform(size=(b, size, size))


def test_forward_shapes():
    model = small_model()
    out = model.forward(random_obs(np.random.default_rng(0), 3))
    j = model.tree.joint_count
    hs = model.config.heatmap_size
    assert out.heatmap.shape == (3, j, hs, hs)
    assert out.q_loc.shape == (3, j, 2)
    assert out.conf.shape == (3, j)
    assert out.limbs.shape == (3, j, 3)
    assert out.pose_canon.shape == (3, j, 3)
    assert out.pose_cam.shape == (3, j, 3)
    assert out.q_proj.shape == (3, j, 2)
    assert out.cam_scale.shape == (3,)


def test_heatmaps_are_pdfs_and_confidence_is_peak():
    model = small_model()
    out = model.forward(random_obs(np.random.default_rng(1), 2))
    heat = out.heatmap.data
    assert np.all(heat > 0)
    np.testing.assert_allclose(heat.sum(axis=(-1, -2)), 1.0, atol=1e-12)
    np.testing.assert_allclose(out.conf, heat.max(axis=(-1, -2)), atol=1e-15)


def test_q_loc_is_soft_argmax_of_heatmap():
    model = small_model()
    out = model.forward(random_obs(np.random.default_rng(2), 2))
    for b in range(2):
        np.testing.assert_allclose(out.q_loc.data[b],
                                   soft_argmax(out.heatmap.data[b]), atol=1e-12)


def test_limb_vectors_are_unit_and_root_zero():
    model = small_model()
    out = model.forward(random_obs(np.random.default_rng(3), 2))
    norms = np.linalg.norm(out.limbs.data, axis=-1)
    np.testing.assert_allclose(norms[:, 1:], 1.0, atol=1e-9)
    np.testing.assert_allclose(norms[:, 0], 0.0, atol=1e-12)


def test_pose_respects_bone_lengths():
    model = small_model()
    tree = model.tree
    out = model.forward(random_obs(np.random.default_rng(4), 2))
    for b in range(2):
        pose = out.pose_canon.data[b]
        for j in range(1, tree.joint_count):
            seg = np.linalg.norm(pose[j] - pose[int(tree.parent[j])])
            assert seg == pytest.approx(tree.bone_length[j], abs=1e-9)
        np.testing.assert_allclose(pose[0], 0.0, atol=1e-12)


def test_camera_scale_floor_and_projection_consistency():
    model = small_model()
    out = model.forward(random_obs(np.random.default_rng(5), 4))
    assert np.all(out.cam_scale.data > SCALE_FLOOR)
    manual = (out.cam_scale.data[:, None, None] * out.pose_cam.data[:, :, :2]
              + out.cam_trans.data[:, None, :])
    np.testing.assert_allclose(out.q_proj.data, manual, atol=1e-12)
    # camera rotation keeps distances to the root
    np.testing.assert_allclose(np.linalg.norm(out.pose_cam.data, axis=-1),
                               np.linalg.norm(out.pose_canon.data, axis=-1),
                               atol=1e-9)


def test_batch_forward_matches_single_forwards():
    model = small_model()
    obs = random_obs(np.random.default_rng(6), 3)
    batched = model.forward(obs)
    for b in range(3):
        single = model.forward(obs[b])
        np.testing.assert_allclose(single.heatmap.data[0], batched.heatmap.data[b],
                                   atol=1e-12)
        np.testing.assert_allclose(single.pose_cam.data[0], batched.pose_cam.data[b],
                                   atol=1e-12)


def test_forward_is_deterministic():
    model = small_model()
    obs = random_obs(np.random.default_rng(7), 2)
    a = model.forward(obs)
    b = model.forward(obs)
    np.testing.assert_array_equal(a.heatmap.data, b.heatmap.data)
    np.testing.assert_array_equal(a.q_proj.data, b.q_proj.data)


def test_save_load_round_trip_is_bit_exact(tmp_path):
    model = small_model(seed=3)
    obs = random_obs(np.random.default_rng(8), 2)
    before = model.forward(obs)
    prefix = str(tmp_path / "model")
    model.save(prefix)
    clone = PoseNet.load(prefix)
    after = clone.forward(obs)
    np.testing.assert_array_equal(before.heatmap.data, after.heatmap.data)
    np.testing.assert_array_equal(before.pose_cam.data, after.pose_cam.data)
    np.testing.assert_array_equal(before.q_proj.data, after.q_proj.data)
    assert clone.tree.names == model.tree.names


def test_model_gradients_match_finite_differences():
    model = small_model(seed=4)
    rng = np.random.default_rng(9)
    obs = random_obs(rng, 2)
    target_h = np.zeros((2, model.tree.joint_count,
                         model.config.heatmap_size, model.config.heatmap_size))
    names = sorted(model.params)
    picked = [model.params[n] for n in
              (names[0], "loc_head.w", "cam_head.w", "limb_head.b")]

    def loss_fn():
        out = model.forward(obs)
        return ad.add(ad.mse(out.heatmap, ad.Tensor(target_h)),
                      ad.add(ad.tmean(out.pose_cam), ad.tmean(out.q_proj)))

    assert ad.gradient_check(loss_fn, picked, rng) < 1e-4


def test_fusion_shapes_and_gradients():
    model = small_model(seed=5)
    fusion = FusionNet(tree=model.tree, config=model.config,
                       rng=np.random.default_rng(10))
    rng = np.random.default_rng(11)
    out = model.forward(random_obs(rng, 2))
    fused = fusion.forward(out.pose_cam.data, out.q_loc.data, out.conf)
    assert fused.shape == (2, model.tree.joint_count, 3)

    def loss_fn():
        f = fusion.forward(out.pose_cam.data, out.q_loc.data, out.conf)
        return ad.tmean(ad.mul(f, f))

    picked = [fusion.params["fuse_in.w"], fusion.params["fuse_out.b"]]
    assert ad.gradient_check(loss_fn, picked, rng) < 1e-4


def test_fusion_save_load_round_trip(tmp_path):
    model = small_model(seed=6)
    fusion = FusionNet(tree=model.tree, config=model.config,
                       rng=np.random.default_rng(12))
    out = model.forward(random_obs(np.random.default_rng(13), 2))
    before = fusion.forward(out.pose_cam.data, out.q_loc.data, out.conf).data
    prefix = str(tmp_path / "fusion")
    fusion.save(prefix)
    clone = FusionNet(tree=model.tree, config=model.config,
                      rng=np.random.default_rng(99))
    clone.load_weights(prefix)
    after = clone.forward(out.pose_cam.data, out.q_loc.data, out.conf).data
    np.testing.assert_array_equal(before, after)


def _rewrite_checkpoint(model, prefix, edit):
    """Save ``model``, then rewrite its parameter files from the list of
    parameters that ``edit`` returns (manifest and blob stay consistent)."""
    model.save(prefix)
    save_params(edit([Parameter(p.data.copy(), name=p.name)
                      for p in sorted(model.params.values(), key=lambda p: p.name)]),
                prefix)


def test_load_rejects_missing_entry(tmp_path):
    prefix = str(tmp_path / "model")
    _rewrite_checkpoint(small_model(), prefix,
                        lambda ps: [p for p in ps if p.name != "enc0.b"])
    with pytest.raises(DataInvariantError, match="missing entries \\['enc0.b'\\]"):
        PoseNet.load(prefix)


def test_load_rejects_extra_entry(tmp_path):
    prefix = str(tmp_path / "model")
    _rewrite_checkpoint(small_model(), prefix,
                        lambda ps: ps + [Parameter(np.zeros(3), name="bogus.w")])
    with pytest.raises(DataInvariantError, match="unexpected entries \\['bogus.w'\\]"):
        PoseNet.load(prefix)


def test_load_rejects_shape_mismatch(tmp_path):
    prefix = str(tmp_path / "model")

    def reshape_bias(ps):
        return [Parameter(np.zeros(5), name=p.name) if p.name == "cam_head.b" else p
                for p in ps]

    _rewrite_checkpoint(small_model(), prefix, reshape_bias)
    with pytest.raises(DataInvariantError, match="'cam_head.b' has shape \\[5\\]"):
        PoseNet.load(prefix)


def test_load_rejects_bad_model_description(tmp_path):
    prefix = str(tmp_path / "model")
    small_model().save(prefix)
    with open(prefix + ".config.json", "w") as f:
        f.write('{"image_size": 32, "bogus": 1}')
    with pytest.raises(DataInvariantError, match="bogus"):
        PoseNet.load(prefix)


def test_fusion_load_rejects_foreign_checkpoint(tmp_path):
    model = small_model()
    prefix = str(tmp_path / "model")
    model.save(prefix)
    fusion = FusionNet(tree=model.tree, config=model.config,
                       rng=np.random.default_rng(0))
    before = {k: p.data.copy() for k, p in fusion.params.items()}
    with pytest.raises(DataInvariantError):
        fusion.load_weights(prefix)
    for k, p in fusion.params.items():  # nothing copied on failure
        np.testing.assert_array_equal(p.data, before[k])


def test_load_params_rejects_blob_length_mismatch(tmp_path):
    prefix = str(tmp_path / "ckpt")
    save_params([Parameter(np.ones((2, 3)), name="a")], prefix)
    with open(prefix + ".bin", "ab") as f:
        f.write(np.zeros(1).tobytes())
    with pytest.raises(DataInvariantError, match="blob holds 7 floats"):
        load_params(prefix)
    with open(prefix + ".json", "w") as f:
        f.write('{"params": [{"name": "a"}]}')
    with pytest.raises(DataInvariantError, match="bad manifest"):
        load_params(prefix)


def test_model_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ModelConfig.from_dict({"image_size": 32, "bogus": 1})
