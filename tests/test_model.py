"""Structural contracts of the two-head network and the fusion regressor."""

import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from oracles import soft_argmax, spatial_softmax
from poseadapt import autodiff as ad
from poseadapt.autodiff import ComputationRecord, Parameter
from poseadapt.model import (SCALE_FLOOR, FusionNet, ModelConfig, PoseNet,
                            heatmap_residual)
from poseadapt.optim import Adam, load_params, save_params
from poseadapt.skeleton import default_tree, euler_to_rotation
from poseadapt.synthdata import (DataInvariantError, DomainSpec, build_dataset,
                                 load_dataset, save_dataset)


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


def test_camera_rotation_is_one_node_matching_euler_to_rotation():
    model = small_model()
    # a bias of large angles, so the rotations leave every quadrant's
    # signs of sine and cosine to be checked
    model.params["cam_head.b"].data[:3] = [2.0, -1.2, 2.8]
    out = model.forward(random_obs(np.random.default_rng(7), 4))
    rot = euler_to_rotation(out.cam_angles.data)
    np.testing.assert_allclose(out.pose_cam.data,
                               out.pose_canon.data @ np.swapaxes(rot, -1, -2),
                               rtol=0, atol=1e-12)
    # one node on top of the graphs of its two operands
    assert out.pose_cam.parents == (out.pose_canon, out.cam_angles)
    below = {id(n) for t in (out.pose_canon, out.cam_angles)
             for n in ComputationRecord.trace(t).nodes}
    assert len(ComputationRecord.trace(out.pose_cam).nodes) == len(below) + 1


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


def test_loaded_model_holds_no_gradient_state_and_trains_like_the_saved_one(tmp_path):
    model = small_model(seed=7)
    prefix = str(tmp_path / "model")
    model.save(prefix)
    clone = PoseNet.load(prefix)
    assert list(clone.params) == list(model.params)
    for name, p in clone.params.items():
        assert not hasattr(p, "grad") and not hasattr(p, "__dict__"), name
    obs = random_obs(np.random.default_rng(14), 3)
    for net in (model, clone):
        opt = Adam(net.parameters(), lr=1e-3)
        out = net.forward(obs)
        opt.step(ad.backward(ad.add(ad.tmean(ad.mul(out.heatmap, out.heatmap)),
                                    ad.tmean(out.pose_cam)), opt.params))
    for name, p in model.params.items():
        np.testing.assert_array_equal(clone.params[name].data, p.data, err_msg=name)


# SHA-256 over the arrays a saved occlusion_mix 0.5 dataset loads back as,
# the parameters of a loaded default-size checkpoint and its forward pass on
# that dataset; recorded before the checkpoint and dataset loaders read
# whole arrays
GOLDEN_LOAD_DIGEST = "49f680d1d5e96e50d6501995f66aeb9b2e90b74bc4ac9c8b8af1a530d7d4cdb8"


def test_loaded_dataset_checkpoint_and_forward_match_the_recorded_digest(tmp_path):
    ds = build_dataset(DomainSpec(name="test", appearance_seed=7), 10, 0.5,
                       np.random.default_rng(31), default_tree())
    assert {s.occlusion for s in ds} == {"none", "object", "truncation"}
    save_dataset(ds, str(tmp_path), "toy")
    PoseNet(rng=np.random.default_rng(32)).save(str(tmp_path / "model"))
    loaded = load_dataset(str(tmp_path), "toy")
    net = PoseNet.load(str(tmp_path / "model"))
    h = hashlib.sha256()
    for s in loaded:
        for key in ("obs", "gt_p", "gt_q", "gt_h", "visibility"):
            # float fields hash their float64 values, whatever precision
            # they load at (test_synthdata pins the loaded dtypes)
            a = getattr(s, key)
            if a.dtype.kind == "f":
                a = a.astype(np.float64)
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(np.concatenate([s.cam.euler, [s.cam.scale], s.cam.translation]).tobytes())
        h.update(f"{s.domain}|{s.occlusion}|{s.is_background}".encode())
    for name in sorted(net.params):
        h.update(name.encode())
        h.update(net.params[name].data.tobytes())
    out = net.forward(np.stack([s.obs for s in loaded]))
    for key in ("heatmap", "q_loc", "limbs", "pose_canon", "cam_angles", "cam_scale",
                "cam_trans", "pose_cam", "q_proj"):
        h.update(getattr(out, key).data.tobytes())
    h.update(out.conf.tobytes())
    assert h.hexdigest() == GOLDEN_LOAD_DIGEST


# SHA-256 over the heatmaps, soft-argmax keypoints, confidences and rotated
# poses of default-model forwards at batches 1, 8 and 64, recorded
# before the softmax and the entropies became one pass over the logits
GOLDEN_HEAD_DIGEST = "d2aac7fa3fed7ba036bf9e8e7ecd52101e776d7bf9ca98e3f49eefdaf24eb0ac"


def _forward_batches(model):
    """Recorded and unrecorded forwards of the model at batches 1, 8 and
    64: (batch, obs, recorded outputs, unrecorded outputs)."""
    rng = np.random.default_rng(41)
    for batch in (1, 8, 64):
        obs = rng.uniform(size=(batch, 32, 32))
        out = model.forward(obs)
        with ad.no_grad():
            yield batch, obs, out, model.forward(obs)


def test_forward_heads_match_the_recorded_digest():
    h = hashlib.sha256()
    for _, _, out, free in _forward_batches(PoseNet(rng=np.random.default_rng(40))):
        for o in (out, free):
            for a in (o.heatmap.data, o.q_loc.data, o.conf, o.pose_cam.data):
                h.update(a.tobytes())
    assert h.hexdigest() == GOLDEN_HEAD_DIGEST


def test_localization_head_is_the_three_pass_softmax_of_the_dense_logits():
    # at the default size 64 images span several blocks of the entropy
    # pass, 1 and 8 fit in one
    model = PoseNet(rng=np.random.default_rng(40))
    w, b = model.params["loc_head.w"].data, model.params["loc_head.b"].data
    for batch, obs, out, free in _forward_batches(model):
        with ad.no_grad():
            feat = model.encode(obs).data
        heat = spatial_softmax((feat @ w + b).reshape(batch, 17, 16, 16))
        flat = heat.reshape(batch, 17, 256)
        for o in (out, free):
            np.testing.assert_array_equal(o.heatmap.data, heat)
            np.testing.assert_array_equal(o.q_loc.data, flat @ model._grid)
            np.testing.assert_array_equal(o.conf, flat.max(axis=-1))
            assert o.entropy.shape == (batch, 17)
        np.testing.assert_array_equal(out.entropy.data, free.entropy.data)


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


def lstsq_residual(pose_cam, q_loc):
    """Oracle for heatmap_residual: per sample, solve the scaled
    orthographic camera [s, tx, ty] with np.linalg.lstsq, floor s, and
    back-project."""
    res = np.empty(q_loc.shape)
    for i, (p, q) in enumerate(zip(pose_cam, q_loc)):
        j = len(p)
        a = np.zeros((2 * j, 3))
        a[:j, 0], a[j:, 0] = p[:, 0], p[:, 1]
        a[:j, 1], a[j:, 2] = 1.0, 1.0
        s, tx, ty = np.linalg.lstsq(a, np.concatenate([q[:, 0], q[:, 1]]), rcond=None)[0]
        s = max(s, SCALE_FLOOR)
        tx, ty = q.mean(axis=0) - s * p[:, :2].mean(axis=0)  # best t for the floored s
        res[i] = (q - [tx, ty]) / s - p[:, :2]
    return res


def test_heatmap_residual_matches_lstsq_camera_fit():
    rng = np.random.default_rng(20)
    j = default_tree().joint_count
    pose = rng.standard_normal((4, j, 3))
    q = rng.uniform(-1, 1, (4, j, 2))
    q[1] = -0.3 * pose[1, :, :2] + 0.2  # a mirrored fit: s floored
    np.testing.assert_allclose(heatmap_residual(pose, q), lstsq_residual(pose, q),
                               atol=1e-12)


def test_heatmap_residual_zero_for_exact_projection():
    rng = np.random.default_rng(21)
    j = default_tree().joint_count
    pose = rng.standard_normal((3, j, 3))
    s = np.array([0.4, 1.0, 2.5])[:, None, None]
    t = rng.uniform(-1, 1, (3, 1, 2))
    res = heatmap_residual(pose, s * pose[..., :2] + t)
    np.testing.assert_allclose(res, 0.0, atol=1e-12)
    # below the floor the camera is held at SCALE_FLOOR, not fitted exactly
    small = 0.5 * SCALE_FLOOR
    dp = pose[..., :2] - pose[..., :2].mean(axis=1, keepdims=True)
    np.testing.assert_allclose(heatmap_residual(pose, small * pose[..., :2] + t),
                               (small / SCALE_FLOOR - 1.0) * dp, atol=1e-12)


def test_fusion_at_zero_blend_returns_input_pose():
    model = small_model(seed=7)
    fusion = FusionNet(tree=model.tree, config=model.config,
                       rng=np.random.default_rng(14))
    out = model.forward(random_obs(np.random.default_rng(15), 3))
    assert float(fusion.params["fuse_blend"].data) == 0.0
    fused = fusion.forward(out.pose_cam.data, out.q_loc.data, out.conf).data
    np.testing.assert_array_equal(fused, out.pose_cam.data)


def test_fusion_moves_xy_by_blend_and_depth_by_mlp():
    model = small_model(seed=8)
    fusion = FusionNet(tree=model.tree, config=model.config,
                       rng=np.random.default_rng(16))
    out = model.forward(random_obs(np.random.default_rng(17), 3))
    pose, q = out.pose_cam.data, out.q_loc.data
    fusion.params["fuse_blend"].data[...] = 0.3
    fusion.params["fuse_out.b"].data[...] = 0.5
    fused = fusion.forward(pose, q, out.conf).data
    np.testing.assert_allclose(fused[..., :2],
                               pose[..., :2] + 0.3 * heatmap_residual(pose, q), atol=1e-12)
    np.testing.assert_allclose(fused[..., 2], pose[..., 2] + 0.5, atol=1e-12)


def test_fusion_collapsed_2d_pose_is_finite():
    # flat heatmaps, as on backgrounds, put every joint at the grid centre
    model = small_model(seed=9)
    j, hs = model.tree.joint_count, model.config.heatmap_size
    q = np.stack([soft_argmax(np.full((j, hs, hs), 1.0 / hs ** 2))] * 2)
    assert np.ptp(q, axis=1).max() < 1e-12
    fusion = FusionNet(tree=model.tree, config=model.config,
                       rng=np.random.default_rng(18))
    fusion.params["fuse_blend"].data[...] = 1.0
    pose = model.forward(random_obs(np.random.default_rng(19), 2)).pose_cam.data
    for p in (pose, np.zeros_like(pose)):  # also a degenerate 3D pose
        fused = fusion.forward(p, q, np.full((2, j), 1.0 / hs ** 2)).data
        assert np.isfinite(fused).all()
        # the floored camera's back-projection is the x/y centroid, reached at w = 1
        np.testing.assert_allclose(
            fused[..., :2], np.broadcast_to(p[..., :2].mean(axis=1, keepdims=True),
                                            p[..., :2].shape), atol=1e-9)


def test_fusion_blend_is_checkpointed_but_not_trained(tmp_path):
    model = small_model(seed=10)
    fusion = FusionNet(tree=model.tree, config=model.config,
                       rng=np.random.default_rng(20))
    blend = fusion.params["fuse_blend"]
    assert all(p is not blend for p in fusion.parameters())
    blend.data[...] = 0.37
    prefix = str(tmp_path / "fusion")
    fusion.save(prefix)
    clone = FusionNet(tree=model.tree, config=model.config)
    clone.load_weights(prefix)
    assert float(clone.params["fuse_blend"].data) == 0.37


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


def test_load_params_rejects_overlapping_entries(tmp_path):
    prefix = str(tmp_path / "ckpt")
    save_params([Parameter(np.ones(2), name="a"), Parameter(np.ones(2), name="b")], prefix)
    with open(prefix + ".json") as f:
        doc = json.load(f)
    doc["params"][1]["offset"] = 1  # sizes still sum to the blob's, but b shares a float with a
    with open(prefix + ".json", "w") as f:
        json.dump(doc, f)
    with pytest.raises(DataInvariantError, match="'b' at offset 1 overlaps"):
        load_params(prefix)


@pytest.mark.parametrize("field, value", [
    ("shape", [-1, -256]), ("shape", [256.0]), ("shape", [True, 256]),
    ("offset", 0.0), ("size", -256)])
def test_load_params_rejects_entries_that_are_not_counts(tmp_path, field, value):
    # [-1, -256] has the right product and would reach numpy's reshape as
    # an unknown axis; 256.0 would reach it as a float
    prefix = str(tmp_path / "model")
    small_model().save(prefix)
    with open(prefix + ".json") as f:
        doc = json.load(f)
    (entry,) = [e for e in doc["params"] if e["name"] == "enc0.b"]
    entry[field] = value
    with open(prefix + ".json", "w") as f:
        json.dump(doc, f)
    with pytest.raises(DataInvariantError, match="'enc0.b' needs non-negative integers"):
        PoseNet.load(prefix)


def test_loading_a_model_allocates_about_its_weights(tmp_path):
    # the weights are views of the one blob read; nothing is allocated
    # beside them, in particular no gradient buffers
    prefix = str(tmp_path / "model")
    PoseNet(config=ModelConfig(), rng=np.random.default_rng(0)).save(prefix)
    blob_bytes = os.path.getsize(prefix + ".bin")
    tracemalloc.start()
    try:
        PoseNet.load(prefix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * blob_bytes, (peak, blob_bytes)


def test_model_config_rejects_unknown_keys():
    with pytest.raises(TypeError, match="bogus"):
        ModelConfig(**{"image_size": 32, "bogus": 1})
    # JSON gives lists; the config keeps a hashable tuple
    assert ModelConfig(encoder_widths=[64, 32]) == ModelConfig(encoder_widths=(64, 32))
