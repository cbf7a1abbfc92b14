"""Uncertainty measures and the pseudo-label selection rules, cross-checked
against brute-force per-sample / per-joint recomputation."""

import numpy as np
import pytest

from oracles import heatmap_entropy
from poseadapt import autodiff as ad
from poseadapt import heatmap as hm
from poseadapt.autodiff import ComputationRecord
from poseadapt.model import ModelConfig, PoseNet
from poseadapt.skeleton import default_tree
from poseadapt.synthdata import (DomainSpec, build_dataset, flip_observation,
                                 mirror_pose3d)
from poseadapt.uncertainty import (flip_consistency, joint_selection_scores,
                                   joint_uncertainty, pose_uncertainty,
                                   pose_uncertainty_np, predict,
                                   select_joint_pseudo_labels,
                                   select_pose_pseudo_labels)

TREE = default_tree()
SPEC = DomainSpec(name="u", appearance_seed=3)


def tiny_model(seed=0, heatmap_size=16):
    cfg = ModelConfig(encoder_widths=(64, 32), trunk_width=32, trunk_blocks=1,
                      heatmap_size=heatmap_size)
    return PoseNet(config=cfg, rng=np.random.default_rng(seed))


def test_pose_uncertainty_hand_value():
    model = tiny_model()
    out = model.forward(np.random.default_rng(0).uniform(size=(2, 32, 32)))
    manual = np.linalg.norm(out.q_loc.data - out.q_proj.data, axis=-1).mean(axis=-1)
    np.testing.assert_allclose(pose_uncertainty(out).data, manual, atol=1e-12)
    np.testing.assert_allclose(pose_uncertainty_np(out.q_loc.data, out.q_proj.data),
                               manual, atol=1e-12)


def test_pose_uncertainty_zero_when_heads_agree():
    class Fake:
        pass

    from poseadapt.autodiff import Tensor
    q = np.random.default_rng(1).uniform(size=(2, 17, 2))
    fake = Fake()
    fake.q_loc = Tensor(q)
    fake.q_proj = Tensor(q.copy())
    np.testing.assert_allclose(pose_uncertainty(fake).data, 0.0, atol=1e-12)


def test_joint_uncertainty_matches_entropy():
    model = tiny_model()
    obs = np.random.default_rng(2).uniform(size=(2, 32, 32))
    out = model.forward(obs)
    ju = joint_uncertainty(out)
    # the forward's entropy node, one node on top of the heatmap's graph
    assert ju is out.entropy
    assert ju.parents == (out.heatmap,)
    assert (len(ComputationRecord.trace(ju).nodes)
            == len(ComputationRecord.trace(out.heatmap).nodes) + 1)
    with ad.no_grad():
        free = joint_uncertainty(model.forward(obs))
        logits = model.encode(obs).data @ model.params["loc_head.w"].data
    assert free.parents == ()
    logits += model.params["loc_head.b"].data
    expected = hm.entropy(logits.reshape(out.heatmap.shape))
    np.testing.assert_array_equal(ju.data, expected)
    np.testing.assert_array_equal(free.data, expected)
    np.testing.assert_allclose(ju.data, heatmap_entropy(out.heatmap.data), rtol=0, atol=1e-12)


def test_flip_consistency_zero_for_equivariant_predictions():
    rng = np.random.default_rng(3)
    q = rng.uniform(size=(TREE.joint_count, 2))
    qf = hm.flip_joint_ids(q, TREE)  # exactly the flipped prediction
    assert flip_consistency(q, q, qf, qf, TREE) == pytest.approx(0.0, abs=1e-12)
    # a constant offset on the flipped branch shows up in the score
    off = qf.copy()
    off[:, 1] += 0.1
    assert flip_consistency(q, q, off, off, TREE) == pytest.approx(0.2, abs=1e-9)
    assert isinstance(flip_consistency(q, q, off, off, TREE), float)
    # (N, J, 2) stacks give exactly the per-sample scores
    stacks = rng.uniform(size=(4, 5, TREE.joint_count, 2))
    np.testing.assert_array_equal(
        flip_consistency(*stacks, TREE),
        [flip_consistency(*(a[i] for a in stacks), TREE) for i in range(5)])


def test_predict_matches_forward():
    model = tiny_model()
    ds = build_dataset(SPEC, 5, 0.0, np.random.default_rng(4), TREE)
    pred = predict(model, ds, batch_size=2)  # forces multiple batches
    out = model.forward(np.stack([s.obs for s in ds]))
    np.testing.assert_allclose(pred["q_loc"], out.q_loc.data, atol=1e-12)
    np.testing.assert_allclose(pred["pose_cam"], out.pose_cam.data, atol=1e-12)
    np.testing.assert_allclose(pred["conf"], out.conf, atol=1e-12)


def test_predict_on_float32_observations_is_bit_identical():
    # loaded datasets keep their images at the stored float32 precision
    model = tiny_model(seed=6)
    ds = build_dataset(SPEC, 5, 0.5, np.random.default_rng(7), TREE)
    obs32 = np.stack([s.obs for s in ds]).astype(np.float32)
    for obs in (obs32, obs32[:, :, ::-1]):  # also the strided mirror view
        pred32 = predict(model, obs, batch_size=2)
        pred64 = predict(model, obs.astype(np.float64), batch_size=2)
        for key in pred64:
            np.testing.assert_array_equal(pred32[key], pred64[key], err_msg=key)


def brute_force_pose_selection(model, samples, alpha_p):
    """Oracle: recompute the selection one sample at a time from raw
    forwards, without the batched helper."""
    chosen = {}
    for i, s in enumerate(samples):
        out = model.forward(s.obs)
        out_f = model.forward(flip_observation(s, TREE).obs)
        score = flip_consistency(out.q_loc.data[0], out.q_proj.data[0],
                                 out_f.q_loc.data[0], out_f.q_proj.data[0], TREE)
        if score < alpha_p:
            q = 0.25 * (out.q_loc.data[0] + out.q_proj.data[0]
                        + hm.flip_joint_ids(out_f.q_loc.data[0], TREE)
                        + hm.flip_joint_ids(out_f.q_proj.data[0], TREE))
            p = 0.5 * (out.pose_cam.data[0]
                       + mirror_pose3d(out_f.pose_cam.data[0], TREE))
            chosen[i] = (score, q, p)
    return chosen


@pytest.mark.parametrize("heatmap_size", [16, 8])
def test_pose_selection_matches_brute_force(heatmap_size):
    model = tiny_model(seed=5, heatmap_size=heatmap_size)
    ds = build_dataset(SPEC, 12, 0.0, np.random.default_rng(6), TREE)
    # pick a threshold that splits the population
    scores_all = select_pose_pseudo_labels(model, ds, np.inf).scores
    alpha = float(np.median(scores_all))
    sel = select_pose_pseudo_labels(model, ds, alpha)
    oracle = brute_force_pose_selection(model, ds, alpha)
    assert set(sel.ids) == set(oracle)
    assert 0 < len(sel.ids) < len(ds)
    for i in sel.ids:
        assert sel.scores[i] == pytest.approx(oracle[i][0], abs=1e-10)
        np.testing.assert_allclose(sel.q[i], oracle[i][1], atol=1e-10)
        np.testing.assert_allclose(sel.p[i], oracle[i][2], atol=1e-10)
        # stored heatmaps are rendered from the pseudo 2D pose on the
        # model's grid
        np.testing.assert_allclose(
            sel.h[i], hm.render_gaussian_heatmap(sel.q[i], 1.0,
                                                 (heatmap_size, heatmap_size)),
            atol=1e-12)


def test_joint_selection_matches_brute_force():
    model = tiny_model(seed=7)
    ds = build_dataset(SPEC, 10, 0.5, np.random.default_rng(8), TREE)
    pred = predict(model, ds)
    pred_f = predict(model, [flip_observation(s, TREE) for s in ds])
    scores = joint_selection_scores(pred, pred_f, TREE)
    # thresholds at the score terciles so all three bands are non-empty
    alpha_q, alpha_h = np.quantile(scores, [0.33, 0.66])
    sel = select_joint_pseudo_labels(model, ds, alpha_q, alpha_h)
    for i in range(len(ds)):
        out = model.forward(ds[i].obs)
        out_f = model.forward(flip_observation(ds[i], TREE).obs)
        ent = out.entropy.data[0]
        err = np.linalg.norm(
            out.q_loc.data[0] - hm.flip_joint_ids(out_f.q_proj.data[0], TREE),
            axis=-1)
        for j in range(TREE.joint_count):
            score = ent[j] * err[j]
            assert sel.scores[i, j] == pytest.approx(score, abs=1e-10)
            assert ((i, j) in sel.in_view) == (score < alpha_q)
            assert ((i, j) in sel.out_view) == (alpha_q <= score
                                                if score > alpha_h else False)
    assert sel.in_mask.any() and sel.out_mask.any()
    assert not (sel.in_mask & sel.out_mask).any()
    assert (~sel.in_mask & ~sel.out_mask).any()  # the mid band is untouched
    # the samples with an in-view pair, ascending: the ids a batch draws from
    assert sel.ids == sorted(sel.q) == np.flatnonzero(sel.in_mask.any(axis=1)).tolist()


def test_selection_is_deterministic():
    model = tiny_model(seed=9)
    ds = build_dataset(SPEC, 8, 0.0, np.random.default_rng(10), TREE)
    a = select_pose_pseudo_labels(model, ds, 0.5)
    b = select_pose_pseudo_labels(model, ds, 0.5)
    assert a.ids == b.ids
    np.testing.assert_array_equal(a.scores, b.scores)
    assert a.to_json() == b.to_json()


def test_selection_audit_dump_round_trips():
    import json

    model = tiny_model(seed=11)
    ds = build_dataset(SPEC, 6, 0.0, np.random.default_rng(12), TREE)
    sel = select_pose_pseudo_labels(model, ds, 0.5, iteration=200)
    doc = json.loads(sel.to_json())
    assert doc["iteration"] == 200
    assert doc["threshold"] == 0.5
    assert doc["ids"] == list(sel.ids)
    assert len(doc["scores"]) == len(ds)
