"""Loss terms, optimizers, AUROC, metrics logging, and short training runs."""

import contextlib
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from oracles import heatmap_entropy
from poseadapt import autodiff as ad
from poseadapt import heatmap as hm
from poseadapt import trainer
from poseadapt.autodiff import Parameter, Tensor
from poseadapt.config import ExperimentConfig, generate_splits
from poseadapt.model import FusionNet, ModelConfig, PoseNet, heatmap_residual
from poseadapt.optim import CHUNK, Adam, load_params, save_params
from poseadapt.skeleton import default_tree
from poseadapt.synthdata import load_dataset, save_dataset
from poseadapt.trainer import (HyperParams, JOINT_LEVEL_TERMS, METRIC_COLUMNS,
                               POSE_LEVEL_TERMS,
                               NonFiniteLossError, auroc, blend_weight,
                               histogram_groups,
                               loss_bg_uncertainty, loss_entropy_max,
                               loss_entropy_min, loss_psup_target,
                               loss_sup_occlusion_aware, loss_sup_source,
                               evaluate, metrics_row, normalized_confidences,
                               train_fusion, train_joint_level,
                               train_pose_level, write_metrics_csv)
from poseadapt.uncertainty import (select_joint_pseudo_labels,
                                   select_pose_pseudo_labels)

TREE = default_tree()


def small_cfg():
    return ModelConfig(encoder_widths=(64, 32), trunk_width=32, trunk_blocks=1,
                       fusion_width=16, fusion_blocks=1)


def small_splits(seed=0, n=16, occ=0.0):
    cfg = ExperimentConfig(seed=seed, n_source=n, n_target=n,
                           n_background=n // 2, n_eval=n // 2,
                           occlusion_mix=occ, model=small_cfg())
    return cfg, generate_splits(cfg)


# ---------------------------------------------------------------------------
# optimizer


def reference_adam(data, grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Oracle: textbook Adam applied step by step to one array."""
    x = data.copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
    return x


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(0)
    p = Parameter(rng.standard_normal((4, 3)), name="w")
    grads = [rng.standard_normal((4, 3)) for _ in range(7)]
    expected = reference_adam(p.data, grads, lr=0.01)
    opt = Adam([p], lr=0.01)
    for g in grads:
        opt.step([g])
    np.testing.assert_allclose(p.data, expected, rtol=1e-12, atol=1e-12)


def whole_array_adam_step(p, grad, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Oracle: the unchunked in-place update sequence that ``Adam.step``
    runs chunk by chunk."""
    alpha = lr / (1.0 - b1 ** t)
    corr2 = np.sqrt(1.0 - b2 ** t)
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * np.square(grad)
    denom = np.sqrt(v)
    denom /= corr2
    denom += eps
    p.data -= alpha * m / denom


def test_chunked_adam_is_bit_identical_to_whole_array_update():
    rng = np.random.default_rng(3)
    shapes = [(70_001,), (4, 3), (CHUNK,)]  # ragged tail, tiny, exactly one chunk
    params = [Parameter(rng.standard_normal(s)) for s in shapes]
    ref = [Parameter(p.data.copy()) for p in params]
    moments = [(np.zeros(s), np.zeros(s)) for s in shapes]
    opt = Adam(params, lr=0.01)
    for t in range(1, 6):
        grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
        frozen = [g.copy() for g in grads]
        opt.step(grads)
        for g, f in zip(grads, frozen):  # the gradients are only read
            np.testing.assert_array_equal(g, f)
        for r, g, (m, v) in zip(ref, grads, moments):
            whole_array_adam_step(r, g, m, v, t, lr=0.01)
    for i, (p, r, (m, v)) in enumerate(zip(params, ref, moments)):
        np.testing.assert_array_equal(p.data, r.data)
        np.testing.assert_array_equal(opt.m[i], m)
        np.testing.assert_array_equal(opt.v[i], v)


def test_adam_steps_alike_on_either_sign_of_a_zero_gradient():
    # backward hands Adam an adjoint that may be -0.0 where a zeroed
    # gradient buffer used to give 0.0 + (-0.0) = +0.0; the moments start
    # at +0.0, so both signs must give the same bits
    runs = []
    for zero in (0.0, -0.0):
        rng = np.random.default_rng(2)
        p = Parameter(rng.standard_normal(4))
        opt = Adam([p], lr=0.01)
        for _ in range(3):
            g = rng.standard_normal(4)
            g[[0, 2]] = zero
            opt.step([g])
        runs.append([a.tobytes() for a in (p.data, opt.m[0], opt.v[0])])
    assert runs[0] == runs[1]


def test_separate_optimizers_keep_independent_moments():
    # stepping one loss's optimizer must not touch another's moment buffers
    rng = np.random.default_rng(1)
    p = Parameter(rng.standard_normal(5), name="w")
    opt_a = Adam([p], lr=0.01)
    opt_b = Adam([p], lr=0.01)
    grads = [rng.standard_normal(5)]
    opt_a.step(grads)
    assert opt_b.t == 0
    np.testing.assert_array_equal(opt_b.m[0], np.zeros(5))
    np.testing.assert_array_equal(opt_b.v[0], np.zeros(5))
    before_a = [a.copy() for a in (opt_a.m[0], opt_a.v[0])]
    opt_b.step(grads)
    np.testing.assert_array_equal(opt_a.m[0], before_a[0])
    np.testing.assert_array_equal(opt_a.v[0], before_a[1])


def test_params_save_load_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    params = [Parameter(rng.standard_normal((3, 4)), name="a"),
              Parameter(rng.standard_normal(7), name="b")]
    prefix = str(tmp_path / "ckpt")
    save_params(params, prefix)
    loaded = load_params(prefix)
    for p in params:
        np.testing.assert_array_equal(loaded[p.name].data, p.data)


# ---------------------------------------------------------------------------
# loss terms


def forward_batch(model, samples):
    return model.forward(np.stack([s.obs for s in samples]))


def test_supervised_loss_hand_assembled():
    cfg, splits = small_splits(seed=3)
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(3))
    batch = splits["source"][:4]
    hp = HyperParams(lam1=2.0, lam2=0.5)
    out = forward_batch(model, batch)
    h_gt = np.stack([s.gt_h for s in batch])
    p_gt = np.stack([s.gt_p for s in batch])
    loss = loss_sup_source(out, h_gt, p_gt, hp)
    manual = (np.mean((out.heatmap.data - h_gt) ** 2)
              + 2.0 * np.mean((out.pose_cam.data - p_gt) ** 2)
              + 0.5 * np.linalg.norm(out.q_loc.data - out.q_proj.data,
                                     axis=-1).mean())
    assert float(loss.data) == pytest.approx(manual, abs=1e-10)


def test_background_hinge_saturates_at_margin():
    class Fake:
        pass

    fake = Fake()
    q = np.zeros((2, 17, 2))
    fake.q_loc = Tensor(q)
    proj = q.copy()
    proj[0, :, 0] = 0.9   # U = 0.9 > margin -> no loss
    proj[1, :, 0] = 0.2   # U = 0.2 -> hinge 0.3
    fake.q_proj = Tensor(proj)
    hp = HyperParams(m_u=0.5)
    assert float(loss_bg_uncertainty(fake, hp).data) == pytest.approx(0.15, abs=1e-12)


def test_pseudo_weights_sum_to_one_and_weight_the_loss():
    cfg, splits = small_splits(seed=4)
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(4))
    batch = splits["target"][:3]
    out = forward_batch(model, batch)
    w = normalized_confidences(out.conf)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)
    h_pl = np.stack([s.gt_h for s in batch])
    p_pl = np.stack([s.gt_p for s in batch])
    hp = HyperParams(lam=1.5)
    loss = loss_psup_target(out, h_pl, p_pl, hp)
    lh = np.mean((out.heatmap.data.reshape(3, 17, -1)
                  - h_pl.reshape(3, 17, -1)) ** 2, axis=-1)
    lp = np.mean((out.pose_cam.data - p_pl) ** 2, axis=-1)
    manual = np.mean(np.sum(w * (lh + 1.5 * lp), axis=-1))
    assert float(loss.data) == pytest.approx(manual, abs=1e-10)


def test_occlusion_aware_loss_signs():
    cfg, splits = small_splits(seed=5, occ=1.0)
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(5))
    batch = splits["source"][:4]
    out = forward_batch(model, batch)
    h_gt = np.stack([s.gt_h for s in batch])
    p_gt = np.stack([s.gt_p for s in batch])
    in_mask = np.stack([s.visibility for s in batch])
    # a margin above the entropy ceiling makes every out-view joint count
    hp = HyperParams(m_h=10.0)
    full = float(loss_sup_occlusion_aware(out, h_gt, p_gt, in_mask,
                                          ~in_mask, hp).data)
    no_ent = float(loss_sup_occlusion_aware(out, h_gt, p_gt, in_mask,
                                            np.zeros_like(in_mask), hp).data)
    # the out-view term is the hinge relu(m_h - entropy), a penalty that
    # minimizing the loss turns into entropy maximization
    assert (~in_mask).any()
    flat = np.maximum(hp.m_h - heatmap_entropy(out.heatmap.data), 0.0) * ~in_mask
    assert full > no_ent
    assert full == pytest.approx(no_ent + hp.lam2 * flat.sum(axis=-1).mean(),
                                 abs=1e-10)


def test_entropy_shaping_losses():
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(6))
    obs = np.random.default_rng(6).uniform(size=(2, 32, 32))
    out = model.forward(obs)
    mask = np.ones((2, TREE.joint_count), dtype=bool)
    hw = model.config.heatmap_size ** 2
    ent = -np.sum(out.heatmap.data.reshape(2, 17, -1)
                  * np.log(out.heatmap.data.reshape(2, 17, -1) + 1e-12), axis=-1)
    gap = float(loss_entropy_max(out, mask, margin=np.log(hw)).data)
    assert gap == pytest.approx(np.mean(np.sum(np.log(hw) - ent, axis=-1)), abs=1e-6)
    assert gap >= -1e-9  # bounded surrogate
    mn = float(loss_entropy_min(out, mask).data)
    assert mn == pytest.approx(np.mean(np.sum(ent, axis=-1)), abs=1e-6)


def test_confidence_weights_receive_no_gradient():
    # the pseudo loss must not backpropagate through the weights: the
    # localization head gradient comes only from the heatmap MSE term
    cfg, splits = small_splits(seed=7)
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(7))
    batch = splits["target"][:2]
    hp = HyperParams(lam=1.0)
    out = forward_batch(model, batch)
    h_pl = out.heatmap.data.copy()  # heatmap term exactly zero
    p_pl = np.stack([s.gt_p for s in batch])
    loc, limb = ad.backward(loss_psup_target(out, h_pl, p_pl, hp),
                            [model.params["loc_head.w"], model.params["limb_head.w"]])
    # if weights carried gradient, the loc head would receive some here
    # through conf; with detached weights the heatmap-term gradient is zero
    # but pose gradients still flow to the regression trunk
    assert np.abs(loc).max() == 0.0
    assert np.abs(limb).max() > 0.0


# ---------------------------------------------------------------------------
# AUROC


def pair_count_auroc(pos, neg):
    """Oracle: direct Mann-Whitney pair counting with half credit for
    ties."""
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_auroc_matches_pair_counting():
    rng = np.random.default_rng(8)
    for _ in range(5):
        pos = rng.normal(1.0, 1.0, size=30)
        neg = rng.normal(0.0, 1.0, size=40)
        assert auroc(pos, neg) == pytest.approx(pair_count_auroc(pos, neg),
                                                abs=1e-12)
    # heavily tied: few distinct values, long tie groups across both sides
    for levels in (1, 2, 3, 5):
        pos = rng.integers(0, levels, size=rng.integers(1, 40)).astype(float)
        neg = rng.integers(0, levels, size=rng.integers(1, 40)).astype(float)
        assert auroc(pos, neg) == pytest.approx(pair_count_auroc(pos, neg),
                                                abs=1e-12)


def test_auroc_handles_ties_and_extremes():
    assert auroc([1, 1, 1], [1, 1]) == pytest.approx(0.5)
    assert auroc([2, 3], [0, 1]) == 1.0
    assert auroc([0, 1], [2, 3]) == 0.0
    with pytest.raises(ValueError):
        auroc([], [1.0])


# ---------------------------------------------------------------------------
# training loops


def fast_hp(**kw):
    base = dict(max_iter=12, k_interval=6, batch_size=4)
    base.update(kw)
    return HyperParams(**base)


def test_pose_level_training_runs_and_logs_finite_losses():
    cfg, splits = small_splits(seed=9)
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(9))
    state = train_pose_level(splits["source"], splits["target"],
                             splits["background"], fast_hp(),
                             np.random.default_rng(9), model=model)
    assert state.iteration == 12
    assert len(state.loss_log) == 12
    for row in state.loss_log:
        assert row  # at least one active term every iteration
        for name, value in row.items():
            assert np.isfinite(value), name


def test_pose_level_supervised_loss_decreases():
    cfg, splits = small_splits(seed=10, n=24)
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(10))
    state = train_pose_level(splits["source"], [], [],
                             fast_hp(max_iter=150, k_interval=150),
                             np.random.default_rng(10), model=model,
                             enable=("sup",))
    first = np.mean([r["sup"] for r in state.loss_log[:10]])
    last = np.mean([r["sup"] for r in state.loss_log[-10:]])
    assert last < 0.5 * first


def test_pose_level_ablation_controls_active_terms():
    cfg, splits = small_splits(seed=11)
    state = train_pose_level(splits["source"], splits["target"],
                             splits["background"], fast_hp(),
                             np.random.default_rng(11),
                             model=PoseNet(config=small_cfg(),
                                           rng=np.random.default_rng(11)),
                             enable=("sup", "tgt"))
    for row in state.loss_log:
        assert set(row) <= {"sup", "tgt"}
        assert "bg" not in row


def test_pseudo_labels_refresh_on_schedule():
    cfg, splits = small_splits(seed=12)
    hp = fast_hp(max_iter=13, k_interval=6, alpha_p=np.inf)  # select all
    state = train_pose_level(splits["source"], splits["target"],
                             splits["background"], hp,
                             np.random.default_rng(12),
                             model=PoseNet(config=small_cfg(),
                                           rng=np.random.default_rng(12)))
    assert state.pseudo is not None
    assert state.pseudo.iteration == 12  # refreshed at 0, 6, 12
    assert len(state.pseudo) == len(splits["target"])


@pytest.mark.parametrize("enable, logged", [
    # out-view shaping folds into the supervised term when both are on
    (JOINT_LEVEL_TERMS, {"sup_inv", "ent_bg", "ent_inv_t", "ent_outv_t", "psup"}),
    (("sup_inv", "psup"), {"sup_inv", "psup"}),
    # out-view shaping without supervision is a term of its own
    (("ent_outv_s", "ent_bg"), {"ent_outv_s", "ent_bg"}),
], ids=["all", "sup-psup", "shaping-only"])
def test_joint_level_training_runs(enable, logged):
    cfg, splits = small_splits(seed=13, occ=0.7)
    # thresholds that select both in-view and out-view target pairs
    state = train_joint_level(splits["source"], splits["target"],
                              splits["background"],
                              fast_hp(alpha_q=5.2, alpha_h=6.0),
                              np.random.default_rng(13),
                              model=PoseNet(config=small_cfg(),
                                            rng=np.random.default_rng(13)),
                              enable=enable)
    assert len(state.loss_log) == 12
    seen = set()
    for row in state.loss_log:
        seen |= set(row)
        for name, value in row.items():
            assert np.isfinite(value), name
    assert seen == logged
    assert (state.pseudo is None) == ("psup" not in enable)


@pytest.mark.parametrize("loop", ["pose", "joint"])
def test_eval_hook_sees_fresh_pseudo_labels_and_a_replaceable_loss_log(loop):
    # Every eval-hook call comes after that iteration's refresh, with one
    # loss dict logged per finished iteration; a log the hook puts in
    # place of state.loss_log receives every later append.
    cfg, splits = small_splits(seed=18, occ=0.7 if loop == "joint" else 0.0)
    hp = fast_hp(max_iter=13, k_interval=5, alpha_p=np.inf, alpha_q=np.inf)
    logs, calls = [], []

    def hook(state):
        if not logs:
            logs.append(state.loss_log)
        calls.append((state.iteration, state.pseudo.iteration,
                      sum(len(log) for log in logs)))
        logs.append([])
        state.loss_log = logs[-1]

    fn = train_pose_level if loop == "pose" else train_joint_level
    state = fn(splits["source"], splits["target"], splits["background"], hp,
               np.random.default_rng(18),
               model=PoseNet(config=small_cfg(), rng=np.random.default_rng(18)),
               eval_hook=hook)
    assert calls == [(0, 0, 0), (5, 5, 5), (10, 10, 10), (13, 10, 13)]
    assert [len(log) for log in logs] == [0, 5, 5, 3, 0]
    assert state.loss_log is logs[-1]
    assert all(row for log in logs for row in log)


@pytest.mark.parametrize("joint_level", [False, True], ids=["pose", "joint"])
def test_fusion_training_keeps_main_model_frozen(joint_level):
    cfg, splits = small_splits(seed=14, occ=0.5 if joint_level else 0.0)
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(14))
    before = {k: p.data.copy() for k, p in model.params.items()}
    if joint_level:
        # the lower half of the pairs becomes in-view pseudo-labels
        scores = select_joint_pseudo_labels(model, splits["target"], -np.inf,
                                            np.inf).scores
        pseudo = select_joint_pseudo_labels(model, splits["target"],
                                            np.median(scores), np.inf)
        assert 0 < len(pseudo) < scores.size
    else:
        pseudo = select_pose_pseudo_labels(model, splits["target"], np.inf)
    fusion = train_fusion(model, splits["source"], splits["target"], pseudo,
                          fast_hp(), np.random.default_rng(14), max_iter=8,
                          joint_level=joint_level)
    for k, p in model.params.items():
        np.testing.assert_array_equal(p.data, before[k])
    assert np.abs(fusion.params["fuse_out.w"].data).max() > 0.0
    out = model.forward(np.stack([s.obs for s in splits["source"][:2]]))
    fused = fusion.forward(out.pose_cam.data, out.q_loc.data, out.conf)
    assert fused.shape == (2, TREE.joint_count, 3)


def test_blend_weight_is_the_hand_computed_least_squares_weight():
    cfg, splits = small_splits(seed=16)
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(16))
    source = splits["source"]
    fusion = train_fusion(model, source, [], None, fast_hp(),
                          np.random.default_rng(16), max_iter=0)
    num = den = 0.0
    for s in source:
        out = model.forward(s.obs)
        res = heatmap_residual(out.pose_cam.data, out.q_loc.data)[0]
        xy, gt = out.pose_cam.data[0, :, :2], s.gt_p[:, :2]
        for j in range(1, TREE.joint_count):
            r = res[j] - res[0]
            e = (gt[j] - gt[0]) - (xy[j] - xy[0])
            num += r @ e
            den += r @ r
    w = float(fusion.params["fuse_blend"].data)
    assert 0.0 < num / den < 1.0  # the clip to [0, 1] does not decide the match
    assert w == pytest.approx(num / den, abs=1e-12)
    assert w == blend_weight(model, source)


def test_blend_weight_fits_in_view_joints_only_at_joint_level():
    cfg, splits = small_splits(seed=17, occ=0.5)
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(17))
    out = model.forward(np.stack([s.obs for s in splits["source"]]))
    res = heatmap_residual(out.pose_cam.data, out.q_loc.data)
    res -= res[:, :1]
    # ground truth that the residual explains at 0.3 on in-view joints and
    # at 0.9 on out-view joints
    source = []
    for s, p, r in zip(splits["source"], out.pose_cam.data, res):
        gt = p.copy()
        gt[:, :2] += np.where(s.visibility[:, None], 0.3, 0.9) * r
        source.append(dataclasses.replace(s, gt_p=gt))
    assert not all(s.visibility.all() for s in source)
    assert blend_weight(model, source, joint_level=True) == pytest.approx(0.3, abs=1e-9)
    assert 0.3 + 1e-3 < blend_weight(model, source) < 0.9 - 1e-3
    fusion = train_fusion(model, source, [], None, fast_hp(),
                          np.random.default_rng(17), max_iter=0, joint_level=True)
    assert float(fusion.params["fuse_blend"].data) == pytest.approx(0.3, abs=1e-9)


def test_blend_weight_is_zero_without_source():
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(18))
    assert blend_weight(model, []) == 0.0


def test_training_is_deterministic():
    def run():
        cfg, splits = small_splits(seed=15)
        model = PoseNet(config=small_cfg(), rng=np.random.default_rng(15))
        state = train_pose_level(splits["source"], splits["target"],
                                 splits["background"], fast_hp(),
                                 np.random.default_rng(15), model=model)
        return state.model.params["enc0.w"].data.copy(), list(state.loss_log)

    a_params, a_log = run()
    b_params, b_log = run()
    np.testing.assert_array_equal(a_params, b_params)
    assert a_log == b_log


@pytest.mark.parametrize("loop", ["pose", "joint"])
def test_pruned_backward_gives_the_same_training(monkeypatch, loop):
    cfg, splits = small_splits(seed=16, occ=0.7 if loop == "joint" else 0.0)

    def train():
        model = PoseNet(config=small_cfg(), rng=np.random.default_rng(16))
        args = (splits["source"], splits["target"], splits["background"],
                fast_hp(max_iter=5, k_interval=2, alpha_p=np.inf),
                np.random.default_rng(16))
        fn = train_pose_level if loop == "pose" else train_joint_level
        state = fn(*args, model=model)
        return {k: p.data.copy() for k, p in model.params.items()}, state.loss_log

    w_pruned, log_pruned = train()
    # again with a full backward over every leaf of each loss, keeping the
    # gradients of the leaves asked for
    pruned_backward = ad.backward

    def full_backward(loss, wrt):
        leaves = [n for n in ad.ComputationRecord.trace(loss).nodes if not n.parents]
        return pruned_backward(loss, leaves + list(wrt))[len(leaves):]

    monkeypatch.setattr(ad, "backward", full_backward)
    w_full, log_full = train()
    assert log_pruned == log_full
    terms = set().union(*log_pruned)
    assert ("psup" if loop == "pose" else "ent_bg") in terms
    for k in w_full:
        np.testing.assert_array_equal(w_pruned[k], w_full[k])


@pytest.mark.parametrize("loop", ["pose", "joint"])
def test_training_on_loaded_float32_samples_is_bit_identical(tmp_path, loop):
    # loaded datasets keep images and heatmaps at the stored float32
    # precision; training on them equals training on float64 copies
    cfg, splits = small_splits(seed=19, occ=0.7 if loop == "joint" else 0.0)
    loaded, wide = {}, {}
    for name in ("source", "target", "background"):
        save_dataset(splits[name], str(tmp_path), name)
        loaded[name] = load_dataset(str(tmp_path), name)
        wide[name] = [dataclasses.replace(s, obs=s.obs.astype(np.float64),
                                          gt_h=s.gt_h.astype(np.float64))
                      for s in loaded[name]]
    assert loaded["source"][0].obs.dtype == loaded["source"][0].gt_h.dtype == np.float32

    def train(data):
        model = PoseNet(config=small_cfg(), rng=np.random.default_rng(19))
        fn = train_pose_level if loop == "pose" else train_joint_level
        state = fn(data["source"], data["target"], data["background"],
                   fast_hp(max_iter=3, k_interval=2, alpha_p=np.inf),
                   np.random.default_rng(19), model=model)
        return {k: p.data.copy() for k, p in model.params.items()}, state.loss_log

    w32, log32 = train(loaded)
    w64, log64 = train(wide)
    assert log32 == log64
    assert ("psup" if loop == "pose" else "sup_inv") in set().union(*log32)
    for k in w64:
        np.testing.assert_array_equal(w32[k], w64[k], err_msg=k)


def test_every_leaf_of_a_training_loss_is_a_parameter(monkeypatch):
    # observations, targets, masks, margins, the model's grids and the
    # fusion inputs enter each loss as plain arrays, not as graph nodes
    leaves = {}
    update = trainer._update

    def spy(opts, term, loss):
        leaves[term] = [n for n in ad.ComputationRecord.trace(loss).nodes if not n.parents]
        return update(opts, term, loss)

    monkeypatch.setattr(trainer, "_update", spy)
    hp = fast_hp(max_iter=1, alpha_p=np.inf, alpha_q=5.2, alpha_h=6.0)
    runs = [(train_pose_level, 0.0, POSE_LEVEL_TERMS),
            (train_joint_level, 0.7, JOINT_LEVEL_TERMS),
            (train_joint_level, 0.7, ("ent_outv_s",))]
    for fn, occ, enable in runs:
        cfg, splits = small_splits(seed=13, occ=occ)
        state = fn(splits["source"], splits["target"], splits["background"], hp,
                   np.random.default_rng(13), enable=enable,
                   model=PoseNet(config=small_cfg(), rng=np.random.default_rng(13)))
        train_fusion(state.model, splits["source"], splits["target"], state.pseudo, hp,
                     np.random.default_rng(13), max_iter=1,
                     joint_level=fn is train_joint_level)
    assert set(leaves) == {*POSE_LEVEL_TERMS, *JOINT_LEVEL_TERMS, "fusion_sup",
                           "fusion_psup"}
    for term, nodes in leaves.items():
        assert nodes and all(isinstance(n, Parameter) for n in nodes), term


# SHA-256 over the weights, loss logs and metrics rows of a few iterations of
# pose-level or occluded joint-level training on a small model, then fusion
# training, one digest per level, and a second digest over the weights
# alone. The pose-level runs are bit-identical since the autodiff ops took
# constant operands as plain arrays. The full joint-level digest was
# recorded again when joint_uncertainty became one autodiff.entropy node
# (the entropy lost the 1e-12 added to each cell inside the log, so H moved
# by up to 2.6e-10 per joint on the 16x16 grid), and again when H came from
# the softmax's pass over the logits (log s - sum(e w) / s, which moves H by
# about 1e-15). The weight digests were recorded before that last change
# and pin that it moved no weight: the losses use H linearly or through
# hinge indicators, so their gradients keep every bit.
GOLDEN_TRAIN_DIGESTS = {
    "pose": "60e5ddf9808398bce7d5608cd757dee41c066af05f7ef3008c76ff4f0c9b258e",
    "joint": "fe0cd3affa6c564d3978f74af4c8953f0877b97a3c297c3d9962f5219764ef09",
}
GOLDEN_WEIGHT_DIGESTS = {
    "pose": "3214dd1c2d56aa089f752dbe54b49031762ec7ff0d4751d89b06fda58d6962fc",
    "joint": "4831303a5ddffbd32ab8dbf5c59ed10d760e3377fde7a8ea2a3a9556ad5a1edf",
}


def _training_digests(fn, occ, select, terms):
    """The weights digest and the full digest of one training run."""
    weights, full = hashlib.sha256(), hashlib.sha256()

    def update(params, log, row):
        for name in sorted(params):
            for h in (weights, full):
                h.update(name.encode())
                h.update(params[name].data.tobytes())
        # repr of a float is exact, so JSON text pins every bit
        full.update(json.dumps([log, row], sort_keys=True).encode())

    cfg, splits = small_splits(seed=13, occ=occ)
    evals = splits["source_eval"], splits["target_eval"], splits["background_eval"]
    rng = np.random.default_rng(13)
    state = fn(splits["source"], splits["target"], splits["background"],
               fast_hp(max_iter=4, k_interval=2, **select), rng,
               model=PoseNet(config=small_cfg(), rng=np.random.default_rng(13)))
    assert set().union(*state.loss_log) == terms
    update(state.model.params, state.loss_log, metrics_row(state, *evals))
    fusion = train_fusion(state.model, splits["source"], splits["target"],
                          state.pseudo, fast_hp(), rng, max_iter=4,
                          joint_level=fn is train_joint_level)
    update(fusion.params, [], metrics_row(state, *evals, fusion=fusion))
    return weights.hexdigest(), full.hexdigest()


TRAINING_RUNS = {"pose": (train_pose_level, 0.0, dict(alpha_p=np.inf),
                          {"sup", "bg", "tgt", "psup"}),
                 "joint": (train_joint_level, 0.7, dict(alpha_q=5.2, alpha_h=6.0),
                           {"sup_inv", "ent_bg", "ent_inv_t", "ent_outv_t", "psup"})}


def test_training_matches_the_recorded_digest():
    digests = {level: _training_digests(*run) for level, run in TRAINING_RUNS.items()}
    assert {level: d[0] for level, d in digests.items()} == GOLDEN_WEIGHT_DIGESTS
    assert {level: d[1] for level, d in digests.items()} == GOLDEN_TRAIN_DIGESTS


def _frozen_runs(splits):
    """predict, evaluate with a live fusion net, and both selection
    refreshes on one model: what runs under ``autodiff.no_grad``."""
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(19))
    fusion = FusionNet(tree=model.tree, config=model.config, rng=np.random.default_rng(20))
    fusion.params[FusionNet.BLEND].data[...] = 0.5
    fusion.params["fuse_out.w"].data[...] = np.random.default_rng(21).normal(
        0.0, 0.1, fusion.params["fuse_out.w"].data.shape)
    target = splits["target"]
    # thresholds inside the score ranges, so every selection is non-empty
    pose = select_pose_pseudo_labels(model, target, -np.inf).scores
    joint = select_joint_pseudo_labels(model, target, -np.inf, np.inf).scores
    return {"predict": trainer.predict(model, target, batch_size=5),
            "evaluate": evaluate(model, splits["target_eval"], fusion=fusion),
            "pose": select_pose_pseudo_labels(model, target, np.median(pose)).__dict__,
            "joint": select_joint_pseudo_labels(model, target, np.median(joint),
                                                np.quantile(joint, 0.9)).__dict__}


def test_frozen_forwards_match_the_recorded_forward(monkeypatch):
    cfg, splits = small_splits(seed=19, occ=0.5)
    free = _frozen_runs(splits)
    monkeypatch.setattr(ad, "no_grad", contextlib.nullcontext)
    recorded = _frozen_runs(splits)
    for run, fields in free.items():
        assert fields.keys() == recorded[run].keys()
        for key, value in fields.items():
            if isinstance(value, dict):  # pseudo-labels keyed by sample id
                assert value.keys() == recorded[run][key].keys()
                value, other = list(value.values()), list(recorded[run][key].values())
            else:
                other = recorded[run][key]
            np.testing.assert_array_equal(value, other, err_msg=f"{run}.{key}")


@pytest.fixture
def recorded_nodes(monkeypatch):
    """Counts of the nodes with parents created inside ``PoseNet.forward``
    and elsewhere, through either Tensor constructor."""
    counts = {"posenet": 0, "other": 0}
    depth = [0]

    def count(parents):
        if parents:
            counts["posenet" if depth[0] else "other"] += 1

    node, init, forward = ad._node, Tensor.__init__, PoseNet.forward

    def spy_node(out, parents=(), vjp=None):
        count(parents)
        return node(out, parents, vjp)

    def spy_init(self, data, parents=(), vjp=None, name=None):
        count(parents)
        init(self, data, parents, vjp, name)

    def spy_forward(self, obs):
        depth[0] += 1
        try:
            return forward(self, obs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ad, "_node", spy_node)
    monkeypatch.setattr(Tensor, "__init__", spy_init)
    monkeypatch.setattr(PoseNet, "forward", spy_forward)
    return counts


def test_frozen_forwards_record_no_graph(recorded_nodes):
    cfg, splits = small_splits(seed=19, occ=0.5)
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(19))
    model.forward(np.stack([s.obs for s in splits["source"][:2]]))
    assert recorded_nodes["posenet"] > 0  # the spies see a recorded forward
    recorded_nodes["posenet"] = 0
    _frozen_runs(splits)
    assert recorded_nodes == {"posenet": 0, "other": 0}
    for joint_level in (False, True):
        pseudo = (select_joint_pseudo_labels(model, splits["target"], 5.2, 6.0)
                  if joint_level else select_pose_pseudo_labels(model, splits["target"],
                                                                np.inf))
        train_fusion(model, splits["source"], splits["target"], pseudo, fast_hp(),
                     np.random.default_rng(19), max_iter=2, joint_level=joint_level)
        # the fusion net's loss graph is recorded, the frozen model is not
        assert recorded_nodes["posenet"] == 0 and recorded_nodes["other"] > 0


def test_a_recorded_forward_creates_36_nodes(recorded_nodes):
    # pins the size of a default model's forward graph: a change that
    # records more (or fewer) nodes per forward updates this on purpose
    PoseNet(rng=np.random.default_rng(0)).forward(np.zeros((8, 32, 32)))
    assert recorded_nodes == {"posenet": 36, "other": 0}


def test_nan_heatmap_cell_stops_an_entropy_step(monkeypatch):
    cfg, splits = small_splits(seed=17)
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(17))
    entropy = hm.entropy

    def poisoned(logits):
        logits[0, 3, 2, 5] = np.nan  # one logit, so one heatmap cell and H
        return entropy(logits)

    monkeypatch.setattr(hm, "entropy", poisoned)
    before = {k: p.data.copy() for k, p in model.params.items()}
    with pytest.raises(NonFiniteLossError, match="'ent_bg'"):
        train_joint_level(splits["source"], splits["target"], splits["background"],
                          fast_hp(), np.random.default_rng(17), model=model,
                          enable=("ent_bg",))
    for k, p in model.params.items():
        np.testing.assert_array_equal(p.data, before[k])


def test_nonfinite_loss_stops_before_the_step():
    cfg, splits = small_splits(seed=17)
    poisoned = [dataclasses.replace(s, obs=np.full_like(s.obs, np.nan))
                for s in splits["source"]]
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(17))
    before = {k: p.data.copy() for k, p in model.params.items()}
    with pytest.raises(NonFiniteLossError, match="'sup'") as err:
        train_pose_level(poisoned, splits["target"], splits["background"],
                         fast_hp(), np.random.default_rng(17), model=model)
    assert err.value.term == "sup"
    for k, p in model.params.items():
        assert np.isfinite(p.data).all(), k
        np.testing.assert_array_equal(p.data, before[k])


# ---------------------------------------------------------------------------
# metrics logging


def test_metrics_row_and_csv(tmp_path):
    cfg, splits = small_splits(seed=16, occ=0.5)
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(16))
    state = train_pose_level(splits["source"], splits["target"],
                             splits["background"], fast_hp(max_iter=2),
                             np.random.default_rng(16), model=model)
    row = metrics_row(state, splits["source_eval"], splits["target_eval"],
                      splits["background_eval"])
    assert set(METRIC_COLUMNS) <= set(row)
    assert np.isfinite(row["mpjpe_target"])
    assert 0.0 <= row["auroc_u_bg_vs_source"] <= 1.0
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_metrics_csv([row], str(path_a))
    write_metrics_csv([dict(row)], str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()
    header = path_a.read_text().splitlines()[0]
    assert header == ",".join(METRIC_COLUMNS)


def test_histogram_groups_structure():
    cfg, splits = small_splits(seed=17, occ=0.5)
    # an untrained default-size model: some of its U values are above 1
    model = PoseNet(rng=np.random.default_rng(17))
    doc = histogram_groups(model, splits["source_eval"], splits["target_eval"],
                           splits["background_eval"], bins=10)
    ent = doc["entropy"]
    assert len(ent["bin_edges"]) == 11
    assert set(ent["counts"]) == {"inV-S", "outV-S", "inV-T", "outV-T", "BG"}
    # every value is counted, the largest U and entropy too
    vis = {d: np.stack([s.visibility for s in splits[d + "_eval"]])
           for d in ("source", "target")}
    sizes = {"inV-S": vis["source"].sum(), "outV-S": (~vis["source"]).sum(),
             "inV-T": vis["target"].sum(), "outV-T": (~vis["target"]).sum(),
             "BG": len(splits["background_eval"]) * TREE.joint_count}
    assert {k: sum(c) for k, c in ent["counts"].items()} == sizes
    u = doc["pose_uncertainty"]
    assert len(u["bin_edges"]) == 11
    assert {k: sum(c) for k, c in u["counts"].items()} == {
        d: len(splits[d + "_eval"]) for d in ("source", "target", "background")}
    assert u["bin_edges"][-1] > 1.0


def test_histogram_groups_count_flat_heatmaps():
    # on a 32x32 grid a flat heatmap's entropy rounds one ulp above
    # log(32 * 32), the theoretical top edge of the entropy bins
    mc = dataclasses.replace(small_cfg(), heatmap_size=32)
    splits = generate_splits(ExperimentConfig(seed=17, n_source=4, n_target=4,
                                              n_background=4, n_eval=4, model=mc))
    model = PoseNet(config=mc, rng=np.random.default_rng(17))
    model.params["loc_head.w"].data[...] = 0.0
    doc = histogram_groups(model, splits["source_eval"], splits["target_eval"],
                           splits["background_eval"], bins=4)
    counts = doc["entropy"]["counts"]
    n = sum(len(splits[d + "_eval"]) for d in ("source", "target", "background"))
    assert sum(map(sum, counts.values())) == n * TREE.joint_count
    assert counts["BG"] == [0, 0, 0, len(splits["background_eval"]) * TREE.joint_count]


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(lam1=-1.0)
    with pytest.raises(ValueError):
        HyperParams(k_interval=0)
    with pytest.raises(TypeError, match="bogus"):
        HyperParams(**{"lam1": 1.0, "bogus": 2})
    with pytest.raises(TypeError, match="lr_overrides"):
        HyperParams(lr_overrides={"bg": 1e-4})  # every term uses lr
    hp = HyperParams(lr=1e-4, m_l=4.0)
    clone = HyperParams(**dataclasses.asdict(hp))
    assert clone == hp
