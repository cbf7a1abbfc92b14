"""Loss terms, optimizers, AUROC, metrics logging, and short training runs."""

import dataclasses

import numpy as np
import pytest

from poseadapt import autodiff as ad
from poseadapt.autodiff import Parameter, Tensor
from poseadapt.config import ExperimentConfig, generate_splits
from poseadapt.model import ModelConfig, PoseNet
from poseadapt.optim import CHUNK, Adam, load_params, save_params
from poseadapt.skeleton import default_tree
from poseadapt.synthdata import DomainSpec, build_dataset
from poseadapt.trainer import (HyperParams, METRIC_COLUMNS, NonFiniteLossError,
                               auroc, histogram_groups, loss_bg_entropy,
                               loss_bg_uncertainty, loss_entropy_max,
                               loss_entropy_min, loss_psup_target,
                               loss_sup_occlusion_aware, loss_sup_source,
                               metrics_row, normalized_confidences,
                               train_fusion, train_joint_level,
                               train_pose_level, write_metrics_csv)
from poseadapt.uncertainty import select_pose_pseudo_labels

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
        p.grad[...] = g
        opt.step()
    np.testing.assert_allclose(p.data, expected, rtol=1e-12, atol=1e-12)


def whole_array_adam_step(p, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Oracle: the unchunked in-place update sequence that ``Adam.step``
    runs chunk by chunk."""
    alpha = lr / (1.0 - b1 ** t)
    corr2 = np.sqrt(1.0 - b2 ** t)
    m *= b1
    m += (1.0 - b1) * p.grad
    v *= b2
    v += (1.0 - b2) * np.square(p.grad)
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
        for p, r in zip(params, ref):
            p.grad[...] = rng.standard_normal(p.data.shape) * 10.0 ** rng.integers(-6, 3)
            r.grad[...] = p.grad
        opt.step()
        for r, (m, v) in zip(ref, moments):
            whole_array_adam_step(r, m, v, t, lr=0.01)
    for i, (p, r, (m, v)) in enumerate(zip(params, ref, moments)):
        np.testing.assert_array_equal(p.data, r.data)
        np.testing.assert_array_equal(opt.m[i], m)
        np.testing.assert_array_equal(opt.v[i], v)


def test_separate_optimizers_keep_independent_moments():
    # stepping one loss's optimizer must not touch another's moment buffers
    rng = np.random.default_rng(1)
    p = Parameter(rng.standard_normal(5), name="w")
    opt_a = Adam([p], lr=0.01)
    opt_b = Adam([p], lr=0.01)
    p.grad[...] = rng.standard_normal(5)
    opt_a.step()
    assert opt_b.t == 0
    np.testing.assert_array_equal(opt_b.m[0], np.zeros(5))
    np.testing.assert_array_equal(opt_b.v[0], np.zeros(5))
    before_a = [a.copy() for a in (opt_a.m[0], opt_a.v[0])]
    opt_b.step()
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
    hp = HyperParams()
    full = float(loss_sup_occlusion_aware(out, h_gt, p_gt, in_mask,
                                          ~in_mask, hp).data)
    no_ent = float(loss_sup_occlusion_aware(out, h_gt, p_gt, in_mask,
                                            np.zeros_like(in_mask), hp).data)
    # the out-view entropy term is subtracted (maximized)
    if (~in_mask).any():
        assert full < no_ent


def test_entropy_shaping_losses():
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(6))
    obs = np.random.default_rng(6).uniform(size=(2, 32, 32))
    out = model.forward(obs)
    mask = np.ones((2, TREE.joint_count), dtype=bool)
    hw = model.config.heatmap_size ** 2
    ent = -np.sum(out.heatmap.data.reshape(2, 17, -1)
                  * np.log(out.heatmap.data.reshape(2, 17, -1) + 1e-12), axis=-1)
    gap = float(loss_entropy_max(out, mask).data)
    assert gap == pytest.approx(np.mean(np.sum(np.log(hw) - ent, axis=-1)), abs=1e-6)
    assert gap >= -1e-9  # bounded surrogate
    mn = float(loss_entropy_min(out, mask).data)
    assert mn == pytest.approx(np.mean(np.sum(ent, axis=-1)), abs=1e-6)
    assert float(loss_bg_entropy(out).data) == pytest.approx(gap, abs=1e-12)


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
    model.zero_grad()
    ad.backward(loss_psup_target(out, h_pl, p_pl, hp))
    # if weights carried gradient, the loc head would receive some here
    # through conf; with detached weights the heatmap-term gradient is zero
    # but pose gradients still flow to the regression trunk
    assert np.abs(model.params["loc_head.w"].grad).max() == 0.0
    assert np.abs(model.params["limb_head.w"].grad).max() > 0.0


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


def test_joint_level_training_runs():
    cfg, splits = small_splits(seed=13, occ=0.7)
    state = train_joint_level(splits["source"], splits["target"],
                              splits["background"], fast_hp(),
                              np.random.default_rng(13),
                              model=PoseNet(config=small_cfg(),
                                            rng=np.random.default_rng(13)))
    assert len(state.loss_log) == 12
    seen = set()
    for row in state.loss_log:
        seen |= set(row)
        for name, value in row.items():
            assert np.isfinite(value), name
    assert "sup_inv" in seen and "ent_bg" in seen


def test_fusion_training_keeps_main_model_frozen():
    cfg, splits = small_splits(seed=14)
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(14))
    before = {k: p.data.copy() for k, p in model.params.items()}
    pseudo = select_pose_pseudo_labels(model, splits["target"], np.inf)
    fusion = train_fusion(model, splits["source"], splits["target"], pseudo,
                          fast_hp(), np.random.default_rng(14), max_iter=8)
    for k, p in model.params.items():
        np.testing.assert_array_equal(p.data, before[k])
    out = model.forward(np.stack([s.obs for s in splits["source"][:2]]))
    fused = fusion.forward(out.pose_cam.data, out.q_loc.data, out.conf)
    assert fused.shape == (2, TREE.joint_count, 3)


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
    # again with a full backward over every leaf of each loss
    full_backward = ad.backward
    monkeypatch.setattr(ad, "backward", lambda loss, wrt=None: full_backward(loss))
    w_full, log_full = train()
    assert log_pruned == log_full
    terms = set().union(*log_pruned)
    assert ("psup" if loop == "pose" else "ent_bg") in terms
    for k in w_full:
        np.testing.assert_array_equal(w_pruned[k], w_full[k])


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
    model = PoseNet(config=small_cfg(), rng=np.random.default_rng(17))
    doc = histogram_groups(model, splits["source_eval"], splits["target_eval"],
                           splits["background_eval"], bins=10)
    ent = doc["entropy"]
    assert len(ent["bin_edges"]) == 11
    assert set(ent["counts"]) == {"inV-S", "outV-S", "inV-T", "outV-T", "BG"}
    n_bg = len(splits["background_eval"]) * TREE.joint_count
    assert sum(ent["counts"]["BG"]) == n_bg
    assert set(doc["pose_uncertainty"]["counts"]) == {"source", "target",
                                                      "background"}


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(lam1=-1.0)
    with pytest.raises(ValueError):
        HyperParams(k_interval=0)
    with pytest.raises(ValueError):
        HyperParams.from_dict({"lam1": 1.0, "bogus": 2})
    hp = HyperParams(lr=1e-3, lr_overrides={"bg": 1e-4})
    assert hp.lr_for("bg") == 1e-4
    assert hp.lr_for("sup") == 1e-3
    clone = HyperParams.from_dict(hp.to_dict())
    assert clone == hp
