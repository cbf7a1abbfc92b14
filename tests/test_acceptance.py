"""Acceptance gate: one test per shipped guarantee (A1-A9).

A1  kinematics suite (bone lengths, canonicalization, camera oracle)
A2  gradient checks across all layers, heads, and fusion paths, 100 seeds
A3  pose-uncertainty separates backgrounds from source images
A4  full adaptation beats source-only and uncertainty-only on target MPJPE
A5  fusion matches or beats the regression head (<= 2% regression)
A6  joint entropy separates out-of-view joints; in-view MPJPE improves
A7  pseudo-label selection matches brute-force inequality evaluation
A8  metric suite (Procrustes, MPJPE, AUROC) against independent oracles
A9  identical config + seed reruns are byte-identical

The training-based criteria run ``poseadapt.protocols`` on seeds 0, 1
and 2 (``pose_protocol`` for A3-A5, ``joint_protocol`` for A6) and are
the slow part of the suite; everything else is seconds.
"""

import os
import runpy
import time

import numpy as np
import pytest

from poseadapt import autodiff as ad
from poseadapt.autodiff import Parameter, Tensor
from poseadapt.cli import main as cli_main
from poseadapt.config import ExperimentConfig, generate_splits
from poseadapt.heatmap import flip_joint_ids
from poseadapt.model import FusionNet, ModelConfig, PoseNet
from poseadapt.protocols import joint_protocol, pose_protocol
from poseadapt.skeleton import (CameraParams, camera_transform, canonicalize,
                                default_tree, euler_to_rotation,
                                forward_kinematics, mpjpe,
                                normalize_limb_vectors, pa_mpjpe)
from poseadapt.synthdata import flip_observation
from poseadapt.trainer import auroc
from poseadapt.uncertainty import (flip_consistency,
                                   select_joint_pseudo_labels,
                                   select_pose_pseudo_labels)

TREE = default_tree()
SEEDS = (0, 1, 2)


# ---------------------------------------------------------------------------
# A1: kinematics


def test_a1_kinematics_suite():
    start = time.time()
    rng = np.random.default_rng(0)
    # bone-length conservation over 1000 random limb sets at 1e-9
    for _ in range(1000):
        limbs = normalize_limb_vectors(rng.standard_normal((TREE.joint_count, 3)))
        pose = forward_kinematics(TREE, limbs)
        for j in range(1, TREE.joint_count):
            seg = np.linalg.norm(pose[j] - pose[int(TREE.parent[j])])
            assert abs(seg - TREE.bone_length[j]) < 1e-9
    # canonicalize idempotence and similarity round-trip recovery at 1e-6
    for _ in range(50):
        limbs = normalize_limb_vectors(rng.standard_normal((TREE.joint_count, 3)))
        canon = canonicalize(forward_kinematics(TREE, limbs), TREE)
        np.testing.assert_allclose(canonicalize(canon, TREE), canon, atol=1e-6)
        moved = canon @ euler_to_rotation(rng.uniform(-np.pi, np.pi, 3)).T \
            + rng.uniform(-3, 3, 3)
        np.testing.assert_allclose(canonicalize(moved, TREE), canon, atol=1e-6)
    # camera transform vs explicit matrix oracle at 1e-12
    for _ in range(50):
        pose = rng.standard_normal((TREE.joint_count, 3))
        cam = CameraParams(euler=rng.uniform(-np.pi, np.pi, 3),
                           scale=rng.uniform(0.1, 2.0),
                           translation=rng.uniform(-1, 1, 2))
        pose_cam, q = camera_transform(pose, cam)
        rot = euler_to_rotation(cam.euler)
        for j in range(TREE.joint_count):
            np.testing.assert_allclose(pose_cam[j], rot @ pose[j], atol=1e-12)
            np.testing.assert_allclose(
                q[j], cam.scale * (rot @ pose[j])[:2] + cam.translation,
                atol=1e-12)
    assert time.time() - start < 10.0


# ---------------------------------------------------------------------------
# A2: differentiation


def _gradcheck_scenarios():
    """One finite-difference scenario per layer family plus the composite
    paths; each returns (leaf tensors, scalar closure)."""
    tiny = ModelConfig(encoder_widths=(32, 16), trunk_width=16, trunk_blocks=1,
                       fusion_width=8, fusion_blocks=1)

    def dense_layer(rng):
        x = Tensor(rng.standard_normal((3, 5)))
        w = Parameter(rng.standard_normal((5, 4)))
        b = Parameter(rng.standard_normal(4))
        probe = Tensor(rng.standard_normal((3, 4)))
        return [w, b], lambda: ad.tmean(ad.mul(ad.dense(x, w, b), probe))

    def relu_softplus(rng):
        p = Parameter(rng.standard_normal((4, 4)))
        return [p], lambda: ad.tsum(ad.add(ad.relu(p), ad.softplus(p)))

    def softmax_entropy(rng):
        p = Parameter(rng.standard_normal((3, 9)) * 2)
        def fn():
            # the identity and a zero bias make the head's logits p itself
            h = ad.softmax_dense(np.eye(3), p, Tensor(np.zeros(9)), (3, 1, 1, 9))[0]
            return ad.scale(ad.tsum(ad.mul(h, ad.log(ad.add(h, Tensor(1e-12))))), -1.0)
        return [p], fn

    def unit_row_norms(rng):
        p = Parameter(rng.standard_normal((6, 3)))
        probe = Tensor(rng.standard_normal((6, 3)))
        return [p], lambda: ad.tsum(ad.mul(ad.unit_rows(p), probe))

    def fk_chain(rng):
        raw = Parameter(rng.standard_normal((1, TREE.joint_count, 3)))
        lengths = TREE.bone_length[:, None].copy()
        lengths[0] = 0.0
        nonroot = np.ones((TREE.joint_count, 1))
        nonroot[0] = 0.0
        anc = TREE.ancestor_matrix()
        weights = rng.standard_normal((1, TREE.joint_count, 3))
        def fn():
            limbs = ad.mul(ad.unit_rows(raw), Tensor(nonroot))
            pose = ad.matmul(Tensor(anc), ad.mul(limbs, Tensor(lengths)))
            return ad.tsum(ad.mul(pose, Tensor(weights)))
        return [raw], fn

    def two_head_forward(rng):
        model = PoseNet(config=tiny, rng=rng)
        obs = rng.uniform(size=(2, 32, 32))
        names = sorted(model.params)
        picked = [model.params[n] for n in
                  rng.choice(names, size=3, replace=False)]
        hw = tiny.heatmap_size
        target = rng.uniform(size=(2, TREE.joint_count, hw, hw))
        def fn():
            out = model.forward(obs)
            return ad.add(ad.mse(out.heatmap, Tensor(target)),
                          ad.add(ad.tmean(out.pose_cam), ad.tmean(out.q_proj)))
        return picked, fn

    def fusion_both_paths(rng):
        model = PoseNet(config=tiny, rng=rng)
        fusion = FusionNet(tree=TREE, config=tiny, rng=rng)
        out = model.forward(rng.uniform(size=(2, 32, 32)))
        picked = [fusion.params["fuse_in.w"], fusion.params["fuse_out.w"],
                  fusion.params["fuse_res0.fc1.b"]]
        def fn():
            # source-style (supervised) and pseudo-style (weighted) paths
            f = fusion.forward(out.pose_cam.data, out.q_loc.data, out.conf)
            sup = ad.mse(f, Tensor(np.zeros(f.shape)))
            w = out.conf / out.conf.sum(axis=-1, keepdims=True)
            per_joint = ad.tmean(ad.mul(f, f), axis=-1)
            psup = ad.tmean(ad.tsum(ad.mul(per_joint, Tensor(w)), axis=-1))
            return ad.add(sup, psup)
        return picked, fn

    return [dense_layer, relu_softplus, softmax_entropy, unit_row_norms,
            fk_chain, two_head_forward, fusion_both_paths]


def test_a2_gradient_checks_100_seeds():
    start = time.time()
    scenarios = _gradcheck_scenarios()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        tensors, fn = scenarios[seed % len(scenarios)](rng)
        err = ad.gradient_check(fn, tensors, rng, n_probe=4)
        worst = max(worst, err)
        assert err < 1e-4, f"seed {seed}: rel err {err:.3e}"
    elapsed = time.time() - start
    assert elapsed < 120.0, f"gradient suite took {elapsed:.0f}s"
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# A3-A5: pose-level adaptation, one ``pose_protocol`` run per seed: the
# baseline (source supervision), uncert (+ background and target U) and
# full (+ pseudo-labels) variants from one pretrained model, fusion on full


@pytest.fixture(scope="session")
def pose_pipeline():
    runs = {}
    for seed in SEEDS:
        t0 = time.time()
        runs[seed] = pose_protocol(seed)
        runs[seed]["elapsed"] = time.time() - t0
    return runs


@pytest.mark.slow
def test_a3_pose_uncertainty_separates_backgrounds(pose_pipeline):
    for seed in SEEDS:
        res = pose_pipeline[seed]
        assert res["u_bg"].mean() > res["u_src"].mean(), f"seed {seed}"
        score = auroc(res["u_bg"], res["u_src"])
        assert score > 0.9, f"seed {seed}: AUROC {score:.3f}"
        assert res["elapsed"] < 900.0, f"seed {seed}: {res['elapsed']:.0f}s"


@pytest.mark.slow
def test_a4_full_adaptation_beats_ablations(pose_pipeline):
    med = {mode: float(np.median([pose_pipeline[s][mode]["mpjpe"] for s in SEEDS]))
           for mode in ("baseline", "uncert", "full")}
    assert med["full"] < med["baseline"], med
    assert med["full"] < med["uncert"], med
    total = sum(pose_pipeline[s]["elapsed"] for s in SEEDS)
    assert total < 2700.0, f"pipeline took {total:.0f}s"


@pytest.mark.slow
def test_a5_fusion_close_to_regression_head(pose_pipeline):
    fused = float(np.median([pose_pipeline[s]["full"]["fused_mpjpe"] for s in SEEDS]))
    phat = float(np.median([pose_pipeline[s]["full"]["mpjpe"] for s in SEEDS]))
    assert fused <= phat * 1.02, f"fused {fused:.4f} vs phat {phat:.4f}"


@pytest.mark.slow
def test_adaptation_demo_reports_every_variant_and_the_gain(pose_pipeline, capsys):
    demo = os.path.join(os.path.dirname(__file__), "..", "demos", "demo_adaptation.py")
    runpy.run_path(demo)["report"](pose_pipeline[0])
    text = capsys.readouterr().out
    for name in ("pretrained", "baseline", "uncert", "full", "gain"):
        assert name in text, text


@pytest.mark.slow
def test_uncertainty_demo_reports_u_auroc_and_source_mpjpe(capsys):
    demo = os.path.join(os.path.dirname(__file__), "..", "demos", "demo_uncertainty.py")
    runpy.run_path(demo)["main"]()
    lines = capsys.readouterr().out.splitlines()
    labels, values = zip(*(line.split(":") for line in lines))
    assert labels == ("mean pose uncertainty, source images",
                      "mean pose uncertainty, backgrounds",
                      "AUROC (background vs source)", "source MPJPE"), lines
    u_src, u_bg, score, mpjpe = map(float, values)
    assert u_bg > u_src and 0.5 < score <= 1.0 and 0.0 < mpjpe < 1.0, lines


# ---------------------------------------------------------------------------
# A6: joint-level adaptation (``protocols.joint_protocol``)


@pytest.fixture(scope="session")
def joint_pipeline():
    return {seed: joint_protocol(seed) for seed in SEEDS}


@pytest.mark.slow
def test_a6_joint_entropy_and_inview_improvement(joint_pipeline):
    for seed in SEEDS:
        res = joint_pipeline[seed]
        ent, vis = res["post"]["entropies"], res["vis"]
        assert ent[~vis].mean() > ent[vis].mean(), f"seed {seed}"
        score = auroc(ent[~vis], ent[vis])
        assert score > 0.85, f"seed {seed}: AUROC {score:.3f}"
        assert res["post"]["mpjpe_inview"] < res["pre"]["mpjpe_inview"], \
            f"seed {seed}: {res['post']['mpjpe_inview']:.4f} vs " \
            f"{res['pre']['mpjpe_inview']:.4f}"


# ---------------------------------------------------------------------------
# A7: selection-rule oracle equivalence


def _snapshot_pool():
    cfg = ExperimentConfig(seed=123, n_source=0, n_target=40, n_background=0,
                           n_eval=1, occlusion_mix=0.5)
    return generate_splits(cfg)["target"]


def test_a7_selection_matches_brute_force_on_200_snapshots():
    pool = _snapshot_pool()
    tiny = ModelConfig(encoder_widths=(32, 16), trunk_width=16, trunk_blocks=1)
    models = [PoseNet(config=tiny, rng=np.random.default_rng(1000 + m))
              for m in range(10)]
    rng = np.random.default_rng(7)
    for snap in range(200):
        model = models[snap % len(models)]
        idx = rng.choice(len(pool), size=5, replace=False)
        samples = [pool[int(i)] for i in idx]

        # brute-force scores, one sample at a time, no batched helpers
        pose_scores = []
        joint_scores = []
        for s in samples:
            out = model.forward(s.obs)
            out_f = model.forward(flip_observation(s, TREE).obs)
            pose_scores.append(flip_consistency(
                out.q_loc.data[0], out.q_proj.data[0],
                out_f.q_loc.data[0], out_f.q_proj.data[0], TREE))
            ent = -np.sum(out.heatmap.data[0].reshape(TREE.joint_count, -1)
                          * np.log(out.heatmap.data[0].reshape(TREE.joint_count, -1)),
                          axis=-1)
            err = np.linalg.norm(
                out.q_loc.data[0] - flip_joint_ids(out_f.q_proj.data[0], TREE),
                axis=-1)
            joint_scores.append(ent * err)
        pose_scores = np.array(pose_scores)
        joint_scores = np.stack(joint_scores)

        # thresholds at midpoints between sorted scores: well away from
        # floating-point knife edges, still exercising both outcomes
        sp = np.sort(pose_scores)
        alpha_p = 0.5 * (sp[1] + sp[2])
        sj = np.sort(joint_scores.reshape(-1))
        alpha_q = 0.5 * (sj[len(sj) // 3] + sj[len(sj) // 3 + 1])
        alpha_h = 0.5 * (sj[2 * len(sj) // 3] + sj[2 * len(sj) // 3 + 1])

        sel_p = select_pose_pseudo_labels(model, samples, alpha_p)
        expected_ids = [i for i in range(len(samples))
                        if pose_scores[i] < alpha_p]
        assert sel_p.ids == expected_ids, f"snapshot {snap}"
        np.testing.assert_allclose(sel_p.scores, pose_scores, atol=1e-9)

        sel_j = select_joint_pseudo_labels(model, samples, alpha_q, alpha_h)
        np.testing.assert_allclose(sel_j.scores, joint_scores, atol=1e-9)
        for i in range(len(samples)):
            for j in range(TREE.joint_count):
                inv = joint_scores[i, j] < alpha_q
                outv = joint_scores[i, j] > alpha_h and not inv
                assert sel_j.in_mask[i, j] == inv, f"snapshot {snap} ({i},{j})"
                assert sel_j.out_mask[i, j] == outv, f"snapshot {snap} ({i},{j})"
                assert ((i, j) in sel_j.in_view) == inv
                assert ((i, j) in sel_j.out_view) == outv


# ---------------------------------------------------------------------------
# A8: metric suite


def _grid_pa(pred, gt):
    """Coarse-to-fine rotation grid, refined well below 0.1 degrees, with
    the closed-form optimal scale per candidate; minimizes the
    squared-error criterion and reports the winner's mean per-joint
    distance.  The extra refinement matters because the mean distance
    varies linearly with rotation error around the squared-error optimum,
    so 0.1-degree centering error alone costs a few 1e-6."""
    pred_c = pred - pred.mean(axis=0)
    gt_c = gt - gt.mean(axis=0)
    denom = np.sum(pred_c ** 2)

    def cost(euler):
        rotated = pred_c @ euler_to_rotation(euler).T
        s = max(np.sum(rotated * gt_c) / denom, 0.0)
        diff = s * rotated - gt_c
        return np.sum(diff ** 2), np.mean(np.linalg.norm(diff, axis=-1))

    best = (np.inf, np.inf, np.zeros(3))
    center, span, step = np.zeros(3), np.pi, np.radians(15.0)
    while True:
        grids = [np.arange(c - span, c + span + 1e-9, step) for c in center]
        for a in grids[0]:
            for b in grids[1]:
                for c in grids[2]:
                    sq, mean = cost((a, b, c))
                    if sq < best[0]:
                        best = (sq, mean, np.array([a, b, c]))
        if step < np.radians(0.002):
            return best[1]
        center, span, step = best[2], 2.0 * step, step / 5.0


def test_a8_metric_suite():
    rng = np.random.default_rng(0)
    # PA-MPJPE similarity invariance at 1e-7
    for _ in range(10):
        limbs = normalize_limb_vectors(rng.standard_normal((TREE.joint_count, 3)))
        gt = forward_kinematics(TREE, limbs)
        pred = (rng.uniform(0.5, 2.0) * gt
                @ euler_to_rotation(rng.uniform(-np.pi, np.pi, 3)).T
                + rng.uniform(-2, 2, 3))
        assert pa_mpjpe(pred, gt) < 1e-7
    # PA-MPJPE <= MPJPE (alignment can only help)
    for _ in range(20):
        a = rng.standard_normal((TREE.joint_count, 3))
        b = rng.standard_normal((TREE.joint_count, 3))
        assert pa_mpjpe(a, b) <= mpjpe(a, b) + 1e-12
    # Procrustes vs rotation-grid oracle at 1e-6, grid refined below 0.1 deg
    for seed in range(2):
        sub = np.random.default_rng(seed)
        limbs = normalize_limb_vectors(sub.standard_normal((TREE.joint_count, 3)))
        gt = forward_kinematics(TREE, limbs)
        pred = gt + 0.05 * sub.standard_normal(gt.shape)
        assert pa_mpjpe(pred, gt) == pytest.approx(_grid_pa(pred, gt), abs=1e-6)
    # AUROC vs rank-sum (pair-counting) oracle at 1e-12, including ties
    for _ in range(5):
        pos = np.round(rng.normal(1.0, 1.0, size=25), 1)  # rounding forces ties
        neg = np.round(rng.normal(0.0, 1.0, size=35), 1)
        wins = sum(1.0 if p > n else (0.5 if p == n else 0.0)
                   for p in pos for n in neg)
        assert auroc(pos, neg) == pytest.approx(wins / (25 * 35), abs=1e-12)


# ---------------------------------------------------------------------------
# A9: determinism


def test_a9_rerun_is_byte_identical(tmp_path):
    cfg = ExperimentConfig(seed=0, n_source=16, n_target=16, n_background=8,
                           n_eval=8,
                           model=ModelConfig(encoder_widths=(64, 32),
                                             trunk_width=32, trunk_blocks=1,
                                             fusion_width=16, fusion_blocks=1))
    cfg.hyper.max_iter = 6
    cfg.hyper.k_interval = 3
    cfg.hyper.batch_size = 4
    cfgp = str(tmp_path / "cfg.json")
    cfg.save(cfgp)
    for sub in ("a", "b"):
        rc = cli_main(["train", "--config", cfgp, "--mode", "pose",
                       "--out", str(tmp_path / sub)])
        assert rc == 0
    for fname in ("metrics.csv", "model.bin", "model.json",
                  "model.config.json", "config.json", "pseudo_labels.json"):
        a = (tmp_path / "a" / fname).read_bytes()
        b = (tmp_path / "b" / fname).read_bytes()
        assert a == b, fname
