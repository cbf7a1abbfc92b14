"""Heatmap math: the softmax and entropy pass, rendering, flip
equivariance, and the reference forms the tests compare against."""

import numpy as np
import pytest

from oracles import (heatmap_entropy, joint_confidence, soft_argmax,
                     spatial_softmax)
from poseadapt.heatmap import (BLOCK_CELLS, cell_centers, entropy, flip_heatmap,
                               flip_joint_ids, render_gaussian_heatmap)
from poseadapt.skeleton import default_tree


def random_pdf(rng, j=3, h=16, w=16):
    return spatial_softmax(rng.standard_normal((j, h, w)) * 2.0)


def test_cell_centers_layout():
    c = cell_centers(2, 4)
    assert c.shape == (8, 2)
    np.testing.assert_allclose(c[0], [0.5 / 4, 0.5 / 2])   # top-left
    np.testing.assert_allclose(c[3], [3.5 / 4, 0.5 / 2])   # end of first row
    np.testing.assert_allclose(c[4], [0.5 / 4, 1.5 / 2])   # second row
    assert np.all((c > 0) & (c < 1))


def test_spatial_softmax_is_pdf():
    rng = np.random.default_rng(0)
    heat = random_pdf(rng)
    assert np.all(heat > 0)
    np.testing.assert_allclose(heat.reshape(3, -1).sum(axis=-1), 1.0, atol=1e-12)


def test_soft_argmax_on_one_hot_returns_cell_center():
    h, w = 8, 8
    heat = np.zeros((1, h, w))
    heat[0, 2, 5] = 1.0
    np.testing.assert_allclose(soft_argmax(heat)[0],
                               [(5 + 0.5) / w, (2 + 0.5) / h], atol=1e-12)


def test_soft_argmax_of_uniform_is_grid_centroid():
    heat = np.full((1, 6, 6), 1.0 / 36.0)
    np.testing.assert_allclose(soft_argmax(heat)[0], [0.5, 0.5], atol=1e-12)


def test_soft_argmax_matches_expectation_oracle():
    rng = np.random.default_rng(1)
    heat = random_pdf(rng, j=4)
    centers = cell_centers(16, 16)
    expected = np.stack([(heat[j].reshape(-1)[:, None] * centers).sum(axis=0)
                         for j in range(4)])
    np.testing.assert_allclose(soft_argmax(heat), expected, atol=1e-12)


def test_joint_confidence_is_peak_value():
    heat = np.zeros((2, 4, 4))
    heat[0] = 1.0 / 16.0
    heat[1, 3, 1] = 0.7
    heat[1, 0, 0] = 0.3
    np.testing.assert_allclose(joint_confidence(heat), [1.0 / 16.0, 0.7])


def fused(logits):
    """hm.entropy on a copy: the PDFs and the entropies of the logits."""
    pdf = np.array(logits, dtype=np.float64)
    return pdf, entropy(pdf)


def test_entropy_limits():
    h = w = 16
    pdf, ent = fused(np.zeros((1, h, w)))
    np.testing.assert_array_equal(pdf, 1.0 / (h * w))
    assert ent[0] == pytest.approx(np.log(h * w), abs=1e-12)
    # cells 800 below the peak underflow to exact zeros: a one-hot PDF
    onehot = np.full((1, h, w), -800.0)
    onehot[0, 4, 4] = 0.0
    pdf, ent = fused(onehot)
    assert pdf[0, 4, 4] == 1.0 and pdf.sum() == 1.0
    assert ent[0] == 0.0


def test_entropy_matches_direct_sum():
    rng = np.random.default_rng(2)
    heat = random_pdf(rng)
    direct = [-np.sum(heat[j] * np.log(heat[j])) for j in range(3)]
    np.testing.assert_allclose(heatmap_entropy(heat), direct, atol=1e-12)
    np.testing.assert_allclose(fused(np.log(heat))[1], direct, atol=1e-12)
    # an (N, J, H, W) stack gives exactly the per-heatmap results
    stack = rng.standard_normal((4, 3, 16, 16)) * 2.0
    for got, want in zip(fused(stack), zip(*[fused(h) for h in stack])):
        np.testing.assert_array_equal(got, np.stack(want))


@pytest.mark.parametrize("batch", [0, 1, 8, 64])
def test_entropy_pass_pdfs_are_the_three_pass_softmax_bits(batch):
    # 64 batches of 17 joints span several blocks, 8 fit in one
    logits = np.random.default_rng(batch).standard_normal((batch, 17, 16, 16)) * 3.0
    pdf, ent = fused(logits)
    assert ent.shape == (batch, 17)
    assert (batch * 17 * 256 > BLOCK_CELLS) == (batch == 64)
    np.testing.assert_array_equal(pdf, spatial_softmax(logits))


@pytest.mark.parametrize("case", ["uniform", "gap50", "random"])
def test_entropy_from_logits_matches_the_heatmap_form(case):
    rng = np.random.default_rng(7)
    logits = {"uniform": np.full((2, 17, 16, 16), 3.5),
              "gap50": np.where(rng.random((2, 17, 16, 16)) < 0.5, 0.0, -50.0),
              "random": rng.standard_normal((2, 17, 16, 16)) * 4.0}[case]
    pdf, ent = fused(logits)
    np.testing.assert_allclose(ent, heatmap_entropy(pdf), rtol=0, atol=1e-12)


def test_a_nan_logit_makes_only_its_joints_pdf_and_entropy_nan():
    logits = np.random.default_rng(8).standard_normal((2, 3, 4, 4))
    clean = fused(logits)
    logits[1, 2, 0, 1] = np.nan
    for got, want in zip(fused(logits), clean):
        assert np.isnan(got[1, 2]).all()
        got[1, 2] = want[1, 2]
        np.testing.assert_array_equal(got, want)


def test_infinite_logits_give_the_three_pass_pdfs_and_a_nan_entropy():
    logits = np.random.default_rng(9).standard_normal((3, 2, 4, 4))
    logits[0, 0, 2, 3] = np.inf
    logits[1, 0, 0, 0] = -np.inf
    logits[2, 1] = -np.inf
    with np.errstate(invalid="ignore"):  # inf - inf
        pdf, ent = fused(logits)
        np.testing.assert_array_equal(pdf, spatial_softmax(logits))
    np.testing.assert_array_equal(np.isnan(ent), [[True, False], [True, False],
                                                  [False, True]])


def test_entropy_of_a_heatmap_with_a_nan_or_negative_cell_is_nan():
    uniform = np.full((1, 2, 4, 4), 1.0 / 16.0)
    nan_cell = uniform.copy()
    nan_cell[0, 0, 1, 1] = np.nan
    negative = uniform.copy()
    negative[0, 1, 2, 3] = -0.1
    for broken, joint in ((nan_cell, 0), (negative, 1)):
        h = heatmap_entropy(broken)
        assert np.isnan(h[0, joint])
        assert h[0, 1 - joint] == heatmap_entropy(uniform)[0, 1 - joint]
    # exact zeros are valid mass: 0 * log(0) := 0
    half = np.zeros((1, 4, 4))
    half[0, :2] = 1.0 / 8.0
    assert heatmap_entropy(half)[0] == pytest.approx(np.log(8.0), abs=1e-12)


def test_render_gaussian_heatmap_peaks_at_joint():
    q = np.array([[0.25, 0.75], [0.6, 0.4]])
    heat = render_gaussian_heatmap(q, 1.0, (16, 16))
    np.testing.assert_allclose(heat.reshape(2, -1).sum(axis=-1), 1.0, atol=1e-12)
    for j in range(2):
        peak = np.unravel_index(np.argmax(heat[j]), (16, 16))
        assert abs((peak[1] + 0.5) / 16 - q[j, 0]) <= 1.0 / 16
        assert abs((peak[0] + 0.5) / 16 - q[j, 1]) <= 1.0 / 16
    # an (N, J, 2) stack renders exactly the per-pose heatmaps
    qs = np.random.default_rng(5).uniform(size=(4, 3, 2))
    np.testing.assert_array_equal(
        render_gaussian_heatmap(qs, 1.0, (16, 8)),
        np.stack([render_gaussian_heatmap(q, 1.0, (16, 8)) for q in qs]))


def test_render_soft_argmax_round_trip():
    # interior joints away from the border round-trip through rendering
    q = np.array([[0.3, 0.5], [0.55, 0.45], [0.5, 0.7]])
    heat = render_gaussian_heatmap(q, 1.0, (16, 16))
    np.testing.assert_allclose(soft_argmax(heat), q, atol=5e-3)


def test_render_out_of_frame_still_pdf():
    heat = render_gaussian_heatmap(np.array([[1.4, -0.3]]), 1.0, (16, 16))
    assert np.all(np.isfinite(heat))
    np.testing.assert_allclose(heat.sum(), 1.0, atol=1e-12)


def test_flip_heatmap_is_involution():
    tree = default_tree()
    rng = np.random.default_rng(3)
    heat = random_pdf(rng, j=tree.joint_count)
    np.testing.assert_array_equal(flip_heatmap(flip_heatmap(heat, tree), tree),
                                  heat)


def test_flip_joint_ids_pose_mirror():
    tree = default_tree()
    q = np.random.default_rng(4).uniform(size=(tree.joint_count, 2))
    f = flip_joint_ids(q, tree)
    lh, rh = tree.index("left_hip"), tree.index("right_hip")
    np.testing.assert_allclose(f[lh, 0], 1.0 - q[rh, 0], atol=1e-12)
    np.testing.assert_allclose(f[lh, 1], q[rh, 1], atol=1e-12)
    np.testing.assert_allclose(flip_joint_ids(f, tree), q, atol=1e-12)
    # (N, J, 2) and (N, J, 3) stacks flip exactly like their rows; 3D
    # arrays are only permuted
    rng = np.random.default_rng(5)
    for stack in (rng.uniform(size=(4, tree.joint_count, 2)),
                  rng.standard_normal((4, tree.joint_count, 3))):
        np.testing.assert_array_equal(flip_joint_ids(stack, tree),
                                      np.stack([flip_joint_ids(a, tree) for a in stack]))
    np.testing.assert_array_equal(flip_joint_ids(stack, tree), stack[:, tree.lr_swap])


def test_flip_commutes_with_rendering():
    # rendering the flipped pose equals flipping the rendered heatmap
    tree = default_tree()
    rng = np.random.default_rng(5)
    q = rng.uniform(0.1, 0.9, size=(tree.joint_count, 2))
    direct = render_gaussian_heatmap(flip_joint_ids(q, tree), 1.0, (16, 16))
    flipped = flip_heatmap(render_gaussian_heatmap(q, 1.0, (16, 16)), tree)
    np.testing.assert_allclose(direct, flipped, atol=1e-12)


def test_flip_preserves_entropy_and_confidence():
    tree = default_tree()
    rng = np.random.default_rng(6)
    heat = random_pdf(rng, j=tree.joint_count)
    f = flip_heatmap(heat, tree)
    np.testing.assert_allclose(np.sort(heatmap_entropy(f)), np.sort(heatmap_entropy(heat)),
                               atol=1e-12)
    np.testing.assert_allclose(joint_confidence(f),
                               joint_confidence(heat)[tree.lr_swap], atol=1e-12)
