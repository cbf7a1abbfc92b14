"""Kinematics oracles: naive path-sum forward kinematics, explicit Euler
matrices, and a rotation-grid search cross-checking the Procrustes fit."""

import numpy as np
import pytest

from poseadapt.skeleton import (CameraParams, DegenerateFaceError,
                                KinematicTree, apply_lr_swap, camera_transform,
                                canonicalize, default_tree, euler_to_rotation,
                                face_direction, forward_kinematics, mpjpe,
                                normalize_limb_vectors, pa_mpjpe,
                                procrustes_align)


def random_limbs(rng, tree):
    return normalize_limb_vectors(rng.standard_normal((tree.joint_count, 3)))


def fk_path_sum(tree, limbs):
    """Oracle: joint position as the explicit sum of bone vectors along the
    root-to-joint chain, one joint at a time."""
    coords = np.zeros((tree.joint_count, 3))
    for j in range(tree.joint_count):
        chain = []
        k = j
        while k != 0:
            chain.append(k)
            k = int(tree.parent[k])
        coords[j] = sum(tree.bone_length[k] * limbs[k] for k in chain)
    return coords


def test_forward_kinematics_matches_path_sum_oracle():
    tree = default_tree()
    rng = np.random.default_rng(0)
    for _ in range(20):
        limbs = random_limbs(rng, tree)
        np.testing.assert_allclose(forward_kinematics(tree, limbs),
                                   fk_path_sum(tree, limbs), atol=1e-12)


def test_forward_kinematics_matches_ancestor_matrix_form():
    tree = default_tree()
    rng = np.random.default_rng(1)
    limbs = random_limbs(rng, tree)
    via_matrix = tree.ancestor_matrix() @ (tree.bone_length[:, None] * limbs)
    np.testing.assert_allclose(forward_kinematics(tree, limbs), via_matrix,
                               atol=1e-12)


def test_bone_lengths_are_preserved():
    tree = default_tree()
    rng = np.random.default_rng(2)
    pose = forward_kinematics(tree, random_limbs(rng, tree))
    for j in range(1, tree.joint_count):
        seg = np.linalg.norm(pose[j] - pose[int(tree.parent[j])])
        assert seg == pytest.approx(tree.bone_length[j], abs=1e-9)


def test_euler_rotation_matches_explicit_oracle():
    # independently written component matrices multiplied in Z-Y-X order
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b, c = rng.uniform(-np.pi, np.pi, size=3)

        def rot_z(t):
            return np.array([[np.cos(t), -np.sin(t), 0],
                             [np.sin(t), np.cos(t), 0], [0, 0, 1.0]])

        def rot_y(t):
            return np.array([[np.cos(t), 0, np.sin(t)],
                             [0, 1.0, 0], [-np.sin(t), 0, np.cos(t)]])

        def rot_x(t):
            return np.array([[1.0, 0, 0], [0, np.cos(t), -np.sin(t)],
                             [0, np.sin(t), np.cos(t)]])

        expected = rot_z(a) @ rot_y(b) @ rot_x(c)
        got = euler_to_rotation((a, b, c))
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(got @ got.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(got) == pytest.approx(1.0, abs=1e-12)


def test_canonicalize_properties():
    tree = default_tree()
    rng = np.random.default_rng(4)
    for _ in range(10):
        pose = forward_kinematics(tree, random_limbs(rng, tree))
        canon = canonicalize(pose, tree)
        np.testing.assert_allclose(canon[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(face_direction(canon, tree), [1, 0, 0],
                                   atol=1e-9)
        hip = canon[tree.index("right_hip")] - canon[tree.index("left_hip")]
        assert abs(hip[2]) < 1e-9          # hip axis in the X-Y plane
        assert canon[tree.index("right_hip")][1] < canon[tree.index("left_hip")][1]
        # distances to the root are rotation invariant
        np.testing.assert_allclose(np.linalg.norm(canon, axis=-1),
                                   np.linalg.norm(pose - pose[0], axis=-1),
                                   atol=1e-9)


def test_canonicalize_is_rotation_and_translation_invariant():
    tree = default_tree()
    rng = np.random.default_rng(5)
    pose = forward_kinematics(tree, random_limbs(rng, tree))
    canon = canonicalize(pose, tree)
    moved = pose @ euler_to_rotation(rng.uniform(-1, 1, 3)).T + rng.uniform(-2, 2, 3)
    np.testing.assert_allclose(canonicalize(moved, tree), canon, atol=1e-9)


def test_canonicalize_rejects_collinear_hips():
    tree = default_tree()
    pose = np.zeros((tree.joint_count, 3))
    pose[:, 0] = np.arange(tree.joint_count)  # everything on one line
    with pytest.raises(DegenerateFaceError):
        canonicalize(pose, tree)


def test_camera_transform_matches_manual_projection():
    tree = default_tree()
    rng = np.random.default_rng(6)
    pose = forward_kinematics(tree, random_limbs(rng, tree))
    cam = CameraParams(euler=np.array([0.2, -0.3, 0.1]), scale=0.25,
                       translation=np.array([0.5, 0.55]))
    pose_cam, q = camera_transform(pose, cam)
    rot = euler_to_rotation(cam.euler)
    for j in range(tree.joint_count):
        np.testing.assert_allclose(pose_cam[j], rot @ pose[j], atol=1e-12)
        np.testing.assert_allclose(q[j], 0.25 * pose_cam[j, :2] + [0.5, 0.55],
                                   atol=1e-12)


def test_lr_swap_is_involution_and_swaps_sides():
    tree = default_tree()
    arr = np.arange(tree.joint_count)
    swapped = apply_lr_swap(arr, tree)
    assert swapped[tree.index("left_hip")] == tree.index("right_hip")
    assert swapped[tree.index("left_wrist")] == tree.index("right_wrist")
    np.testing.assert_array_equal(apply_lr_swap(swapped, tree), arr)


def test_tree_json_round_trip():
    tree = default_tree()
    clone = KinematicTree.from_json(tree.to_json())
    assert clone.names == tree.names
    np.testing.assert_array_equal(clone.parent, tree.parent)
    np.testing.assert_array_equal(clone.lr_swap, tree.lr_swap)
    np.testing.assert_allclose(clone.bone_length, tree.bone_length)


def test_tree_validation_rejects_bad_input():
    tree = default_tree()
    with pytest.raises(ValueError):
        KinematicTree(names=tree.names, parent=np.array([1] + [0] * 16),
                      bone_length=tree.bone_length, lr_swap=tree.lr_swap)
    bad_len = tree.bone_length.copy()
    bad_len[3] = -0.1
    with pytest.raises(ValueError):
        KinematicTree(names=tree.names, parent=tree.parent,
                      bone_length=bad_len, lr_swap=tree.lr_swap)
    bad_swap = tree.lr_swap.copy()
    bad_swap[5] = 5  # 8 still maps to 5: not an involution
    with pytest.raises(ValueError):
        KinematicTree(names=tree.names, parent=tree.parent,
                      bone_length=tree.bone_length, lr_swap=bad_swap)
    bad_parent = tree.parent.copy()
    bad_parent[1], bad_parent[2] = 2, 1  # cycle 1 <-> 2
    with pytest.raises(ValueError):
        KinematicTree(names=tree.names, parent=bad_parent,
                      bone_length=tree.bone_length, lr_swap=tree.lr_swap)


# ---------------------------------------------------------------------------
# metrics


def test_mpjpe_hand_computed():
    pred = np.zeros((3, 3))
    gt = np.zeros((3, 3))
    pred[1] = [1.0, 0.0, 0.0]
    gt[1] = [0.0, 1.0, 0.0]     # distance sqrt(2) at joint 1
    gt[2] = [0.0, 0.0, 2.0]     # distance 2 at joint 2
    assert mpjpe(pred, gt) == pytest.approx((np.sqrt(2.0) + 2.0) / 3.0, abs=1e-12)


def test_mpjpe_ignores_global_translation():
    rng = np.random.default_rng(7)
    pred = rng.standard_normal((17, 3))
    gt = rng.standard_normal((17, 3))
    assert mpjpe(pred + 3.7, gt - 1.2) == pytest.approx(mpjpe(pred, gt), abs=1e-9)
    assert isinstance(mpjpe(pred, gt), float)
    # (N, J, 3) stacks give exactly the per-pose errors
    preds, gts = rng.standard_normal((2, 5, 17, 3))
    np.testing.assert_array_equal(mpjpe(preds, gts),
                                  [mpjpe(p, g) for p, g in zip(preds, gts)])


def test_pa_mpjpe_zero_under_similarity_transform():
    tree = default_tree()
    rng = np.random.default_rng(8)
    gt = forward_kinematics(tree, random_limbs(rng, tree))
    rot = euler_to_rotation(rng.uniform(-2, 2, 3))
    pred = 1.7 * gt @ rot.T + np.array([0.3, -0.8, 2.0])
    assert pa_mpjpe(pred, gt) < 1e-9


def grid_procrustes_residual(pred, gt, refine=4):
    """Oracle: coarse-to-fine search over Euler rotations, using the
    closed-form optimal scale/translation for each candidate rotation.
    Minimizes the total squared error (the Procrustes criterion) and
    reports the mean per-joint distance of the winner."""
    pred_c = pred - pred.mean(axis=0)
    gt_c = gt - gt.mean(axis=0)
    denom = np.sum(pred_c ** 2)

    def cost(euler):
        r = euler_to_rotation(euler)
        rotated = pred_c @ r.T
        s = max(np.sum(rotated * gt_c) / denom, 0.0)
        diff = s * rotated - gt_c
        return np.sum(diff ** 2), np.mean(np.linalg.norm(diff, axis=-1))

    best = (np.inf, np.inf, np.zeros(3))
    center = np.zeros(3)
    span, step = np.pi, np.radians(15.0)
    for _ in range(refine):
        grids = [np.arange(c - span, c + span + 1e-9, step) for c in center]
        for a in grids[0]:
            for b in grids[1]:
                for c in grids[2]:
                    sq, mean = cost((a, b, c))
                    if sq < best[0]:
                        best = (sq, mean, np.array([a, b, c]))
        center = best[2]
        span = 2.0 * step
        step /= 5.0
    return best[0], best[1]


def test_pa_mpjpe_matches_rotation_grid_search():
    # the SVD solution must be at least as good as, and close to, the
    # best rotation found by exhaustive grid search
    tree = default_tree()
    for seed in range(2):
        sub = np.random.default_rng(seed)
        gt = forward_kinematics(tree, random_limbs(sub, tree))
        pred = gt + 0.1 * sub.standard_normal(gt.shape)
        aligned, _ = procrustes_align(pred, gt)
        closed_sq = float(np.sum((aligned - gt) ** 2))
        closed_mean = pa_mpjpe(pred, gt)
        searched_sq, searched_mean = grid_procrustes_residual(pred, gt)
        assert closed_sq <= searched_sq + 1e-9
        assert closed_mean == pytest.approx(searched_mean, abs=1e-4)


def test_procrustes_never_reflects():
    tree = default_tree()
    rng = np.random.default_rng(10)
    gt = forward_kinematics(tree, random_limbs(rng, tree))
    pred = gt.copy()
    pred[:, 0] *= -1.0  # mirrored pose: a reflection would align it exactly
    aligned, degenerate = procrustes_align(pred, gt)
    assert not degenerate
    assert float(np.mean(np.linalg.norm(aligned - gt, axis=-1))) > 1e-3


def test_procrustes_degenerate_falls_back_to_translation():
    gt = np.random.default_rng(11).standard_normal((5, 3))
    pred = np.zeros((5, 3))
    pred[:, 0] = np.arange(5)  # rank-1 point cloud
    aligned, degenerate = procrustes_align(pred, gt)
    assert degenerate
    np.testing.assert_allclose(aligned.mean(axis=0), gt.mean(axis=0), atol=1e-12)
