"""Toy domain generator: determinism, ground-truth consistency, occlusion
and flip behavior, dataset IO."""

import numpy as np
import pytest

from poseadapt.heatmap import flip_joint_ids, soft_argmax
from poseadapt.skeleton import camera_transform, default_tree, mpjpe
from poseadapt.synthdata import (TRUNCATION_KEEP, DataInvariantError,
                                 DomainSpec, build_dataset, domain_appearance,
                                 flip_observation, load_dataset, make_background,
                                 make_sample, mirror_pose3d, save_dataset,
                                 simulate_occlusion, validate_samples)

TREE = default_tree()
SPEC = DomainSpec(name="test", appearance_seed=7)


def test_make_sample_ground_truth_is_consistent():
    rng = np.random.default_rng(0)
    for _ in range(5):
        s = make_sample(SPEC, rng, TREE)
        assert s.obs.shape == (32, 32)
        assert np.all((s.obs >= 0) & (s.obs <= 1))
        # the stored camera reproduces the stored 2D pose from the 3D pose
        canon = s.gt_p  # camera-space; reproject directly
        np.testing.assert_allclose(
            s.cam.scale * canon[:, :2] + s.cam.translation, s.gt_q, atol=1e-9)
        # heatmaps integrate to one and peak near the joint
        np.testing.assert_allclose(s.gt_h.sum(axis=(-1, -2)), 1.0, atol=1e-9)
        inside = s.visibility
        np.testing.assert_allclose(soft_argmax(s.gt_h)[inside], s.gt_q[inside],
                                   atol=0.08)
        # visibility is exactly the in-frame predicate
        np.testing.assert_array_equal(
            s.visibility, np.all((s.gt_q >= 0) & (s.gt_q <= 1), axis=-1))


def test_generation_is_deterministic():
    a = make_sample(SPEC, np.random.default_rng(42), TREE)
    b = make_sample(SPEC, np.random.default_rng(42), TREE)
    np.testing.assert_array_equal(a.obs, b.obs)
    np.testing.assert_array_equal(a.gt_p, b.gt_p)
    np.testing.assert_array_equal(a.gt_q, b.gt_q)


def test_different_domains_have_different_appearance():
    other = DomainSpec(name="other", appearance_seed=8)
    _, bg_a = domain_appearance(SPEC, TREE, 32)
    _, bg_b = domain_appearance(other, TREE, 32)
    assert np.abs(bg_a - bg_b).max() > 1e-3


def test_blob_amplitudes_are_lr_symmetric():
    amps, _ = domain_appearance(SPEC, TREE, 32)
    np.testing.assert_allclose(amps, amps[TREE.lr_swap], atol=1e-15)


def test_background_sample_has_no_person():
    rng = np.random.default_rng(1)
    bg = make_background(SPEC, rng, TREE)
    assert bg.is_background
    assert not bg.visibility.any()
    # the image is texture + noise only: no blob anywhere near the pose
    _, texture = domain_appearance(SPEC, TREE, 32)
    assert np.abs(bg.obs - np.clip(texture, 0, 1)).max() < 6 * SPEC.noise_level


def test_object_occlusion_hides_covered_joints_only():
    rng = np.random.default_rng(2)
    s = make_sample(SPEC, rng, TREE)
    occ = simulate_occlusion(s, np.random.default_rng(3), "object")
    assert occ.occlusion == "object"
    np.testing.assert_array_equal(occ.gt_q, s.gt_q)     # gt untouched
    np.testing.assert_array_equal(occ.gt_p, s.gt_p)
    assert np.all(occ.visibility <= s.visibility)       # can only hide


def test_truncation_updates_ground_truth_exactly():
    rng = np.random.default_rng(4)
    s = make_sample(SPEC, rng, TREE)
    t = simulate_occlusion(s, np.random.default_rng(5), "truncation")
    assert t.occlusion == "truncation"
    # affine update of the 2D pose matches the zoom window
    u0 = (1.0 - TRUNCATION_KEEP) / 2.0
    shift = s.gt_q - t.gt_q * TRUNCATION_KEEP
    assert np.allclose(shift[:, 0], u0, atol=1e-12)
    assert (np.allclose(shift[:, 1], 0.0, atol=1e-12)
            or np.allclose(shift[:, 1], 1.0 - TRUNCATION_KEEP, atol=1e-12))
    # 3D pose unchanged; the updated camera reprojects to the new 2D pose
    # (gt_p is already camera-space, so project without re-rotating)
    np.testing.assert_array_equal(t.gt_p, s.gt_p)
    q = t.cam.scale * t.gt_p[:, :2] + t.cam.translation
    np.testing.assert_allclose(q, t.gt_q, atol=1e-9)
    np.testing.assert_array_equal(
        t.visibility, np.all((t.gt_q >= 0) & (t.gt_q <= 1), axis=-1))


def test_flip_observation_is_consistent():
    rng = np.random.default_rng(6)
    s = make_sample(SPEC, rng, TREE)
    f = flip_observation(s, TREE)
    np.testing.assert_array_equal(f.obs, s.obs[:, ::-1])
    np.testing.assert_allclose(f.gt_q, flip_joint_ids(s.gt_q, TREE), atol=1e-12)
    np.testing.assert_array_equal(f.visibility, s.visibility[TREE.lr_swap])
    # double flip restores everything
    ff = flip_observation(f, TREE)
    np.testing.assert_array_equal(ff.obs, s.obs)
    np.testing.assert_allclose(ff.gt_q, s.gt_q, atol=1e-12)
    np.testing.assert_allclose(ff.gt_p, s.gt_p, atol=1e-12)


def test_mirror_pose3d_matches_projected_flip():
    # projecting the mirrored 3D pose with the mirrored camera convention
    # must give the flipped 2D pose when the camera is axis aligned
    rng = np.random.default_rng(7)
    s = make_sample(SPEC, rng, TREE)
    m = mirror_pose3d(s.gt_p, TREE)
    assert mpjpe(mirror_pose3d(m, TREE), s.gt_p) < 1e-12  # involution
    # an (N, J, 3) stack mirrors exactly like its rows
    poses = np.stack([s.gt_p, m, rng.standard_normal(m.shape)])
    np.testing.assert_array_equal(mirror_pose3d(poses, TREE),
                                  np.stack([mirror_pose3d(p, TREE) for p in poses]))
    # mirroring preserves the skeleton (left/right lengths swap exactly)
    d_orig = np.linalg.norm(s.gt_p - s.gt_p[TREE.parent], axis=-1)
    d_mir = np.linalg.norm(m - m[TREE.parent], axis=-1)
    np.testing.assert_allclose(np.sort(d_mir), np.sort(d_orig), atol=1e-12)


def test_flip_of_render_matches_render_of_flip():
    # because blob amplitudes are left/right symmetric, rendering the
    # flipped pose reproduces the flipped image; the (asymmetric)
    # background texture and pixel noise are switched off to isolate this
    quiet = DomainSpec(name="quiet", appearance_seed=7, noise_level=0.0,
                       bg_amplitude=0.0)
    s = make_sample(quiet, np.random.default_rng(8), TREE)
    f = flip_observation(s, TREE)
    from poseadapt.synthdata import render_observation
    rerendered = render_observation(f.gt_q, f.visibility, quiet,
                                    np.random.default_rng(0), TREE, 32)
    np.testing.assert_allclose(rerendered, f.obs, atol=1e-9)


def test_build_dataset_determinism_and_mix():
    rng_a = np.random.default_rng(10)
    rng_b = np.random.default_rng(10)
    ds_a = build_dataset(SPEC, 20, 0.5, rng_a, TREE)
    ds_b = build_dataset(SPEC, 20, 0.5, rng_b, TREE)
    for a, b in zip(ds_a, ds_b):
        np.testing.assert_array_equal(a.obs, b.obs)
        assert a.occlusion == b.occlusion
    kinds = {s.occlusion for s in ds_a}
    assert "none" in kinds and (kinds & {"object", "truncation"})


def test_dataset_save_load_round_trip(tmp_path):
    ds = build_dataset(SPEC, 6, 0.5, np.random.default_rng(11), TREE)
    save_dataset(ds, str(tmp_path), "toy")
    loaded = load_dataset(str(tmp_path), "toy")
    assert len(loaded) == 6
    for a, b in zip(ds, loaded):
        np.testing.assert_allclose(a.obs, b.obs, atol=1e-6)   # float32 storage
        np.testing.assert_allclose(a.gt_p, b.gt_p, atol=1e-6)
        np.testing.assert_array_equal(a.visibility, b.visibility)
        assert a.occlusion == b.occlusion
        if a.cam is not None:
            np.testing.assert_allclose(a.cam.euler, b.cam.euler, atol=1e-12)


def test_dataset_files_are_byte_identical_across_rebuilds(tmp_path):
    for sub in ("a", "b"):
        ds = build_dataset(SPEC, 5, 0.3, np.random.default_rng(12), TREE)
        save_dataset(ds, str(tmp_path / sub), "toy")
    for fname in ("toy.json", "toy.obs.f32", "toy.gt_p.f32", "toy.gt_h.f32"):
        a = (tmp_path / "a" / fname).read_bytes()
        b = (tmp_path / "b" / fname).read_bytes()
        assert a == b, fname


def test_validate_rejects_corrupt_heatmaps():
    ds = build_dataset(SPEC, 3, 0.0, np.random.default_rng(13), TREE)
    ds[1].gt_h[0] *= 2.0  # no longer a PDF
    with pytest.raises(DataInvariantError):
        validate_samples(ds)


def test_load_rejects_corrupt_blob(tmp_path):
    ds = build_dataset(SPEC, 3, 0.0, np.random.default_rng(14), TREE)
    save_dataset(ds, str(tmp_path), "toy")
    blob = tmp_path / "toy.gt_h.f32"
    data = np.fromfile(blob, dtype="<f4")
    data[:50] = 9.0
    data.tofile(blob)
    with pytest.raises(DataInvariantError):
        load_dataset(str(tmp_path), "toy")


def test_domain_spec_rejects_unknown_keys_and_bad_ranges():
    with pytest.raises(ValueError):
        DomainSpec.from_dict({"name": "x", "appearance_seed": 0, "bogus": 1})
    with pytest.raises(ValueError):
        DomainSpec(name="x", appearance_seed=0, scale_range=(0.3, 0.2))
    with pytest.raises(ValueError):
        DomainSpec(name="x", appearance_seed=0, scale_range=(0.0, 0.2))
