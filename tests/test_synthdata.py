"""Toy domain generator: determinism, ground-truth consistency, occlusion
and flip behavior, dataset IO."""

import hashlib

import numpy as np
import pytest

from poseadapt.config import ExperimentConfig, generate_splits
from poseadapt.heatmap import flip_joint_ids, soft_argmax
from poseadapt.skeleton import default_tree, mpjpe
from poseadapt.synthdata import (TRUNCATION_KEEP, DataInvariantError,
                                 DomainSpec, build_dataset, domain_appearance,
                                 flip_observation, load_dataset, mirror_pose3d,
                                 render_observation, save_dataset)

TREE = default_tree()
SPEC = DomainSpec(name="test", appearance_seed=7)


def build(n, occlusion_mix, seed, spec=SPEC, **kw):
    return build_dataset(spec, n, occlusion_mix, np.random.default_rng(seed), TREE, **kw)


def test_sample_ground_truth_is_consistent():
    for s in build(5, 0.0, 0):
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
    for a, b in zip(build(3, 0.5, 42), build(3, 0.5, 42)):
        np.testing.assert_array_equal(a.obs, b.obs)
        np.testing.assert_array_equal(a.gt_p, b.gt_p)
        np.testing.assert_array_equal(a.gt_q, b.gt_q)


# SHA-256 over every field of all six splits of GOLDEN_CONFIG, recorded
# from the per-sample generator that the stacked one replaced
GOLDEN_DIGEST = "70f2a1d9631d552703b3279ad7f3b40bb3b3e62da78f45e01eec6f250378526c"


def test_generate_splits_matches_the_recorded_digest():
    # object occlusion, truncation and backgrounds all occur in these splits
    cfg = ExperimentConfig(seed=2, occlusion_mix=0.5, n_source=12, n_target=12,
                           n_background=4, n_eval=8)
    splits = generate_splits(cfg)
    kinds = {s.occlusion for ds in splits.values() for s in ds}
    assert kinds == {"none", "object", "truncation"}
    h = hashlib.sha256()
    for name in sorted(splits):
        for s in splits[name]:
            for key in ("obs", "gt_p", "gt_q", "gt_h", "visibility"):
                h.update(np.ascontiguousarray(getattr(s, key)).tobytes())
            h.update(b"-" if s.cam is None else np.concatenate(
                [s.cam.euler, [s.cam.scale], s.cam.translation]).tobytes())
            h.update(f"{s.domain}|{s.occlusion}|{s.is_background}".encode())
    assert h.hexdigest() == GOLDEN_DIGEST


def test_render_observation_stack_matches_single_images():
    ds = build(6, 0.0, 3)
    q = np.stack([s.gt_q for s in ds])
    vis = np.stack([s.visibility for s in ds])
    vis[2] = False  # an image with no blob at all
    noise = np.random.default_rng(4).normal(0.0, 0.02, size=(6, 32, 32))
    stacked = render_observation(q, vis, SPEC, TREE, 32, noise)
    singles = [render_observation(q[i], vis[i], SPEC, TREE, 32, noise[i]) for i in range(6)]
    np.testing.assert_array_equal(stacked, np.stack(singles))
    _, bg = domain_appearance(SPEC, TREE, 32)
    np.testing.assert_array_equal(stacked[2], np.clip(bg + noise[2], 0.0, 1.0))


def test_different_domains_have_different_appearance():
    other = DomainSpec(name="other", appearance_seed=8)
    _, bg_a = domain_appearance(SPEC, TREE, 32)
    _, bg_b = domain_appearance(other, TREE, 32)
    assert np.abs(bg_a - bg_b).max() > 1e-3


def test_blob_amplitudes_are_lr_symmetric():
    amps, _ = domain_appearance(SPEC, TREE, 32)
    np.testing.assert_allclose(amps, amps[TREE.lr_swap], atol=1e-15)


def test_background_sample_has_no_person():
    _, texture = domain_appearance(SPEC, TREE, 32)
    for bg in build(3, 0.0, 1, backgrounds=True):
        assert bg.is_background and bg.occlusion == "none"
        assert not bg.visibility.any()
        # the image is texture + noise only: no blob anywhere near the pose
        assert np.abs(bg.obs - np.clip(texture, 0, 1)).max() < 6 * SPEC.noise_level


def occluded_pairs(mode, n=16, seed=2):
    """(plain, occluded) samples drawn from the same seeds: a sample's pose,
    camera and image noise come before its occlusion draws."""
    pairs = [(s, o) for s, o in zip(build(n, 0.0, seed), build(n, 1.0, seed))
             if o.occlusion == mode]
    assert pairs
    return pairs


def test_object_occlusion_hides_covered_joints_only():
    _, texture = domain_appearance(SPEC, TREE, 32)
    for s, occ in occluded_pairs("object"):
        np.testing.assert_array_equal(occ.gt_q, s.gt_q)     # gt untouched
        np.testing.assert_array_equal(occ.gt_p, s.gt_p)
        np.testing.assert_array_equal(occ.gt_h, s.gt_h)
        assert np.all(occ.visibility <= s.visibility)       # can only hide
        # the changed pixels now show the background texture plus noise
        changed = occ.obs != s.obs
        assert changed.any()
        assert np.abs(occ.obs - texture)[changed].max() < 6 * SPEC.noise_level


def test_truncation_updates_ground_truth_exactly():
    for s, t in occluded_pairs("truncation"):
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
        np.testing.assert_allclose(soft_argmax(t.gt_h)[t.visibility],
                                   t.gt_q[t.visibility], atol=0.08)


def test_flip_observation_is_consistent():
    s = build(1, 0.0, 6)[0]
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
    s = build(1, 0.0, 7)[0]
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
    s = build(1, 0.0, 8, spec=quiet)[0]
    f = flip_observation(s, TREE)
    rerendered = render_observation(f.gt_q, f.visibility, quiet, TREE, 32)
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


def test_loaded_images_and_heatmaps_keep_their_stored_float32(tmp_path):
    ds = build(6, 0.5, 15)
    save_dataset(ds, str(tmp_path), "toy")
    loaded = load_dataset(str(tmp_path), "toy")
    for key in ("obs", "gt_h"):
        arrays = [getattr(s, key) for s in loaded]
        assert all(a.dtype == np.float32 for a in arrays), key
        # one buffer per field: views of the array read from its file
        base = arrays[0].base
        assert base is not None and base.nbytes == sum(a.nbytes for a in arrays), key
        assert all(np.shares_memory(base, a) for a in arrays), key
        for a, s in zip(arrays, ds):
            np.testing.assert_array_equal(a, getattr(s, key).astype(np.float32))
    for s in loaded:
        assert s.gt_p.dtype == s.gt_q.dtype == np.float64
        assert s.visibility.dtype == bool


def test_saving_a_loaded_dataset_rewrites_its_files_byte_for_byte(tmp_path):
    save_dataset(build(6, 0.5, 16), str(tmp_path / "a"), "toy")
    save_dataset(load_dataset(str(tmp_path / "a"), "toy"), str(tmp_path / "b"), "toy")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes(), name


def _not_a_pdf(s):
    s.gt_h[0] *= 2.0


def _negative_mass(s):  # the slice still sums to one
    s.gt_h[0, 0, 1] += s.gt_h[0, 0, 0] + 0.1
    s.gt_h[0, 0, 0] = -0.1


def _in_view_outside(s):
    s.gt_q[0] = (1.5, 0.5)
    s.visibility[0] = True


def _non_finite(s):
    s.obs[0, 0] = np.nan


def _negated_heatmap(s):  # not a PDF and negative
    s.gt_h[0] *= -1.0


@pytest.mark.parametrize("edits, message", [
    ([(3, _not_a_pdf)], "sample 3: heatmap slices are not PDFs"),
    ([(2, _negative_mass)], "sample 2: negative heatmap mass"),
    ([(4, _in_view_outside)], "sample 4: in-view joint outside the frame"),
    ([(1, _non_finite)], "sample 1: non-finite values"),
    ([(2, _negated_heatmap)], "sample 2: heatmap slices are not PDFs"),
    ([(3, _non_finite), (3, _in_view_outside)], "sample 3: in-view joint outside the frame"),
    ([(4, _not_a_pdf), (1, _non_finite)], "sample 1: non-finite values"),
], ids=["pdf", "negative", "frame", "finite", "pdf-and-negative", "frame-and-finite",
        "first-sample-wins"])
def test_validation_names_first_failing_sample_and_check(tmp_path, edits, message):
    ds = build_dataset(SPEC, 5, 0.0, np.random.default_rng(13), TREE)
    for i, edit in edits:
        edit(ds[i])
    save_dataset(ds, str(tmp_path), "toy")
    with pytest.raises(DataInvariantError, match=f"^{message}$"):
        load_dataset(str(tmp_path), "toy")
    assert len(load_dataset(str(tmp_path), "toy", validate=False)) == 5


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
    with pytest.raises(TypeError, match="bogus"):
        DomainSpec(**{"name": "x", "appearance_seed": 0, "bogus": 1})
    with pytest.raises(ValueError):
        DomainSpec(name="x", appearance_seed=0, scale_range=(0.3, 0.2))
    with pytest.raises(ValueError):
        DomainSpec(name="x", appearance_seed=0, scale_range=(0.0, 0.2))


@pytest.mark.parametrize("field, value", [
    ("noise_level", -0.1), ("bg_amplitude", -0.5), ("cone_angle", -0.1),
    ("blob_sigma_px", 0.0), ("blob_amp_range", (1.0, 0.6))])
def test_domain_spec_rejects_bad_appearance(field, value):
    with pytest.raises(ValueError, match=f"DomainSpec.{field}"):
        DomainSpec(name="x", appearance_seed=0, **{field: value})
