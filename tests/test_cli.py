"""End-to-end command-line checks: happy paths, exit codes, and output
determinism."""

import dataclasses
import json
import os

import numpy as np
import pytest

from poseadapt import cli
from poseadapt.autodiff import Parameter
from poseadapt.cli import (EXIT_BAD_CONFIG, EXIT_BAD_DATA, EXIT_MISSING_FILES,
                           EXIT_NON_FINITE, main)
from poseadapt.config import ExperimentConfig
from poseadapt.model import FusionNet, ModelConfig, PoseNet
from poseadapt.optim import save_params
from poseadapt.skeleton import KinematicTree
from poseadapt.synthdata import DomainSpec
from poseadapt.trainer import HyperParams


def tiny_config(tmp_path, seed=0):
    cfg = ExperimentConfig(seed=seed, n_source=16, n_target=16, n_background=8,
                           n_eval=8,
                           model=ModelConfig(encoder_widths=(64, 32),
                                             trunk_width=32, trunk_blocks=1,
                                             fusion_width=16, fusion_blocks=1))
    cfg.hyper.max_iter = 4
    cfg.hyper.k_interval = 2
    cfg.hyper.batch_size = 4
    path = str(tmp_path / "cfg.json")
    cfg.save(path)
    return path


def test_generate_train_evaluate_pipeline(tmp_path, capsys):
    cfgp = tiny_config(tmp_path)
    data = str(tmp_path / "data")
    run = str(tmp_path / "run")

    assert main(["generate-data", "--config", cfgp, "--out", data]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sizes"]["source"] == 16
    assert os.path.exists(os.path.join(data, "source.json"))
    assert os.path.exists(os.path.join(data, "config.json"))

    assert main(["train", "--config", cfgp, "--mode", "pose",
                 "--data", data, "--out", run]) == 0
    report = json.loads(capsys.readouterr().out)
    assert np.isfinite(report["final"]["mpjpe_target"])
    for fname in ("model.json", "model.bin", "metrics.csv", "config.json"):
        assert os.path.exists(os.path.join(run, fname)), fname

    ev = str(tmp_path / "ev")
    assert main(["evaluate", "--config", cfgp, "--model", run + "/model",
                 "--data", data, "--out", ev]) == 0
    row = json.loads(capsys.readouterr().out)
    assert 0.0 <= row["auroc_u_bg_vs_source"] <= 1.0

    fus = str(tmp_path / "fus")
    assert main(["train", "--config", cfgp, "--mode", "fusion",
                 "--model", run + "/model", "--data", data, "--out", fus]) == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(fus, "fusion.bin"))

    hist = str(tmp_path / "hist")
    assert main(["histogram", "--config", cfgp, "--model", run + "/model",
                 "--data", data, "--out", hist, "--bins", "8"]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "hist" / "histogram.json").read_text())
    assert len(doc["entropy"]["bin_edges"]) == 9


def model_edited_config(tmp_path, name, **model):
    """The tiny config with ``model`` fields changed, saved as ``name``."""
    with open(tiny_config(tmp_path)) as f:
        doc = json.load(f)
    doc["model"].update(model)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_train_builds_the_configured_model(tmp_path, capsys):
    cfgp = model_edited_config(tmp_path, "small", image_size=24, encoder_widths=[32])
    out = tmp_path / "o"
    assert main(["train", "--config", cfgp, "--mode", "baseline", "--out", str(out)]) == 0
    capsys.readouterr()
    with open(cfgp) as f:
        assert json.loads((out / "model.config.json").read_text()) == json.load(f)["model"]
    assert PoseNet.load(str(out / "model")).params["enc0.w"].shape == (24 * 24, 32)


SMALL_TREE = KinematicTree(names=("pelvis", "spine", "neck", "left_hip", "right_hip"),
                           parent=np.array([0, 0, 1, 0, 0]),
                           bone_length=np.array([1.0, 0.45, 0.25, 0.14, 0.14]),
                           lr_swap=np.array([0, 1, 2, 4, 3]))


def test_dataset_geometry_mismatch_exits_4(tmp_path, capsys):
    cfgp = tiny_config(tmp_path)
    tiny = ExperimentConfig.load(cfgp).model
    m32, m24, m5 = (str(tmp_path / name) for name in ("m32", "m24", "m5"))
    PoseNet(config=tiny).save(m32)
    PoseNet(config=dataclasses.replace(tiny, image_size=24)).save(m24)
    PoseNet(config=tiny, tree=SMALL_TREE).save(m5)
    d24, d8 = str(tmp_path / "d24"), str(tmp_path / "d8")
    assert main(["generate-data", "--out", d24, "--config",
                 model_edited_config(tmp_path, "i24", image_size=24)]) == 0
    assert main(["generate-data", "--out", d8, "--config",
                 model_edited_config(tmp_path, "h8", heatmap_size=8)]) == 0
    # only training reads the ground-truth heatmaps
    assert main(["evaluate", "--model", m32, "--data", d8, "--config", cfgp,
                 "--out", str(tmp_path / "ev")]) == 0
    capsys.readouterr()
    cases = [
        (["evaluate", "--model", m24], "dataset source: image size 32, the model's is 24"),
        (["histogram", "--model", m24], "dataset source: image size 32, the model's is 24"),
        (["train", "--mode", "fusion", "--model", m24],
         "dataset source: image size 32, the model's is 24"),
        (["evaluate", "--model", m5], "dataset source: joint count 17, the model's is 5"),
        (["evaluate", "--model", m32, "--data", d24],
         "dataset source: image size 24, the model's is 32"),
        (["train", "--data", d24], "dataset source: image size 24, the model's is 32"),
        (["train", "--data", d8], "dataset source: heatmap grid (8, 8), the model's is (16, 16)"),
    ]
    for args, message in cases:
        rc = main(args + ["--config", cfgp, "--out", str(tmp_path / "o")])
        err = json.loads(capsys.readouterr().err)
        assert rc == err["code"] == EXIT_BAD_DATA, args
        assert err["error"] == message, args


@pytest.mark.parametrize("bins", ["-3", "0"])
def test_histogram_without_bins_exits_2(tmp_path, capsys, bins):
    rc = main(["histogram", "--model", str(tmp_path / "m"), "--bins", bins,
               "--out", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert rc == err["code"] == EXIT_BAD_CONFIG
    assert err["error"] == f"--bins must be at least 1, not {bins}"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["generate-data"], ["train"],
                                     ["histogram", "--model", "m"]])
def test_out_that_is_a_file_exits_3(tmp_path, capsys, command):
    (tmp_path / "o").write_text("")
    rc = main(command + ["--out", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert rc == err["code"] == EXIT_MISSING_FILES
    assert err["error"].startswith(f"cannot write output directory {tmp_path / 'o'}")


def test_all_train_modes_run(tmp_path, capsys):
    cfgp = tiny_config(tmp_path)
    for mode in ("baseline", "uncertainty", "joint"):
        out = str(tmp_path / mode)
        assert main(["train", "--config", cfgp, "--mode", mode,
                     "--out", out]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(out, "metrics.csv"))


def test_fusion_with_empty_source_split(tmp_path, capsys):
    # an empty split skips its loss term instead of drawing from it
    cfgp = tiny_config(tmp_path)
    with open(cfgp) as f:
        doc = json.load(f)
    doc["n_source"] = 0
    doc["hyper"]["alpha_p"] = 1e9  # every target sample is pseudo-labelled
    with open(cfgp, "w") as f:
        json.dump(doc, f)
    model = str(tmp_path / "model")
    PoseNet(config=ModelConfig(**doc["model"]),
            rng=np.random.default_rng(0)).save(model)
    out = str(tmp_path / "fus")
    assert main(["train", "--config", cfgp, "--mode", "fusion",
                 "--model", model, "--out", out]) == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(out, "fusion.bin"))


def test_fusion_with_empty_target_split(tmp_path, capsys):
    # no target samples: fusion trains on source alone, with no selection
    cfgp = tiny_config(tmp_path)
    with open(cfgp) as f:
        doc = json.load(f)
    doc["n_target"] = 0
    with open(cfgp, "w") as f:
        json.dump(doc, f)
    model = str(tmp_path / "model")
    PoseNet(config=ModelConfig(**doc["model"]),
            rng=np.random.default_rng(0)).save(model)
    out = str(tmp_path / "fus")
    assert main(["train", "--config", cfgp, "--mode", "fusion",
                 "--model", model, "--out", out]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "fusion"
    assert os.path.exists(os.path.join(out, "fusion.bin"))
    with open(os.path.join(out, "metrics.csv")) as f:
        header, values = f.read().splitlines()
    row = dict(zip(header.split(","), values.split(",")))
    assert row["pseudo_count"] == "0"
    assert float(row["fused_mpjpe_target"]) > 0.0


def test_missing_config_exits_3(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_MISSING_FILES
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == EXIT_MISSING_FILES
    assert "not found" in err["error"]


# (document, class and key the error message must name)
BAD_CONFIGS = [
    ({"seed": 0, "bogus_key": 1}, "ExperimentConfig", "bogus_key"),
    ({"source": {"name": "s", "appearance_seed": 1, "bogus_key": 1}},
     "DomainSpec", "bogus_key"),
    ({"model": {"image_size": 32, "bogus_key": 1}}, "ModelConfig", "bogus_key"),
    ({"hyper": {"lam": 0.5, "bogus_key": 1}}, "HyperParams", "bogus_key"),
    ([{"seed": 0}], "ExperimentConfig", "list"),
    ({"hyper": None}, "HyperParams", "NoneType"),
    ({"occlusion_mix": 1.5}, "ExperimentConfig", "occlusion_mix"),
    ({"seed": "x"}, "ExperimentConfig", "seed"),
    ({"n_source": 8.5}, "ExperimentConfig", "n_source"),
]


def test_invalid_config_exits_2(tmp_path, capsys):
    # an unknown key at any level, a section that is not a JSON object or
    # a value out of range exits 2 with a message naming class and key
    for i, (doc, cls, key) in enumerate(BAD_CONFIGS):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(doc))
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        err = json.loads(capsys.readouterr().err)
        assert rc == err["code"] == EXIT_BAD_CONFIG, doc
        assert cls in err["error"] and key in err["error"], err["error"]

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{]")
    assert main(["train", "--config", str(notjson),
                 "--out", str(tmp_path / "o2")]) == EXIT_BAD_CONFIG
    capsys.readouterr()


def test_zero_eval_split_exits_2(tmp_path, capsys):
    # every mode evaluates on the eval splits, so they must not be empty
    cfgp = tiny_config(tmp_path)
    with open(cfgp) as f:
        doc = json.load(f)
    doc["n_eval"] = 0
    with open(cfgp, "w") as f:
        json.dump(doc, f)
    rc = main(["train", "--config", cfgp, "--mode", "baseline",
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_BAD_CONFIG
    assert "n_eval" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("split", ["source", "target", "background"])
def test_generate_data_with_an_empty_split_exits_2(tmp_path, capsys, split):
    # a dataset file holds at least one sample; train accepts empty splits
    cfgp = tiny_config(tmp_path)
    with open(cfgp) as f:
        doc = json.load(f)
    doc[f"n_{split}"] = 0
    with open(cfgp, "w") as f:
        json.dump(doc, f)
    rc = main(["generate-data", "--config", cfgp, "--out", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert rc == err["code"] == EXIT_BAD_CONFIG
    assert f"empty {split} split" in err["error"] and f"n_{split}" in err["error"]
    assert not (tmp_path / "o").exists()


def test_config_validates_when_built_in_code():
    with pytest.raises(ValueError, match="n_eval"):
        ExperimentConfig(n_eval=-1)
    with pytest.raises(ValueError, match="n_source"):
        ExperimentConfig(n_source=-1)


def test_config_load_save_round_trip_is_byte_identical(tmp_path):
    # non-default values at the top level and in every nested section
    cfg = ExperimentConfig(
        seed=7, n_source=3, n_target=4, n_background=5, n_eval=6,
        occlusion_mix=0.25,
        source=DomainSpec(name="src", appearance_seed=3, euler_range=((-1, 1),) * 3,
                          blob_sigma_px=1.2),
        model=ModelConfig(encoder_widths=(8, 4), heatmap_size=8),
        hyper=HyperParams(lam=0.5, lr=5e-4, max_iter=9))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    cfg.save(first)
    loaded = ExperimentConfig.load(first)
    assert loaded == cfg
    loaded.save(second)
    assert second.read_bytes() == first.read_bytes()
    assert set(json.loads(first.read_text())) == {
        f.name for f in dataclasses.fields(ExperimentConfig)}


def test_corrupt_dataset_exits_4(tmp_path, capsys):
    cfgp = tiny_config(tmp_path)
    data = str(tmp_path / "data")
    assert main(["generate-data", "--config", cfgp, "--out", data]) == 0
    capsys.readouterr()
    blob = tmp_path / "data" / "source.gt_h.f32"
    raw = np.fromfile(blob, dtype="<f4")
    raw[:100] = 7.0
    raw.tofile(blob)
    rc = main(["train", "--config", cfgp, "--data", data,
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_BAD_DATA
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == EXIT_BAD_DATA


def evaluate_edited_data(tmp_path, capsys, edit):
    """``evaluate --data`` on a generated dataset directory after ``edit``
    changed it; returns the exit code and the JSON error."""
    cfgp = tiny_config(tmp_path)
    data = tmp_path / "data"
    assert main(["generate-data", "--config", cfgp, "--out", str(data)]) == 0
    prefix = str(tmp_path / "model")
    PoseNet(config=ExperimentConfig.load(cfgp).model).save(prefix)
    capsys.readouterr()
    edit(data)
    rc = main(["evaluate", "--config", cfgp, "--model", prefix, "--data", str(data),
               "--out", str(tmp_path / "ev")])
    return rc, json.loads(capsys.readouterr().err)


def test_truncated_dataset_field_exits_4(tmp_path, capsys):
    def truncate(data):
        blob = data / "source.gt_h.f32"
        blob.write_bytes(blob.read_bytes()[:-40])

    rc, err = evaluate_edited_data(tmp_path, capsys, truncate)
    assert rc == err["code"] == EXIT_BAD_DATA
    assert "dataset source" in err["error"] and "'gt_h'" in err["error"]
    assert "holds 69622 floats" in err["error"]


def test_missing_dataset_field_file_exits_3(tmp_path, capsys):
    rc, err = evaluate_edited_data(
        tmp_path, capsys, lambda data: os.remove(data / "target_eval.obs.f32"))
    assert rc == err["code"] == EXIT_MISSING_FILES
    assert "cannot read dataset file" in err["error"]
    assert "target_eval.obs.f32" in err["error"]


def test_unparseable_dataset_manifest_exits_4(tmp_path, capsys):
    rc, err = evaluate_edited_data(
        tmp_path, capsys, lambda data: (data / "source.json").write_text("{"))
    assert rc == err["code"] == EXIT_BAD_DATA
    assert "dataset source: bad manifest" in err["error"]


def test_dataset_manifest_with_an_extra_sample_exits_4(tmp_path, capsys):
    def add_sample(data):
        doc = json.loads((data / "target.json").read_text())
        doc["samples"].append(doc["samples"][0])
        (data / "target.json").write_text(json.dumps(doc))

    rc, err = evaluate_edited_data(tmp_path, capsys, add_sample)
    assert rc == err["code"] == EXIT_BAD_DATA
    assert "dataset target" in err["error"] and "'obs'" in err["error"]
    assert "the manifest lists 17 samples" in err["error"]


def test_nonfinite_loss_exits_5(tmp_path, capsys, monkeypatch):
    generate = cli.generate_splits

    def nan_source(cfg):
        splits = generate(cfg)
        splits["source"] = [dataclasses.replace(s, obs=np.full_like(s.obs, np.nan))
                            for s in splits["source"]]
        return splits

    monkeypatch.setattr(cli, "generate_splits", nan_source)
    out = tmp_path / "o"
    rc = main(["train", "--config", tiny_config(tmp_path), "--mode", "pose",
               "--out", str(out)])
    assert rc == EXIT_NON_FINITE == 5
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == EXIT_NON_FINITE
    assert "'sup'" in err["error"]
    assert not (out / "model.bin").exists()


def test_corrupt_checkpoint_exits_4(tmp_path, capsys):
    cfgp = tiny_config(tmp_path)
    prefix = str(tmp_path / "model")
    PoseNet(config=ExperimentConfig.load(cfgp).model).save(prefix)
    blob = tmp_path / "model.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    rc = main(["evaluate", "--config", cfgp, "--model", prefix,
               "--out", str(tmp_path / "ev")])
    assert rc == EXIT_BAD_DATA
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == EXIT_BAD_DATA
    assert "blob holds" in err["error"]


@pytest.mark.parametrize("shape", [[-1, -64], [64.0]])
def test_checkpoint_shape_that_is_not_a_count_exits_4(tmp_path, capsys, shape):
    cfgp = tiny_config(tmp_path)
    prefix = str(tmp_path / "model")
    PoseNet(config=ExperimentConfig.load(cfgp).model).save(prefix)
    with open(prefix + ".json") as f:
        doc = json.load(f)
    (entry,) = [e for e in doc["params"] if e["name"] == "enc0.b"]
    assert entry["shape"] == [64]  # same product as [-1, -64]
    entry["shape"] = shape
    with open(prefix + ".json", "w") as f:
        json.dump(doc, f)
    rc = main(["evaluate", "--config", cfgp, "--model", prefix,
               "--out", str(tmp_path / "ev")])
    err = json.loads(capsys.readouterr().err)
    assert rc == err["code"] == EXIT_BAD_DATA
    assert "'enc0.b' needs non-negative integers" in err["error"]


def test_fusion_checkpoint_without_blend_exits_4(tmp_path, capsys):
    # the fusion layout written before the x/y blend: no fuse_blend, and
    # an MLP head with three outputs per joint
    cfgp = tiny_config(tmp_path)
    config = ExperimentConfig.load(cfgp).model
    prefix = str(tmp_path / "model")
    net = PoseNet(config=config)
    net.save(prefix)
    j = net.tree.joint_count
    fusion = FusionNet(tree=net.tree, config=config)
    old = [Parameter(np.zeros((config.fusion_width, 3 * j)) if p.name == "fuse_out.w"
                     else np.zeros(3 * j) if p.name == "fuse_out.b" else p.data,
                     name=p.name) for p in fusion.parameters()]
    save_params(old, str(tmp_path / "fusion"))
    rc = main(["evaluate", "--config", cfgp, "--model", prefix,
               "--fusion", str(tmp_path / "fusion"), "--out", str(tmp_path / "ev")])
    err = json.loads(capsys.readouterr().err)
    assert rc == err["code"] == EXIT_BAD_DATA
    assert "fuse_blend" in err["error"]


def test_missing_model_exits_3(tmp_path, capsys):
    cfgp = tiny_config(tmp_path)
    rc = main(["evaluate", "--config", cfgp, "--model",
               str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
    assert rc == EXIT_MISSING_FILES
    capsys.readouterr()

    # a manifest without its blob is missing a file, not a traceback
    prefix = str(tmp_path / "model")
    PoseNet(config=ExperimentConfig.load(cfgp).model).save(prefix)
    os.remove(prefix + ".bin")
    rc = main(["evaluate", "--config", cfgp, "--model", prefix,
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_MISSING_FILES
    assert "model.bin" in json.loads(capsys.readouterr().err)["error"]


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] and doc["max_rel_err"] < 1e-4


def test_seed_override_and_config_echo(tmp_path, capsys):
    cfgp = tiny_config(tmp_path, seed=0)
    out = str(tmp_path / "o")
    assert main(["generate-data", "--config", cfgp, "--seed", "5",
                 "--out", out]) == 0
    capsys.readouterr()
    echoed = json.loads((tmp_path / "o" / "config.json").read_text())
    assert echoed["seed"] == 5


def test_generated_outputs_are_deterministic(tmp_path, capsys):
    cfgp = tiny_config(tmp_path)
    for sub in ("a", "b"):
        assert main(["generate-data", "--config", cfgp,
                     "--out", str(tmp_path / sub)]) == 0
        capsys.readouterr()
    for fname in ("source.obs.f32", "target.json", "config.json"):
        assert ((tmp_path / "a" / fname).read_bytes()
                == (tmp_path / "b" / fname).read_bytes()), fname



def run_edited(tmp_path, capsys, section, key, value, command="train"):
    """Run ``command`` on the tiny config with ``doc[section][key]`` set to
    ``value``; returns (exit code, parsed JSON error or None)."""
    with open(tiny_config(tmp_path)) as f:
        doc = json.load(f)
    doc[section][key] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    args = [command, "--config", str(path), "--out", str(tmp_path / "o")]
    rc = main(args + (["--mode", "baseline"] if command == "train" else []))
    err = capsys.readouterr().err
    return rc, json.loads(err) if err else None


@pytest.mark.parametrize("key, value", [
    ("noise_level", -0.1), ("bg_amplitude", -0.5), ("cone_angle", -0.2),
    ("blob_sigma_px", 0.0), ("blob_amp_range", [0.9, 0.3]), ("noise_level", "x"),
    ("euler_range", [[0, 1]] * 2), ("scale_range", 0.3), ("appearance_seed", 1.5)])
def test_bad_domain_spec_exits_2(tmp_path, capsys, key, value):
    rc, err = run_edited(tmp_path, capsys, "target", key, value, "generate-data")
    assert rc == err["code"] == EXIT_BAD_CONFIG
    assert f"DomainSpec.{key}" in err["error"]
    assert not (tmp_path / "o" / "target.json").exists()


# lr_overrides and entropy_head_only are no longer HyperParams keys: a config
# that still sets one is rejected as naming an unknown key, whatever the value
@pytest.mark.parametrize("key, value", [
    ("batch_size", 0), ("batch_size", 2.5), ("sigma", 0.0), ("sigma", -1.0),
    ("lr_overrides", [1]), ("lr_overrides", {"sup": "x"}),
    ("lr_overrides", {"sup": -1e-3}), ("lr_overrides", {"sup": float("inf")}),
    ("lam1", "x"), ("max_iter", 2.5), ("k_interval", "x"), ("entropy_head_only", 1),
    ("lr_overrides", {"sup": True})])
def test_bad_hyperparams_exit_2(tmp_path, capsys, key, value):
    rc, err = run_edited(tmp_path, capsys, "hyper", key, value)
    assert rc == err["code"] == EXIT_BAD_CONFIG
    assert f"HyperParams.{key}" in err["error"]


@pytest.mark.parametrize("key, value", [
    ("heatmap_size", 0), ("image_size", 0), ("trunk_width", 0),
    ("trunk_blocks", -1), ("fusion_width", 0), ("encoder_widths", [64, 0]),
    ("trunk_blocks", True), ("encoder_widths", [64, True])])
def test_bad_model_config_exits_2(tmp_path, capsys, key, value):
    rc, err = run_edited(tmp_path, capsys, "model", key, value)
    assert rc == err["code"] == EXIT_BAD_CONFIG
    assert f"ModelConfig.{key}" in err["error"]


def test_bad_model_config_in_checkpoint_exits_4(tmp_path, capsys):
    cfgp = tiny_config(tmp_path)
    prefix = str(tmp_path / "model")
    PoseNet(config=ExperimentConfig.load(cfgp).model).save(prefix)
    with open(prefix + ".config.json") as f:
        doc = json.load(f)
    doc["heatmap_size"] = 0
    with open(prefix + ".config.json", "w") as f:
        json.dump(doc, f)
    rc = main(["evaluate", "--config", cfgp, "--model", prefix,
               "--out", str(tmp_path / "ev")])
    err = json.loads(capsys.readouterr().err)
    assert rc == err["code"] == EXIT_BAD_DATA
    assert "ModelConfig.heatmap_size" in err["error"]


@pytest.mark.parametrize("command", [
    ["evaluate"], ["histogram"], ["train", "--mode", "fusion"]])
def test_out_of_range_swap_pair_in_checkpoint_exits_4(tmp_path, capsys, command):
    cfgp = tiny_config(tmp_path)
    prefix = str(tmp_path / "model")
    PoseNet(config=ExperimentConfig.load(cfgp).model).save(prefix)
    with open(prefix + ".skeleton.json") as f:
        doc = json.load(f)
    doc["lr_swap_pairs"].append([0, 99])
    with open(prefix + ".skeleton.json", "w") as f:
        json.dump(doc, f)
    rc = main(command + ["--config", cfgp, "--model", prefix,
                         "--out", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert rc == err["code"] == EXIT_BAD_DATA
    assert "lr_swap_pairs entry [0, 99]" in err["error"]


def test_config_directory_exits_3(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert rc == err["code"] == EXIT_MISSING_FILES
    assert "cannot read config" in err["error"]
