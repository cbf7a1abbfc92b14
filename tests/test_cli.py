"""End-to-end command-line checks: happy paths, exit codes, and output
determinism."""

import dataclasses
import json
import os

import numpy as np
import pytest

from poseadapt import cli
from poseadapt.cli import (EXIT_BAD_CONFIG, EXIT_BAD_DATA, EXIT_MISSING_FILES,
                           EXIT_NON_FINITE, main)
from poseadapt.config import ExperimentConfig
from poseadapt.model import ModelConfig, PoseNet


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
    PoseNet(config=ModelConfig.from_dict(doc["model"]),
            rng=np.random.default_rng(0)).save(model)
    out = str(tmp_path / "fus")
    assert main(["train", "--config", cfgp, "--mode", "fusion",
                 "--model", model, "--out", out]) == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(out, "fusion.bin"))


def test_missing_config_exits_3(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_MISSING_FILES
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == EXIT_MISSING_FILES
    assert "not found" in err["error"]


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 0, "bogus_key": 1}))
    rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == EXIT_BAD_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == EXIT_BAD_CONFIG

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{]")
    assert main(["train", "--config", str(notjson),
                 "--out", str(tmp_path / "o2")]) == EXIT_BAD_CONFIG
    capsys.readouterr()


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
