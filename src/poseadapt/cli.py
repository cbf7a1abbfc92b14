"""Command-line entry points: dataset generation, the three training
modes plus the ablation baselines, evaluation, uncertainty histograms and
a gradient self-check.

Errors are reported as one JSON object on stderr. Exit codes: 2 invalid
configuration or argument, 3 missing input files or an output directory
that cannot be written, 4 dataset or checkpoint invariant violation
(including a dataset whose geometry is not the model's), 5 a training
loss term became non-finite (no step was taken with it).
All outputs under --out are content-deterministic for a fixed config and
seed; wall-clock timestamps go only to the sidecar run.log.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys

import numpy as np

from . import autodiff as ad
from .config import ExperimentConfig, generate_splits
from .model import FusionNet, PoseNet
from .synthdata import DataInvariantError, load_dataset, save_dataset
from .trainer import (NonFiniteLossError, TrainState, histogram_groups,
                      metrics_row, train_fusion, train_joint_level,
                      train_pose_level, write_metrics_csv)
from .uncertainty import select_pose_pseudo_labels

EXIT_BAD_CONFIG = 2
EXIT_MISSING_FILES = 3
EXIT_BAD_DATA = 4
EXIT_NON_FINITE = 5

TRAIN_MODES = {
    # mode -> (loop, enabled loss terms)
    "baseline": ("pose", ("sup",)),
    "uncertainty": ("pose", ("sup", "bg", "tgt")),
    "pose": ("pose", ("sup", "bg", "tgt", "psup")),
    "joint": ("joint", None),
    "fusion": ("fusion", None),
}


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _fail(code, message):
    raise CliError(code, message)


def _load_config(path, seed=None):
    """The config at ``path`` (the defaults without one), with ``seed``
    replacing its seed; the result passes every constructor check."""
    if path is not None and not os.path.exists(path):
        _fail(EXIT_MISSING_FILES, f"config file not found: {path}")
    try:
        cfg = ExperimentConfig() if path is None else ExperimentConfig.load(path)
        return cfg if seed is None else dataclasses.replace(cfg, seed=seed)
    except (ValueError, TypeError) as e:  # JSON syntax errors are ValueErrors
        _fail(EXIT_BAD_CONFIG, f"invalid config: {e}")
    except OSError as e:  # a directory, or a file that cannot be read
        _fail(EXIT_MISSING_FILES, f"cannot read config file {path}: {e.strerror or e}")


def _prepare_out(out_dir, cfg):
    try:
        os.makedirs(out_dir, exist_ok=True)
        cfg.save(os.path.join(out_dir, "config.json"))
    except OSError as e:  # a file in the way, or no permission
        _fail(EXIT_MISSING_FILES, f"cannot write output directory {out_dir}: "
                                  f"{e.strerror or e}")
    return out_dir


def _log(out_dir, message):
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    with open(os.path.join(out_dir, "run.log"), "a") as f:
        f.write(f"{stamp} {message}\n")


TRAIN_SPLITS = ("source", "target", "background")


def _splits(cfg, data_dir, model, train=False):
    """Datasets from --data if given (all six must exist), else
    regenerated from the config; each must fit ``model`` (see
    ``_check_geometry``)."""
    splits = generate_splits(cfg) if data_dir is None else _load_splits(data_dir)
    _check_geometry(splits, model, train)
    return splits


def _load_splits(data_dir):
    splits = {}
    for name in TRAIN_SPLITS + ("source_eval", "target_eval", "background_eval"):
        manifest = os.path.join(data_dir, f"{name}.json")
        if not os.path.exists(manifest):
            _fail(EXIT_MISSING_FILES, f"dataset file not found: {manifest}")
        try:
            splits[name] = load_dataset(data_dir, name)
        except OSError as e:  # a field file the manifest names
            _fail(EXIT_MISSING_FILES, f"cannot read dataset file {e.filename}: "
                                      f"{e.strerror or e}")
        except DataInvariantError as e:
            _fail(EXIT_BAD_DATA, f"invalid dataset {name}: {e}")
    return splits


def _check_geometry(splits, model, train):
    """Exit 4 unless every split's image size and joint count, and with
    ``train`` every training split's heatmap grid, are ``model``'s."""
    c = model.config
    for name, samples in splits.items():
        if not samples:
            continue
        s = samples[0]  # the samples of a split share their shapes
        checks = [("image size", s.obs.shape[-1], c.image_size),
                  ("joint count", len(s.gt_p), model.tree.joint_count)]
        if train and name in TRAIN_SPLITS:
            checks.append(("heatmap grid", s.gt_h.shape[1:], (c.heatmap_size,) * 2))
        for what, got, want in checks:
            if got != want:
                _fail(EXIT_BAD_DATA, f"dataset {name}: {what} {got}, the model's is {want}")


def cmd_generate_data(args):
    cfg = _load_config(args.config, args.seed)
    # a dataset file holds at least one sample; training accepts empty splits
    for name in TRAIN_SPLITS:
        if getattr(cfg, f"n_{name}") == 0:
            _fail(EXIT_BAD_CONFIG, f"cannot write the empty {name} split: "
                                   f"n_{name} is 0, generate-data needs at least 1")
    out = _prepare_out(args.out, cfg)
    splits = generate_splits(cfg)
    for name, samples in splits.items():
        save_dataset(samples, out, name)
    _log(out, f"generated {sum(len(s) for s in splits.values())} samples")
    print(json.dumps({"out": out, "sizes": {k: len(v) for k, v in splits.items()}}))
    return 0


def _require_checkpoint(path_prefix, suffixes=(".json", ".bin")):
    for suffix in suffixes:
        if not os.path.exists(path_prefix + suffix):
            _fail(EXIT_MISSING_FILES, f"checkpoint file not found: {path_prefix + suffix}")


def _load_model(path_prefix):
    _require_checkpoint(path_prefix, (".json", ".bin", ".config.json", ".skeleton.json"))
    return PoseNet.load(path_prefix)


def cmd_train(args):
    cfg = _load_config(args.config, args.seed)
    out = _prepare_out(args.out, cfg)
    loop, terms = TRAIN_MODES[args.mode]
    rng = np.random.default_rng(cfg.seed)
    if loop != "fusion":
        model = PoseNet(cfg.model, rng=rng)
    elif args.model:
        model = _load_model(args.model)
    else:
        _fail(EXIT_MISSING_FILES, "fusion training needs --model")
    splits = _splits(cfg, args.data, model, train=True)
    rows = []
    _log(out, f"train mode={args.mode} seed={cfg.seed} started")

    if loop == "fusion":
        # an empty target split leaves fusion to its source term
        pseudo = (select_pose_pseudo_labels(model, splits["target"], cfg.hyper.alpha_p,
                                            sigma=cfg.hyper.sigma)
                  if splits["target"] else None)
        fusion = train_fusion(model, splits["source"], splits["target"],
                              pseudo, cfg.hyper, rng)
        fusion.save(os.path.join(out, "fusion"))
        final = metrics_row(TrainState(model, pseudo), splits["source_eval"],
                            splits["target_eval"], splits["background_eval"],
                            fusion=fusion)
        rows.append(final)
    else:
        def eval_hook(state):
            rows.append(metrics_row(state, splits["source_eval"],
                                    splits["target_eval"],
                                    splits["background_eval"]))

        if loop == "pose":
            state = train_pose_level(splits["source"], splits["target"],
                                     splits["background"], cfg.hyper, rng,
                                     model=model, enable=terms, eval_hook=eval_hook)
        else:
            state = train_joint_level(splits["source"], splits["target"],
                                      splits["background"], cfg.hyper, rng,
                                      model=model, eval_hook=eval_hook)
        state.model.save(os.path.join(out, "model"))
        if state.pseudo is not None:
            with open(os.path.join(out, "pseudo_labels.json"), "w") as f:
                f.write(state.pseudo.to_json())
        final = rows[-1]
    write_metrics_csv(rows, os.path.join(out, "metrics.csv"))
    _log(out, "train finished")
    print(json.dumps({"out": out, "mode": args.mode,
                      "final": {k: final[k] for k in
                                ("mpjpe_target", "pa_mpjpe_target",
                                 "auroc_u_bg_vs_source")}}))
    return 0


def cmd_evaluate(args):
    cfg = _load_config(args.config, args.seed)
    out = _prepare_out(args.out, cfg)
    model = _load_model(args.model)
    splits = _splits(cfg, args.data, model)
    fusion = None
    if args.fusion:
        _require_checkpoint(args.fusion)
        fusion = FusionNet(tree=model.tree, config=model.config,
                           rng=np.random.default_rng(0))
        fusion.load_weights(args.fusion)
    row = metrics_row(TrainState(model), splits["source_eval"],
                      splits["target_eval"], splits["background_eval"],
                      fusion=fusion)
    write_metrics_csv([row], os.path.join(out, "metrics.csv"))
    _log(out, "evaluate finished")
    print(json.dumps(row, default=float))
    return 0


def cmd_histogram(args):
    if args.bins < 1:
        _fail(EXIT_BAD_CONFIG, f"--bins must be at least 1, not {args.bins}")
    cfg = _load_config(args.config, args.seed)
    out = _prepare_out(args.out, cfg)
    model = _load_model(args.model)
    splits = _splits(cfg, args.data, model)
    doc = histogram_groups(model, splits["source_eval"], splits["target_eval"],
                           splits["background_eval"], bins=args.bins)
    path = os.path.join(out, "histogram.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    _log(out, "histogram finished")
    print(json.dumps({"out": path}))
    return 0


def cmd_gradcheck(args):
    if args.seed < 0:
        _fail(EXIT_BAD_CONFIG, f"--seed must be nonnegative, not {args.seed}")
    rng = np.random.default_rng(args.seed)
    model = PoseNet(rng=rng)
    obs = rng.uniform(size=(2, model.config.image_size, model.config.image_size))
    names = sorted(model.params)
    picked = [model.params[names[int(i)]]
              for i in rng.choice(len(names), size=min(4, len(names)), replace=False)]

    def loss_fn():
        out = model.forward(obs)
        return ad.add(ad.mse(out.heatmap, 0.0), ad.tmean(out.pose_cam))

    worst = ad.gradient_check(loss_fn, picked, rng)
    ok = worst < 1e-4
    print(json.dumps({"max_rel_err": worst, "ok": bool(ok)}))
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="poseadapt",
        description="Toy-domain engine for uncertainty-driven pose adaptation.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out=True):
        sp.add_argument("--config", help="experiment config JSON")
        sp.add_argument("--seed", type=int, help="override the config seed")
        if out:
            sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("generate-data", help="write the dataset splits")
    common(sp)
    sp.set_defaults(func=cmd_generate_data)

    sp = sub.add_parser("train", help="run one training mode")
    common(sp)
    sp.add_argument("--mode", choices=sorted(TRAIN_MODES), default="pose")
    sp.add_argument("--data", help="directory from generate-data (else regenerate)")
    sp.add_argument("--model", help="frozen checkpoint prefix (fusion mode)")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("evaluate", help="metrics for a checkpoint")
    common(sp)
    sp.add_argument("--model", required=True, help="checkpoint prefix")
    sp.add_argument("--fusion", help="fusion checkpoint prefix")
    sp.add_argument("--data", help="directory from generate-data")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("histogram", help="uncertainty histograms as JSON")
    common(sp)
    sp.add_argument("--model", required=True, help="checkpoint prefix")
    sp.add_argument("--data", help="directory from generate-data")
    sp.add_argument("--bins", type=int, default=24)
    sp.set_defaults(func=cmd_histogram)

    sp = sub.add_parser("gradcheck", help="finite-difference gradient check")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_gradcheck)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, DataInvariantError, NonFiniteLossError) as e:
        code = e.code if isinstance(e, CliError) else (
            EXIT_BAD_DATA if isinstance(e, DataInvariantError) else EXIT_NON_FINITE)
        print(json.dumps({"error": str(e), "code": code}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
