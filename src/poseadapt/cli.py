"""Command-line entry points: dataset generation, the three training
modes plus the ablation baselines, evaluation, uncertainty histograms and
a gradient self-check.

Errors are reported as one JSON object on stderr. Exit codes: 2 invalid
configuration, 3 missing input files, 4 dataset or checkpoint invariant
violation, 5 a training loss term became non-finite (no step was taken
with it).
All outputs under --out are content-deterministic for a fixed config and
seed; wall-clock timestamps go only to the sidecar run.log.
"""

from __future__ import annotations

import argparse
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
from .uncertainty import select_joint_pseudo_labels, select_pose_pseudo_labels

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
    if path is None:
        cfg = ExperimentConfig()
    else:
        if not os.path.exists(path):
            _fail(EXIT_MISSING_FILES, f"config file not found: {path}")
        try:
            cfg = ExperimentConfig.load(path)
        except (ValueError, TypeError, KeyError, json.JSONDecodeError) as e:
            _fail(EXIT_BAD_CONFIG, f"invalid config: {e}")
    if seed is not None:
        cfg.seed = seed
    return cfg


def _prepare_out(out_dir, cfg):
    os.makedirs(out_dir, exist_ok=True)
    cfg.save(os.path.join(out_dir, "config.json"))
    return out_dir


def _log(out_dir, message):
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    with open(os.path.join(out_dir, "run.log"), "a") as f:
        f.write(f"{stamp} {message}\n")


def _splits(cfg, data_dir):
    """Datasets from --data if given (all six must exist), else
    regenerated from the config."""
    if data_dir is None:
        return generate_splits(cfg)
    names = ("source", "target", "background",
             "source_eval", "target_eval", "background_eval")
    splits = {}
    for name in names:
        manifest = os.path.join(data_dir, f"{name}.json")
        if not os.path.exists(manifest):
            _fail(EXIT_MISSING_FILES, f"dataset file not found: {manifest}")
        try:
            splits[name] = load_dataset(data_dir, name)
        except DataInvariantError as e:
            _fail(EXIT_BAD_DATA, f"invalid dataset {name}: {e}")
    return splits


def cmd_generate_data(args):
    cfg = _load_config(args.config, args.seed)
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
    splits = _splits(cfg, args.data)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    _log(out, f"train mode={args.mode} seed={cfg.seed} started")

    if loop == "fusion":
        model = _load_model(args.model) if args.model else None
        if model is None:
            _fail(EXIT_MISSING_FILES, "fusion training needs --model")
        pseudo = select_pose_pseudo_labels(model, splits["target"],
                                           cfg.hyper.alpha_p, sigma=cfg.hyper.sigma)
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
                                     enable=terms, eval_hook=eval_hook)
        else:
            state = train_joint_level(splits["source"], splits["target"],
                                      splits["background"], cfg.hyper, rng,
                                      eval_hook=eval_hook)
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
    splits = _splits(cfg, args.data)
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
    cfg = _load_config(args.config, args.seed)
    out = _prepare_out(args.out, cfg)
    model = _load_model(args.model)
    splits = _splits(cfg, args.data)
    doc = histogram_groups(model, splits["source_eval"], splits["target_eval"],
                           splits["background_eval"], bins=args.bins)
    path = os.path.join(out, "histogram.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    _log(out, "histogram finished")
    print(json.dumps({"out": path}))
    return 0


def cmd_gradcheck(args):
    rng = np.random.default_rng(args.seed or 0)
    model = PoseNet(rng=rng)
    obs = rng.uniform(size=(2, model.config.image_size, model.config.image_size))
    names = sorted(model.params)
    picked = [model.params[names[int(i)]]
              for i in rng.choice(len(names), size=min(4, len(names)), replace=False)]

    def loss_fn():
        out = model.forward(obs)
        return ad.add(ad.mse(out.heatmap, ad.Tensor(np.zeros(out.heatmap.shape))),
                      ad.tmean(out.pose_cam))

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
    except CliError as e:
        print(json.dumps({"error": str(e), "code": e.code}), file=sys.stderr)
        return e.code
    except DataInvariantError as e:
        print(json.dumps({"error": str(e), "code": EXIT_BAD_DATA}), file=sys.stderr)
        return EXIT_BAD_DATA
    except NonFiniteLossError as e:
        print(json.dumps({"error": str(e), "code": EXIT_NON_FINITE}), file=sys.stderr)
        return EXIT_NON_FINITE


if __name__ == "__main__":
    sys.exit(main())
