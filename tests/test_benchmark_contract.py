"""The names the traced benchmark (``perfbench``) reaches into.

``perfbench/workloads.register_layers`` wraps package functions at the
attributes where their callers look them up, and the serve workload calls
``pose_uncertainty_np`` and tests for ``PseudoLabelSet``. Removing or
renaming one of them breaks the benchmark; this fails in seconds instead,
as does a dtype or shape slip in the path the serve workload runs.
"""

import importlib.util
import os
import sys

import numpy as np

from poseadapt import trainer, uncertainty
from poseadapt.config import ExperimentConfig, generate_splits
from poseadapt.model import FusionNet, ModelConfig, PoseNet
from poseadapt.synthdata import save_dataset

TINY_MODEL = ModelConfig(encoder_widths=(64, 32), trunk_width=32, trunk_blocks=1,
                         fusion_width=16, fusion_blocks=1)

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_hook_installs_and_uninstalls():
    spans, workloads = _load("spans"), _load("workloads")
    tracer = spans.Tracer()
    workloads.register_layers(tracer)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracer._hooks]
    assert len(originals) == 25
    tracer.install()
    try:
        for owner, attr, wrapper in tracer._hooks:
            assert owner.__dict__[attr] is wrapper, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr


def test_traced_entropy_span_sees_serving_and_joint_level_training():
    # every traced workload must record heatmap.entropy calls: the frozen H
    # of predict and the H the joint-level losses differentiate both look
    # it up on the heatmap module
    spans, workloads = _load("spans"), _load("workloads")
    tracer = spans.Tracer()
    workloads.register_layers(tracer)
    cfg = ExperimentConfig(seed=3, n_source=4, n_target=2, n_background=2, n_eval=1,
                           occlusion_mix=0.5, model=TINY_MODEL)
    splits = generate_splits(cfg)
    net = PoseNet(config=cfg.model, rng=np.random.default_rng(3))
    tracer.install()
    try:
        uncertainty.predict(net, splits["source"], batch_size=2)
        served = tracer.summary()["heatmap.entropy"]["calls"]
        trainer.train_joint_level(splits["source"], splits["target"], splits["background"],
                                  trainer.HyperParams(max_iter=1, batch_size=2),
                                  np.random.default_rng(3), model=net,
                                  enable=("sup_inv", "ent_bg"))
        trained = tracer.summary()["heatmap.entropy"]["calls"] - served
    finally:
        tracer.uninstall()
    assert served == 2  # one per predict batch
    assert trained == 2  # one per term: sup_inv's entropy hinges and ent_bg


def test_traced_training_counts_one_backward_and_one_adam_step_per_term():
    # the traced run's zero-call guard and per-layer counters read these
    # spans; the gradients backward returns go straight into Adam.step
    spans, workloads = _load("spans"), _load("workloads")
    tracer = spans.Tracer()
    workloads.register_layers(tracer)
    cfg = ExperimentConfig(seed=3, n_source=4, n_target=4, n_background=2, n_eval=1,
                           model=TINY_MODEL)
    splits = generate_splits(cfg)
    tracer.install()
    try:
        state = trainer.train_pose_level(
            splits["source"], splits["target"], splits["background"],
            trainer.HyperParams(max_iter=1, batch_size=2), np.random.default_rng(3),
            model=PoseNet(config=cfg.model, rng=np.random.default_rng(3)))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    (stepped,) = state.loss_log
    assert len(stepped) >= 2
    assert summary["autodiff.backward"]["calls"] == len(stepped)
    assert summary["optim.adam_step"]["calls"] == len(stepped)
    assert tracer.work["autodiff.nodes"] > 0 and tracer.work["optim.floats"] > 0


def test_serving_names_exist():
    assert callable(uncertainty.pose_uncertainty_np)
    assert isinstance(uncertainty.PseudoLabelSet, type)


def test_serve_workload_answers_batch_1_like_batch_n(tmp_path):
    workloads = _load("workloads")
    cfg = ExperimentConfig(seed=3, n_source=0, n_target=0, n_background=0, n_eval=8,
                           model=TINY_MODEL)
    splits = generate_splits(cfg)
    net = PoseNet(config=cfg.model, rng=np.random.default_rng(3))
    fusion = FusionNet(tree=net.tree, config=net.config, rng=np.random.default_rng(4))
    # a live residual pull and depth correction instead of the identity at init
    fusion.params["fuse_blend"].data[...] = 0.5
    fusion.params["fuse_out.w"].data[...] = np.random.default_rng(5).normal(
        0.0, 0.1, fusion.params["fuse_out.w"].data.shape)
    net.save(str(tmp_path / "model"))
    fusion.save(str(tmp_path / "fusion"))
    for name in workloads.EVAL_SPLITS:
        save_dataset(splits[name], str(tmp_path), name)

    tally = workloads.Tally()
    serve = workloads.ServeWorkload("serve", 3, str(tmp_path), tally, None)
    net, fusion, loaded = serve.setup()
    pool = [s for name in workloads.EVAL_SPLITS for s in loaded[name]]
    answers = {i: serve.respond(net, fusion, [pool[i]]) for i in range(len(pool))}
    for lo in range(0, len(pool), 4):
        out = serve.respond(net, fusion, pool[lo:lo + 4])
        assert [len(x) for x in out] == [len(pool[lo:lo + 4])] * 4
        tally.check(workloads._finite(*out), "non-finite batch-4 output")
        serve.compare(answers, lo, out)
    assert all(workloads._finite(*out) for out in answers.values())
    assert tally.attempted > len(pool) and tally.failed == 0, tally.errors
