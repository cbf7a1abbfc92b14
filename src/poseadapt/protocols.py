"""The two adaptation protocols behind the paper's claims (acceptance
tests A3-A6, ``demos/demo_adaptation.py``). Each is a deterministic
function of ``seed``: source pretraining draws from ``default_rng(seed)``,
adaptation from ``default_rng(seed + 1000)``. The sizes, budgets and
thresholds below are the protocol, not options."""

from __future__ import annotations

import copy

import numpy as np

from . import trainer
from .config import ExperimentConfig, generate_splits
from .model import PoseNet
from .trainer import HyperParams

PRETRAIN_ITERS = 1600
ADAPT_ITERS = 600
SIZES = dict(n_source=256, n_target=256, n_background=128, n_eval=128)
# pose-level variant -> enabled loss terms
VARIANTS = {"baseline": ("sup",), "uncert": ("sup", "bg", "tgt"),
            "full": ("sup", "bg", "tgt", "psup")}


def pose_protocol(seed):
    """Pose-level adaptation (A3-A5): supervised source pretraining, then
    each of ``VARIANTS`` restarted from a copy of that model, and fusion
    trained on ``full``. Returns the target-eval ``evaluate`` rows of
    ``pretrained`` and of each variant (``full``'s with its fusion net),
    ``uncert``'s ``U`` on source-eval and background-eval (``u_src``,
    ``u_bg``) and the size of ``full``'s last selection (``selected``)."""
    sp = generate_splits(ExperimentConfig(seed=seed, **SIZES))
    pretrained = PoseNet(rng=np.random.default_rng(seed))
    trainer.train_pose_level(sp["source"], sp["target"], sp["background"],
                             HyperParams(max_iter=PRETRAIN_ITERS, k_interval=10 ** 9),
                             np.random.default_rng(seed), model=pretrained, enable=("sup",))
    # lam=0 keeps the pseudo-label loss on the heatmaps only; the averaged
    # 3D pseudo-poses are less accurate than the model's own predictions
    hp = HyperParams(max_iter=ADAPT_ITERS, k_interval=200, alpha_p=0.25, lam=0.0)
    runs = {name: trainer.train_pose_level(sp["source"], sp["target"], sp["background"], hp,
                                           np.random.default_rng(seed + 1000),
                                           model=copy.deepcopy(pretrained), enable=terms)
            for name, terms in VARIANTS.items()}
    full, uncert = runs["full"], runs["uncert"].model
    fusion = trainer.train_fusion(full.model, sp["source"], sp["target"], full.pseudo, hp,
                                  np.random.default_rng(seed), max_iter=ADAPT_ITERS)
    res = {name: trainer.evaluate(st.model, sp["target_eval"],
                                  fusion=fusion if st is full else None)
           for name, st in runs.items()}
    return dict(res, pretrained=trainer.evaluate(pretrained, sp["target_eval"]),
                u_src=trainer.evaluate(uncert, sp["source_eval"])["u_scores"],
                u_bg=trainer.evaluate(uncert, sp["background_eval"])["u_scores"],
                selected=len(full.pseudo))


def joint_protocol(seed):
    """Joint-level adaptation on half occluded or truncated data (A6).
    Returns the target-eval visibility ``vis`` and ``evaluate`` rows before
    (``pre``) and after (``post``) adaptation."""
    sp = generate_splits(ExperimentConfig(seed=seed, occlusion_mix=0.5, **SIZES))
    hp = HyperParams(max_iter=PRETRAIN_ITERS, k_interval=10 ** 9, m_l=4.5)
    st = trainer.train_joint_level(sp["source"], [], sp["background"], hp,
                                   np.random.default_rng(seed),
                                   enable=("sup_inv", "ent_outv_s", "ent_bg"))
    pre = trainer.evaluate(st.model, sp["target_eval"])
    # One selection pass with the pretrained model: re-selecting with the
    # partially adapted model at fixed absolute thresholds floods the
    # in-view set with occluded joints as the heatmaps sharpen.
    hp = HyperParams(max_iter=ADAPT_ITERS, k_interval=ADAPT_ITERS, lam=0.0,
                     m_l=4.5, alpha_q=1.6, alpha_h=3.4)
    st = trainer.train_joint_level(sp["source"], sp["target"], sp["background"], hp,
                                   np.random.default_rng(seed + 1000), model=st.model)
    return {"vis": np.stack([s.visibility for s in sp["target_eval"]]), "pre": pre,
            "post": trainer.evaluate(st.model, sp["target_eval"])}
