"""Loss terms, the one training engine behind the pose-level, joint-level
and fusion algorithms, and evaluation analytics (MPJPE, PA-MPJPE,
uncertainty statistics, AUROC).

Each algorithm is a table of loss terms run by ``_run``. Every term owns
its own Adam optimizer; within an iteration the terms step sequentially in
the table's order.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .model import FusionNet, PoseNet, heatmap_residual
from .optim import Adam
from .skeleton import mpjpe, pa_mpjpe
from .synthdata import check_field_types
from .uncertainty import (joint_uncertainty, pose_uncertainty,
                          pose_uncertainty_np, predict,
                          select_joint_pseudo_labels, select_pose_pseudo_labels)


@dataclass
class HyperParams:
    """Every scalar knob of the training algorithms. The selection
    thresholds default to fractions of the entropy ceiling ln(H'W') so they
    stay meaningful across grid sizes."""

    lam1: float = 1.0            # 3D-pose weight in the supervised losses
    lam2: float = 0.1            # uncertainty weight in the supervised losses
    lam: float = 1.0             # 3D-pose weight in the pseudo-label loss
    alpha_p: float = 0.05        # pose-level pseudo-label threshold
    alpha_q: float = 0.02 * math.log(256.0)
    alpha_h: float = 0.5 * math.log(256.0)
    k_interval: int = 200        # pseudo-label refresh / eval period
    max_iter: int = 3000
    m_u: float = 0.5             # background hinge margin (half frame)
    m_h: float = 0.9 * math.log(256.0)   # entropy-maximization hinge margin
    # In-view sharpness hinge margin (~0.81 of the 16x16 entropy ceiling).
    # Low enough that visible joints separate cleanly from occluded ones,
    # high enough that the sharpening pressure releases before it starts
    # fighting the localization loss over peak placement.
    m_l: float = 4.5
    lr: float = 1e-3             # every loss term's Adam learning rate
    batch_size: int = 8
    sigma: float = 1.0           # GT heatmap sigma, grid cells

    def __post_init__(self):
        check_field_types(self)
        for name in ("lam1", "lam2", "lam", "alpha_p", "alpha_q", "alpha_h",
                     "m_u", "m_h", "m_l", "lr"):
            if getattr(self, name) < 0:
                raise ValueError(f"HyperParams.{name} must be nonnegative")
        if self.k_interval < 1 or self.max_iter < 0:
            raise ValueError("HyperParams: k_interval >= 1 and max_iter >= 0 required")
        if self.batch_size < 1:
            raise ValueError("HyperParams.batch_size must be an integer >= 1")
        if not 0 < self.sigma < math.inf:  # the width of every ground-truth heatmap
            raise ValueError("HyperParams.sigma must be positive and finite")


@dataclass
class TrainState:
    model: PoseNet
    pseudo: object = None       # the current pseudo-label selection
    iteration: int = 0
    loss_log: list = field(default_factory=list)  # one {term: loss} per iteration


# ---------------------------------------------------------------------------
# loss terms


def _per_joint_heat_mse(out, h_gt):
    b, j = out.heatmap.shape[:2]
    d = ad.sub(ad.reshape(out.heatmap, (b, j, -1)), np.reshape(h_gt, (b, j, -1)))
    return ad.tmean(ad.mul(d, d), axis=-1)  # (B, J)


def _per_joint_pose_mse(pose, p_gt):
    d = ad.sub(pose, p_gt)
    return ad.tmean(ad.mul(d, d), axis=-1)  # (B, J)


def _weighted_joints(per_joint, w):
    """Batch mean of the per-sample sums of ``w``-weighted (B, J) values;
    ``w`` is a constant."""
    return ad.tmean(ad.tsum(ad.mul(per_joint, w), axis=-1))


def loss_sup_source(out, h_gt, p_gt, hp):
    """Heatmap MSE + lam1 * 3D-pose MSE + lam2 * pose-uncertainty,
    averaged over the batch."""
    loss = ad.mse(out.heatmap, h_gt)
    loss = ad.add(loss, ad.scale(ad.mse(out.pose_cam, p_gt), hp.lam1))
    return ad.add(loss, ad.scale(ad.tmean(pose_uncertainty(out)), hp.lam2))


def loss_bg_uncertainty(out, hp):
    """Hinge surrogate for unbounded background-uncertainty maximization:
    minimize max(0, m_u - U)."""
    u = pose_uncertainty(out)
    return ad.tmean(ad.relu(ad.sub(hp.m_u, u)))


def loss_tgt_uncertainty(out):
    return ad.tmean(pose_uncertainty(out))


def normalized_confidences(conf):
    """Per-sample confidence weights summing to one; treated as constants
    (no gradient through the weights). A sample whose confidences are all
    masked to zero gets zero weights."""
    conf = np.asarray(conf, dtype=np.float64)
    return conf / np.maximum(conf.sum(axis=-1, keepdims=True), 1e-12)


def loss_psup_target(out, h_pl, p_pl, hp, weights=None):
    """Confidence-weighted per-joint pseudo-supervision (heatmap + lam *
    3D pose), averaged over the batch."""
    if weights is None:
        weights = normalized_confidences(out.conf)
    per_joint = ad.add(_per_joint_heat_mse(out, h_pl),
                       ad.scale(_per_joint_pose_mse(out.pose_cam, p_pl), hp.lam))
    return _weighted_joints(per_joint, weights)


def loss_sup_occlusion_aware(out, h_gt, p_gt, in_mask, out_mask, hp):
    """In-view supervision plus lam2 times a two-sided entropy-shaping
    penalty: hinge relu(hp.m_h - entropy) per out-view joint (flatten what
    cannot be seen) plus hinge relu(entropy - hp.m_l) per in-view joint
    (sharpen what can).  The MSE heatmap loss alone barely moves the
    entropy of a softmax heatmap, so without the in-view hinge every
    heatmap idles near the uniform ceiling and entropy carries almost no
    visibility signal.

    Combining supervision and entropy shaping in one term matters under
    per-loss Adam: as separate losses the entropy gradient is a small but
    perfectly persistent direction that Adam normalizes to full-size steps
    and that wins against supervision; in a single term the directions
    cancel before normalization, and the hinges gate the pressure off once
    a joint is flat (or sharp) enough."""
    per_joint = ad.add(_per_joint_heat_mse(out, h_gt),
                       ad.scale(_per_joint_pose_mse(out.pose_cam, p_gt), hp.lam1))
    sup = ad.tsum(ad.mul(per_joint, in_mask), axis=-1)
    ent = joint_uncertainty(out)
    flat = ad.mul(ad.relu(ad.sub(hp.m_h, ent)), out_mask)
    sharp = ad.mul(ad.relu(ad.sub(ent, hp.m_l)), in_mask)
    pen = ad.tsum(ad.add(flat, sharp), axis=-1)
    return ad.tmean(ad.add(sup, ad.scale(pen, hp.lam2)))


def loss_entropy_max(out, mask=None, *, margin):
    """Minimized surrogate for entropy maximization: sum of
    hinge(margin - entropy) over the masked joints (all joints without
    ``mask``).

    The hinge releases joints once they are flat enough. Without it the
    term supplies a small but perfectly persistent flattening gradient
    that per-loss Adam normalizes up to a full-size step, and every
    heatmap collapses to uniform no matter how small the term's weight."""
    gap = ad.relu(ad.sub(margin, joint_uncertainty(out)))
    return ad.tmean(ad.tsum(gap, axis=-1)) if mask is None else _weighted_joints(gap, mask)


def loss_entropy_min(out, mask):
    """Mean over the batch of the summed masked joint entropies."""
    return _weighted_joints(joint_uncertainty(out), mask)


# ---------------------------------------------------------------------------
# helpers


def _batch_indices(rng, n, batch_size):
    return rng.integers(0, n, size=min(batch_size, n))


def _stack(batch, name):
    return np.stack([getattr(s, name) for s in batch])


class NonFiniteLossError(FloatingPointError):
    """A loss term evaluated to NaN or infinity; raised before that term's
    optimizer step, so the weights keep their last finite values."""

    def __init__(self, term, value):
        super().__init__(f"loss term {term!r} is not finite ({value})")
        self.term = term


def _update(opts, term, loss):
    """One step of loss term ``term`` with its optimizer ``opts[term]``.
    Only that optimizer's parameters are differentiated."""
    value = float(loss.data)
    if not math.isfinite(value):
        raise NonFiniteLossError(term, value)
    opt = opts[term]
    opt.step(ad.backward(loss, wrt=opt.params))
    return value


# Entropy-MAXIMIZATION terms step only the localization head: on the shared
# encoder, per-loss Adam gives the flattening direction a full-size step no
# matter how weak its gradient, every heatmap flattens and supervision loses.
# Entropy minimization (ent_inv_t) deliberately updates the whole model: its
# gradient agrees with supervision, and only the encoder can learn to be
# sharp on visible joints while staying flat on occluded ones — the
# localization head is shared across joints and can only change global sharpness.
ENTROPY_TERMS = ("ent_outv_s", "ent_bg", "ent_outv_t")


def _make_optimizers(model, hp, names):
    head = [p for key, p in sorted(model.params.items()) if key.startswith("loc_head")]
    return {name: Adam(head if name in ENTROPY_TERMS else model.parameters(), lr=hp.lr)
            for name in names}


# ---------------------------------------------------------------------------
# the training engine


def _run(state, hp, rng, opts, terms, iterations, refresh=None, eval_hook=None):
    """The training loop of every algorithm.

    Every ``hp.k_interval`` iterations, starting at 0, ``refresh(model,
    iteration)`` (if given) replaces ``state.pseudo``, and then
    ``eval_hook(state)`` runs; the hook runs once more after the last
    iteration. Each iteration steps the terms ``terms(state)`` yields, in
    order. A term ``(name, samples, ids, loss)`` draws one batch from
    ``ids`` (indices into ``samples``), forwards it through ``state.model``
    and takes the step of ``opts[name]`` on ``loss(out, batch, pick)``,
    where ``pick`` holds the drawn ids; a term with no ids is skipped
    before it draws. When ``opts[name]`` steps none of the model's
    parameters (fusion over a frozen model), nothing differentiates that
    forward, so it runs under ``autodiff.no_grad``. The ``{name: loss}``
    dict of the iteration goes to ``state.loss_log.append``, looked up
    every iteration, so an eval hook may replace the log.
    """
    own = {id(p) for p in state.model.parameters()}
    frozen = {name for name, opt in opts.items()
              if own.isdisjoint(id(p) for p in opt.params)}
    for it in range(iterations):
        state.iteration = it
        if it % hp.k_interval == 0:
            if refresh is not None:
                state.pseudo = refresh(state.model, it)
            if eval_hook is not None:
                eval_hook(state)
        losses = {}
        for name, samples, ids, loss in terms(state):
            if len(ids) == 0:
                continue
            pick = [ids[int(i)] for i in _batch_indices(rng, len(ids), hp.batch_size)]
            batch = [samples[i] for i in pick]
            with ad.no_grad() if name in frozen else contextlib.nullcontext():
                out = state.model.forward(_stack(batch, "obs"))
            losses[name] = _update(opts, name, loss(out, batch, pick))
        state.loss_log.append(losses)
    state.iteration = iterations
    if eval_hook is not None:
        eval_hook(state)
    return state


def _psup_loss(out, sel, pick, hp, weights=None):
    return loss_psup_target(out, np.stack([sel.h[i] for i in pick]),
                            np.stack([sel.p[i] for i in pick]), hp, weights)


# ---------------------------------------------------------------------------
# training algorithms


POSE_LEVEL_TERMS = ("sup", "bg", "tgt", "psup")


def train_pose_level(ds, dt, db, hp, rng, model=None, enable=POSE_LEVEL_TERMS,
                     eval_hook=None):
    """Pose-level adaptation: supervised source training, background
    uncertainty maximization, target uncertainty minimization, and
    pseudo-label self-training, refreshed every ``k_interval``.

    ``enable`` restricts the active loss terms (ablation runs). An empty
    dataset or selection skips its terms (see ``_run``).
    ``eval_hook(state)`` runs at every refresh point and after the last
    iteration.
    """
    if model is None:
        model = PoseNet(rng=rng)
    enable = tuple(enable)

    def refresh(model, it):
        return select_pose_pseudo_labels(model, dt, hp.alpha_p, sigma=hp.sigma,
                                         iteration=it)

    def terms(state):
        if "sup" in enable:
            yield "sup", ds, range(len(ds)), lambda out, batch, pick: \
                loss_sup_source(out, _stack(batch, "gt_h"), _stack(batch, "gt_p"), hp)
        if "bg" in enable:
            yield "bg", db, range(len(db)), lambda out, batch, pick: \
                loss_bg_uncertainty(out, hp)
        if "tgt" in enable:
            yield "tgt", dt, range(len(dt)), lambda out, batch, pick: \
                loss_tgt_uncertainty(out)
        sel = state.pseudo
        if "psup" in enable and sel is not None:
            yield "psup", dt, sel.ids, lambda out, batch, pick: \
                _psup_loss(out, sel, pick, hp)

    return _run(TrainState(model), hp, rng,
                _make_optimizers(model, hp, POSE_LEVEL_TERMS), terms, hp.max_iter,
                refresh=refresh if "psup" in enable and dt else None,
                eval_hook=eval_hook)


JOINT_LEVEL_TERMS = ("sup_inv", "ent_outv_s", "ent_bg", "ent_inv_t",
                     "ent_outv_t", "psup")


def train_joint_level(ds_o, dt_o, db, hp, rng, model=None,
                      enable=JOINT_LEVEL_TERMS, eval_hook=None):
    """Joint-level adaptation for occlusion/truncation: in-view source
    supervision, entropy shaping on source out-view joints, backgrounds and
    the selected target pairs, plus confidence-weighted pseudo-supervision
    on the selected target in-view pairs."""
    if model is None:
        model = PoseNet(rng=rng)
    enable = tuple(enable)

    def refresh(model, it):
        return select_joint_pseudo_labels(model, dt_o, hp.alpha_q, hp.alpha_h,
                                          sigma=hp.sigma, iteration=it)

    def sup_inv(out, batch, pick):
        in_mask = _stack(batch, "visibility")
        out_mask = ~in_mask if "ent_outv_s" in enable else np.zeros_like(in_mask)
        return loss_sup_occlusion_aware(out, _stack(batch, "gt_h"), _stack(batch, "gt_p"),
                                        in_mask, out_mask, hp)

    def terms(state):
        # Supervision and out-view entropy shaping share one term (and one
        # optimizer step) when both are enabled; see loss_sup_occlusion_aware
        # for why splitting them misbehaves under per-loss Adam.
        if "sup_inv" in enable:
            yield "sup_inv", ds_o, range(len(ds_o)), sup_inv
        elif "ent_outv_s" in enable:
            yield "ent_outv_s", ds_o, range(len(ds_o)), lambda out, batch, pick: \
                loss_entropy_max(out, ~_stack(batch, "visibility"), margin=hp.m_h)
        if "ent_bg" in enable:
            yield "ent_bg", db, range(len(db)), lambda out, batch, pick: \
                loss_entropy_max(out, margin=hp.m_h)
        sel = state.pseudo
        if sel is None:
            return
        if "ent_inv_t" in enable and sel.in_mask.any():
            yield "ent_inv_t", dt_o, range(len(dt_o)), lambda out, batch, pick: \
                loss_entropy_min(out, sel.in_mask[pick])
        if "ent_outv_t" in enable and sel.out_mask.any():
            yield "ent_outv_t", dt_o, range(len(dt_o)), lambda out, batch, pick: \
                loss_entropy_max(out, sel.out_mask[pick], margin=hp.m_h)
        if "psup" in enable:
            yield "psup", dt_o, sorted(sel.q), lambda out, batch, pick: _psup_loss(
                out, sel, pick, hp, normalized_confidences(out.conf * sel.in_mask[pick]))

    target_terms = {"ent_inv_t", "ent_outv_t", "psup"}
    return _run(TrainState(model), hp, rng,
                _make_optimizers(model, hp, JOINT_LEVEL_TERMS), terms, hp.max_iter,
                refresh=refresh if target_terms & set(enable) and dt_o else None,
                eval_hook=eval_hook)


def blend_weight(model, samples, joint_level=False):
    """The least-squares weight in [0, 1] of ``FusionNet``'s x/y pull on
    labelled ``samples``: the ``w`` that best fits the root-relative x/y
    error of the frozen model's pose by ``w`` times the root-relative
    ``heatmap_residual``, over in-view joints only with ``joint_level``.
    0 without samples or without any residual."""
    if not samples:
        return 0.0
    pred = predict(model, samples)
    xy = pred["pose_cam"][..., :2]
    gt = np.stack([s.gt_p for s in samples])[..., :2]
    err = (gt - gt[:, :1]) - (xy - xy[:, :1])
    res = heatmap_residual(pred["pose_cam"], pred["q_loc"])
    res = res - res[:, :1]
    if joint_level:
        vis = np.stack([s.visibility for s in samples])[..., None]
        err, res = err * vis, res * vis
    den = float((res * res).sum())
    return float(np.clip((res * err).sum() / den, 0.0, 1.0)) if den > 0 else 0.0


def train_fusion(model, source, target, pseudo, hp, rng, max_iter=None,
                 joint_level=False):
    """Train the fusion regressor with the main model frozen. Its x/y
    blend weight is set once from the source split (``blend_weight``);
    then its depth MLP learns from a supervised 3D loss on source batches
    and confidence-weighted pseudo-supervision on pseudo-labeled target
    batches. ``joint_level`` restricts the blend fit and both losses to
    in-view joints."""
    fusion = FusionNet(tree=model.tree, config=model.config, rng=rng)
    fusion.params[FusionNet.BLEND].data[...] = blend_weight(model, source, joint_level)

    def fused(out):
        # detached inputs keep the main model frozen
        return fusion.forward(out.pose_cam.data, out.q_loc.data, out.conf)

    def sup(out, batch, pick):
        p_gt = _stack(batch, "gt_p")
        if joint_level:
            return _weighted_joints(_per_joint_pose_mse(fused(out), p_gt),
                                    _stack(batch, "visibility"))
        return ad.mse(fused(out), p_gt)

    def psup(out, batch, pick):
        conf = out.conf * pseudo.in_mask[pick] if joint_level else out.conf
        return _weighted_joints(
            _per_joint_pose_mse(fused(out), np.stack([pseudo.p[i] for i in pick])),
            normalized_confidences(conf))

    def terms(state):
        yield "fusion_sup", source, range(len(source)), sup
        if pseudo is not None:
            yield "fusion_psup", target, sorted(pseudo.q), psup

    _run(TrainState(model, pseudo), hp, rng,
         _make_optimizers(fusion, hp, ("fusion_sup", "fusion_psup")), terms,
         hp.max_iter if max_iter is None else max_iter)
    return fusion


# ---------------------------------------------------------------------------
# evaluation


def auroc(pos, neg):
    """Area under the ROC curve of scores separating ``pos`` (should score
    high) from ``neg``, via the rank-sum statistic with midranks for ties."""
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("auroc needs both populations")
    scores = np.concatenate([pos, neg])
    order = np.argsort(scores, kind="mergesort")
    ordered = scores[order]
    # tie groups of the sorted scores; NaN never equals NaN, so each NaN
    # is a group of its own, ranked in input order
    group = np.cumsum(np.concatenate(([True], ordered[1:] != ordered[:-1]))) - 1
    counts = np.bincount(group)
    ranks = np.empty(len(scores))
    ranks[order] = (np.cumsum(counts) - 0.5 * (counts - 1))[group]
    rank_sum = ranks[:len(pos)].sum()
    return float((rank_sum - len(pos) * (len(pos) + 1) / 2.0)
                 / (len(pos) * len(neg)))


def evaluate(model, samples, fusion=None):
    """Metrics over one dataset: MPJPE / PA-MPJPE (overall and in-view
    only) for the regression head and optionally the fused pose, plus mean
    pose-uncertainty and per-joint entropies."""
    pred = predict(model, samples)
    u = pose_uncertainty_np(pred["q_loc"], pred["q_proj"])
    row = {"mean_u": float(u.mean()), "mean_entropy": float(pred["entropy"].mean())}
    if not all(s.is_background for s in samples):
        gts = np.stack([s.gt_p for s in samples])
        vis = np.stack([s.visibility for s in samples])
        row.update(_pose_errors(pred["pose_cam"], gts, vis, prefix=""))
        if fusion is not None:
            with ad.no_grad():
                fused = fusion.forward(pred["pose_cam"], pred["q_loc"], pred["conf"]).data
            row.update(_pose_errors(fused, gts, vis, prefix="fused_"))
    row["u_scores"] = u
    row["entropies"] = pred["entropy"]
    return row


def _pose_errors(preds, gts, vis, prefix):
    """Mean MPJPE and PA-MPJPE over (N, J, 3) stacks, and the mean over
    samples with a visible joint of their root-aligned in-view error."""
    pa = [pa_mpjpe(p, g) for p, g in zip(preds, gts)]
    d = np.linalg.norm((preds - preds[:, :1]) - (gts - gts[:, :1]), axis=-1)
    inview = [row[m].mean() for row, m in zip(d, vis) if m.any()]
    return {prefix + "mpjpe": float(mpjpe(preds, gts).mean()),
            prefix + "pa_mpjpe": float(np.mean(pa)),
            prefix + "mpjpe_inview": float(np.mean(inview)) if inview else float("nan")}


METRIC_COLUMNS = (
    "iteration", "mpjpe_target", "pa_mpjpe_target", "mpjpe_target_inview",
    "fused_mpjpe_target", "mpjpe_source", "pa_mpjpe_source",
    "mean_u_source", "mean_u_target", "mean_u_background",
    "mean_h_inv_s", "mean_h_outv_s", "mean_h_inv_t", "mean_h_outv_t", "mean_h_bg",
    "pseudo_count", "auroc_u_bg_vs_source", "auroc_h_outv_vs_inv_target",
)


def _split_groups(model, source, target, background, fusion=None):
    """The ``evaluate`` rows of the three held-out splits (``fusion``
    only on the target) and their per-joint entropies grouped by true
    in/out-view on source and target, all joints on backgrounds."""
    ev_s = evaluate(model, source)
    ev_t = evaluate(model, target, fusion=fusion)
    ev_b = evaluate(model, background)
    vis_s = np.stack([s.visibility for s in source])
    vis_t = np.stack([s.visibility for s in target])
    groups = {
        "inV-S": ev_s["entropies"][vis_s], "outV-S": ev_s["entropies"][~vis_s],
        "inV-T": ev_t["entropies"][vis_t], "outV-T": ev_t["entropies"][~vis_t],
        "BG": ev_b["entropies"].reshape(-1),
    }
    return ev_s, ev_t, ev_b, groups


def metrics_row(state, source, target, background, fusion=None):
    """One MetricsLog row across the held-out splits."""
    ev_s, ev_t, ev_b, groups = _split_groups(state.model, source, target, background,
                                             fusion)
    mean_h = {k: float(v.mean()) if v.size else float("nan") for k, v in groups.items()}
    return {
        "iteration": state.iteration,
        "mpjpe_target": ev_t["mpjpe"],
        "pa_mpjpe_target": ev_t["pa_mpjpe"],
        "mpjpe_target_inview": ev_t["mpjpe_inview"],
        "fused_mpjpe_target": ev_t.get("fused_mpjpe", float("nan")),
        "mpjpe_source": ev_s["mpjpe"],
        "pa_mpjpe_source": ev_s["pa_mpjpe"],
        "mean_u_source": ev_s["mean_u"],
        "mean_u_target": ev_t["mean_u"],
        "mean_u_background": ev_b["mean_u"],
        "mean_h_inv_s": mean_h["inV-S"],
        "mean_h_outv_s": mean_h["outV-S"],
        "mean_h_inv_t": mean_h["inV-T"],
        "mean_h_outv_t": mean_h["outV-T"],
        "mean_h_bg": mean_h["BG"],
        "pseudo_count": 0 if state.pseudo is None else len(state.pseudo),
        "auroc_u_bg_vs_source": auroc(ev_b["u_scores"], ev_s["u_scores"]),
        "auroc_h_outv_vs_inv_target": (
            auroc(groups["outV-T"], groups["inV-T"])
            if groups["outV-T"].size and groups["inV-T"].size else float("nan")),
    }


def write_metrics_csv(rows, path):
    """Fixed column order, deterministic float formatting."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRIC_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row.get(c, float("nan"))) for c in METRIC_COLUMNS])


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def histogram_groups(model, source, target, background, bins=24):
    """Fig-style uncertainty histograms: per-joint entropies grouped by
    true in/out-view on source and target, all joints on backgrounds, plus
    pose-uncertainty per domain."""
    ev_s, ev_t, ev_b, groups = _split_groups(model, source, target, background)
    hmax = math.log(model.config.heatmap_size ** 2)
    edges = np.linspace(0.0, hmax, bins + 1)
    doc = {"entropy": {"bin_edges": edges.tolist(), "counts": {
        k: np.histogram(v, bins=edges)[0].tolist() for k, v in groups.items()}}}
    u_edges = np.linspace(0.0, 1.0, bins + 1)
    doc["pose_uncertainty"] = {"bin_edges": u_edges.tolist(), "counts": {
        "source": np.histogram(ev_s["u_scores"], bins=u_edges)[0].tolist(),
        "target": np.histogram(ev_t["u_scores"], bins=u_edges)[0].tolist(),
        "background": np.histogram(ev_b["u_scores"], bins=u_edges)[0].tolist(),
    }}
    return doc
