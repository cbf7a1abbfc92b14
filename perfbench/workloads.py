"""The three benchmark workloads.

Each drives poseadapt's public API from outside the package, closed loop,
one client, no extra threads. Inputs (configs, datasets, checkpoints) are
generated from the workload seed; the package receives nothing else.

A workload measures in blocks: one training pipeline for the adapt
workloads, about half a second of requests for serve. Rates and latencies
are summarised per block and reported as the trimmed mean over blocks. The
host's speed switches between fast and slow phases lasting seconds to tens
of seconds; a median over blocks jumps to whichever phase filled more of
the run, a mean averages them, and the trim drops stray blocks.
Untraced runs time every block with the tracing wrappers uninstalled.
Traced runs alternate untraced and traced blocks: the per-layer numbers
come from the traced blocks, and the tracing overhead is the difference
between the two kinds.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from statistics import mean, median

import numpy as np

from poseadapt import autodiff, config, heatmap, model, optim, synthdata, trainer
from poseadapt import uncertainty

EVAL_SPLITS = ("source_eval", "target_eval", "background_eval")


# ---------------------------------------------------------------------------
# bookkeeping


class Tally:
    """Operations attempted and failed. An operation is a training
    iteration, a serving request, a setup repetition or a correctness
    check; it fails on an exception, a non-finite loss or output, or a
    failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def exception(self, what):
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{what}: {traceback.format_exc(limit=3)}")


def trimmed_mean(values, cut=0.1):
    """Mean without the lowest and the highest tenth of the values."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return mean(ordered[k:len(ordered) - k])


def percentile(values, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


@dataclass
class Side:
    """Timings of one kind of block, untraced or traced."""

    setup_s: list = field(default_factory=list)
    rates: list = field(default_factory=list)        # images/s, one per block
    p50s: list = field(default_factory=list)         # ms, one per block
    p90s: list = field(default_factory=list)
    latencies_ms: list = field(default_factory=list)  # every sample
    items: int = 0
    work_s: float = 0.0          # time of the throughput-carrying work
    wall_s: float = 0.0          # time of every measured block and setup
    train_s: float = 0.0         # adapt: training wall time
    refresh_s: float = 0.0       # adapt: refresh iterations

    def add_rate(self, items, seconds):
        self.items += items
        self.work_s += seconds
        self.rates.append(items / seconds)

    def add_latencies(self, ms):
        self.latencies_ms.extend(ms)
        self.p50s.append(percentile(ms, 50.0)[0])
        self.p90s.append(percentile(ms, 90.0)[0])

    def summary(self):
        return {"setup_s": median(self.setup_s),
                "throughput_per_s": trimmed_mean(self.rates),
                "latency_ms_p50": trimmed_mean(self.p50s),
                "latency_ms_p90": trimmed_mean(self.p90s)}


@dataclass
class Outcome:
    sides: dict                  # traced flag -> Side
    quality: dict                # name -> value, deterministic per seed
    tail_pct: float              # highest percentile reported for latency
    names: dict                  # generic metric -> workload-specific name
    counts: dict = field(default_factory=dict)


def _finite(*arrays):
    return all(np.isfinite(np.asarray(a, dtype=np.float64)).all() for a in arrays)


def _region(tracer, name):
    return tracer.region(name) if tracer is not None else contextlib.nullcontext()


def _group(tracer, label):
    if tracer is not None and tracer.active:
        tracer.group = label


class Blocks:
    """Alternates untraced and traced blocks in a traced run; every block
    is untraced otherwise."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.count = 0

    @contextlib.contextmanager
    def block(self):
        traced = self.tracer is not None and self.count % 2 == 1
        self.count += 1
        if traced:
            self.tracer.install()
        try:
            yield traced
        finally:
            if traced:
                self.tracer.uninstall()

    def repeat(self, seconds, body):
        """Run ``body(traced)`` block after block until ``seconds`` have
        passed; a traced run always ends on a traced block."""
        start = time.perf_counter()
        while True:
            with self.block() as traced:
                body(traced)
            if time.perf_counter() - start >= seconds and \
                    (self.tracer is None or self.count % 2 == 0):
                return


class Setups:
    """Times set-up repetitions: one before the first block and one at the
    start of every block, so the samples spread over the whole run like the
    blocks do. Keeps the first result; ``same(first, later)`` checks that
    every later result equals it."""

    def __init__(self, setup, tally, tracer, same=None):
        self.setup = setup
        self.tally = tally
        self.tracer = tracer
        self.same = same
        self.first = None

    def time(self, side):
        t0 = time.perf_counter()
        try:
            with _region(self.tracer, "setup"):
                result = self.setup()
        except Exception:
            self.tally.exception("setup")
            return
        dt = time.perf_counter() - t0
        side.setup_s.append(dt)
        side.wall_s += dt
        if self.first is None:
            self.first = result
            self.tally.check(True, "setup")
        else:
            self.tally.check(self.same is None or self.same(self.first, result),
                             "setup: repeated set-ups differ")

    def start(self, side):
        """The first set-up, whose result the workload runs on."""
        self.time(side)
        if self.first is None:
            raise RuntimeError("the first set-up failed")
        return self.first


# ---------------------------------------------------------------------------
# layer wrappers for the traced run


def _images(args, kwargs, result):
    obs = np.asarray(args[1])
    yield "model.images", 1 if obs.ndim == 2 else len(obs)


def _floats(args, kwargs, result):
    yield "optim.floats", sum(p.data.size for p in args[0].params)


def _nodes(args, kwargs, result):
    yield "autodiff.nodes", len(result.nodes)
    yield "autodiff.records", 1


def _selection(args, kwargs, result):
    if isinstance(result, uncertainty.PseudoLabelSet):
        yield "uncertainty.scored", len(result.scores)
        yield "uncertainty.selected", len(result)
    else:
        yield "uncertainty.scored", result.scores.size
        yield "uncertainty.selected", len(result.in_view) + len(result.out_view)


def _built(args, kwargs, result):
    yield "synthdata.built", len(result)


def _loaded(args, kwargs, result):
    out_dir = args[0]
    name = args[1] if len(args) > 1 else kwargs.get("name", "dataset")
    yield "synthdata.bytes_loaded", sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
        if f.startswith(name + "."))


def register_layers(tracer):
    """Wrap every public entry point where its caller looks it up."""
    tracer.hook(autodiff, "backward", "autodiff.backward")
    tracer.hook(autodiff.ComputationRecord, "trace", work=_nodes)
    tracer.hook(model.PoseNet, "forward", "model.posenet_forward", work=_images)
    tracer.hook(model.PoseNet, "load", "model.load")
    tracer.hook(model.FusionNet, "forward", "model.fusion_forward")
    tracer.hook(model.FusionNet, "load_weights", "model.load")
    tracer.hook(optim.Adam, "step", "optim.adam_step", work=_floats)
    # trainer imports these by name; uncertainty and the benchmark use the module
    for owner in (uncertainty, trainer):
        tracer.hook(owner, "predict", "uncertainty.predict")
        tracer.hook(owner, "select_pose_pseudo_labels", "uncertainty.select", _selection)
        tracer.hook(owner, "select_joint_pseudo_labels", "uncertainty.select", _selection)
    tracer.hook(heatmap, "entropy", "heatmap.entropy")
    # uncertainty calls hm.render_gaussian_heatmap; synthdata imports it by name
    tracer.hook(heatmap, "render_gaussian_heatmap", "heatmap.render_gaussian_heatmap")
    tracer.hook(synthdata, "render_gaussian_heatmap", "heatmap.render_gaussian_heatmap")
    tracer.hook(trainer, "mpjpe", "skeleton.mpjpe")
    tracer.hook(trainer, "pa_mpjpe", "skeleton.pa_mpjpe")
    tracer.hook(config, "build_dataset", "synthdata.build_dataset", _built)
    tracer.hook(synthdata, "load_dataset", "synthdata.load_dataset", _loaded)
    tracer.hook(config, "generate_splits", "config.generate_splits")
    for loop in ("train_pose_level", "train_joint_level", "train_fusion"):
        tracer.hook(trainer, loop, "trainer.loop")
    tracer.hook(trainer, "evaluate", "trainer.evaluate")


# ---------------------------------------------------------------------------
# adaptation workloads


SPLIT_SIZES = dict(n_source=256, n_target=256, n_background=128, n_eval=64)


@dataclass(frozen=True)
class AdaptPlan:
    loop: str                    # "pose" or "joint"
    occlusion_mix: float
    pretrain_iters: int
    adapt_iters: int             # also the refresh interval
    fusion_iters: int


# One pseudo-label refresh per adaptation, at iteration 0 with the
# pretrained model (the acceptance protocol): re-selecting a partially
# adapted model at fixed thresholds empties or floods the selection
# depending on the seed, which would change the work mix between seeds.
ADAPT_PLANS = {
    "adapt-pose": AdaptPlan("pose", 0.0, pretrain_iters=20, adapt_iters=30,
                            fusion_iters=20),
    "adapt-joint-occluded": AdaptPlan("joint", 0.5, pretrain_iters=20,
                                      adapt_iters=40, fusion_iters=20),
}

# loss terms that must step at least once per adaptation
REQUIRED_TERMS = {"pose": ("sup", "bg", "tgt", "psup"),
                  "joint": ("sup_inv", "ent_bg", "ent_inv_t", "ent_outv_t", "psup")}


class IterationClock(list):
    """Stand-in for ``TrainState.loss_log``: stamps the end of every
    training iteration, checks its losses, counts the images stepped and
    gives the spans of each iteration a shared group id."""

    def __init__(self, start, tally, tracer, label, batch):
        super().__init__()
        self.stamps = [start]
        self.tally = tally
        self.tracer = tracer
        self.label = label
        self.batch = batch
        self.images = 0
        _group(tracer, f"{label}:0")

    def append(self, losses):
        self.stamps.append(time.perf_counter())
        super().append(losses)
        self.images += self.batch * len(losses)
        self.tally.check(all(math.isfinite(v) for v in losses.values()),
                         f"{self.label}: non-finite loss {losses}")
        _group(self.tracer, f"{self.label}:{len(self)}")


class AdaptWorkload:
    def __init__(self, name, seed, tmp_dir, tally, tracer):
        self.plan = ADAPT_PLANS[name]
        self.seed = seed
        self.tally = tally
        self.tracer = tracer
        self.cfg = config.ExperimentConfig(seed=seed,
                                           occlusion_mix=self.plan.occlusion_mix,
                                           **SPLIT_SIZES)

    def setup(self):
        """Dataset generation and model construction."""
        return config.generate_splits(self.cfg), model.PoseNet(
            rng=np.random.default_rng(self.seed))

    def run(self, seconds):
        blocks = Blocks(self.tracer)
        sides = {False: Side(), True: Side()}
        setups = Setups(self.setup, self.tally, self.tracer,
                        lambda a, b: _same_splits(a[0], b[0]))
        splits, net = setups.start(sides[False])
        init = {k: p.data.copy() for k, p in net.params.items()}
        thresholds = self.thresholds(splits, net, init)
        # untimed warm-up: the first pipeline of a process pays first-touch
        # page faults and allocator growth that a long training amortizes
        results = [self.pipeline(splits, net, init, "warmup", thresholds)]
        started = itertools.count()

        def body(traced):
            side = sides[traced]
            setups.time(side)
            index = next(started)
            try:
                res = self.pipeline(splits, net, init, index, thresholds)
            except Exception:
                self.tally.exception(f"pipeline {index}")
                return
            results.append(res)
            side.add_rate(res["images"], res["train_s"])
            side.add_latencies(res["iter_ms"])
            side.train_s += res["train_s"]
            side.wall_s += res["train_s"]
            side.refresh_s += res["refresh_s"]

        blocks.repeat(seconds, body)
        if len(results) == 1:
            raise RuntimeError("every pipeline failed")
        for r in results[1:]:
            self.tally.check(r["quality"] == results[0]["quality"],
                             "pipeline: a rerun with one seed gave other results")
        joint = self.plan.loop == "joint"
        names = {"latency": "iter_ms", "throughput": "train_samples_per_s",
                 "pose_error": "target_mpjpe_inview" if joint else "target_mpjpe",
                 "uncertainty_auroc": "auroc_h_outv_vs_inv_target" if joint
                 else "auroc_u_bg_vs_source"}
        return Outcome(sides=sides, quality=results[0]["quality"], tail_pct=90.0,
                       names=names, counts={"pipelines": next(started)})

    def pretrain(self, splits, net, init, hook=None):
        """Source pretraining from the initial weights. Returns the rng the
        rest of the pipeline continues with; the pretrained model is the
        same every time."""
        for k, p in net.params.items():
            p.data[...] = init[k]
        rng = np.random.default_rng(self.seed + 1)
        hp = trainer.HyperParams(max_iter=self.plan.pretrain_iters, k_interval=10 ** 9,
                                 m_l=4.5)
        if self.plan.loop == "joint":
            trainer.train_joint_level(splits["source"], [], splits["background"], hp,
                                      rng, model=net,
                                      enable=("sup_inv", "ent_outv_s", "ent_bg"),
                                      eval_hook=hook)
        else:
            trainer.train_pose_level(splits["source"], splits["target"],
                                     splits["background"], hp, rng, model=net,
                                     enable=("sup",), eval_hook=hook)
        return rng

    def thresholds(self, splits, net, init):
        """Untimed: selection thresholds at quantiles of the pretrained
        model's own scores, so the refresh at iteration 0 selects a
        non-empty set for any seed. The scores come from the program's
        selection run with thresholds that select nothing."""
        self.pretrain(splits, net, init)
        tgt = splits["target"]
        if self.plan.loop == "joint":
            sel = uncertainty.select_joint_pseudo_labels(net, tgt, alpha_q=-np.inf,
                                                         alpha_h=np.inf)
            scores = np.sort(sel.scores.reshape(-1))
            return {"alpha_q": float(scores[len(scores) // 3]),
                    "alpha_h": float(scores[2 * len(scores) // 3])}
        sel = uncertainty.select_pose_pseudo_labels(net, tgt, alpha_p=-np.inf)
        scores = np.sort(sel.scores)
        return {"alpha_p": float(scores[len(scores) // 2])}

    def pipeline(self, splits, net, init, index, thresholds):
        """Pretrain on source, adapt with every loss term and an eval hook
        at each refresh, train fusion, and evaluate the fused model."""
        tally, tracer, plan = self.tally, self.tracer, self.plan
        joint = plan.loop == "joint"
        src, tgt, bg = splits["source"], splits["target"], splits["background"]
        ev = [splits[k] for k in EVAL_SPLITS]
        batch = trainer.HyperParams().batch_size
        clocks, first_sel = [], []
        t0 = time.perf_counter()

        def hook(label, on_eval=None):
            start = time.perf_counter()

            def call(state):
                # first call: iteration 0, before any loss has been appended
                if not clocks or clocks[-1].label != label:
                    clocks.append(IterationClock(start, tally, tracer, label, batch))
                    state.loss_log = clocks[-1]
                if on_eval is not None:
                    on_eval(state)
            return call

        # 1. source pretraining
        rng = self.pretrain(splits, net, init, hook(f"p{index}:pretrain"))

        # 2. adaptation with every loss term, metrics at each refresh
        def on_eval(state):
            if not first_sel:
                first_sel.append(state.pseudo)
            with _region(tracer, "trainer.eval_hook"):
                trainer.metrics_row(state, *ev)

        hp2 = trainer.HyperParams(max_iter=plan.adapt_iters,
                                  k_interval=plan.adapt_iters, lam=0.0,
                                  **({"m_l": 4.5} if joint else {}), **thresholds)
        loop = trainer.train_joint_level if joint else trainer.train_pose_level
        state = loop(src, tgt, bg, hp2, rng, model=net,
                     eval_hook=hook(f"p{index}:adapt", on_eval))
        adapt = clocks[-1]

        # 3. fusion on top of the frozen adapted model
        _group(tracer, f"p{index}:fusion")
        fusion = trainer.train_fusion(net, src, tgt, state.pseudo, hp2, rng,
                                      max_iter=plan.fusion_iters, joint_level=joint)
        fusion_images = plan.fusion_iters * batch * (2 if state.pseudo.q else 1)

        # 4. metrics of the fused model
        _group(tracer, f"p{index}:final")
        final = trainer.metrics_row(state, *ev, fusion=fusion)
        train_s = time.perf_counter() - t0

        # correctness
        sel = first_sel[0]
        if joint:
            tally.check(len(sel.in_view) > 0 and len(sel.out_view) > 0,
                        "joint selection at the first refresh is empty")
        else:
            tally.check(len(sel) > 0, "pose pseudo-labels at the first refresh are empty")
        stepped = set().union(*adapt)
        for term in REQUIRED_TERMS[plan.loop]:
            tally.check(term in stepped, f"loss term {term} never stepped")
        quality = {
            "pose_error": final["mpjpe_target_inview" if joint else "mpjpe_target"],
            "uncertainty_auroc": final["auroc_h_outv_vs_inv_target" if joint
                                       else "auroc_u_bg_vs_source"],
            "fused_mpjpe_target": final["fused_mpjpe_target"]}
        tally.check(_finite(list(quality.values()),
                            *(p.data for p in fusion.parameters())),
                    "non-finite final metrics or fusion weights")

        durations = np.diff(adapt.stamps)
        refresh = np.arange(len(durations)) % plan.adapt_iters == 0
        return {"train_s": train_s,
                "images": sum(c.images for c in clocks) + fusion_images,
                "iter_ms": list(1e3 * durations[~refresh]),
                "refresh_s": float(durations[refresh].sum()),
                "quality": quality}


def _same_splits(a, b):
    return all(len(a[k]) == len(b[k]) and all(
        np.array_equal(x.obs, y.obs) and np.array_equal(x.gt_p, y.gt_p)
        for x, y in zip(a[k], b[k])) for k in a)


# ---------------------------------------------------------------------------
# serving workload


SERVE_SIZES = dict(n_source=128, n_target=0, n_background=0, n_eval=128)
SERVE_PRETRAIN_ITERS = 80
SERVE_FUSION_ITERS = 40
B1_BLOCK = 500                   # batch-1 requests per block
B64_BLOCK = 8                    # passes over the request pool per block
SERVE_BATCH = 64
SERVE_WARMUP = 100               # batch-1 requests before timing


class ServeWorkload:
    def __init__(self, name, seed, tmp_dir, tally, tracer):
        self.seed = seed
        self.tally = tally
        self.tracer = tracer
        self.dir = tmp_dir

    def prepare(self):
        """Untimed: a briefly pretrained checkpoint with a fusion head, and
        the eval splits, written to disk as a deployment would ship them.
        The training runs in a child process, so its optimizer state and
        graphs never set the peak RSS of the process that serves."""
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                self.write_checkpoint()
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError("writing the serving checkpoint failed")

    def write_checkpoint(self):
        cfg = config.ExperimentConfig(seed=self.seed, **SERVE_SIZES)
        splits = config.generate_splits(cfg)
        rng = np.random.default_rng(self.seed)
        net = model.PoseNet(rng=rng)
        hp = trainer.HyperParams(max_iter=SERVE_PRETRAIN_ITERS, k_interval=10 ** 9)
        trainer.train_pose_level(splits["source"], [], [], hp, rng, model=net,
                                 enable=("sup",))
        fusion = trainer.train_fusion(net, splits["source"], [], None, hp, rng,
                                      max_iter=SERVE_FUSION_ITERS)
        net.save(os.path.join(self.dir, "model"))
        fusion.save(os.path.join(self.dir, "fusion"))
        for name in EVAL_SPLITS:
            synthdata.save_dataset(splits[name], self.dir, name)

    def setup(self):
        """Checkpoint and dataset loading, with dataset validation."""
        net = model.PoseNet.load(os.path.join(self.dir, "model"))
        fusion = model.FusionNet(tree=net.tree, config=net.config)
        fusion.load_weights(os.path.join(self.dir, "fusion"))
        return net, fusion, {name: synthdata.load_dataset(self.dir, name, validate=True)
                             for name in EVAL_SPLITS}

    @staticmethod
    def respond(net, fusion, samples):
        """One request: keypoints, pose uncertainty U, joint entropies H and
        the fused 3D pose of every image."""
        pred = uncertainty.predict(net, samples, batch_size=SERVE_BATCH)
        u = uncertainty.pose_uncertainty_np(pred["q_loc"], pred["q_proj"])
        fused = fusion.forward(pred["pose_cam"], pred["q_loc"], pred["conf"]).data
        return pred["q_loc"], u, pred["entropy"], fused

    def run(self, seconds):
        tally, tracer = self.tally, self.tracer
        self.prepare()
        blocks = Blocks(tracer)
        sides = {False: Side(), True: Side()}
        setups = Setups(self.setup, tally, tracer)
        net, fusion, splits = setups.start(sides[False])
        pool = [s for name in EVAL_SPLITS for s in splits[name]]
        order = np.random.default_rng(self.seed).permutation(len(pool))
        for i in order[:SERVE_WARMUP]:          # untimed warm-up
            self.respond(net, fusion, [pool[int(i)]])
        self.respond(net, fusion, pool[:SERVE_BATCH])
        answers = {}                # pool index -> first batch-1 answer
        served = [0]

        # phase A: batch-1 requests in a seeded order over the pool
        def batch1(traced):
            setups.time(sides[traced])
            ms = []
            t_block = time.perf_counter()
            for _ in range(B1_BLOCK):
                i = int(order[served[0] % len(order)])
                served[0] += 1
                _group(tracer, f"b1:{served[0]}")
                t0 = time.perf_counter()
                try:
                    out = self.respond(net, fusion, [pool[i]])
                except Exception:
                    tally.exception("batch-1 request")
                    continue
                ms.append(1e3 * (time.perf_counter() - t0))
                tally.check(_finite(*out), "non-finite batch-1 output")
                answers.setdefault(i, out)
            sides[traced].wall_s += time.perf_counter() - t_block
            if ms:
                sides[traced].add_latencies(ms)

        # phase B: batch-64 requests over the whole pool
        passes = [0]

        def batch64(traced):
            setups.time(sides[traced])
            items, busy = 0, 0.0
            t_block = time.perf_counter()
            for _ in range(B64_BLOCK):
                for lo in range(0, len(pool), SERVE_BATCH):
                    chunk = pool[lo:lo + SERVE_BATCH]
                    _group(tracer, f"b64:{passes[0]}:{lo}")
                    t0 = time.perf_counter()
                    try:
                        out = self.respond(net, fusion, chunk)
                    except Exception:
                        tally.exception("batch-64 request")
                        continue
                    busy += time.perf_counter() - t0
                    items += len(chunk)
                    tally.check(_finite(*out), "non-finite batch-64 output")
                    if passes[0] == 0:
                        self.compare(answers, lo, out)
                passes[0] += 1
            sides[traced].wall_s += time.perf_counter() - t_block
            if items:
                sides[traced].add_rate(items, busy)

        blocks.repeat(seconds / 2, batch1)
        blocks.repeat(seconds / 2, batch64)

        # evaluation over the eval splits (once more, traced, in a traced run)
        quality = None
        for _ in range(2 if tracer else 1):
            with blocks.block() as traced:
                _group(tracer, "evaluate")
                t0 = time.perf_counter()
                rows = {name: trainer.evaluate(net, splits[name], fusion=fusion)
                        for name in EVAL_SPLITS}
                sides[traced].wall_s += time.perf_counter() - t0
            q = {"pose_error": rows["target_eval"]["fused_mpjpe"],
                 "uncertainty_auroc": trainer.auroc(rows["background_eval"]["u_scores"],
                                                    rows["source_eval"]["u_scores"]),
                 "mpjpe_target": rows["target_eval"]["mpjpe"]}
            tally.check(_finite(list(q.values())), "non-finite evaluation")
            if quality is not None:
                tally.check(q == quality, "evaluation differs between calls")
            quality = q
        names = {"latency": "serve_b1_latency_ms", "throughput": "serve_b64_images_per_s",
                 "pose_error": "fused_mpjpe_target",
                 "uncertainty_auroc": "auroc_u_bg_vs_source"}
        return Outcome(sides=sides, quality=quality, tail_pct=99.0, names=names,
                       counts={"b1_requests": served[0], "b64_passes": passes[0],
                               "pool": len(pool)})

    def compare(self, answers, lo, out):
        """Batch-1 answers must equal the batch-64 answers for the same
        images up to rounding."""
        for k in range(len(out[0])):
            b1 = answers.get(lo + k)
            if b1 is not None:
                self.tally.check(
                    all(np.allclose(x[0], y[k], rtol=1e-7, atol=1e-9)
                        for x, y in zip(b1, out)),
                    f"batch-1 and batch-64 outputs differ for image {lo + k}")


WORKLOADS = {"adapt-pose": AdaptWorkload, "adapt-joint-occluded": AdaptWorkload,
             "serve": ServeWorkload}


def make(name, seed, tmp_dir, tally, tracer):
    return WORKLOADS[name](name, seed, tmp_dir, tally, tracer)
