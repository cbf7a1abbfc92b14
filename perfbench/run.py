#!/usr/bin/env python3
"""poseadapt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Workloads: adapt-pose, adapt-joint-occluded, serve (see
perfbench/README.md). Report lines go to standard output first; the last
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` they are the per-layer ones from a traced run, and the
spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("adapt-pose", "adapt-joint-occluded", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import poseadapt from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "poseadapt", "__init__.py")):
        sys.exit(f"perfbench: no poseadapt sources under {SRC}")
    sys.path.insert(0, SRC)
    import poseadapt
    if os.path.dirname(os.path.abspath(poseadapt.__file__)) != os.path.join(SRC, "poseadapt"):
        sys.exit(f"perfbench: poseadapt imported from {poseadapt.__file__}, not {SRC}")


def environment():
    """Machine and library record printed with every result. BLAS threading
    is left at the library default; this only reports it."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}",
           "blas_thread_env": {k: os.environ.get(k, "unset") for k in
                               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS")},
           "blas_threads": _openblas_threads(np),
           "serve_loop": "closed, 1 client; an open loop waits for a request-serving layer"}
    return env


def _openblas_threads(np):
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


# ---------------------------------------------------------------------------
# metrics


def end_to_end(outcome, side):
    """The gated metrics: the median over set-up repetitions and trimmed
    means over blocks."""
    m = side.summary()
    return {
        "setup_s": (m["setup_s"], "s"),
        "throughput_per_s": (m["throughput_per_s"], "1/s"),
        "latency_ms_p50": (m["latency_ms_p50"], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WALL_SHARE_LAYERS = (
    "autodiff.backward", "model.posenet_forward", "model.fusion_forward",
    "optim.adam_step", "uncertainty.predict", "uncertainty.select",
    "heatmap.entropy", "heatmap.render_gaussian_heatmap", "skeleton.mpjpe",
    "skeleton.pa_mpjpe", "synthdata.build_dataset", "synthdata.load_dataset",
    "trainer.eval_hook", "trainer.loop", "config.generate_splits", "model.load",
)

# spans that must record calls on each workload in a traced run
EXPECTED = {
    "adapt-pose": (
        "autodiff.backward", "model.posenet_forward", "model.fusion_forward",
        "optim.adam_step", "uncertainty.predict", "uncertainty.select",
        "heatmap.entropy", "heatmap.render_gaussian_heatmap", "skeleton.mpjpe",
        "skeleton.pa_mpjpe", "synthdata.build_dataset", "trainer.eval_hook",
        "trainer.loop", "config.generate_splits"),
    "serve": (
        "model.posenet_forward", "model.fusion_forward", "uncertainty.predict",
        "heatmap.entropy", "skeleton.mpjpe", "skeleton.pa_mpjpe",
        "synthdata.load_dataset", "model.load", "trainer.evaluate"),
}
EXPECTED["adapt-joint-occluded"] = EXPECTED["adapt-pose"]


def per_layer(outcome, tracer):
    s = tracer.summary()
    w = tracer.work
    side = outcome.sides[True]
    wall = side.wall_s

    def calls(name):
        return (s[name]["calls"], "count") if name in s else (0, "count")

    def self_(name, scale, unit):
        return (s[name]["self_s"] * scale if name in s else 0.0, unit)

    def ratio(a, b):
        return a / b if b else 0.0

    sel = s.get("uncertainty.select", {"calls": 0, "total_s": 0.0})
    hook = s.get("trainer.eval_hook", {"calls": 0, "total_s": 0.0})
    build = s.get("synthdata.build_dataset", {"total_s": 0.0})
    m = {
        "autodiff.backward.calls": calls("autodiff.backward"),
        "autodiff.backward.self_ms": self_("autodiff.backward", 1e3, "ms"),
        "autodiff.nodes_per_backward": (ratio(w["autodiff.nodes"], w["autodiff.records"]),
                                        "count"),
        "model.posenet_forward.calls": calls("model.posenet_forward"),
        "model.posenet_forward.self_ms": self_("model.posenet_forward", 1e3, "ms"),
        "model.posenet_forward.images_per_call": (
            ratio(w["model.images"], calls("model.posenet_forward")[0]), "count"),
        "model.fusion_forward.self_ms": self_("model.fusion_forward", 1e3, "ms"),
        "optim.adam_step.calls": calls("optim.adam_step"),
        "optim.adam_step.self_ms": self_("optim.adam_step", 1e3, "ms"),
        "optim.floats_per_step": (ratio(w["optim.floats"], calls("optim.adam_step")[0]),
                                  "count"),
        "uncertainty.predict.self_ms": self_("uncertainty.predict", 1e3, "ms"),
        "uncertainty.select.s_per_refresh": (ratio(sel["total_s"], sel["calls"]), "s"),
        "uncertainty.select.samples_scored": (w["uncertainty.scored"], "count"),
        "uncertainty.select.selected_ratio": (
            ratio(w["uncertainty.selected"], w["uncertainty.scored"]), "ratio"),
        "heatmap.entropy.calls": calls("heatmap.entropy"),
        "heatmap.entropy.self_s": self_("heatmap.entropy", 1.0, "s"),
        "heatmap.render_gaussian_heatmap.calls": calls("heatmap.render_gaussian_heatmap"),
        "heatmap.render_gaussian_heatmap.self_s": self_("heatmap.render_gaussian_heatmap",
                                                        1.0, "s"),
        "skeleton.mpjpe.self_s": self_("skeleton.mpjpe", 1.0, "s"),
        "skeleton.pa_mpjpe.self_s": self_("skeleton.pa_mpjpe", 1.0, "s"),
        "synthdata.build_dataset.samples_per_s": (
            ratio(w["synthdata.built"], build["total_s"]), "1/s"),
        "synthdata.load_dataset.self_s": self_("synthdata.load_dataset", 1.0, "s"),
        "synthdata.bytes_loaded": (w["synthdata.bytes_loaded"], "B"),
        "trainer.eval_hook.s_per_call": (ratio(hook["total_s"], hook["calls"]), "s"),
        "trainer.refresh_share": (ratio(side.refresh_s, side.train_s), "ratio"),
        "config.generate_splits.self_s": self_("config.generate_splits", 1.0, "s"),
    }
    for name in WALL_SHARE_LAYERS:
        m[f"{name}.wall_share"] = (ratio(s[name]["self_s"], wall) if name in s else 0.0,
                                   "ratio")
    # tracing overhead: traced end-to-end numbers minus untraced ones
    plain = end_to_end(outcome, outcome.sides[False])
    traced = end_to_end(outcome, side)
    for key in ("setup_s", "throughput_per_s", "latency_ms_p50"):
        m[f"trace.overhead.{key}"] = (traced[key][0] - plain[key][0], plain[key][1])
    return m


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    import_package()
    here = os.path.dirname(os.path.abspath(__file__))
    if here not in sys.path:
        sys.path.insert(0, here)
    import workloads
    from spans import Tracer

    env = environment()
    tally = workloads.Tally()
    tracer = None
    if args.trace:
        tracer = Tracer()
        workloads.register_layers(tracer)
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    origin = time.perf_counter()
    try:
        outcome = workloads.make(args.workload, args.seed, tmp, tally, tracer).run(
            args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):     # only once no other run uses it
            os.rmdir(os.path.dirname(tmp))

    if tracer is not None:
        summary = tracer.summary()
        for name in EXPECTED[args.workload]:
            tally.check(summary.get(name, {"calls": 0})["calls"] > 0,
                        f"zero-call guard: span {name} recorded no calls")
        tracer.dump(os.path.join(ROOT, ".perfbench_out",
                                 f"trace-{args.workload}-seed{args.seed}.json"), origin)
        metrics = per_layer(outcome, tracer)
    else:
        metrics = end_to_end(outcome, outcome.sides[False])

    report(args, env, outcome, tally, metrics)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def report(args, env, outcome, tally, metrics):
    """Human-readable lines under the workload's own metric names, with the
    sample counts behind each timing."""
    from workloads import percentile
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} {json.dumps(outcome.counts)}")
    side = outcome.sides[bool(args.trace)]
    m = side.summary()
    n = len(side.latencies_ms)
    lat = outcome.names["latency"]
    lines = [
        ("setup_s", m["setup_s"], "s", f"median of {len(side.setup_s)} set-ups"),
        (outcome.names["throughput"], m["throughput_per_s"], "1/s",
         f"trimmed mean of {len(side.rates)} blocks; {side.items} images in {side.work_s:.3f} s"),
        (f"{lat}_p50", m["latency_ms_p50"], "ms",
         f"trimmed mean of {len(side.p50s)} block medians; n={n}"),
        (f"{lat}_p90", m["latency_ms_p90"], "ms", f"trimmed mean of {len(side.p90s)} block p90s"),
    ]
    for pct in sorted({50.0, 90.0, outcome.tail_pct}):
        value, beyond = percentile(side.latencies_ms, pct)
        lines.append((f"{lat}_pooled_p{pct:g}", value, "ms", f"n={n}, {beyond} beyond"))
    lines += [
        ("peak_rss_mb", peak_rss_mb(), "MB", "ru_maxrss of this process"),
        (outcome.names["pose_error"], outcome.quality["pose_error"], "skel_unit",
         "deterministic per seed"),
        (outcome.names["uncertainty_auroc"], outcome.quality["uncertainty_auroc"],
         "ratio", "deterministic per seed"),
        ("failed_frac", tally.failed / max(tally.attempted, 1), "ratio",
         f"{tally.failed} of {tally.attempted}"),
    ]
    if side.train_s:
        lines.append(("refresh_share", side.refresh_s / side.train_s, "ratio", ""))
    for name, value, unit, note in lines:
        print(f"{args.workload} {name} {value:.6g} {unit} {note}".rstrip())
    for err in tally.errors[:20]:
        print(f"# FAILED {err}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{args.workload} trace {name} {value:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
