"""The names the traced benchmark (``perfbench``) reaches into.

``perfbench/workloads.register_layers`` wraps package functions at the
attributes where their callers look them up, and the serve workload calls
``pose_uncertainty_np`` and tests for ``PseudoLabelSet``. Removing or
renaming one of them breaks the benchmark; this fails in seconds instead.
"""

import importlib.util
import os
import sys

from poseadapt import uncertainty

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


def test_serving_names_exist():
    assert callable(uncertainty.pose_uncertainty_np)
    assert isinstance(uncertainty.PseudoLabelSet, type)
