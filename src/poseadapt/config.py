"""Experiment configuration: the two toy domains, dataset sizes, model
shape and training hyperparameters, loadable from strict JSON."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import ModelConfig
from .skeleton import default_tree
from .synthdata import DomainSpec, build_dataset, check_field_types
from .trainer import HyperParams


def default_source_spec():
    return DomainSpec(name="source", appearance_seed=11)


def default_target_spec():
    """Appearance-only shift from the source domain: same pose and camera
    distributions, but dimmer and wider blobs, a different and stronger
    background texture, and more pixel noise. Keeping the geometry shared
    leaves a gap that adaptation can actually close; widening the pose or
    camera ranges instead creates an extrapolation gap that no amount of
    unlabeled target data fixes."""
    return DomainSpec(
        name="target", appearance_seed=29,
        noise_level=0.04,
        bg_amplitude=0.40,
        blob_amp_range=(0.35, 0.75),
        blob_sigma_px=1.7,
    )


@dataclass
class ExperimentConfig:
    seed: int = 0
    source: DomainSpec = field(default_factory=default_source_spec)
    target: DomainSpec = field(default_factory=default_target_spec)
    model: ModelConfig = field(default_factory=ModelConfig)
    hyper: HyperParams = field(default_factory=HyperParams)
    n_source: int = 512
    n_target: int = 512
    n_background: int = 256
    n_eval: int = 128
    occlusion_mix: float = 0.0   # fraction of occluded/truncated samples

    def __post_init__(self):
        check_field_types(self)
        for name in ("n_source", "n_target", "n_background"):
            if getattr(self, name) < 0:
                raise ValueError(f"ExperimentConfig.{name} must be nonnegative")
        if self.n_eval < 1:
            raise ValueError("ExperimentConfig.n_eval must be at least 1")
        if not 0.0 <= self.occlusion_mix <= 1.0:
            raise ValueError("ExperimentConfig.occlusion_mix must be in [0, 1]")

    def save(self, path):
        with open(path, "w") as f:
            json.dump(asdict(self), f, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path):
        """Read a config written by ``save``. A missing key keeps its
        default; an unknown key at any level raises TypeError."""
        with open(path) as f:
            return _build(cls, json.load(f), SECTIONS)


# the nested sections of an experiment config: key -> class
SECTIONS = {"source": DomainSpec, "target": DomainSpec, "model": ModelConfig,
            "hyper": HyperParams}


def _build(cls, doc, sections):
    """``cls(**doc)``, with each value under a ``sections`` key built into
    its own class first."""
    if not isinstance(doc, dict):
        raise TypeError(f"{cls.__name__} must be a JSON object, "
                        f"not {type(doc).__name__}")
    return cls(**{k: _build(sections[k], v, {}) if k in sections else v
                  for k, v in doc.items()})


def generate_splits(cfg, tree=None):
    """All six datasets of an experiment, deterministically derived from
    ``cfg.seed``: train/eval splits of source, target, and source-domain
    backgrounds."""
    tree = tree or default_tree()
    mc = cfg.model
    kw = dict(tree=tree, image_size=mc.image_size, heatmap_size=mc.heatmap_size,
              sigma=cfg.hyper.sigma)
    root = np.random.default_rng(cfg.seed)
    seeds = root.integers(0, 2 ** 63 - 1, size=6)

    def rng(i):
        return np.random.default_rng(int(seeds[i]))

    return {
        "source": build_dataset(cfg.source, cfg.n_source, cfg.occlusion_mix, rng(0), **kw),
        "target": build_dataset(cfg.target, cfg.n_target, cfg.occlusion_mix, rng(1), **kw),
        "background": build_dataset(cfg.source, cfg.n_background, 0.0, rng(2),
                                    backgrounds=True, **kw),
        "source_eval": build_dataset(cfg.source, cfg.n_eval, cfg.occlusion_mix, rng(3), **kw),
        "target_eval": build_dataset(cfg.target, cfg.n_eval, cfg.occlusion_mix, rng(4), **kw),
        "background_eval": build_dataset(cfg.source, max(cfg.n_eval // 2, 1), 0.0,
                                         rng(5), backgrounds=True, **kw),
    }
