"""Experiment file parsing: a JSON document mapping onto TrainConfig plus
a dataset source, eval options, and an output directory.

Unknown keys are rejected everywhere.  Command-line overrides beat file
values; presets sit in between.  The effective config is echoed into the
run directory and the checkpoint, and its hash names the run by default.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np

from . import data
from .errors import ConfigError
from .train import EvalOptions, TrainConfig, parse_fields

_DATASET_STREAM = 4

PRESETS = {
    # refresh schedule presets: frequent shallow fits vs rare deep fits
    "fast-refresh": {"refresh_t": 10, "flow_epochs": 5},
    "slow-refresh": {"refresh_t": 50, "flow_epochs": 50},
}


@dataclasses.dataclass(frozen=True)
class SyntheticSource:
    kind: str
    spec: data.SyntheticSpec


@dataclasses.dataclass(frozen=True)
class IdxSource:
    kind: str
    images: str
    labels: str | None = None
    crop_border: int = 0
    downsample: int = 0

    def __post_init__(self):
        if min(self.crop_border, self.downsample) < 0:
            raise ConfigError("dataset crop_border and downsample must be non-negative")


def dataset_source(section):
    """The dataset section parsed by its kind; ConfigError if it is not one."""
    kind = section.get("kind")
    if kind not in ("synthetic", "idx"):
        raise ConfigError(f"dataset kind must be 'synthetic' or 'idx', not {kind!r}")
    return parse_fields(IdxSource if kind == "idx" else SyntheticSource, section, "dataset")


@dataclasses.dataclass(kw_only=True)
class ExperimentConfig:
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    # kept as written: the echo and the run-name hash read it
    dataset: dict
    eval: EvalOptions = dataclasses.field(default_factory=EvalOptions)
    out_dir: str = "runs"
    run_name: str | None = None
    # the directory relative dataset paths start from; not part of the file
    base_dir: str = dataclasses.field(default=".", init=False)

    def __post_init__(self):
        dataset_source(self.dataset)

    def effective_dict(self):
        return {k: v for k, v in dataclasses.asdict(self).items() if k != "base_dir"}

    def config_hash(self):
        blob = json.dumps(self.effective_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def resolved_run_name(self):
        return self.run_name or self.config_hash()


def load_experiment(path):
    """Parse and validate an experiment file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON: {err}")
    return experiment_from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def experiment_from_dict(raw, base_dir="."):
    """Parse and validate an experiment file's content or a checkpoint's echo."""
    cfg = parse_fields(ExperimentConfig, raw, "experiment")
    cfg.base_dir = base_dir
    return cfg


def apply_preset(cfg: ExperimentConfig, preset):
    if preset not in PRESETS:
        raise ConfigError(
            f"unknown preset {preset!r}; choices: {sorted(PRESETS)}"
        )
    cfg.train = dataclasses.replace(cfg.train, **PRESETS[preset])
    return cfg


def apply_overrides(cfg: ExperimentConfig, mode=None, seed=None, max_iters=None,
                    out=None, run_name=None):
    updates = {}
    if mode is not None:
        updates["mode"] = mode
    if seed is not None:
        updates["seed"] = seed
    if max_iters is not None:
        updates["max_iters"] = max_iters
    if updates:
        cfg.train = dataclasses.replace(cfg.train, **updates)
    if out is not None:
        cfg.out_dir = out
    if run_name is not None:
        cfg.run_name = run_name
    return cfg


def build_dataset(cfg: ExperimentConfig) -> data.Dataset:
    """Materialize the configured dataset (deterministic per seed)."""
    source = dataset_source(cfg.dataset)
    if isinstance(source, SyntheticSource):
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.train.seed, _DATASET_STREAM])
        )
        return data.make_synthetic(source.spec, rng)
    images, labels = source.images, source.labels
    if not os.path.isabs(images):
        images = os.path.join(cfg.base_dir, images)
    if labels is not None and not os.path.isabs(labels):
        labels = os.path.join(cfg.base_dir, labels)
    if not os.path.exists(images):
        raise ConfigError(f"dataset.images path does not exist: {images}")
    if labels is not None and not os.path.exists(labels):
        raise ConfigError(f"dataset.labels path does not exist: {labels}")
    loaded = data.load_idx(images, labels)
    if source.crop_border:
        loaded = data.crop_border(loaded, source.crop_border)
    if source.downsample:
        loaded = data.downsample(loaded, source.downsample)
    return loaded
