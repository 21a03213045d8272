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
from .train import EvalOptions, TrainConfig, is_json_type, parse_fields

_DATASET_STREAM = 4

PRESETS = {
    # refresh schedule presets: frequent shallow fits vs rare deep fits
    "fast-refresh": {"refresh_t": 10, "flow_epochs": 5},
    "slow-refresh": {"refresh_t": 50, "flow_epochs": 50},
}

_DATASET_KEYS_SYNTH = {"kind", "spec"}
_DATASET_KEYS_IDX = {"kind", "images", "labels", "crop_border", "downsample"}
_TOP_KEYS = {"train", "dataset", "eval", "out_dir", "run_name"}


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {where}")


@dataclasses.dataclass
class ExperimentConfig:
    train: TrainConfig
    dataset: dict
    eval: EvalOptions
    out_dir: str = "runs"
    run_name: str | None = None
    base_dir: str = "."

    def validate(self):
        self.train.validate()
        self.eval.validate()
        _validate_dataset(self.dataset)
        return self

    def effective_dict(self):
        return {
            "train": dataclasses.asdict(self.train),
            "dataset": self.dataset,
            "eval": dataclasses.asdict(self.eval),
            "out_dir": self.out_dir,
            "run_name": self.run_name,
        }

    def config_hash(self):
        blob = json.dumps(self.effective_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def resolved_run_name(self):
        return self.run_name or self.config_hash()


def _validate_dataset(ds):
    if not isinstance(ds, dict) or "kind" not in ds:
        raise ConfigError("dataset section needs a 'kind'")
    if ds["kind"] == "synthetic":
        _reject_unknown(ds, _DATASET_KEYS_SYNTH, "dataset")
        parse_fields(data.SyntheticSpec, ds.get("spec"), "dataset.spec")
    elif ds["kind"] == "idx":
        _reject_unknown(ds, _DATASET_KEYS_IDX, "dataset")
        if not is_json_type(ds.get("images"), "str"):
            raise ConfigError("idx dataset needs an 'images' path string")
        if ds.get("labels") is not None and not is_json_type(ds["labels"], "str"):
            raise ConfigError("dataset.labels must be a path")
        for key in ("crop_border", "downsample"):
            value = ds.get(key, 0)
            if not (is_json_type(value, "int") and value >= 0):
                raise ConfigError(f"dataset.{key} must be a non-negative int, "
                                  f"not {value!r}")
    else:
        raise ConfigError(f"unknown dataset kind {ds['kind']!r}")


def load_experiment(path):
    """Parse and validate an experiment file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON: {err}")
    return experiment_from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def experiment_from_dict(raw, base_dir="."):
    """Parse and validate an experiment file's content or a checkpoint's echo."""
    if not isinstance(raw, dict):
        raise ConfigError("experiment must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "experiment")
    if "dataset" not in raw:
        raise ConfigError("experiment file needs a 'dataset' section")
    if not is_json_type(raw.get("out_dir", "runs"), "str"):
        raise ConfigError(f"out_dir must be a string, not {raw['out_dir']!r}")
    if raw.get("run_name") is not None and not is_json_type(raw["run_name"], "str"):
        raise ConfigError(f"run_name must be a string, not {raw['run_name']!r}")
    cfg = ExperimentConfig(
        train=parse_fields(TrainConfig, raw.get("train", {}), "train"),
        dataset=raw["dataset"],
        eval=parse_fields(EvalOptions, raw.get("eval", {}), "eval"),
        out_dir=raw.get("out_dir", "runs"),
        run_name=raw.get("run_name"),
        base_dir=base_dir,
    )
    return cfg.validate()


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
    return cfg.validate()


def build_dataset(cfg: ExperimentConfig) -> data.Dataset:
    """Materialize the configured dataset (deterministic per seed)."""
    ds = cfg.dataset
    if ds["kind"] == "synthetic":
        spec = data.SyntheticSpec(**ds["spec"])
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.train.seed, _DATASET_STREAM])
        )
        return data.make_synthetic(spec, rng)
    images = ds["images"]
    labels = ds.get("labels")
    if not os.path.isabs(images):
        images = os.path.join(cfg.base_dir, images)
    if labels is not None and not os.path.isabs(labels):
        labels = os.path.join(cfg.base_dir, labels)
    if not os.path.exists(images):
        raise ConfigError(f"dataset.images path does not exist: {images}")
    if labels is not None and not os.path.exists(labels):
        raise ConfigError(f"dataset.labels path does not exist: {labels}")
    loaded = data.load_idx(images, labels)
    if ds.get("crop_border"):
        loaded = data.crop_border(loaded, ds["crop_border"])
    if ds.get("downsample"):
        loaded = data.downsample(loaded, ds["downsample"])
    return loaded
