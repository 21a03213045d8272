"""Adversarial training engine with optional flow-transported noise.

Baseline mode draws generator noise from N(0, I) every step.  fis mode
starts identically, then every ``refresh_t`` batches converts the last
batch's per-example Jacobian norms into an importance-weighted latent
dataset, fits a fresh flow to it by maximum likelihood, and draws all
subsequent noise through the flow's inverse.

Batch indexing: batches are 0..max_iters, all run by one loop of
adversarial steps; batch 0 (the warm start) is the loop's first step, and
a fresh state has no flow, so its noise is standard normal.
``TrainState.iteration`` counts completed batches, so it always equals the
index of the next batch.  The loop in ``train`` alone owns the schedule: it
hands the latents of batch i to ``flow_refresh`` exactly when fis mode is
on, i > 0 and i % refresh_t == 0, and emits metric rows at batch 0 and
every eval_interval batches.

Randomness is split across three independent streams so that runs remain
comparable and resumable: a model stream (weights, noise, flow fitting),
a data stream (real-batch indices; identical across ablation variants),
and per-evaluation child streams keyed by (seed, iteration) that never
touch the training streams.
"""

from __future__ import annotations

import functools
import logging
import math
import sys
import time
import typing
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from . import flows, importance, metrics, nn, norms
from .data import Dataset, MetricRow
from .errors import ConfigError, DegenerateBatchError, TrainError

log = logging.getLogger(__name__)

MODES = ("baseline", "fis")

G_HIDDEN = (128, 256)
D_HIDDEN = (256, 128)

_MODEL_STREAM = 1
_DATA_STREAM = 2
_EVAL_STREAM = 3


@dataclass(frozen=True)
class TrainConfig:
    """Full experiment description; every field has a working default."""

    latent_dim: int = 64
    refresh_t: int = 10
    flow_epochs: int = 5
    flow_batch: int = 128
    augment_N: int = 512  # 8 x batch_size
    norm_kind: str = "frobenius"
    flow_kind: str = "realnvp"
    lr_g: float = 1e-3
    lr_d: float = 1e-4
    lr_flow: float = 1e-3
    batch_size: int = 64
    max_iters: int = 1000
    seed: int = 0
    mode: str = "fis"
    flow_depth: int = 6
    flow_hidden: int = 64

    def __post_init__(self):
        if self.latent_dim < 2:
            raise ConfigError("latent_dim must be at least 2")
        if self.refresh_t < 1:
            raise ConfigError("refresh_t must be at least 1")
        if min(self.lr_g, self.lr_d, self.lr_flow) <= 0:
            raise ConfigError("all learning rates must be positive")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.norm_kind not in norms.NORM_KINDS:
            raise ConfigError(f"unknown norm kind {self.norm_kind!r}")
        if self.flow_kind not in flows.FLOW_KINDS:
            raise ConfigError(f"unknown flow kind {self.flow_kind!r}")
        if min(self.batch_size, self.augment_N, self.flow_batch, self.flow_depth,
               self.flow_hidden) < 1:
            raise ConfigError("batch_size, augment_N, flow_batch, flow_depth and "
                              "flow_hidden must be at least 1")
        if self.max_iters < 0 or self.flow_epochs < 0:
            raise ConfigError("max_iters and flow_epochs must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass(frozen=True)
class EvalOptions:
    interval: int = 100
    samples: int = 2048
    extractor: str = "pca"
    pca_k: int = 32
    ridge: float = 1e-6
    grid_count: int = 64
    grid_cols: int = 8

    def __post_init__(self):
        if self.interval < 1 or self.samples < 2:
            raise ConfigError("eval interval must be >= 1 and samples >= 2")
        if min(self.pca_k, self.grid_count, self.grid_cols) < 1 or self.ridge < 0:
            raise ConfigError("eval pca_k, grid_count and grid_cols must be at least 1, "
                              "ridge non-negative")
        if self.extractor not in metrics.EXTRACTOR_KINDS:
            raise ConfigError(f"unknown extractor kind {self.extractor!r}")


_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "dict": dict, "list": list}


def is_json_type(value, kind):
    """True when a JSON value fits a field annotated kind, such as "int" or
    "str | None": a bool is never a number, and a float field takes only
    finite values (json.load reads NaN, Infinity and ints of any size)."""
    if value is None and kind.endswith(" | None"):
        return True
    kind = kind.removesuffix(" | None")
    if not isinstance(value, _JSON_TYPES[kind]) or isinstance(value, bool):
        return False
    return kind != "float" or abs(value) <= sys.float_info.max


@functools.cache
def _field_kinds(cls):
    """name -> JSON kind, or the dataclass it holds, for each field cls
    takes on construction."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] if is_dataclass(hints[f.name]) else f.type
            for f in fields(cls) if f.init}


def parse_fields(cls, section, where):
    """cls built from a JSON object, for experiment files and checkpoint
    headers alike; a field that holds a dataclass is parsed from its own
    object.  ConfigError on an unknown name, a wrong JSON type, a missing
    field that has no default, or a value cls rejects."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    kinds = _field_kinds(cls)
    values = {}
    for name, value in section.items():
        if name not in kinds:
            raise ConfigError(f"unknown key {name!r} in {where}")
        kind = kinds[name]
        if not isinstance(kind, str):
            value = parse_fields(kind, value, f"{where}.{name}")
        elif not is_json_type(value, kind):
            raise ConfigError(f"{where}.{name} must be {kind}, not {value!r}")
        values[name] = value
    try:
        return cls(**values)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from err


def differing_fields(a, b):
    """Names of the fields in which dataclasses a and b hold different values."""
    return [f.name for f in fields(a) if getattr(a, f.name) != getattr(b, f.name)]


def resumed_config(config: TrainConfig, saved: TrainState) -> TrainConfig:
    """The saved state's config run on to config.max_iters; ConfigError if
    config differs from it in any other field, or if max_iters is below the
    last batch the state completed (an equal one runs nothing)."""
    changed = [n for n in differing_fields(config, saved.config) if n != "max_iters"]
    if changed:
        raise ConfigError(f"resume changes the checkpoint's {', '.join(changed)}")
    if config.max_iters < saved.iteration - 1:
        raise ConfigError(f"resume to max_iters {config.max_iters} is below the "
                          f"checkpoint's last completed batch {saved.iteration - 1}")
    return replace(saved.config, max_iters=config.max_iters)


@dataclass
class TrainState:
    config: TrainConfig
    gen: nn.MlpNet
    disc: nn.MlpNet
    adam_g: nn.AdamState
    adam_d: nn.AdamState
    model_rng: np.random.Generator
    data_rng: np.random.Generator
    out_mid: float
    out_half: float
    iteration: int = 0
    flow: flows.FlowModel | None = None
    refresh_count: int = 0
    refresh_ms_total: float = 0.0


@dataclass
class RunSummary:
    rows: list  # the MetricRows this call emitted
    state: TrainState


def init_state(config: TrainConfig, dataset: Dataset) -> TrainState:
    lo, hi = dataset.pixel_range
    model_rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, _MODEL_STREAM])
    )
    data_rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, _DATA_STREAM])
    )
    gen = nn.build_mlp(
        model_rng,
        [config.latent_dim, *G_HIDDEN, dataset.dim],
        ["leaky_relu", "leaky_relu", "tanh"],
    )
    disc = nn.build_mlp(
        model_rng,
        [dataset.dim, *D_HIDDEN, 1],
        ["leaky_relu", "leaky_relu", "identity"],
    )
    return TrainState(
        config=config,
        gen=gen,
        disc=disc,
        adam_g=nn.init_adam(gen.parameters(), lr=config.lr_g),
        adam_d=nn.init_adam(disc.parameters(), lr=config.lr_d),
        model_rng=model_rng,
        data_rng=data_rng,
        out_mid=(hi + lo) / 2.0,
        out_half=(hi - lo) / 2.0,
    )


def eval_rng(seed, iteration):
    """Per-evaluation stream, independent of the training streams."""
    return np.random.default_rng(np.random.SeedSequence([seed, _EVAL_STREAM, iteration]))


def gen_forward(state: TrainState, z):
    """Generator output in pixel range, plus the net cache."""
    raw, cache = nn.forward(state.gen, z)
    return state.out_mid + state.out_half * raw, cache


def gen_predict(state: TrainState, z):
    """Generator output in pixel range, without the net cache."""
    return state.out_mid + state.out_half * nn.predict(state.gen, z)


def sample_noise(state: TrainState, n, rng):
    """n latent rows from rng under the current law: the fitted flow when
    present (fis mode after a refresh), otherwise N(0, I)."""
    if n < 1:
        raise ValueError("need at least one noise row")
    if state.flow is not None:
        return flows.sample(state.flow, n, rng)
    return rng.standard_normal((n, state.config.latent_dim))


def draw_real_batch(state: TrainState, dataset: Dataset):
    idx = state.data_rng.integers(0, dataset.rows, size=state.config.batch_size)
    return dataset.samples[idx]


def _update_discriminator(state: TrainState, x_real, x_fake):
    n = x_real.shape[0]
    stacked = np.vstack([x_real, x_fake])
    logits, cache = nn.forward(state.disc, stacked)
    u = logits[:, 0]
    u_real, u_fake = u[:n], u[n:]
    # -log s(u) = softplus(-u) and -log(1 - s(u)) = softplus(u)
    d_loss = float(np.logaddexp(0.0, -u_real).mean() + np.logaddexp(0.0, u_fake).mean())
    # gradient of the two batch means w.r.t. the logits
    upstream = np.empty((2 * n, 1))
    upstream[:n, 0] = (nn.stable_sigmoid(u_real) - 1.0) / n
    upstream[n:, 0] = nn.stable_sigmoid(u_fake) / n
    grads, _ = nn.backward(state.disc, cache, upstream, inputs=False)
    nn.adam_step(state.disc.parameters(), grads, state.adam_d)
    return d_loss


def _update_generator(state: TrainState, x_fake, g_cache):
    """G update on the fakes the D update just scored, reusing their
    generator cache: the D update does not touch G, so both are current."""
    logits, d_cache = nn.forward(state.disc, x_fake)
    u = logits[:, 0]
    n = x_fake.shape[0]
    # non-saturating loss: minimize mean -log D = softplus(-u)
    g_loss = float(np.logaddexp(0.0, -u).mean())
    d_up = (nn.stable_sigmoid(u) - 1.0)[:, None] / n
    _, g_x = nn.backward(state.disc, d_cache, d_up, params=False)
    grads, _ = nn.backward(state.gen, g_cache, g_x * state.out_half, inputs=False)
    nn.adam_step(state.gen.parameters(), grads, state.adam_g)
    return g_loss


def adversarial_step(state: TrainState, real_batch):
    """One D update and one G update on the same noise batch; returns the
    two losses and the batch's latents."""
    latents = sample_noise(state, state.config.batch_size, state.model_rng)
    x_fake, g_cache = gen_forward(state, latents)
    d_loss = _update_discriminator(state, real_batch, x_fake)
    g_loss = _update_generator(state, x_fake, g_cache)
    if not (math.isfinite(d_loss) and math.isfinite(g_loss)):
        raise TrainError(
            f"non-finite loss at iteration {state.iteration}: "
            f"d={d_loss} g={g_loss}",
            iteration=state.iteration,
        )
    state.iteration += 1
    return d_loss, g_loss, latents


def flow_refresh(state: TrainState, latents, clock=time.perf_counter):
    """Re-fit the noise flow from the Jacobian norms of latents, the batch
    the step just trained on.

    ``train`` decides when a refresh runs; this function only does it.  A
    degenerate batch (all-zero norms) logs a warning and leaves the
    previous flow in place.
    """
    cfg = state.config
    start = clock()
    raw = norms.batch_norms(state.gen, latents, cfg.norm_kind)
    batch = importance.LatentBatch(latents=latents, norms=raw * state.out_half)
    try:
        train_set = importance.build_flow_dataset(batch, cfg.augment_N, state.model_rng)
    except DegenerateBatchError:
        log.warning("batch %d has all-zero Jacobian norms; refresh skipped",
                    state.iteration - 1)
        return state
    state.flow = flows.build_flow(
        cfg.flow_kind,
        cfg.latent_dim,
        state.model_rng,
        depth=cfg.flow_depth,
        hidden=cfg.flow_hidden,
    )
    flows.fit(
        state.flow,
        train_set,
        epochs=cfg.flow_epochs,
        batch_size=min(cfg.flow_batch, train_set.shape[0]),
        adam=flows.flow_adam(state.flow, lr=cfg.lr_flow),
        rng=state.model_rng,
    )
    state.refresh_count += 1
    state.refresh_ms_total += (clock() - start) * 1000.0
    return state


@dataclass
class EvalContext:
    extractor: metrics.FeatureExtractor
    real_subset: np.ndarray
    options: EvalOptions
    grid_side: int | None


def build_eval_context(config: TrainConfig, dataset: Dataset,
                       options: EvalOptions) -> EvalContext:
    """Fit the frozen feature extractor and pick the fixed real eval set."""
    rng = eval_rng(config.seed, 0)
    extractor = metrics.fit_extractor(
        options.extractor,
        dataset.samples,
        rng,
        pca_k=options.pca_k,
        labels=dataset.labels,
    )
    n = min(options.samples, dataset.rows)
    if dataset.rows > n:
        idx = rng.choice(dataset.rows, size=n, replace=False)
        subset = dataset.samples[idx]
    else:
        subset = dataset.samples
    side = math.isqrt(dataset.dim)
    grid_side = side if side * side == dataset.dim else None
    return EvalContext(extractor=extractor, real_subset=subset,
                        options=options, grid_side=grid_side)


def evaluate(state: TrainState, ctx: EvalContext, iteration, n):
    """Proxy Frechet distance of n samples against the first n rows of the
    real eval set, at this iteration, on eval-only randomness."""
    z = sample_noise(state, n, eval_rng(state.config.seed, iteration))
    samples = gen_predict(state, z)
    fid = metrics.proxy_fid(samples, ctx.real_subset[:n], ctx.extractor,
                            ridge=ctx.options.ridge)
    return fid, samples


def train(config: TrainConfig, dataset: Dataset, metrics_sink=None,
          image_sink=None, eval_options: EvalOptions | None = None,
          clock=None, state: TrainState | None = None) -> RunSummary:
    """Batches 0..max_iters with scheduled refreshes and periodic metric
    emission.

    metrics_sink receives each MetricRow; image_sink, when given and the
    data is square-image shaped, receives (iteration, samples, side).
    Passing a prepared ``state`` (from a checkpoint) resumes mid-run; see
    resumed_config.
    """
    if dataset.rows == 0:
        raise ConfigError("dataset is empty")
    eval_options = eval_options or EvalOptions()
    clock = clock or time.perf_counter
    if state is None:
        state = init_state(config, dataset)
    else:
        state.config = resumed_config(config, state)
    config = state.config  # the run's one config from here on
    ctx = build_eval_context(config, dataset, eval_options)
    start = clock()
    rows = []

    def emit(iteration, d_loss, g_loss):
        fid, samples = evaluate(state, ctx, iteration, ctx.real_subset.shape[0])
        row = MetricRow(
            iteration=iteration,
            mode=config.mode,
            flow_kind=config.flow_kind,
            norm_kind=config.norm_kind,
            seed=config.seed,
            proxy_fid=fid,
            d_loss=d_loss,
            g_loss=g_loss,
            wall_ms=(clock() - start) * 1000.0,
        )
        rows.append(row)
        if metrics_sink is not None:
            metrics_sink(row)
        if image_sink is not None and ctx.grid_side is not None:
            count = min(ctx.options.grid_count, samples.shape[0])
            image_sink(iteration, samples[:count], ctx.grid_side)

    while state.iteration <= config.max_iters:
        i = state.iteration
        d_loss, g_loss, latents = adversarial_step(state, draw_real_batch(state, dataset))
        if config.mode == "fis" and i > 0 and i % config.refresh_t == 0:
            flow_refresh(state, latents, clock=clock)
        if i % eval_options.interval == 0:
            emit(i, d_loss, g_loss)
    return RunSummary(rows=rows, state=state)
