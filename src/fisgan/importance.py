"""Jacobian-norm importance weights, count allocation, and the
conditional-Gaussian dataset the flow is fit on.

The pipeline: last-batch norms become weights g_j / sum(g), the
augmentation budget N is split into per-source counts by largest-remainder
rounding, and each source latent spawns its count of unit-Gaussian draws
centered on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBatchError, ShapeError


@dataclass
class LatentBatch:
    """Latent points with their Jacobian norms."""

    latents: np.ndarray  # (n, d)
    norms: np.ndarray  # (n,)

    def __post_init__(self):
        self.latents = np.asarray(self.latents, dtype=np.float64)
        self.norms = np.asarray(self.norms, dtype=np.float64)
        if self.latents.ndim != 2 or self.norms.shape != (self.latents.shape[0],):
            raise ShapeError("norms must be one value per latent row")
        if np.any(self.norms < 0):
            raise ShapeError("norms must be nonnegative")


@dataclass
class AugmentationPlan:
    """Per-source draw counts summing exactly to the budget."""

    counts: np.ndarray  # (n,) nonnegative ints
    total: int

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.sum() != self.total:
            raise ShapeError("allocation counts must sum to the budget")


def importance_weights(norms):
    """Normalize nonnegative norms into weights g_j / sum(g)."""
    norms = np.asarray(norms, dtype=np.float64)
    if norms.ndim != 1 or norms.shape[0] == 0:
        raise ShapeError("norms must be a nonempty vector")
    if np.any(norms < 0) or not np.all(np.isfinite(norms)):
        raise ShapeError("norms must be finite and nonnegative")
    total = norms.sum()
    if total <= 0.0:
        raise DegenerateBatchError("all Jacobian norms are zero")
    w = norms / total
    return w / w.sum()  # renormalize the rounding residue away


def allocate_counts(weights, total):
    """Largest-remainder rounding of total * weights; ties break toward
    the lower index so the split is deterministic."""
    weights = np.asarray(weights, dtype=np.float64)
    if total < 1:
        raise ShapeError("budget must be at least 1")
    raw = total * weights
    base = np.floor(raw).astype(np.int64)
    leftover = int(total - base.sum())
    if leftover > 0:
        remainders = raw - base
        order = np.lexsort((np.arange(len(weights)), -remainders))
        base[order[:leftover]] += 1
    return AugmentationPlan(counts=base, total=int(total))


def augment(latents, plan: AugmentationPlan, rng):
    """Unit-Gaussian draws around each source latent, source-major order."""
    latents = np.asarray(latents, dtype=np.float64)
    if plan.counts.shape[0] != latents.shape[0]:
        raise ShapeError("plan rows must match latent rows")
    if plan.total == 0:
        return np.empty((0, latents.shape[1]))
    centers = np.repeat(latents, plan.counts, axis=0)
    return centers + rng.standard_normal(centers.shape)


def build_flow_dataset(batch: LatentBatch, total, rng):
    """Weights -> counts -> conditional-Gaussian draws, as one call."""
    plan = allocate_counts(importance_weights(batch.norms), total)
    return augment(batch.latents, plan, rng)
