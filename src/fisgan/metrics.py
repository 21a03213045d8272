"""Proxy Frechet distance over a fixed feature map.

The extractor (raw pixels, PCA, or a small probe classifier) is fitted
once on real data and frozen; generated and real samples are then scored
by the closed-form Frechet distance between fitted Gaussian moments.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import linalg, nn
from .errors import InsufficientSampleError, ShapeError

log = logging.getLogger(__name__)

EXTRACTOR_KINDS = ("raw_pixels", "pca", "probe_net")


@dataclass
class FeatureExtractor:
    """Frozen feature map applied before moment fitting."""

    kind: str
    mean: np.ndarray | None = None  # centering vector for pca
    projection: np.ndarray | None = None  # (d, k) pca directions
    probe: nn.MlpNet | None = None  # classifier; penultimate layer = features

    def extract(self, samples):
        samples = np.asarray(samples, dtype=np.float64)
        if self.kind == "raw_pixels":
            return samples
        if self.kind == "pca":
            return (samples - self.mean) @ self.projection
        out, caches = nn.forward(self.probe, samples)
        return caches[-1][0]  # input to the final (logit) layer


@dataclass
class GaussianMoments:
    mean: np.ndarray
    cov: np.ndarray


def fit_extractor(kind, real_data, rng, pca_k=32, labels=None,
                  probe_epochs=5, probe_target=0.9):
    """Fit the chosen extractor on real data only.

    pca reduces k to the data dimension (with a warning) when asked for
    more directions than exist; probe_net trains a small classifier with
    Adam until it reaches the target train accuracy or the epoch cap.
    """
    real_data = np.asarray(real_data, dtype=np.float64)
    if real_data.ndim != 2 or real_data.shape[0] == 0:
        raise ShapeError("real data must be a nonempty (n, d) array")
    if kind == "raw_pixels":
        return FeatureExtractor(kind="raw_pixels")
    if kind == "pca":
        d = real_data.shape[1]
        k = pca_k
        if k > d:
            log.warning("pca rank reduced from %d to data dimension %d", k, d)
            k = d
        mean = real_data.mean(axis=0)
        centered = real_data - mean
        cov = centered.T @ centered / max(1, real_data.shape[0] - 1)
        values, vecs = linalg.sym_eig(cov)
        return FeatureExtractor(kind="pca", mean=mean, projection=vecs[:, :k])
    if kind == "probe_net":
        if labels is None:
            raise ShapeError("probe_net extractor needs dataset labels")
        return _fit_probe(real_data, np.asarray(labels, dtype=np.int64), rng,
                          probe_epochs, probe_target)
    raise ValueError(f"unknown extractor kind {kind!r}")


def _fit_probe(data, labels, rng, epochs, target_acc):
    n_classes = int(labels.max()) + 1
    net = nn.build_mlp(
        rng, [data.shape[1], 64, 32, n_classes], ["leaky_relu", "leaky_relu", "identity"]
    )
    adam = nn.init_adam(net.parameters(), lr=1e-3)
    one_hot = np.eye(n_classes)[labels]
    batch = 128
    for epoch in range(epochs):
        order = rng.permutation(data.shape[0])
        for start in range(0, data.shape[0], batch):
            idx = order[start : start + batch]
            logits, cache = nn.forward(net, data[idx])
            shifted = logits - logits.max(axis=1, keepdims=True)
            soft = np.exp(shifted)
            soft /= soft.sum(axis=1, keepdims=True)
            grads, _ = nn.backward(net, cache, (soft - one_hot[idx]) / len(idx))
            nn.adam_step(net.parameters(), grads, adam)
        logits, _ = nn.forward(net, data)
        acc = float(np.mean(logits.argmax(axis=1) == labels))
        if acc >= target_acc:
            break
    if acc < target_acc:
        log.warning("probe classifier stopped at train accuracy %.3f", acc)
    return FeatureExtractor(kind="probe_net", probe=net)


def fit_moments(features, ridge=1e-6):
    """Sample mean and (rows-1)-normalized covariance plus ridge * I."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 2:
        raise InsufficientSampleError("need at least two rows to fit moments")
    mean = features.mean(axis=0)
    centered = features - mean
    cov = centered.T @ centered / (features.shape[0] - 1)
    cov = 0.5 * (cov + cov.T) + ridge * np.eye(features.shape[1])
    return GaussianMoments(mean=mean, cov=cov)


def frechet_distance(a: GaussianMoments, b: GaussianMoments):
    """Closed-form Frechet distance between two Gaussians.

    ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a^1/2 S_b S_a^1/2)^1/2),
    with tiny negative rounding results clamped to zero.
    """
    if a.mean.shape != b.mean.shape:
        raise ShapeError("moment dimensions do not match")
    diff = a.mean - b.mean
    root_a = linalg.sqrtm_psd(a.cov)
    inner = root_a @ b.cov @ root_a
    cross = linalg.sqrtm_psd(0.5 * (inner + inner.T))
    value = float(diff @ diff + np.trace(a.cov + b.cov - 2.0 * cross))
    return max(value, 0.0)


def proxy_fid(gen_samples, real_samples, extractor: FeatureExtractor, ridge=1e-6):
    """Frechet distance between generated and real samples in feature space."""
    gen_feats = extractor.extract(gen_samples)
    real_feats = extractor.extract(real_samples)
    return frechet_distance(fit_moments(gen_feats, ridge), fit_moments(real_feats, ridge))
