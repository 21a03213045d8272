"""Minimal reverse-mode feed-forward network core.

Dense layers with explicit forward/backward passes over float64 numpy
arrays.  Batches are row-major (n, features).  Layers may carry a binary
connectivity mask on their weights (used by autoregressive flow subnets);
masked entries stay zero through init, forward, and gradient updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError, StateError

ACTIVATIONS = ("identity", "relu", "leaky_relu", "tanh", "sigmoid")


def stable_sigmoid(u):
    """Numerically stable logistic function."""
    out = np.empty_like(u, dtype=np.float64)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


@dataclass
class DenseLayer:
    """Affine map plus pointwise activation: y = act(x @ W.T + b)."""

    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "identity"
    alpha: float = 0.2  # leaky_relu negative slope, in (0, 1)
    mask: np.ndarray | None = None  # optional binary (out, in) connectivity

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ShapeError("bias length must match weight rows")
        if self.mask is not None and self.mask.shape != self.weights.shape:
            raise ShapeError("mask shape must match weight shape")

    @property
    def in_dim(self):
        return self.weights.shape[1]

    @property
    def out_dim(self):
        return self.weights.shape[0]

    def effective_weights(self):
        if self.mask is None:
            return self.weights
        return self.weights * self.mask


@dataclass
class MlpNet:
    """Ordered dense layers; consecutive dimensions must chain."""

    layers: list[DenseLayer]

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(
                    f"layer output {a.out_dim} does not chain into input {b.in_dim}"
                )

    @property
    def in_dim(self):
        return self.layers[0].in_dim

    @property
    def out_dim(self):
        return self.layers[-1].out_dim

    def parameters(self):
        """Flat parameter list: [W0, b0, W1, b1, ...] (live references)."""
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.bias)
        return out


def _act_forward(u, kind, alpha):
    if kind == "identity":
        return u
    if kind == "relu":
        return np.maximum(u, 0.0)
    if kind == "leaky_relu":
        return np.where(u > 0.0, u, alpha * u)
    if kind == "tanh":
        return np.tanh(u)
    return stable_sigmoid(u)


def _act_grad(u, y, kind, alpha):
    # Derivative evaluated from the pre-activation u (and post-activation y
    # where that is cheaper).  relu/leaky kinks take the zero-side value.
    if kind == "identity":
        return 1.0
    if kind == "relu":
        return (u > 0.0).astype(np.float64)
    if kind == "leaky_relu":
        return np.where(u > 0.0, 1.0, alpha)
    if kind == "tanh":
        return 1.0 - y * y
    return y * (1.0 - y)


def _check_batch(net: MlpNet, batch):
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != net.in_dim:
        raise ShapeError(
            f"batch shape {batch.shape} incompatible with input size {net.in_dim}"
        )
    return batch


def _layer_forward(layer: DenseLayer, x):
    """One layer: (pre-activation, post-activation)."""
    u = x @ layer.effective_weights().T + layer.bias
    return u, _act_forward(u, layer.activation, layer.alpha)


def forward(net: MlpNet, batch: np.ndarray):
    """Run the net on a (n, in_dim) batch.

    Returns (output, cache); the cache holds per-layer inputs and
    pre/post activations and is consumed by :func:`backward`.
    """
    caches = []
    x = _check_batch(net, batch)
    for layer in net.layers:
        u, y = _layer_forward(layer, x)
        caches.append((x, u, y))
        x = y
    return x, caches


def predict(net: MlpNet, batch: np.ndarray):
    """The output of :func:`forward`, without keeping the per-layer cache."""
    x = _check_batch(net, batch)
    for layer in net.layers:
        _, x = _layer_forward(layer, x)
    return x


def backward(net: MlpNet, caches, upstream: np.ndarray):
    """Reverse pass. upstream is dL/d(output), shape (n, out_dim).

    Returns (param_grads, input_grads): param_grads aligns with
    net.parameters(); input_grads is dL/d(batch), shape (n, in_dim).
    """
    if caches is None or len(caches) != len(net.layers):
        raise StateError("forward cache is missing or stale for this net")
    upstream = np.asarray(upstream, dtype=np.float64)
    n = caches[0][0].shape[0]
    if upstream.shape != (n, net.out_dim):
        raise ShapeError(
            f"upstream shape {upstream.shape} does not match output ({n}, {net.out_dim})"
        )
    grads = [None] * (2 * len(net.layers))
    g = upstream
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        x, u, y = caches[k]
        du = g * _act_grad(u, y, layer.activation, layer.alpha)
        dw = du.T @ x
        if layer.mask is not None:
            dw *= layer.mask
        grads[2 * k] = dw
        grads[2 * k + 1] = du.sum(axis=0)
        g = du @ layer.effective_weights()
    return grads, g


def jacobian_wrt_input(net: MlpNet, z: np.ndarray):
    """Jacobian of the net output w.r.t. a single input point z.

    Entry (m, d) is d output_m / d z_d, assembled from out_dim reverse
    passes with one-hot upstream rows over one shared forward cache.
    """
    z = np.asarray(z, dtype=np.float64).ravel()
    if z.shape[0] != net.in_dim:
        raise ShapeError(f"input length {z.shape[0]} != net input size {net.in_dim}")
    _, caches = forward(net, z[None, :])
    rows = []
    for m in range(net.out_dim):
        one_hot = np.zeros((1, net.out_dim))
        one_hot[0, m] = 1.0
        _, g_in = backward(net, caches, one_hot)
        rows.append(g_in[0])
    return np.vstack(rows)


def jacobian_batch(net: MlpNet, latents: np.ndarray):
    """Per-example input Jacobians for a whole batch, shape (n, out, in).

    Uses out_dim reverse passes total (each pass carries every row's
    one-hot simultaneously), so cost does not scale with batch size.
    """
    latents = np.asarray(latents, dtype=np.float64)
    _, caches = forward(net, latents)
    n = latents.shape[0]
    jac = np.empty((n, net.out_dim, net.in_dim))
    for m in range(net.out_dim):
        upstream = np.zeros((n, net.out_dim))
        upstream[:, m] = 1.0
        _, g_in = backward(net, caches, upstream)
        jac[:, m, :] = g_in
    return jac


def glorot_uniform(rng, out_dim, in_dim):
    lim = math.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-lim, lim, size=(out_dim, in_dim))


def build_mlp(rng, sizes, activations, alpha=0.2, masks=None, zero_last=False):
    """Construct an MlpNet with Glorot-uniform weights and zero biases.

    sizes: [in, h1, ..., out]; activations: one per layer.  zero_last
    zeroes the final layer's weights (identity-at-init subnets).
    """
    if len(activations) != len(sizes) - 1:
        raise ValueError("need one activation per layer")
    layers = []
    for k in range(len(sizes) - 1):
        w = glorot_uniform(rng, sizes[k + 1], sizes[k])
        mask = None if masks is None else masks[k]
        if zero_last and k == len(sizes) - 2:
            w = np.zeros_like(w)
        if mask is not None:
            w = w * mask
        layers.append(
            DenseLayer(
                weights=w,
                bias=np.zeros(sizes[k + 1]),
                activation=activations[k],
                alpha=alpha,
                mask=mask,
            )
        )
    return MlpNet(layers)


@dataclass
class AdamState:
    """Adam moment buffers mirroring a parameter list."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def init_adam(params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    # lr == 0 is allowed (a deliberate no-op optimizer); negative is not.
    if lr < 0:
        raise ValueError("learning rate must be nonnegative")
    return AdamState(
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
        step=0,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def adam_step(params, grads, state: AdamState):
    """One bias-corrected Adam update, in place on params.

    Rejects the whole update (state untouched) if any gradient entry is
    non-finite.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("params/grads/state lengths disagree")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient entry; update rejected")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return params, state
