"""Minimal reverse-mode feed-forward network core.

Dense layers with explicit forward/backward passes over float64 numpy
arrays.  Batches are row-major (n, features).  Layers may carry a binary
connectivity mask on their weights (used by autoregressive flow subnets):
construction zeroes the masked entries and their gradients are masked, so
they stay zero under Adam and every pass can use the weights as they are.
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
        if self.mask is not None:
            if self.mask.shape != self.weights.shape:
                raise ShapeError("mask shape must match weight shape")
            self.weights = self.weights * self.mask

    @property
    def in_dim(self):
        return self.weights.shape[1]

    @property
    def out_dim(self):
        return self.weights.shape[0]


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


def act_forward(u, kind, alpha):
    if kind == "identity":
        return u
    if kind == "relu":
        return np.maximum(u, 0.0)
    if kind == "leaky_relu":
        # equals where(u > 0, u, alpha u) for alpha in (0, 1), without the
        # per-element branch
        return np.maximum(u, alpha * u)
    if kind == "tanh":
        return np.tanh(u)
    return stable_sigmoid(u)


def act_grad(u, y, kind, alpha):
    # Derivative evaluated from the pre-activation u (and post-activation y
    # where that is cheaper).  relu/leaky kinks take the zero-side value.
    if kind == "identity":
        return 1.0
    if kind == "relu":
        return (u > 0.0).astype(np.float64)
    if kind == "leaky_relu":
        # alpha + (1 - alpha) rounds to exactly 1, so this is bitwise
        # where(u > 0, 1, alpha) without the per-element branch
        slope = (u > 0.0) * (1.0 - alpha)
        slope += alpha
        return slope
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
    u = x @ layer.weights.T + layer.bias
    return u, act_forward(u, layer.activation, layer.alpha)


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


def backward(net: MlpNet, caches, upstream: np.ndarray, *, params=True, inputs=True):
    """Reverse pass. upstream is dL/d(output), shape (n, out_dim).

    Returns (param_grads, input_grads): param_grads aligns with
    net.parameters(); input_grads is dL/d(batch), shape (n, in_dim).
    params=False skips the weight and bias gradients and inputs=False the
    layer-0 input gradient; a skipped part comes back as None.
    """
    if caches is None or len(caches) != len(net.layers):
        raise StateError("forward cache is missing or stale for this net")
    upstream = np.asarray(upstream, dtype=np.float64)
    n = caches[0][0].shape[0]
    if upstream.shape != (n, net.out_dim):
        raise ShapeError(
            f"upstream shape {upstream.shape} does not match output ({n}, {net.out_dim})"
        )
    grads = [None] * (2 * len(net.layers)) if params else None
    g = upstream
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        x, u, y = caches[k]
        du = g * act_grad(u, y, layer.activation, layer.alpha)
        if params:
            dw = du.T @ x
            if layer.mask is not None:
                dw *= layer.mask
            grads[2 * k] = dw
            grads[2 * k + 1] = du.sum(axis=0)
        if k > 0 or inputs:
            g = du @ layer.weights
    return grads, g if inputs else None


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
        _, g_in = backward(net, caches, one_hot, params=False)
        rows.append(g_in[0])
    return np.vstack(rows)


# Bytes of one block's stacked adjoints in jacobian_batch; the block size
# in examples follows from the net's shape.
_JACOBIAN_BLOCK_BYTES = 2 << 20


def jacobian_batch(net: MlpNet, latents: np.ndarray):
    """Per-example input Jacobians for a whole batch, shape (n, out, in).

    One forward pass, then one reverse pass over stacked adjoints with no
    parameter gradients: row (i, m) of the stack is example i's adjoint
    for output m.  At the top layer that row is act'(u_i)[m] * W[m], the
    one-hot product exactly; each lower layer is one elementwise multiply
    and one matmul.  Examples go through in blocks that keep the stack
    near 2 MB.
    """
    latents = np.asarray(latents, dtype=np.float64)
    _, caches = forward(net, latents)
    n, out = latents.shape[0], net.out_dim
    act_grads = [np.broadcast_to(act_grad(u, y, layer.activation, layer.alpha), u.shape)
                 for layer, (_, u, y) in zip(net.layers, caches)]
    *lower, top = net.layers
    widest = max(layer.in_dim for layer in net.layers)
    block = max(1, _JACOBIAN_BLOCK_BYTES // (8 * out * widest))
    jac = np.empty((n, out, net.in_dim))
    for start in range(0, n, block):
        rows = slice(start, start + block)
        g = act_grads[-1][rows, :, None] * top.weights
        for layer, grad in zip(reversed(lower), reversed(act_grads[:-1])):
            g *= grad[rows, None, :]
            g = (g.reshape(-1, layer.out_dim) @ layer.weights).reshape(
                g.shape[0], out, layer.in_dim)
        jac[rows] = g
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
    """Adam moments for a parameter list, in one flat buffer.

    The given m and v are copied into the first two rows of the flat
    buffer and replaced by views of it, shaped like the parameters; the
    last two rows are scratch for adam_step.
    """

    lr: float
    m: list
    v: list
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    _flat: np.ndarray = field(init=False, repr=False, compare=False)
    _updates: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shapes = [np.shape(m) for m in self.m]
        if [np.shape(v) for v in self.v] != shapes:
            raise ShapeError("Adam moment shapes disagree")
        sizes = [math.prod(shape) for shape in shapes]
        self._flat = np.zeros((4, sum(sizes)))
        splits = np.cumsum(sizes)[:-1]

        def views(row, values):
            parts = [part.reshape(shape)
                     for part, shape in zip(np.split(row, splits), shapes)]
            for part, value in zip(parts, values):
                part[...] = value
            return parts

        self.m = views(self._flat[0], self.m)
        self.v = views(self._flat[1], self.v)
        self._updates = views(self._flat[3], ())


def init_adam(params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    # lr == 0 is allowed (a deliberate no-op optimizer); negative is not.
    if lr < 0:
        raise ValueError("learning rate must be nonnegative")
    zeros = [np.zeros(np.shape(p)) for p in params]
    return AdamState(lr=lr, m=zeros, v=zeros, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(params, grads, state: AdamState):
    """One bias-corrected Adam update, in place on params.

    Rejects the whole update (state untouched) if any gradient entry is
    non-finite.  The moments update as flat vectors, with the arithmetic
    of the per-element formula in the same order.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("params/grads/state lengths disagree")
    for p, g, m in zip(params, grads, state.m):
        if p.shape != g.shape or p.shape != m.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    m, v, g, s = state._flat
    if params:
        np.concatenate([np.ravel(x) for x in grads], out=g)
    if not np.isfinite(g).all():
        raise NumericError("non-finite gradient entry; update rejected")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
    m *= state.beta1
    np.multiply(g, 1.0 - state.beta1, out=s)
    m += s
    np.multiply(g, g, out=s)
    s *= 1.0 - state.beta2
    v *= state.beta2
    v += s
    # s = lr (m / bc1) / (sqrt(v / bc2) + eps)
    np.divide(m, bc1, out=s)
    s *= state.lr
    np.divide(v, bc2, out=g)
    np.sqrt(g, out=g)
    g += state.eps
    s /= g
    for p, step in zip(params, state._updates):
        p -= step
    return params, state
