"""Invertible flow stack with exact log-density and inverse-transport sampling.

Three layer families:

* ``CouplingLayer``: affine update of one coordinate subset conditioned on
  the complement.  Both directions are single parallel passes.
* ``AutoregressiveLayer``: one masked net emits per-dimension (shift,
  log-scale); output d depends only on inputs of strictly lower degree.
  The ``maf`` orientation evaluates densities in one parallel pass and
  samples sequentially; ``iaf`` is the same arithmetic run in the opposite
  orientation, so it samples in parallel and evaluates sequentially.
* ``PermutationLayer``: fixed coordinate shuffle, zero log-det.

Log-scales are passed through tanh and multiplied by ``scale_clamp``, which
keeps every per-layer determinant inside [exp(-clamp*d), exp(clamp*d)] and
makes the log-det arithmetic exact; any determinant that is ever formed as
a raw number is floored before taking its log (see ``safe_log_abs``).

Density convention (z = data side, h = base side):

    log q(z) = log N(forward(z); 0, I) + sum_layers log|det d f_i / d f_{i-1}|

Training maximizes this by plain reverse-mode chaining through the layer
stack; each layer's ``backward`` consumes the gradient w.r.t. its output
plus the per-row gradient w.r.t. its own log-det contribution.
"""

from __future__ import annotations

import math

import numpy as np

from . import nn
from .errors import NumericError, ShapeError

_DET_FLOOR = 1e-9

LOG_2PI = math.log(2.0 * math.pi)

FLOW_KINDS = ("realnvp", "maf", "iaf")


def safe_log_abs(x):
    """log|x| with |x| floored at 1e-9, for det-to-log conversions."""
    return np.log(np.maximum(np.abs(x), _DET_FLOOR))


class CouplingLayer:
    """Affine coupling: pass-through coordinates condition the rest."""

    def __init__(self, mask, scale_net, shift_net, scale_clamp=3.0):
        mask = np.asarray(mask, dtype=bool)
        if mask.sum() == 0 or (~mask).sum() == 0:
            raise ShapeError("coupling mask needs at least one bit of each kind")
        self.mask = mask
        self.idx_in = np.flatnonzero(mask)
        self.idx_out = np.flatnonzero(~mask)
        if scale_net.in_dim != len(self.idx_in) or scale_net.out_dim != len(self.idx_out):
            raise ShapeError("scale net shape does not match the mask partition")
        if shift_net.in_dim != len(self.idx_in) or shift_net.out_dim != len(self.idx_out):
            raise ShapeError("shift net shape does not match the mask partition")
        self.scale_net = scale_net
        self.shift_net = shift_net
        self.scale_clamp = float(scale_clamp)

    @property
    def dim(self):
        return self.mask.shape[0]

    def parameters(self):
        return self.scale_net.parameters() + self.shift_net.parameters()

    def _affine_params(self, x_in):
        s_raw, s_cache = nn.forward(self.scale_net, x_in)
        th = np.tanh(s_raw)
        s = self.scale_clamp * th
        t, t_cache = nn.forward(self.shift_net, x_in)
        return s, th, t, s_cache, t_cache

    def forward(self, x):
        x_in = x[:, self.idx_in]
        x_out = x[:, self.idx_out]
        s, th, t, s_cache, t_cache = self._affine_params(x_in)
        y = x.copy()
        y[:, self.idx_out] = x_out * np.exp(s) + t
        log_det = s.sum(axis=1)
        cache = (x_out, s, th, s_cache, t_cache)
        return y, log_det, cache

    def inverse(self, y):
        y_in = y[:, self.idx_in]
        s, _, t, _, _ = self._affine_params(y_in)
        x = y.copy()
        x[:, self.idx_out] = (y[:, self.idx_out] - t) * np.exp(-s)
        return x

    def backward(self, cache, g_y, g_log_det):
        x_out, s, th, s_cache, t_cache = cache
        es = np.exp(s)
        g_out = g_y[:, self.idx_out]
        g_s = g_out * x_out * es + g_log_det[:, None]
        g_t = g_out
        g_s_raw = g_s * self.scale_clamp * (1.0 - th * th)
        s_grads, g_in_s = nn.backward(self.scale_net, s_cache, g_s_raw)
        t_grads, g_in_t = nn.backward(self.shift_net, t_cache, g_t)
        g_x = np.zeros_like(g_y)
        g_x[:, self.idx_out] = g_out * es
        g_x[:, self.idx_in] = g_y[:, self.idx_in] + g_in_s + g_in_t
        return g_x, s_grads + t_grads


class PermutationLayer:
    """Fixed coordinate permutation; volume preserving."""

    def __init__(self, perm):
        self.perm = np.asarray(perm, dtype=np.int64)
        self.inv_perm = np.argsort(self.perm)

    @property
    def dim(self):
        return self.perm.shape[0]

    def parameters(self):
        return []

    def forward(self, x):
        return x[:, self.perm], np.zeros(x.shape[0]), None

    def inverse(self, y):
        return y[:, self.inv_perm]

    def backward(self, cache, g_y, g_log_det):
        return g_y[:, self.inv_perm], []


def made_masks(degrees_in, hidden_sizes):
    """MADE connectivity masks for a net emitting (shift, log-scale) pairs.

    Output coordinate d (in either block) may only depend on inputs whose
    degree is strictly below degree(d).
    """
    d = len(degrees_in)
    hidden_span = max(1, d - 1)
    masks = []
    prev = np.asarray(degrees_in)
    hidden_degrees = []
    for width in hidden_sizes:
        deg = np.arange(width) % hidden_span + 1
        masks.append((deg[:, None] >= prev[None, :]).astype(np.float64))
        hidden_degrees.append(deg)
        prev = deg
    out_degrees = np.concatenate([degrees_in, degrees_in])
    masks.append((out_degrees[:, None] > prev[None, :]).astype(np.float64))
    return masks


class AutoregressiveLayer:
    """Masked affine autoregressive transform, maf or iaf orientation.

    The underlying arithmetic T maps w -> (w - shift(w)) * exp(-scale(w))
    in one parallel pass; T^-1 rebuilds coordinates in degree order.  The
    maf orientation uses T as the density-direction map; iaf uses T as its
    sampling-direction map (identical code, opposite orientation).
    """

    def __init__(self, masked_net, degrees, direction="maf", scale_clamp=3.0):
        if direction not in ("maf", "iaf"):
            raise ValueError(f"unknown autoregressive direction {direction!r}")
        self.net = masked_net
        self.degrees = np.asarray(degrees, dtype=np.int64)
        d = self.degrees.shape[0]
        if masked_net.in_dim != d or masked_net.out_dim != 2 * d:
            raise ShapeError("masked net must map dim -> 2*dim")
        self.direction = direction
        self.scale_clamp = float(scale_clamp)
        # dimension index processed at each degree step, ascending degree
        self.degree_order = np.argsort(self.degrees, kind="stable")

    @property
    def dim(self):
        return self.degrees.shape[0]

    def parameters(self):
        return self.net.parameters()

    def _params(self, w):
        out, cache = nn.forward(self.net, w)
        d = self.dim
        mu = out[:, :d]
        th = np.tanh(out[:, d:])
        s = self.scale_clamp * th
        return mu, s, th, cache

    def _normalize(self, w):
        """Parallel pass u = (w - mu(w)) * exp(-s(w)); log|du/dw| = -sum s."""
        mu, s, th, cache = self._params(w)
        u = (w - mu) * np.exp(-s)
        return u, -s.sum(axis=1), (w, u, mu, s, th, cache)

    def _generate(self, u):
        """Sequential inverse of _normalize, one degree at a time."""
        w = np.zeros_like(u)
        d = self.dim
        for i in self.degree_order:
            # only columns i (shift) and d+i (scale) of the net output are used
            out = nn.predict(self.net, w)
            s_i = self.scale_clamp * np.tanh(out[:, d + i])
            w[:, i] = u[:, i] * np.exp(s_i) + out[:, i]
        return w

    # --- density-direction (forward) passes -------------------------------

    def forward(self, x):
        if self.direction == "maf":
            u, log_det, cache = self._normalize(x)
            return u, log_det, ("maf", cache)
        # iaf: density direction is the sequential rebuild; its log-det is
        # +sum s evaluated at the rebuilt output.
        h = self._generate(x)
        mu, s, th, net_cache = self._params(h)
        log_det = s.sum(axis=1)
        return h, log_det, ("iaf", (x, h, mu, s, th, net_cache))

    def inverse(self, y):
        if self.direction == "maf":
            return self._generate(y)
        u, _, _ = self._normalize(y)
        return u

    # --- reverse-mode ------------------------------------------------------

    def backward(self, cache, g_y, g_log_det):
        kind, payload = cache
        if kind == "maf":
            return self._backward_normalize(payload, g_y, g_log_det)
        return self._backward_generate(payload, g_y, g_log_det)

    def _backward_normalize(self, payload, g_u, g_log_det):
        w, u, mu, s, th, net_cache = payload
        e_neg = np.exp(-s)
        g_mu = -g_u * e_neg
        # u depends on s directly (du/ds = -u) and the log-det is -sum s.
        g_s = -g_u * u - g_log_det[:, None]
        g_s_raw = g_s * self.scale_clamp * (1.0 - th * th)
        upstream = np.concatenate([g_mu, g_s_raw], axis=1)
        grads, g_w_net = nn.backward(self.net, net_cache, upstream)
        return g_u * e_neg + g_w_net, grads

    def _backward_generate(self, payload, g_h, g_log_det):
        # h was built sequentially: h_i = z_i * exp(s_i) + mu_i with (mu, s)
        # read from the finished h (masking makes that equivalent to the
        # per-step values).  Walk degrees high-to-low, accumulating the
        # gradient that each step's net evaluation sends to lower degrees.
        z, h, mu, s, th, net_cache = payload
        d = self.dim
        n = g_h.shape[0]
        g_acc = g_h.copy()
        g_z = np.zeros_like(g_h)
        total = [np.zeros_like(p) for p in self.net.parameters()]
        dth = self.scale_clamp * (1.0 - th * th)
        for i in self.degree_order[::-1]:
            gi = g_acc[:, i]
            es_i = np.exp(s[:, i])
            g_z[:, i] = gi * es_i
            g_s_i = gi * z[:, i] * es_i + g_log_det
            upstream = np.zeros((n, 2 * d))
            upstream[:, i] = gi
            upstream[:, d + i] = g_s_i * dth[:, i]
            grads, g_in = nn.backward(self.net, net_cache, upstream)
            for acc, g in zip(total, grads):
                acc += g
            g_acc += g_in
        return g_z, total


class FlowModel:
    """Bijective stack F = f_L o ... o f_1 with exact log-det."""

    def __init__(self, layers, dim, kind):
        for layer in layers:
            if layer.dim != dim:
                raise ShapeError("all flow layers must share the model dimension")
        self.layers = layers
        self.dim = dim
        self.kind = kind

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out

    def _check_input(self, z):
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != self.dim:
            raise ShapeError(f"expected (n, {self.dim}) input, got {z.shape}")
        return z


def forward_map(flow: FlowModel, z, with_cache=False):
    """Map data-side points to base-side points.

    Returns (h, log_det) where log_det row k is the accumulated
    log|det| of the transform along row k.
    """
    x = flow._check_input(z)
    total = np.zeros(x.shape[0])
    caches = []
    for index, layer in enumerate(flow.layers):
        x, log_det, cache = layer.forward(x)
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(log_det)):
            raise NumericError(f"non-finite values leaving flow layer {index}")
        total += log_det
        if with_cache:
            caches.append(cache)
    if with_cache:
        return x, total, caches
    return x, total


def inverse_map(flow: FlowModel, h):
    """Map base-side points back to data-side points."""
    x = flow._check_input(h)
    for index, layer in zip(range(len(flow.layers) - 1, -1, -1), reversed(flow.layers)):
        x = layer.inverse(x)
        if not np.all(np.isfinite(x)):
            raise NumericError(f"non-finite values leaving flow layer {index}")
    return x


def log_prob(flow: FlowModel, z):
    """Exact log-density under the flow: base normal plus log-det terms."""
    h, log_det = forward_map(flow, z)
    base = -0.5 * flow.dim * LOG_2PI - 0.5 * (h * h).sum(axis=1)
    return base + log_det


def sample(flow: FlowModel, n, rng):
    """Draw n points: base normals transported through the inverse stack."""
    if n < 1:
        raise ValueError("need at least one sample")
    h = rng.standard_normal((n, flow.dim))
    return inverse_map(flow, h)


def _nll_and_grads(flow: FlowModel, batch):
    """Mean negative log-likelihood and its parameter gradients."""
    h, log_det, caches = forward_map(flow, batch, with_cache=True)
    n = batch.shape[0]
    nll = float(
        (0.5 * (h * h).sum(axis=1) + 0.5 * flow.dim * LOG_2PI - log_det).mean()
    )
    g = h / n
    g_log_det = np.full(n, -1.0 / n)
    grads_per_layer = []
    for layer, cache in zip(reversed(flow.layers), reversed(caches)):
        g, layer_grads = layer.backward(cache, g, g_log_det)
        grads_per_layer.append(layer_grads)
    flat = []
    for layer_grads in reversed(grads_per_layer):
        flat.extend(layer_grads)
    return nll, flat


def fit(flow: FlowModel, data, epochs, batch_size, adam: nn.AdamState, rng):
    """Maximum-likelihood fit by Adam on mean NLL; returns per-epoch NLL."""
    data = flow._check_input(data)
    if epochs > 0 and data.shape[0] < batch_size:
        raise ShapeError("need at least one full batch of training rows")
    params = flow.parameters()
    trace = []
    for epoch in range(epochs):
        order = rng.permutation(data.shape[0])
        losses = []
        weights = []
        for start in range(0, data.shape[0], batch_size):
            batch = data[order[start : start + batch_size]]
            nll, grads = _nll_and_grads(flow, batch)
            if not math.isfinite(nll):
                raise NumericError(f"non-finite flow loss in epoch {epoch}")
            nn.adam_step(params, grads, adam)
            losses.append(nll)
            weights.append(batch.shape[0])
        trace.append(float(np.average(losses, weights=weights)))
    return trace


# --- construction -----------------------------------------------------------


def _coupling_subnet(rng, in_dim, out_dim, hidden, zero_last=True):
    sizes = [in_dim, hidden, hidden, out_dim]
    acts = ["tanh", "tanh", "identity"]
    return nn.build_mlp(rng, sizes, acts, zero_last=zero_last)


def _masked_subnet(rng, degrees, hidden, zero_last=True):
    d = len(degrees)
    sizes = [d, hidden, hidden, 2 * d]
    masks = made_masks(degrees, [hidden, hidden])
    acts = ["tanh", "tanh", "identity"]
    return nn.build_mlp(rng, sizes, acts, masks=masks, zero_last=zero_last)


def build_flow(kind, dim, rng, depth=6, hidden=64, scale_clamp=3.0):
    """Identity-initialized flow of the requested kind.

    realnvp alternates even/odd coupling masks with a fixed random
    permutation between coupling pairs; maf/iaf stack masked layers whose
    degree order reverses between consecutive layers.
    """
    if kind not in FLOW_KINDS:
        raise ValueError(f"unknown flow kind {kind!r}")
    if dim < 2:
        raise ShapeError("flows need dimension >= 2")
    layers = []
    if kind == "realnvp":
        even = np.arange(dim) % 2 == 0
        for k in range(depth):
            mask = even if k % 2 == 0 else ~even
            n_in = int(mask.sum())
            n_out = dim - n_in
            scale_net = _coupling_subnet(rng, n_in, n_out, hidden)
            shift_net = _coupling_subnet(rng, n_in, n_out, hidden)
            layers.append(CouplingLayer(mask, scale_net, shift_net, scale_clamp))
            if k % 2 == 1 and k != depth - 1:
                layers.append(PermutationLayer(rng.permutation(dim)))
    else:
        natural = np.arange(1, dim + 1)
        for k in range(depth):
            degrees = natural if k % 2 == 0 else natural[::-1].copy()
            net = _masked_subnet(rng, degrees, hidden)
            layers.append(AutoregressiveLayer(net, degrees, direction=kind,
                                              scale_clamp=scale_clamp))
    return FlowModel(layers, dim, kind)


def flow_adam(flow: FlowModel, lr):
    return nn.init_adam(flow.parameters(), lr=lr)
