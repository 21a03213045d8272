"""Invertible flow stack with exact log-density and inverse-transport sampling.

Three layer families:

* ``CouplingLayer``: affine update of one coordinate subset conditioned on
  the complement.  Both directions are single parallel passes.
* ``AutoregressiveLayer``: one masked net emits per-dimension (shift,
  log-scale); output d depends only on inputs of strictly lower degree.
  The ``maf`` orientation evaluates densities in one parallel pass and
  samples sequentially; ``iaf`` is the same arithmetic run in the opposite
  orientation, so it samples in parallel and evaluates sequentially.  The
  sequential direction is one sweep over the degrees that computes each
  hidden unit of the net once, at the step after which its inputs are
  final (a schedule read from the masks at construction); its reverse
  pass gets all parameter gradients from a single net backward.
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
        perm = np.asarray(perm)
        if perm.ndim != 1 or perm.dtype.kind not in "iu" or not np.array_equal(
            np.sort(perm), np.arange(perm.size)
        ):
            raise ShapeError("permutation layer needs a permutation of 0..dim-1")
        self.perm = perm.astype(np.int64)
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


def _sweep_schedule(net, degree_order):
    """Hidden units that become final at each step of a degree sweep.

    Step t sets input coordinate degree_order[t].  A hidden unit is final
    once every input it reads through the masks is set: after the latest
    step among those inputs, or at step -1 if it reads none.  Entry t + 1
    of the result holds, per hidden layer, the units final after step t.
    Raises ShapeError if net outputs i or d+i read a unit that is not final
    before the step that sets coordinate i.
    """
    d = degree_order.shape[0]
    input_step = np.empty(d, dtype=np.int64)
    input_step[degree_order] = np.arange(d)
    steps = []
    step = input_step
    for layer in net.layers:
        if layer.mask is None:
            raise ShapeError("every layer of an autoregressive net needs a mask")
        step = np.where(layer.mask != 0, step, -1).max(axis=1)
        steps.append(step)
    output_step = steps.pop().reshape(2, d).max(axis=0)
    if np.any(output_step >= input_step):
        raise ShapeError("masked net outputs read inputs of equal or later degree")
    return [tuple(np.flatnonzero(step == t) for step in steps) for t in range(-1, d)]


class AutoregressiveLayer:
    """Masked affine autoregressive transform, maf or iaf orientation.

    The underlying arithmetic T maps w -> (w - shift(w)) * exp(-scale(w))
    in one parallel pass; T^-1 rebuilds coordinates in degree order, in one
    sweep that computes each hidden unit of the masked net once.  The maf
    orientation uses T as the density-direction map; iaf uses T as its
    sampling-direction map (identical code, opposite orientation).
    """

    def __init__(self, masked_net, degrees, direction="maf", scale_clamp=3.0):
        if direction not in ("maf", "iaf"):
            raise ValueError(f"unknown autoregressive direction {direction!r}")
        self.net = masked_net
        self.degrees = np.asarray(degrees, dtype=np.int64)
        d = self.degrees.size
        if self.degrees.ndim != 1 or not np.array_equal(
            np.sort(self.degrees), np.arange(1, d + 1)
        ):
            raise ShapeError("autoregressive degrees must be a permutation of 1..dim")
        if masked_net.in_dim != d or masked_net.out_dim != 2 * d:
            raise ShapeError("masked net must map dim -> 2*dim")
        self.direction = direction
        self.scale_clamp = float(scale_clamp)
        # dimension index processed at each degree step, ascending degree
        self.degree_order = np.argsort(self.degrees, kind="stable")
        self._finals = _sweep_schedule(masked_net, self.degree_order)

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
        """Inverse of _normalize in one sweep over the degrees.

        Step t sets w_i (i = degree_order[t]) from net outputs i and d+i,
        which read only hidden units final before step t, then computes the
        hidden units that become final at step t.
        """
        d = self.dim
        *hidden_layers, out_layer = self.net.layers
        weights = [layer.weights for layer in self.net.layers]
        w = np.zeros_like(u)
        # acts[k] is the input of net layer k: w, then each hidden output
        acts = [w] + [np.zeros((u.shape[0], layer.out_dim)) for layer in hidden_layers]

        def finalize(units_per_layer):
            for k, (layer, units) in enumerate(zip(hidden_layers, units_per_layer)):
                if units.size:
                    pre = acts[k] @ weights[k][units].T + layer.bias[units]
                    acts[k + 1][:, units] = nn.act_forward(pre, layer.activation,
                                                           layer.alpha)

        finalize(self._finals[0])
        out_w = weights[-1].reshape(2, d, -1)
        out_b = out_layer.bias.reshape(2, d)
        for t, i in enumerate(self.degree_order):
            pre = acts[-1] @ out_w[:, i].T + out_b[:, i]
            shift, raw_scale = nn.act_forward(pre, out_layer.activation,
                                              out_layer.alpha).T
            w[:, i] = u[:, i] * np.exp(self.scale_clamp * np.tanh(raw_scale)) + shift
            finalize(self._finals[t + 1])
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
        """Reverse of the _generate sweep.

        h_i = z_i * exp(s_i) + mu_i with (mu, s) read from the finished h
        (the masks make that equal to the per-step values).  Walking the
        steps backwards, step t first completes the adjoints of the hidden
        units final at t, last layer first: everything that reads them was
        handled at a later step or earlier in this one.  The adjoint of h_i
        is then complete too; it fixes the upstream of net outputs i and
        d+i.  Parameter gradients are linear in that upstream, so one
        nn.backward over all of it gives them.
        """
        z, h, mu, s, th, net_cache = payload
        d = self.dim
        layers = self.net.layers
        weights = [layer.weights for layer in layers]
        act_grads = [
            np.broadcast_to(nn.act_grad(u, y, layer.activation, layer.alpha), u.shape)
            for layer, (_, u, y) in zip(layers, net_cache)
        ]
        # adjoints of each layer's pre-activations, filled in as they complete
        g_pre = [np.zeros_like(u) for _, u, _ in net_cache]
        upstream = np.zeros_like(g_pre[-1])
        es = np.exp(s)
        dth = self.scale_clamp * (1.0 - th * th)
        g_z = np.empty_like(g_h)
        for t in range(d - 1, -1, -1):
            for k in range(len(layers) - 2, -1, -1):
                units = self._finals[t + 1][k]
                if units.size:
                    g_pre[k][:, units] = (g_pre[k + 1] @ weights[k + 1][:, units]
                                          * act_grads[k][:, units])
            i = self.degree_order[t]
            g_i = g_h[:, i] + g_pre[0] @ weights[0][:, i]
            g_z[:, i] = g_i * es[:, i]
            upstream[:, i] = g_i
            upstream[:, d + i] = (g_z[:, i] * z[:, i] + g_log_det) * dth[:, i]
            cols = [i, d + i]
            g_pre[-1][:, cols] = upstream[:, cols] * act_grads[-1][:, cols]
        grads, _ = nn.backward(self.net, net_cache, upstream, inputs=False)
        return g_z, grads


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
