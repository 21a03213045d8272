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
  final.  A plan read from the masks at construction orders every layer's
  units by that step, so the sweep runs on feature-major (width, n)
  arrays: each step computes a contiguous block of units from a prefix of
  the layer below.  Its reverse pass walks the same plan backwards and
  gets all parameter gradients from a single net backward.
* ``PermutationLayer``: fixed coordinate shuffle, zero log-det.

Log-scales are passed through tanh and multiplied by ``SCALE_CLAMP``, which
keeps every per-layer determinant inside [exp(-clamp*d), exp(clamp*d)];
each log-det is a sum of log-scales.

Density convention (z = data side, h = base side):

    log q(z) = log N(forward(z); 0, I) + sum_layers log|det d f_i / d f_{i-1}|

Training maximizes this by plain reverse-mode chaining through the layer
stack; each layer's ``backward`` consumes the gradient w.r.t. its output
plus the per-row gradient w.r.t. its own log-det contribution.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import nn
from .errors import NumericError, ShapeError

LOG_2PI = math.log(2.0 * math.pi)

FLOW_KINDS = ("realnvp", "maf", "iaf")

# bound on every per-dimension log-scale: clamp * tanh(raw)
SCALE_CLAMP = 3.0


class CouplingLayer:
    """Affine coupling: pass-through coordinates condition the rest."""

    def __init__(self, mask, scale_net, shift_net):
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

    @property
    def dim(self):
        return self.mask.shape[0]

    def parameters(self):
        return self.scale_net.parameters() + self.shift_net.parameters()

    def _affine_params(self, x_in):
        s_raw, s_cache = nn.forward(self.scale_net, x_in)
        th = np.tanh(s_raw)
        s = SCALE_CLAMP * th
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
        g_s_raw = g_s * SCALE_CLAMP * (1.0 - th * th)
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
    for width in hidden_sizes:
        deg = np.arange(width) % hidden_span + 1
        masks.append((deg[:, None] >= prev[None, :]).astype(np.float64))
        prev = deg
    out_degrees = np.concatenate([degrees_in, degrees_in])
    masks.append((out_degrees[:, None] > prev[None, :]).astype(np.float64))
    return masks


class SweepPlan(NamedTuple):
    """Unit order and step blocks of a degree sweep; see _sweep_schedule."""

    orders: list  # orders[0]: inputs; orders[l + 1]: units of net layer l
    spans: list  # spans[l][s] = [a, b, p, c] of net layer l at slot s


def _sweep_schedule(net, degree_order):
    """One plan for both directions of a degree sweep over a masked net.

    Step t sets input coordinate degree_order[t]; after it, slot t + 1
    begins (slot 0 is before any step).  A hidden unit is final in the slot
    of the latest input it reads through the masks, or in slot 0 if it reads
    none.  Net outputs i and d+i are computed in slot t, just before step t
    sets coordinate i, and put in plan order as the pair (2t, 2t+1).

    Ordering the units of every layer by slot (a stable argsort), and the
    inputs by step, makes the units of one slot a contiguous block and those
    final by it a prefix.  orders[0] is degree_order and orders[l + 1] the
    plan order of net layer l's units.  spans[l][s] = [a, b, p, c] says that
    units a..b-1 (plan order) of layer l belong to slot s and read only the
    first p entries of layer l's input (plan order), and that the inputs of
    slot s are read only by units c.. of layer l.  Raises ShapeError if a
    layer has no mask or net outputs i or d+i read a unit that is not final
    before the step that sets coordinate i.
    """
    d = degree_order.shape[0]
    input_slot = np.empty(d, dtype=np.int64)
    input_slot[degree_order] = np.arange(1, d + 1)
    slots = []
    slot = input_slot
    for layer in net.layers:
        if layer.mask is None:
            raise ShapeError("every layer of an autoregressive net needs a mask")
        slot = np.where(layer.mask != 0, slot, 0).max(axis=1)
        slots.append(slot)
    output_slot = np.tile(input_slot - 1, 2)
    if np.any(slots[-1] > output_slot):
        raise ShapeError("masked net outputs read inputs of equal or later degree")
    slots[-1] = output_slot
    orders = [degree_order]
    spans = []
    col_slot = np.arange(1, d + 1)  # slot of each input, plan order
    edges = np.arange(d + 2)
    for layer, slot in zip(net.layers, slots):
        order = np.argsort(slot, kind="stable")
        slot = slot[order]
        kept = layer.mask[np.ix_(order, orders[-1])] != 0
        rows, cols = kept.shape
        # one past the last input each unit reads, and the first unit
        # reading each input, reduced over the units or inputs of a slot
        prefix = np.zeros(d + 1, dtype=np.int64)
        np.maximum.at(prefix, slot,
                      np.where(kept.any(axis=1), cols - kept[:, ::-1].argmax(axis=1), 0))
        suffix = np.full(d + 1, rows, dtype=np.int64)
        np.minimum.at(suffix, col_slot,
                      np.where(kept.any(axis=0), kept.argmax(axis=0), rows))
        bounds = np.searchsorted(slot, edges)
        spans.append(np.column_stack([bounds[:-1], bounds[1:], prefix, suffix]).tolist())
        orders.append(order)
        col_slot = slot
    return SweepPlan(orders, spans)


class AutoregressiveLayer:
    """Masked affine autoregressive transform, maf or iaf orientation.

    The underlying arithmetic T maps w -> (w - shift(w)) * exp(-scale(w))
    in one parallel pass; T^-1 rebuilds coordinates in degree order, in one
    sweep that computes each hidden unit of the masked net once.  The maf
    orientation uses T as the density-direction map; iaf uses T as its
    sampling-direction map (identical code, opposite orientation).
    """

    def __init__(self, masked_net, degrees, direction="maf"):
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
        # dimension index processed at each degree step, ascending degree
        self.degree_order = np.argsort(self.degrees, kind="stable")
        self._plan = _sweep_schedule(masked_net, self.degree_order)

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
        s = SCALE_CLAMP * th
        return mu, s, th, cache

    def _normalize(self, w):
        """Parallel pass u = (w - mu(w)) * exp(-s(w)); log|du/dw| = -sum s."""
        mu, s, th, cache = self._params(w)
        u = (w - mu) * np.exp(-s)
        return u, -s.sum(axis=1), (w, u, mu, s, th, cache)

    def _plan_weights(self):
        """Each net layer's weights and biases with rows and columns in plan
        order."""
        orders = self._plan.orders
        return ([layer.weights[np.ix_(rows, cols)]
                 for layer, cols, rows in zip(self.net.layers, orders, orders[1:])],
                [layer.bias[rows, None] for layer, rows in zip(self.net.layers, orders[1:])])

    def _generate(self, u):
        """Inverse of _normalize in one sweep over the degrees.

        Runs feature-major in plan order (see _sweep_schedule).  Slot s
        computes the block of every hidden layer final in it from a prefix
        of the layer below, then the output pair (2s, 2s+1) from a prefix of
        the last hidden layer, which sets coordinate degree_order[s].
        """
        orders, spans = self._plan
        *hidden, out = self.net.layers
        weights, biases = self._plan_weights()
        # acts[k] is the input of net layer k: w, then each hidden output;
        # w starts as u and is overwritten one step at a time
        acts = [u.T[orders[0]]] + [np.empty((layer.out_dim, u.shape[0])) for layer in hidden]
        w = acts[0]
        for s in range(self.dim + 1):
            for k, layer in enumerate(hidden):
                a, b, p, _ = spans[k][s]
                if a < b:
                    pre = weights[k][a:b, :p] @ acts[k][:p] + biases[k][a:b]
                    acts[k + 1][a:b] = nn.act_forward(pre, layer.activation)
            if s < self.dim:
                a, b, p, _ = spans[-1][s]
                pre = weights[-1][a:b, :p] @ acts[-1][:p] + biases[-1][a:b]
                shift, raw_scale = nn.act_forward(pre, out.activation)
                w[s] = w[s] * np.exp(SCALE_CLAMP * np.tanh(raw_scale)) + shift
        return _from_plan_order(w, orders[0])

    # --- density-direction (forward) passes -------------------------------

    def forward(self, x):
        if self.direction == "maf":
            return self._normalize(x)
        # iaf: density direction is the sequential rebuild; its log-det is
        # +sum s evaluated at the rebuilt output.
        h = self._generate(x)
        mu, s, th, net_cache = self._params(h)
        log_det = s.sum(axis=1)
        return h, log_det, (x, h, mu, s, th, net_cache)

    def inverse(self, y):
        if self.direction == "maf":
            return self._generate(y)
        u, _, _ = self._normalize(y)
        return u

    # --- reverse-mode ------------------------------------------------------

    def backward(self, cache, g_y, g_log_det):
        if self.direction == "maf":
            return self._backward_normalize(cache, g_y, g_log_det)
        return self._backward_generate(cache, g_y, g_log_det)

    def _backward_normalize(self, payload, g_u, g_log_det):
        w, u, mu, s, th, net_cache = payload
        e_neg = np.exp(-s)
        g_mu = -g_u * e_neg
        # u depends on s directly (du/ds = -u) and the log-det is -sum s.
        g_s = -g_u * u - g_log_det[:, None]
        g_s_raw = g_s * SCALE_CLAMP * (1.0 - th * th)
        upstream = np.concatenate([g_mu, g_s_raw], axis=1)
        grads, g_w_net = nn.backward(self.net, net_cache, upstream)
        return g_u * e_neg + g_w_net, grads

    def _backward_generate(self, payload, g_h, g_log_det):
        """Reverse of the _generate sweep.

        h_i = z_i * exp(s_i) + mu_i with (mu, s) read from the finished h
        (the masks make that equal to the per-step values).  Walking the
        plan's slots backwards, slot s first completes the adjoint of
        coordinate degree_order[s]: everything that reads it is final in a
        later slot.  That fixes the upstream of the output pair (2s, 2s+1).
        Then, last layer first, it completes the adjoints of the units
        final in slot s from the suffix of the layer above that reads them.
        Parameter gradients are linear in the upstream, so one nn.backward
        over all of it gives them.
        """
        z, h, mu, s, th, net_cache = payload
        orders, spans = self._plan
        layers = self.net.layers
        weights, _ = self._plan_weights()
        # feature-major, plan order: act_grads and pre-activation adjoints
        # per net layer, and the per-coordinate terms in step order
        act_grads = [
            np.broadcast_to(nn.act_grad(u.T[rows], y.T[rows], layer.activation),
                            (rows.size, u.shape[0]))
            for layer, rows, (_, u, y) in zip(layers, orders[1:], net_cache)
        ]
        g_pre = [np.zeros((rows.size, g_h.shape[0])) for rows in orders[1:]]
        upstream = np.empty_like(g_pre[-1])
        order = orders[0]
        g_z = g_h.T[order]  # row t: adjoint of h's coordinate, of z's from slot t on
        z = z.T[order]
        es = np.exp(s.T[order])
        th = th.T[order]
        dth = SCALE_CLAMP * (1.0 - th * th)
        for slot in range(self.dim, -1, -1):
            if slot < self.dim:
                c = spans[0][slot + 1][3]
                g_i = g_z[slot] + weights[0][c:, slot] @ g_pre[0][c:]
                g_z[slot] = g_i * es[slot]
                pair = slice(2 * slot, 2 * slot + 2)
                upstream[pair] = g_i, (g_z[slot] * z[slot] + g_log_det) * dth[slot]
                g_pre[-1][pair] = upstream[pair] * act_grads[-1][pair]
            for k in range(len(layers) - 2, -1, -1):
                a, b, _, _ = spans[k][slot]
                if a < b:
                    c = spans[k + 1][slot][3]
                    g_pre[k][a:b] = (weights[k + 1][c:, a:b].T @ g_pre[k + 1][c:]
                                     * act_grads[k][a:b])
        grads, _ = nn.backward(self.net, net_cache, _from_plan_order(upstream, orders[-1]),
                               inputs=False)
        return _from_plan_order(g_z, order), grads


def _from_plan_order(x, order):
    """(n, m) C-contiguous array from a feature-major (m, n) one whose row j
    is feature order[j]."""
    out = np.empty(x.shape[::-1])
    out[:, order] = x.T
    return out


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


def _coupling_subnet(rng, in_dim, out_dim, hidden):
    sizes = [in_dim, hidden, hidden, out_dim]
    acts = ["tanh", "tanh", "identity"]
    return nn.build_mlp(rng, sizes, acts, zero_last=True)


def _masked_subnet(rng, degrees, hidden):
    d = len(degrees)
    sizes = [d, hidden, hidden, 2 * d]
    masks = made_masks(degrees, [hidden, hidden])
    acts = ["tanh", "tanh", "identity"]
    return nn.build_mlp(rng, sizes, acts, masks=masks, zero_last=True)


def build_flow(kind, dim, rng, depth=6, hidden=64):
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
            layers.append(CouplingLayer(mask, scale_net, shift_net))
            if k % 2 == 1 and k != depth - 1:
                layers.append(PermutationLayer(rng.permutation(dim)))
    else:
        natural = np.arange(1, dim + 1)
        for k in range(depth):
            degrees = natural if k % 2 == 0 else natural[::-1].copy()
            net = _masked_subnet(rng, degrees, hidden)
            layers.append(AutoregressiveLayer(net, degrees, direction=kind))
    return FlowModel(layers, dim, kind)


def flow_adam(flow: FlowModel, lr):
    return nn.init_adam(flow.parameters(), lr=lr)
