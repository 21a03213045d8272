import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisgan import flows, nn
from fisgan.errors import NumericError, ShapeError


def numerical_log_det(flow, z, step=1e-6):
    """Sign-free log|det| of the forward map at a single point, by central
    differences column by column."""
    d = z.shape[0]
    jac = np.zeros((d, d))
    for k in range(d):
        zp = z.copy()
        zp[k] += step
        zm = z.copy()
        zm[k] -= step
        hp, _ = flows.forward_map(flow, zp[None])
        hm, _ = flows.forward_map(flow, zm[None])
        jac[:, k] = (hp[0] - hm[0]) / (2 * step)
    sign, logdet = np.linalg.slogdet(jac)
    assert sign != 0
    return logdet


def fit_toy_flow(kind, data, rng, epochs=40, depth=4, hidden=32, lr=5e-3):
    flow = flows.build_flow(kind, data.shape[1], rng, depth=depth, hidden=hidden)
    adam = flows.flow_adam(flow, lr=lr)
    trace = flows.fit(flow, data, epochs=epochs, batch_size=128, adam=adam, rng=rng)
    return flow, trace


@pytest.mark.parametrize("kind", flows.FLOW_KINDS)
def test_zero_init_is_identity_density(kind):
    rng = np.random.default_rng(0)
    flow = flows.build_flow(kind, 4, rng, depth=4, hidden=16)
    z = rng.standard_normal((50, 4))
    h, log_det = flows.forward_map(flow, z)
    assert np.max(np.abs(log_det)) == 0.0
    # realnvp stacks include fixed permutations, so compare densities
    # (permutation-invariant) rather than raw coordinates.
    expected = -0.5 * (z * z).sum(axis=1) - 2.0 * math.log(2 * math.pi)
    assert np.max(np.abs(flows.log_prob(flow, z) - expected)) < 1e-10
    assert np.max(np.abs(flows.inverse_map(flow, h) - z)) < 1e-12


@pytest.mark.parametrize("kind", ("maf", "iaf"))
def test_zero_init_autoregressive_exact_identity(kind):
    rng = np.random.default_rng(1)
    flow = flows.build_flow(kind, 3, rng, depth=3, hidden=8)
    z = rng.standard_normal((20, 3))
    h, log_det = flows.forward_map(flow, z)
    assert np.array_equal(h, z)
    assert np.all(log_det == 0.0)


def test_coupling_constant_log_scale():
    # Zero-weight scale net with a final bias b gives constant log-scale
    # s = clamp * tanh(b) on every transformed coordinate.
    rng = np.random.default_rng(2)
    dim = 5
    mask = np.arange(dim) % 2 == 0  # 3 in, 2 out
    scale_net = nn.build_mlp(rng, [3, 8, 2], ["tanh", "identity"], zero_last=True)
    shift_net = nn.build_mlp(rng, [3, 8, 2], ["tanh", "identity"], zero_last=True)
    b = 0.7
    scale_net.layers[-1].bias[:] = b
    layer = flows.CouplingLayer(mask, scale_net, shift_net)
    flow = flows.FlowModel([layer], dim, "realnvp")
    z = rng.standard_normal((10, dim))
    _, log_det = flows.forward_map(flow, z)
    expected = 2 * flows.SCALE_CLAMP * math.tanh(b)
    assert np.max(np.abs(log_det - expected)) < 1e-12


def test_permutation_only_flow():
    perm = np.array([2, 0, 1])
    flow = flows.FlowModel([flows.PermutationLayer(perm)], 3, "realnvp")
    z = np.arange(6, dtype=float).reshape(2, 3)
    h, log_det = flows.forward_map(flow, z)
    assert np.array_equal(h, z[:, perm])
    assert np.all(log_det == 0.0)
    assert np.array_equal(flows.inverse_map(flow, h), z)


@pytest.mark.parametrize("kind", flows.FLOW_KINDS)
@pytest.mark.parametrize("dim", (2, 4, 8))
def test_round_trip_after_training(kind, dim):
    rng = np.random.default_rng(3)
    data = rng.standard_normal((512, dim)) * 1.4 + 0.5
    flow, _ = fit_toy_flow(kind, data, rng, epochs=3)
    z = rng.standard_normal((1000, dim)) * 2.0
    h, _ = flows.forward_map(flow, z)
    back = flows.inverse_map(flow, h)
    assert np.max(np.abs(back - z)) < 1e-6


@pytest.mark.parametrize("kind", flows.FLOW_KINDS)
@pytest.mark.parametrize("dim", (2, 4, 8))
def test_log_det_matches_numerical_jacobian(kind, dim):
    rng = np.random.default_rng(4)
    data = rng.standard_normal((256, dim)) + np.linspace(-1, 1, dim)
    flow, _ = fit_toy_flow(kind, data, rng, epochs=3, depth=3, hidden=16)
    z = rng.standard_normal((4, dim))
    _, analytic = flows.forward_map(flow, z)
    for row in range(4):
        numeric = numerical_log_det(flow, z[row])
        denom = max(abs(analytic[row]), abs(numeric), 1e-8)
        assert abs(analytic[row] - numeric) / denom < 1e-4


def test_log_prob_identity_values():
    rng = np.random.default_rng(5)
    flow = flows.build_flow("realnvp", 2, rng, depth=2, hidden=8)
    at_origin = flows.log_prob(flow, np.zeros((1, 2)))[0]
    assert abs(at_origin + math.log(2 * math.pi)) < 1e-12
    at_unit = flows.log_prob(flow, np.array([[1.0, 0.0]]))[0]
    assert abs(at_unit + math.log(2 * math.pi) + 0.5) < 1e-12


def test_log_prob_integrates_to_one():
    rng = np.random.default_rng(6)
    centers = np.array([[-1.5, 0.0], [1.5, 1.0]])
    labels = rng.integers(0, 2, size=4096)
    data = centers[labels] + 0.6 * rng.standard_normal((4096, 2))
    flow, _ = fit_toy_flow("realnvp", data, rng, epochs=20)
    grid = np.linspace(-6.0, 6.0, 200)
    xs, ys = np.meshgrid(grid, grid)
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    dens = np.exp(flows.log_prob(flow, pts))
    cell = (grid[1] - grid[0]) ** 2
    mass = dens.sum() * cell
    assert 0.98 < mass < 1.02


def test_sample_identity_moments():
    rng = np.random.default_rng(7)
    flow = flows.build_flow("realnvp", 3, rng, depth=2, hidden=8)
    draws = flows.sample(flow, 10_000, np.random.default_rng(8))
    assert np.linalg.norm(draws.mean(axis=0)) < 0.1
    cov = np.cov(draws, rowvar=False)
    assert np.max(np.abs(cov - np.eye(3))) < 0.1


def test_sample_deterministic_per_seed():
    rng = np.random.default_rng(9)
    flow = flows.build_flow("maf", 3, rng, depth=2, hidden=8)
    a = flows.sample(flow, 64, np.random.default_rng(123))
    b = flows.sample(flow, 64, np.random.default_rng(123))
    assert np.array_equal(a, b)


def test_sample_concentrates_on_trained_clusters():
    rng = np.random.default_rng(10)
    centers = np.array([[-3.0, 0.0], [3.0, 0.0]])
    sigma = 0.5
    labels = rng.integers(0, 2, size=4096)
    data = centers[labels] + sigma * rng.standard_normal((4096, 2))
    flow, _ = fit_toy_flow("realnvp", data, rng, epochs=80, depth=6, hidden=48)
    draws = flows.sample(flow, 2000, np.random.default_rng(11))
    d0 = np.linalg.norm(draws - centers[0], axis=1)
    d1 = np.linalg.norm(draws - centers[1], axis=1)
    frac = np.mean(np.minimum(d0, d1) < 3 * sigma)
    assert frac >= 0.95


@pytest.mark.parametrize("kind", flows.FLOW_KINDS)
def test_fit_gaussian_keeps_entropy_level(kind):
    rng = np.random.default_rng(12)
    dim = 2
    data = rng.standard_normal((2048, dim))
    flow, trace = fit_toy_flow(kind, data, rng, epochs=5)
    entropy = 0.5 * dim * (1 + math.log(2 * math.pi))
    for nll in trace:
        assert abs(nll - entropy) / entropy < 0.05


def test_fit_shifted_gaussian_reaches_analytic_nll():
    rng = np.random.default_rng(13)
    mu = np.array([3.0, 0.0])
    train = rng.standard_normal((4096, 2)) + mu
    held = rng.standard_normal((2048, 2)) + mu
    flow, _ = fit_toy_flow("realnvp", train, rng, epochs=30)
    nll = float(-flows.log_prob(flow, held).mean())
    assert abs(nll - (1 + math.log(2 * math.pi))) < 0.2


def test_fit_zero_epochs_no_op():
    rng = np.random.default_rng(14)
    flow = flows.build_flow("realnvp", 2, rng, depth=2, hidden=8)
    before = [p.copy() for p in flow.parameters()]
    adam = flows.flow_adam(flow, lr=1e-3)
    trace = flows.fit(flow, rng.standard_normal((256, 2)), 0, 64, adam, rng)
    assert trace == []
    assert all(np.array_equal(a, b) for a, b in zip(before, flow.parameters()))


def test_fit_improves_on_own_training_set():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        data = rng.standard_normal((512, 2)) * 1.5 + np.array([1.0, -2.0])
        flow = flows.build_flow("realnvp", 2, rng, depth=4, hidden=32)
        initial = float(-flows.log_prob(flow, data).mean())
        adam = flows.flow_adam(flow, lr=5e-3)
        flows.fit(flow, data, epochs=10, batch_size=128, adam=adam, rng=rng)
        final = float(-flows.log_prob(flow, data).mean())
        if final <= initial:
            hits += 1
    assert hits >= 9


def random_masked_net(rng, degrees, hidden):
    """A MADE net like the flows' own, but with a Glorot-random last layer
    instead of the zero one that makes a fresh flow the identity."""
    d = len(degrees)
    return nn.build_mlp(rng, [d, hidden, hidden, 2 * d], ["tanh", "tanh", "identity"],
                        masks=flows.made_masks(degrees, [hidden, hidden]))


def test_maf_iaf_duality_same_arithmetic():
    rng = np.random.default_rng(15)
    degrees = np.arange(1, 5)
    net = random_masked_net(rng, degrees, hidden=16)
    maf = flows.AutoregressiveLayer(net, degrees, direction="maf")
    iaf = flows.AutoregressiveLayer(net, degrees, direction="iaf")
    w = rng.standard_normal((32, 4))
    maf_fwd, _, _ = maf.forward(w)
    assert np.array_equal(maf_fwd, iaf.inverse(w))
    # and the opposite orientation: maf inverse == iaf forward values
    iaf_fwd, _, _ = iaf.forward(w)
    assert np.max(np.abs(maf.inverse(w) - iaf_fwd)) < 1e-12


@pytest.mark.parametrize("kind", flows.FLOW_KINDS)
def test_fit_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(16)
    dim = 3
    flow = flows.build_flow(kind, dim, rng, depth=2, hidden=6)
    # perturb away from the zero-init saddle so gradients are generic
    for p in flow.parameters():
        p += 0.05 * rng.standard_normal(p.shape)
        layer_mask_fixup(flow)
    batch = rng.standard_normal((8, dim))
    _, grads = flows._nll_and_grads(flow, batch)

    def loss():
        h, log_det = flows.forward_map(flow, batch)
        d = flow.dim
        return float(
            (0.5 * (h * h).sum(axis=1) + 0.5 * d * flows.LOG_2PI - log_det).mean()
        )

    step = 1e-6
    params = flow.parameters()
    # masked weights stay zero by contract (the passes read weights as they
    # are), so they are not perturbed; their gradient must be exactly zero
    masks = {id(dense.weights): dense.mask for layer in flow.layers
             if isinstance(layer, flows.AutoregressiveLayer) for dense in layer.net.layers}
    for p, g in zip(params, grads):
        mask = masks.get(id(p))
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            if mask is not None and mask[idx] == 0:
                assert g[idx] == 0.0, (kind, idx)
                it.iternext()
                continue
            orig = p[idx]
            p[idx] = orig + step
            plus = loss()
            p[idx] = orig - step
            minus = loss()
            p[idx] = orig
            fd = (plus - minus) / (2 * step)
            denom = max(abs(fd), abs(g[idx]), 1e-6)
            assert abs(fd - g[idx]) / denom < 1e-4, (kind, idx)
            it.iternext()


def layer_mask_fixup(flow):
    """Re-zero masked weight entries after a raw parameter perturbation."""
    for layer in flow.layers:
        nets = []
        if isinstance(layer, flows.CouplingLayer):
            nets = [layer.scale_net, layer.shift_net]
        elif isinstance(layer, flows.AutoregressiveLayer):
            nets = [layer.net]
        for net in nets:
            for dense in net.layers:
                if dense.mask is not None:
                    dense.weights *= dense.mask


def test_forward_shape_error():
    rng = np.random.default_rng(17)
    flow = flows.build_flow("realnvp", 4, rng, depth=2, hidden=8)
    with pytest.raises(ShapeError):
        flows.forward_map(flow, np.zeros((3, 5)))


def test_nonfinite_names_layer():
    rng = np.random.default_rng(18)
    flow = flows.build_flow("realnvp", 2, rng, depth=2, hidden=8)
    with pytest.raises(NumericError) as err:
        flows.forward_map(flow, np.array([[np.inf, 0.0]]))
    assert "layer 0" in str(err.value)


# --- the autoregressive degree sweep ----------------------------------------


def reference_generate(layer, u):
    """Per-degree oracle for AutoregressiveLayer._generate: one full net pass
    per degree step."""
    w = np.zeros_like(u)
    d = layer.dim
    for i in layer.degree_order:
        out = nn.predict(layer.net, w)
        s_i = flows.SCALE_CLAMP * np.tanh(out[:, d + i])
        w[:, i] = u[:, i] * np.exp(s_i) + out[:, i]
    return w


def reference_backward_generate(layer, payload, g_h, g_log_det):
    """Per-degree oracle for AutoregressiveLayer._backward_generate: one full
    backward pass per degree step, high degrees first."""
    z, h, mu, s, th, net_cache = payload
    d = layer.dim
    n = g_h.shape[0]
    g_acc = g_h.copy()
    g_z = np.zeros_like(g_h)
    total = [np.zeros_like(p) for p in layer.net.parameters()]
    dth = flows.SCALE_CLAMP * (1.0 - th * th)
    for i in layer.degree_order[::-1]:
        gi = g_acc[:, i]
        es_i = np.exp(s[:, i])
        g_z[:, i] = gi * es_i
        upstream = np.zeros((n, 2 * d))
        upstream[:, i] = gi
        upstream[:, d + i] = (gi * z[:, i] * es_i + g_log_det) * dth[:, i]
        grads, g_in = nn.backward(layer.net, net_cache, upstream)
        for acc, g in zip(total, grads):
            acc += g
        g_acc += g_in
    return g_z, total


def random_ar_layer(rng, degrees, hidden, direction="iaf", keep=1.0):
    """Autoregressive layer with generic (non-identity) weights.  keep < 1
    drops that share of the MADE connections at random, which keeps the
    net autoregressive and leaves some units reading no input at all."""
    net = random_masked_net(rng, degrees, hidden)
    for dense in net.layers:
        dense.mask *= rng.random(dense.mask.shape) < keep
        dense.weights[...] = rng.standard_normal(dense.weights.shape) * dense.mask
        dense.weights *= 1.5 / math.sqrt(dense.in_dim)
        dense.bias[...] = 0.3 * rng.standard_normal(dense.bias.shape)
    return flows.AutoregressiveLayer(net, degrees, direction=direction)


def assert_close(actual, expected, rtol):
    scale = max(np.max(np.abs(expected)), 1e-300)
    assert np.max(np.abs(actual - expected)) <= rtol * scale


@pytest.mark.parametrize("n", (1, 128))
@pytest.mark.parametrize("descending", (False, True))
def test_sweep_matches_per_degree_reference(n, descending):
    rng = np.random.default_rng(19)
    dim = 64
    degrees = np.arange(1, dim + 1)
    if descending:
        degrees = degrees[::-1].copy()
    layer = random_ar_layer(rng, degrees, hidden=64)
    z = rng.standard_normal((n, dim))
    h = layer._generate(z)
    assert_close(h, reference_generate(layer, z), 1e-12)

    h, _, cache = layer.forward(z)
    g_h = rng.standard_normal((n, dim))
    g_log_det = rng.standard_normal(n)
    g_z, grads = layer.backward(cache, g_h, g_log_det)
    ref_z, ref_grads = reference_backward_generate(layer, cache, g_h, g_log_det)
    assert_close(g_z, ref_z, 1e-12)
    assert len(grads) == len(ref_grads)
    for g, ref in zip(grads, ref_grads):
        assert_close(g, ref, 1e-12)


def test_iaf_layer_gradients_match_finite_differences():
    rng = np.random.default_rng(20)
    dim = 8
    layer = random_ar_layer(rng, np.arange(1, dim + 1)[::-1].copy(), hidden=12)
    z = rng.standard_normal((4, dim))
    c_h = rng.standard_normal((4, dim))
    c_log_det = rng.standard_normal(4)

    def loss(z_in):
        h, log_det, _ = layer.forward(z_in)
        return float((c_h * h).sum() + (c_log_det * log_det).sum())

    _, _, cache = layer.forward(z)
    g_z, grads = layer.backward(cache, c_h, c_log_det)
    step = 1e-6
    # masked weights stay zero by contract, so they are not perturbed; their
    # gradient must be exactly zero
    masks = {id(dense.weights): dense.mask for dense in layer.net.layers}
    for target, analytic in [(z, g_z), *zip(layer.parameters(), grads)]:
        mask = masks.get(id(target))
        for idx in np.ndindex(target.shape):
            if mask is not None and mask[idx] == 0:
                assert analytic[idx] == 0.0, idx
                continue
            orig = target[idx]
            target[idx] = orig + step
            plus = loss(z)
            target[idx] = orig - step
            minus = loss(z)
            target[idx] = orig
            fd = (plus - minus) / (2 * step)
            assert abs(fd - analytic[idx]) <= 1e-6 * max(1.0, abs(fd)), idx


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=10),
    hidden=st.integers(min_value=1, max_value=24),
    keep=st.sampled_from((1.0, 0.6)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sweep_round_trip_any_degree_order(dim, hidden, keep, seed):
    rng = np.random.default_rng(seed)
    degrees = rng.permutation(dim) + 1
    layer = random_ar_layer(rng, degrees, hidden, keep=keep)
    x = rng.standard_normal((5, dim))
    u, _, _ = layer._normalize(x)
    back = layer._generate(u)
    assert np.max(np.abs(back - x)) < 1e-9
    assert_close(back, reference_generate(layer, u), 1e-12)


def test_sweep_makes_no_full_net_passes(monkeypatch):
    rng = np.random.default_rng(21)
    layer = random_ar_layer(rng, np.arange(1, 17), hidden=16)
    z = rng.standard_normal((8, 16))
    _, _, cache = layer.forward(z)
    calls = {"forward": 0, "predict": 0, "backward": 0}
    for name in calls:
        original = getattr(nn, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(nn, name, counted)
    layer._generate(z)
    assert calls == {"forward": 0, "predict": 0, "backward": 0}
    layer._backward_generate(cache, z, np.ones(8))
    assert calls == {"forward": 0, "predict": 0, "backward": 1}


@pytest.mark.parametrize(
    "degrees", ([1, 1, 2, 3], [0, 1, 2, 3], [1, 2, 3, 5], [[1, 2], [3, 4]])
)
def test_degrees_must_be_a_permutation(degrees):
    rng = np.random.default_rng(22)
    net = flows._masked_subnet(rng, np.arange(1, 5), hidden=8)
    with pytest.raises(ShapeError):
        flows.AutoregressiveLayer(net, degrees)


def test_masks_must_match_degree_order():
    rng = np.random.default_rng(23)
    net = flows._masked_subnet(rng, np.arange(1, 5), hidden=8)
    with pytest.raises(ShapeError):
        flows.AutoregressiveLayer(net, [4, 3, 2, 1])
    unmasked = nn.build_mlp(rng, [4, 8, 8], ["tanh", "identity"])
    with pytest.raises(ShapeError):
        flows.AutoregressiveLayer(unmasked, [1, 2, 3, 4])
