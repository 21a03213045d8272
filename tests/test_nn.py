import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fisgan import nn
from fisgan.errors import NumericError, ShapeError, StateError


def reference_jacobian_batch(net, latents):
    """Test oracle: out_dim reverse passes of one-hot rows over one forward
    cache, one Jacobian row per pass."""
    latents = np.asarray(latents, dtype=np.float64)
    _, caches = nn.forward(net, latents)
    n = latents.shape[0]
    jac = np.empty((n, net.out_dim, net.in_dim))
    for m in range(net.out_dim):
        upstream = np.zeros((n, net.out_dim))
        upstream[:, m] = 1.0
        _, g_in = nn.backward(net, caches, upstream)
        jac[:, m, :] = g_in
    return jac


def reference_leaky_forward(u, alpha):
    """Test oracle: leaky ReLU with a per-element branch."""
    return np.where(u > 0.0, u, alpha * u)


def reference_leaky_grad(u, alpha):
    """Test oracle: leaky ReLU slope with a per-element branch."""
    return np.where(u > 0.0, 1.0, alpha)


def reference_adam_step(params, grads, m_list, v_list, step, lr,
                        beta1=0.9, beta2=0.999, eps=1e-8):
    """Test oracle: Adam updated array by array; returns the new step."""
    t = step + 1
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for p, g, m, v in zip(params, grads, m_list, v_list):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return t


def finite_diff_param_grads(net, batch, loss_fn, step=1e-5):
    """Central-difference gradients of loss_fn(forward(net, batch)) for
    every parameter entry."""
    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            lo_plus = loss_fn(nn.forward(net, batch)[0])
            p[idx] = orig - step
            lo_minus = loss_fn(nn.forward(net, batch)[0])
            p[idx] = orig
            g[idx] = (lo_plus - lo_minus) / (2 * step)
            it.iternext()
        grads.append(g)
    return grads


def rel_err(a, b):
    return np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, 1e-8)])


def random_net(rng, sizes=None, acts=None):
    if sizes is None:
        sizes = [4, 6, 5, 3]
    if acts is None:
        acts = ["tanh", "leaky_relu", "identity"]
    return nn.build_mlp(rng, sizes, acts)


def test_identity_layer_passthrough():
    layer = nn.DenseLayer(weights=np.eye(3), bias=np.zeros(3))
    net = nn.MlpNet([layer])
    z = np.array([[0.5, -1.0, 2.0]])
    out, _ = nn.forward(net, z)
    assert np.array_equal(out, z)


def test_relu_layer_definition():
    layer = nn.DenseLayer(weights=np.eye(2), bias=np.zeros(2), activation="relu")
    net = nn.MlpNet([layer])
    out, _ = nn.forward(net, np.array([[-1.0, 2.0]]))
    assert np.array_equal(out, np.array([[0.0, 2.0]]))


def test_two_layer_hand_computed():
    # y = tanh(W1 x + b1), out = W2 y + b2, evaluated by hand at x = (1, 1)
    w1 = np.array([[0.5, -0.25], [0.1, 0.3]])
    b1 = np.array([0.1, -0.2])
    w2 = np.array([[1.0, 2.0]])
    b2 = np.array([0.05])
    net = nn.MlpNet(
        [
            nn.DenseLayer(weights=w1, bias=b1, activation="tanh"),
            nn.DenseLayer(weights=w2, bias=b2, activation="identity"),
        ]
    )
    x = np.array([[1.0, 1.0]])
    h = np.tanh(w1 @ x[0] + b1)
    expected = w2 @ h + b2
    out, _ = nn.forward(net, x)
    assert np.allclose(out[0], expected, atol=1e-15)


def test_forward_shape_error():
    net = random_net(np.random.default_rng(0))
    with pytest.raises(ShapeError):
        nn.forward(net, np.zeros((2, 7)))


@pytest.mark.parametrize("activation", nn.ACTIVATIONS)
def test_predict_matches_forward_bitwise(activation):
    rng = np.random.default_rng(11)
    sizes = [5, 7, 6, 4]
    masks = [(rng.random((o, i)) < 0.6).astype(np.float64)
             for i, o in zip(sizes, sizes[1:])]
    for net in (nn.build_mlp(rng, sizes, [activation] * 3),
                nn.build_mlp(rng, sizes, [activation, "leaky_relu", activation],
                             masks=masks)):
        batch = 3.0 * rng.standard_normal((9, 5))
        expected, _ = nn.forward(net, batch)
        assert nn.predict(net, batch).tobytes() == expected.tobytes()
    with pytest.raises(ShapeError):
        nn.predict(net, np.zeros((2, 4)))


# Pre-activations come out of a matmul, so a NaN among them is always a
# quiet one; the special values are drawn next to ordinary floats.
_PRE_ACTIVATIONS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
    elements=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
        st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                         5e-324, -5e-324, 2.2e-308, -2.2e-308]),
    ),
)


@settings(max_examples=200, deadline=None)
@given(u=_PRE_ACTIVATIONS)
def test_leaky_relu_matches_branchy_oracle_bitwise(u):
    with np.errstate(all="ignore"):
        got = nn.act_forward(u, "leaky_relu")
        want = reference_leaky_forward(u, nn.LEAKY_SLOPE)
    assert got.tobytes() == want.tobytes()
    slope = nn.act_grad(u, got, "leaky_relu")
    assert slope.tobytes() == reference_leaky_grad(u, nn.LEAKY_SLOPE).tobytes()


def test_linear_input_grads_recover_weight_rows():
    w = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    net = nn.MlpNet([nn.DenseLayer(weights=w, bias=np.zeros(2))])
    _, cache = nn.forward(net, np.zeros((1, 3)))
    for k in range(2):
        upstream = np.zeros((1, 2))
        upstream[0, k] = 1.0
        _, g_in = nn.backward(net, cache, upstream)
        assert np.array_equal(g_in[0], w[k])


def test_zero_upstream_zero_grads():
    rng = np.random.default_rng(1)
    net = random_net(rng)
    batch = rng.standard_normal((3, 4))
    _, cache = nn.forward(net, batch)
    grads, g_in = nn.backward(net, cache, np.zeros((3, 3)))
    assert all(np.all(g == 0) for g in grads)
    assert np.all(g_in == 0)


def test_backward_stale_cache():
    rng = np.random.default_rng(2)
    net = random_net(rng)
    with pytest.raises(StateError):
        nn.backward(net, None, np.zeros((1, 3)))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    net = random_net(rng)
    batch = rng.standard_normal((4, 4))
    weights = rng.standard_normal((4, 3))

    def loss(out):
        return float((out * weights).sum())

    out, cache = nn.forward(net, batch)
    grads, _ = nn.backward(net, cache, weights)
    fd = finite_diff_param_grads(net, batch, loss)
    for g, f in zip(grads, fd):
        mask = (np.abs(g) > 1e-10) | (np.abs(f) > 1e-10)
        assert np.all(rel_err(g[mask], f[mask]) < 1e-4)


def test_gradient_soundness_many_random_nets():
    # 20 random (net, input) pairs checked against central differences.
    rng = np.random.default_rng(7)
    for trial in range(20):
        sizes = [int(rng.integers(2, 6)) for _ in range(4)]
        acts = [str(rng.choice(["tanh", "relu", "leaky_relu", "sigmoid"])) for _ in range(2)]
        acts.append("identity")
        net = nn.build_mlp(rng, sizes, acts)
        batch = rng.standard_normal((3, sizes[0]))
        mix = rng.standard_normal((3, sizes[-1]))

        out, cache = nn.forward(net, batch)
        grads, g_in = nn.backward(net, cache, mix)
        fd = finite_diff_param_grads(net, batch, lambda o: float((o * mix).sum()))
        for g, f in zip(grads, fd):
            sel = (np.abs(g) > 1e-7) | (np.abs(f) > 1e-7)
            assert np.all(rel_err(g[sel], f[sel]) < 1e-4), f"trial {trial}"


def test_jacobian_linear_generator():
    w = np.array([[2.0, -1.0], [0.5, 3.0], [1.0, 1.0]])
    net = nn.MlpNet([nn.DenseLayer(weights=w, bias=np.zeros(3))])
    jac = nn.jacobian_wrt_input(net, np.array([0.3, -0.7]))
    assert np.array_equal(jac, w)


def test_jacobian_constant_generator():
    net = nn.MlpNet(
        [nn.DenseLayer(weights=np.zeros((3, 2)), bias=np.array([1.0, 2.0, 3.0]))]
    )
    jac = nn.jacobian_wrt_input(net, np.zeros(2))
    assert np.array_equal(jac, np.zeros((3, 2)))


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    net = random_net(rng)
    z = rng.standard_normal(4)
    jac = nn.jacobian_wrt_input(net, z)
    step = 1e-5
    fd = np.zeros_like(jac)
    for d in range(4):
        zp = z.copy()
        zp[d] += step
        zm = z.copy()
        zm[d] -= step
        fd[:, d] = (nn.forward(net, zp[None])[0][0] - nn.forward(net, zm[None])[0][0]) / (
            2 * step
        )
    sel = (np.abs(jac) > 1e-8) | (np.abs(fd) > 1e-8)
    assert np.all(rel_err(jac[sel], fd[sel]) < 1e-4)


def test_jacobian_rows_match_backward_one_hot():
    rng = np.random.default_rng(13)
    net = random_net(rng)
    z = rng.standard_normal(4)
    jac = nn.jacobian_wrt_input(net, z)
    _, cache = nn.forward(net, z[None])
    for m in range(net.out_dim):
        upstream = np.zeros((1, net.out_dim))
        upstream[0, m] = 1.0
        _, g_in = nn.backward(net, cache, upstream)
        assert np.array_equal(jac[m], g_in[0])


def test_jacobian_batch_matches_single():
    # BLAS rounds batched and single-row matmuls differently, so this is
    # a tight-tolerance check rather than a bitwise one.
    rng = np.random.default_rng(17)
    net = random_net(rng)
    latents = rng.standard_normal((5, 4))
    jac = nn.jacobian_batch(net, latents)
    for i in range(5):
        single = nn.jacobian_wrt_input(net, latents[i])
        assert np.max(np.abs(jac[i] - single)) < 1e-12


GLYPH_G = ([64, 128, 256, 64], ["leaky_relu", "leaky_relu", "tanh"])
RING_G = ([64, 128, 256, 2], ["leaky_relu", "leaky_relu", "tanh"])


def masked_net(rng):
    sizes = [6, 9, 7, 5]
    masks = [(rng.random((o, i)) < 0.6).astype(np.float64)
             for i, o in zip(sizes, sizes[1:])]
    return nn.build_mlp(rng, sizes, ["relu", "sigmoid", "identity"], masks=masks)


@pytest.mark.parametrize("shape, n", [
    (GLYPH_G, 64),  # the glyph generator at its batch size: 4 blocks of 16
    (GLYPH_G, 40),  # a short last block
    (GLYPH_G, 2),
    (RING_G, 128),  # the ring generator: one block
    ("masked", 33),
])
def test_jacobian_batch_matches_one_hot_loop_bitwise(shape, n):
    rng = np.random.default_rng(23)
    net = masked_net(rng) if shape == "masked" else nn.build_mlp(rng, *shape)
    latents = rng.standard_normal((n, net.in_dim))
    jac = nn.jacobian_batch(net, latents)
    assert jac.tobytes() == reference_jacobian_batch(net, latents).tobytes()


def test_jacobian_batch_single_example():
    # numpy hands the loop's one-row products to a matrix-vector kernel,
    # which sums in another order, so one example agrees to rounding only
    rng = np.random.default_rng(24)
    net = nn.build_mlp(rng, *GLYPH_G)
    latents = rng.standard_normal((1, 64))
    ref = reference_jacobian_batch(net, latents)
    assert np.max(np.abs(nn.jacobian_batch(net, latents) - ref)) <= 1e-12 * np.abs(ref).max()


def test_jacobian_batch_is_one_forward_and_no_backward(monkeypatch):
    calls = {"forward": 0, "backward": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(nn, "forward", counted("forward", nn.forward))
    monkeypatch.setattr(nn, "backward", counted("backward", nn.backward))
    rng = np.random.default_rng(25)
    nn.jacobian_batch(nn.build_mlp(rng, *GLYPH_G), rng.standard_normal((64, 64)))
    assert calls == {"forward": 1, "backward": 0}


def _selection_nets(rng):
    sizes = [6, 9, 7, 5]
    masks = [(rng.random((o, i)) < 0.6).astype(np.float64)
             for i, o in zip(sizes, sizes[1:])]
    yield nn.build_mlp(rng, sizes, ["leaky_relu", "tanh", "identity"])
    yield nn.build_mlp(rng, sizes, ["leaky_relu", "leaky_relu", "sigmoid"], masks=masks)
    yield nn.build_mlp(rng, *GLYPH_G)


def test_backward_selection_matches_full_pass_bitwise():
    rng = np.random.default_rng(31)
    for net in _selection_nets(rng):
        batch = 2.0 * rng.standard_normal((17, net.in_dim))
        _, cache = nn.forward(net, batch)
        upstream = rng.standard_normal((17, net.out_dim))
        full_grads, full_in = nn.backward(net, cache, upstream)
        grads, g_in = nn.backward(net, cache, upstream, inputs=False)
        assert g_in is None
        assert len(grads) == len(full_grads)
        for got, want in zip(grads, full_grads):
            assert got.tobytes() == want.tobytes()
        grads, g_in = nn.backward(net, cache, upstream, params=False)
        assert grads is None
        assert g_in.tobytes() == full_in.tobytes()


_SHAPES = st.lists(st.lists(st.integers(1, 5), min_size=0, max_size=3).map(tuple),
                   min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(shapes=_SHAPES, steps=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       lr=st.sampled_from([1e-4, 1e-3, 0.05]))
def test_adam_step_matches_per_array_reference(shapes, steps, seed, lr):
    rng = np.random.default_rng(seed)
    params = [rng.standard_normal(shape) for shape in shapes]
    ref_params = [p.copy() for p in params]
    ref_m = [np.zeros(shape) for shape in shapes]
    ref_v = [np.zeros(shape) for shape in shapes]
    state = nn.init_adam(params, lr=lr)
    ref_step = 0
    for _ in range(steps):
        scale = 10.0 ** rng.integers(-6, 4)
        grads = [scale * rng.standard_normal(shape) for shape in shapes]
        nn.adam_step(params, grads, state)
        ref_step = reference_adam_step(ref_params, grads, ref_m, ref_v, ref_step, lr)
    assert state.step == ref_step
    for got, want in zip(params + state.m + state.v, ref_params + ref_m + ref_v):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", [0, 1, 2])
def test_adam_nonfinite_gradient_leaves_state_untouched(bad, which):
    rng = np.random.default_rng(26)
    shapes = [(4, 3), (3,), (2, 2, 2)]
    params = [rng.standard_normal(shape) for shape in shapes]
    state = nn.init_adam(params, lr=1e-2)
    for _ in range(3):
        nn.adam_step(params, [rng.standard_normal(shape) for shape in shapes], state)
    before = [a.copy() for a in params + state.m + state.v]
    grads = [rng.standard_normal(shape) for shape in shapes]
    grads[which].flat[-1] = bad
    with pytest.raises(NumericError):
        nn.adam_step(params, grads, state)
    assert state.step == 3
    for got, want in zip(params + state.m + state.v, before):
        assert got.tobytes() == want.tobytes()


def test_adam_state_built_from_moments_matches_reference():
    rng = np.random.default_rng(27)
    shapes = [(3, 2), (2,)]
    params = [rng.standard_normal(shape) for shape in shapes]
    ref_params = [p.copy() for p in params]
    ref_m = [rng.standard_normal(shape) for shape in shapes]
    ref_v = [rng.random(shape) for shape in shapes]
    state = nn.AdamState(lr=1e-2, m=[m.copy() for m in ref_m],
                         v=[v.copy() for v in ref_v], step=4)
    grads = [rng.standard_normal(shape) for shape in shapes]
    nn.adam_step(params, grads, state)
    assert state.step == reference_adam_step(ref_params, grads, ref_m, ref_v, 4, 1e-2)
    for got, want in zip(params + state.m + state.v, ref_params + ref_m + ref_v):
        assert got.tobytes() == want.tobytes()


def test_adam_state_rejects_mismatched_moments():
    with pytest.raises(ShapeError):
        nn.AdamState(lr=0.1, m=[np.zeros(2)], v=[np.zeros(3)])


def test_adam_zero_gradients_no_move():
    p = [np.array([1.0, -2.0]), np.array([[3.0]])]
    state = nn.init_adam(p, lr=0.1)
    before = [q.copy() for q in p]
    nn.adam_step(p, [np.zeros(2), np.zeros((1, 1))], state)
    assert state.step == 1
    assert all(np.array_equal(a, b) for a, b in zip(p, before))


def test_adam_first_step_magnitude():
    # Scalar parameter, gradient 1: the bias-corrected first step is -lr.
    p = [np.array([0.0])]
    state = nn.init_adam(p, lr=0.05)
    nn.adam_step(p, [np.array([1.0])], state)
    assert abs(p[0][0] + 0.05) < 1e-9


def test_adam_identical_blocks_identical_updates():
    p = [np.array([1.0, 2.0]), np.array([1.0, 2.0])]
    g = [np.array([0.3, -0.4]), np.array([0.3, -0.4])]
    state = nn.init_adam(p, lr=0.01)
    nn.adam_step(p, g, state)
    assert np.array_equal(p[0], p[1])


def test_adam_rejects_nonfinite():
    p = [np.array([1.0])]
    state = nn.init_adam(p, lr=0.1)
    with pytest.raises(NumericError):
        nn.adam_step(p, [np.array([np.nan])], state)
    assert p[0][0] == 1.0
    assert state.step == 0


def test_determinism_same_seed_bit_identical():
    def run():
        rng = np.random.default_rng(99)
        net = random_net(rng)
        batch = rng.standard_normal((3, 4))
        out, cache = nn.forward(net, batch)
        grads, _ = nn.backward(net, cache, np.ones((3, 3)))
        return out, grads

    out1, g1 = run()
    out2, g2 = run()
    assert np.array_equal(out1, out2)
    assert all(np.array_equal(a, b) for a, b in zip(g1, g2))


def test_masked_layer_respects_connectivity():
    rng = np.random.default_rng(5)
    mask = np.array([[1.0, 0.0], [1.0, 1.0]])
    layer = nn.DenseLayer(
        weights=rng.standard_normal((2, 2)), bias=np.zeros(2), mask=mask
    )
    net = nn.MlpNet([layer])
    base, _ = nn.forward(net, np.array([[1.0, 0.0]]))
    bumped, _ = nn.forward(net, np.array([[1.0, 5.0]]))
    # output 0 must not see input 1
    assert base[0, 0] == bumped[0, 0]
    _, cache = nn.forward(net, np.array([[1.0, 2.0]]))
    grads, _ = nn.backward(net, cache, np.array([[1.0, 1.0]]))
    assert grads[0][0, 1] == 0.0
