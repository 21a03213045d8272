import numpy as np
import pytest

from fisgan import nn
from fisgan.errors import NumericError, ShapeError, StateError


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
