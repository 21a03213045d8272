import math

import numpy as np
import pytest

from fisgan import data, flows, nn, train
from fisgan.errors import ConfigError, TrainError


def ring_dataset(count=512, seed=0):
    spec = data.SyntheticSpec(kind="ring", count=count, sigma=0.05)
    return data.make_synthetic(spec, np.random.default_rng(seed))


def small_config(**over):
    base = dict(
        latent_dim=8,
        refresh_t=5,
        flow_epochs=2,
        flow_batch=64,
        augment_N=128,
        batch_size=32,
        max_iters=10,
        seed=1,
        mode="fis",
        flow_depth=2,
        flow_hidden=16,
    )
    base.update(over)
    return train.TrainConfig(**base)


def fake_clock():
    tick = [0.0]

    def clock():
        tick[0] += 1.0
        return tick[0]

    return clock


def test_warm_start_counter_and_no_flow():
    ds = ring_dataset()
    state = train.init_state(small_config(), ds)
    d_loss, g_loss = train.warm_start_step(state, train.draw_real_batch(state, ds))
    assert state.iteration == 1
    assert state.flow is None
    assert math.isfinite(d_loss) and math.isfinite(g_loss)
    assert d_loss <= 2 * math.log(2) + 1


def test_warm_start_requires_iteration_zero():
    ds = ring_dataset()
    state = train.init_state(small_config(), ds)
    train.warm_start_step(state, train.draw_real_batch(state, ds))
    with pytest.raises(TrainError):
        train.warm_start_step(state, train.draw_real_batch(state, ds))


def test_modes_share_warm_start_bitwise():
    ds = ring_dataset()
    results = {}
    for mode in ("baseline", "fis"):
        state = train.init_state(small_config(mode=mode), ds)
        train.warm_start_step(state, train.draw_real_batch(state, ds))
        results[mode] = (
            [p.copy() for p in state.gen.parameters()],
            [p.copy() for p in state.disc.parameters()],
            state.model_rng.bit_generator.state["state"],
        )
    for a, b in zip(results["baseline"][0], results["fis"][0]):
        assert np.array_equal(a, b)
    for a, b in zip(results["baseline"][1], results["fis"][1]):
        assert np.array_equal(a, b)
    assert results["baseline"][2] == results["fis"][2]


def test_sample_noise_baseline_reproducible():
    ds = ring_dataset()
    a = train.init_state(small_config(mode="baseline"), ds)
    b = train.init_state(small_config(mode="baseline"), ds)
    assert np.array_equal(train.sample_noise(a, 16, a.model_rng),
                          train.sample_noise(b, 16, b.model_rng))


def test_sample_noise_identity_flow_matches_baseline_law():
    ds = ring_dataset()
    cfg = small_config(latent_dim=6)
    state = train.init_state(cfg, ds)
    state.flow = flows.build_flow("realnvp", 6, np.random.default_rng(5),
                                  depth=2, hidden=8)
    draws = train.sample_noise(state, 10_000, state.model_rng)
    assert np.linalg.norm(draws.mean(axis=0)) < 0.1
    assert np.max(np.abs(np.cov(draws, rowvar=False) - np.eye(6))) < 0.1


def test_sample_noise_tracks_fitted_shift():
    # after fitting the flow to a shifted cluster, noise moves that way
    shift = np.array([2.5, 0.0, 0.0, 0.0])
    hits = 0
    for seed in range(5):
        ds = ring_dataset(seed=seed)
        cfg = small_config(latent_dim=4, seed=seed)
        state = train.init_state(cfg, ds)
        rng = np.random.default_rng(100 + seed)
        flow = flows.build_flow("realnvp", 4, rng, depth=4, hidden=32)
        adam = flows.flow_adam(flow, lr=5e-3)
        target = rng.standard_normal((1024, 4)) + shift
        flows.fit(flow, target, epochs=15, batch_size=128, adam=adam, rng=rng)
        state.flow = flow
        draws = train.sample_noise(state, 2048, state.model_rng)
        if float(draws.mean(axis=0) @ shift) > 0:
            hits += 1
    assert hits == 5


def test_discriminator_learns_separable_data():
    ds = data.Dataset(samples=np.vstack([
        np.random.default_rng(0).normal(3.0, 0.1, size=(256, 2)),
    ]), pixel_range=(-4.0, 4.0))
    cfg = small_config(latent_dim=4, mode="baseline", lr_d=1e-3)
    state = train.init_state(cfg, ds)
    # freeze G so the fake set stays put near tanh-squashed init outputs
    state.adam_g.lr = 0.0
    train.warm_start_step(state, train.draw_real_batch(state, ds))
    d_loss = None
    for _ in range(500):
        d_loss, _ = train.adversarial_step(state, train.draw_real_batch(state, ds))
        if d_loss < 0.1:
            break
    assert d_loss < 0.1


def test_zero_learning_rates_keep_parameters():
    ds = ring_dataset()
    state = train.init_state(small_config(mode="baseline"), ds)
    train.warm_start_step(state, train.draw_real_batch(state, ds))
    state.adam_g.lr = 0.0
    state.adam_d.lr = 0.0
    gen_before = [p.copy() for p in state.gen.parameters()]
    disc_before = [p.copy() for p in state.disc.parameters()]
    d_loss, g_loss = train.adversarial_step(state, train.draw_real_batch(state, ds))
    assert math.isfinite(d_loss) and math.isfinite(g_loss)
    assert all(np.array_equal(a, b) for a, b in zip(gen_before, state.gen.parameters()))
    assert all(np.array_equal(a, b) for a, b in zip(disc_before, state.disc.parameters()))


def test_steps_deterministic():
    ds = ring_dataset()

    def run():
        state = train.init_state(small_config(mode="baseline"), ds)
        train.warm_start_step(state, train.draw_real_batch(state, ds))
        out = []
        for _ in range(2):
            out.append(train.adversarial_step(state, train.draw_real_batch(state, ds)))
        return out

    assert run() == run()


def test_step_asks_only_for_gradients_it_uses(monkeypatch):
    ds = ring_dataset()
    state = train.init_state(small_config(mode="baseline"), ds)
    train.warm_start_step(state, train.draw_real_batch(state, ds))
    calls = []
    original = nn.backward

    def spy(net, *args, **kwargs):
        calls.append((net, kwargs.get("params", True), kwargs.get("inputs", True)))
        return original(net, *args, **kwargs)

    monkeypatch.setattr(nn, "backward", spy)
    train.adversarial_step(state, train.draw_real_batch(state, ds))
    # (net, params, inputs): the D update needs D's parameter gradients;
    # the G update needs D's input gradient, then G's parameter gradients
    assert calls == [(state.disc, True, False), (state.disc, False, True),
                     (state.gen, True, False)]


def test_adversarial_step_requires_warm_start():
    ds = ring_dataset()
    state = train.init_state(small_config(), ds)
    with pytest.raises(TrainError):
        train.adversarial_step(state, train.draw_real_batch(state, ds))


def test_refresh_schedule_exact():
    ds = ring_dataset()
    cfg = small_config(refresh_t=10, max_iters=30, flow_epochs=1, augment_N=64)
    summary = train.train(cfg, ds, eval_options=train.EvalOptions(
        interval=10, samples=128), clock=fake_clock())
    assert summary.refresh_count == 3
    assert summary.state.flow is not None


def test_no_refresh_in_baseline():
    ds = ring_dataset()
    cfg = small_config(mode="baseline", max_iters=20)
    summary = train.train(cfg, ds, eval_options=train.EvalOptions(
        interval=10, samples=128), clock=fake_clock())
    assert summary.refresh_count == 0
    assert summary.state.flow is None


def test_unscheduled_refresh_rejected():
    ds = ring_dataset()
    state = train.init_state(small_config(refresh_t=10), ds)
    train.warm_start_step(state, train.draw_real_batch(state, ds))
    train.adversarial_step(state, train.draw_real_batch(state, ds))
    # completed batch 1, refresh_t 10: not scheduled
    with pytest.raises(TrainError):
        train.flow_refresh(state)


def test_degenerate_norms_skip_refresh(caplog):
    ds = ring_dataset()
    cfg = small_config(refresh_t=1, latent_dim=4)
    state = train.init_state(cfg, ds)
    train.warm_start_step(state, train.draw_real_batch(state, ds))
    train.adversarial_step(state, train.draw_real_batch(state, ds))
    # dead generator: all-zero weights means all-zero Jacobian norms
    for p in state.gen.parameters():
        p[:] = 0.0
    with caplog.at_level("WARNING"):
        train.flow_refresh(state)
    assert state.flow is None
    assert state.refresh_count == 0
    assert any("refresh skipped" in rec.message for rec in caplog.records)
    # training continues fine afterwards
    train.adversarial_step(state, train.draw_real_batch(state, ds))


def test_refresh_targets_heavy_norm_cluster():
    ds = ring_dataset()
    cfg = small_config(latent_dim=2, refresh_t=10, flow_epochs=40,
                       augment_N=512, flow_depth=4, flow_hidden=32)
    state = train.init_state(cfg, ds)
    # generator whose Jacobian vanishes for z_x < 0 and is large for z_x > 0
    w1 = np.zeros((8, 2))
    w1[:, 0] = 1.0
    w2 = np.random.default_rng(3).standard_normal((2, 8))
    state.gen = nn.MlpNet([
        nn.DenseLayer(weights=w1, bias=np.zeros(8), activation="relu"),
        nn.DenseLayer(weights=w2, bias=np.zeros(2), activation="identity"),
    ])
    heavy = np.tile(np.array([5.0, 0.0]), (16, 1))
    light = np.tile(np.array([-5.0, 0.0]), (16, 1))
    state.last_latents = np.vstack([heavy, light])
    state.iteration = 11  # just completed batch 10
    train.flow_refresh(state)
    assert state.refresh_count == 1
    draws = train.sample_noise(state, 10_000, state.model_rng)
    d_heavy = np.linalg.norm(draws - np.array([5.0, 0.0]), axis=1)
    d_light = np.linalg.norm(draws - np.array([-5.0, 0.0]), axis=1)
    assert np.mean(d_heavy < d_light) >= 0.60


def test_train_zero_iters_warm_start_row_only():
    ds = ring_dataset()
    cfg = small_config(max_iters=0)
    summary = train.train(cfg, ds, clock=fake_clock(),
                          eval_options=train.EvalOptions(interval=10, samples=128))
    assert len(summary.rows) == 1
    assert summary.rows[0].iteration == 0


def test_train_rows_at_eval_interval():
    ds = ring_dataset()
    cfg = small_config(max_iters=20, mode="baseline")
    summary = train.train(cfg, ds, clock=fake_clock(),
                          eval_options=train.EvalOptions(interval=5, samples=128))
    assert [r.iteration for r in summary.rows] == [0, 5, 10, 15, 20]


def test_train_bitwise_reproducible():
    ds = ring_dataset()
    cfg = small_config(max_iters=12, refresh_t=4, flow_epochs=1, augment_N=64)

    def run():
        return train.train(cfg, ds, clock=fake_clock(),
                           eval_options=train.EvalOptions(interval=4, samples=128))

    a, b = run(), run()
    assert len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        assert ra == rb


def test_mode_equivalence_identity_flow():
    # flow_epochs = 0 leaves each refreshed flow at identity, so fis noise
    # stays standard normal in law
    ds = ring_dataset()
    cfg = small_config(max_iters=6, refresh_t=2, flow_epochs=0, latent_dim=6)
    summary = train.train(cfg, ds, clock=fake_clock(),
                          eval_options=train.EvalOptions(interval=6, samples=128))
    state = summary.state
    assert state.flow is not None
    draws = train.sample_noise(state, 10_000, state.model_rng)
    assert np.linalg.norm(draws.mean(axis=0)) < 0.1
    assert np.max(np.abs(np.cov(draws, rowvar=False) - np.eye(6))) < 0.1


def test_empty_dataset_rejected():
    ds = data.Dataset(samples=np.zeros((0, 2)))
    with pytest.raises(ConfigError):
        train.train(small_config(), ds)


def test_invalid_config_rejected():
    with pytest.raises(ConfigError):
        small_config(refresh_t=0).validate()
    with pytest.raises(ConfigError):
        small_config(lr_g=0.0).validate()
    with pytest.raises(ConfigError):
        small_config(mode="other").validate()
    with pytest.raises(ConfigError):
        small_config(seed=-1).validate()
