import numpy as np
import pytest

from fisgan import metrics, nn
from fisgan.errors import InsufficientSampleError, ShapeError


def test_raw_extractor_identity():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((10, 8))
    ex = metrics.fit_extractor("raw_pixels", data, rng)
    assert np.array_equal(ex.extract(data), data)


def test_pca_recovers_planted_plane():
    rng = np.random.default_rng(1)
    basis, _ = np.linalg.qr(rng.standard_normal((10, 2)))
    coords = rng.standard_normal((300, 2)) * np.array([3.0, 1.5])
    data = coords @ basis.T + 0.5
    ex = metrics.fit_extractor("pca", data, rng, pca_k=2)
    feats = ex.extract(data)
    recon = feats @ ex.projection.T + ex.mean
    assert np.max(np.abs(recon - data)) < 1e-8


def test_pca_reduces_rank_with_warning(caplog):
    rng = np.random.default_rng(2)
    data = rng.standard_normal((50, 4))
    with caplog.at_level("WARNING"):
        ex = metrics.fit_extractor("pca", data, rng, pca_k=32)
    assert ex.projection.shape == (4, 4)
    assert any("rank" in rec.message for rec in caplog.records)


def test_probe_net_reaches_train_accuracy():
    rng = np.random.default_rng(3)
    centers = rng.standard_normal((4, 16)) * 3.0
    labels = rng.integers(0, 4, size=600)
    data = centers[labels] + 0.3 * rng.standard_normal((600, 16))
    ex = metrics.fit_extractor("probe_net", data, rng, labels=labels)
    feats = ex.extract(data)
    assert feats.shape == (600, 32)


def test_probe_net_requires_labels():
    rng = np.random.default_rng(4)
    with pytest.raises(ShapeError):
        metrics.fit_extractor("probe_net", rng.standard_normal((10, 4)), rng)


def test_fit_moments_two_points():
    m = metrics.fit_moments(np.array([[0.0, 0.0], [2.0, 0.0]]), ridge=1e-6)
    assert np.allclose(m.mean, [1.0, 0.0])
    assert np.allclose(m.cov, np.diag([2.0 + 1e-6, 1e-6]))


def test_fit_moments_constant_dataset():
    m = metrics.fit_moments(np.full((5, 3), 2.5), ridge=1e-6)
    assert np.allclose(m.mean, 2.5)
    assert np.allclose(m.cov, 1e-6 * np.eye(3))


def test_fit_moments_monte_carlo():
    rng = np.random.default_rng(5)
    m = metrics.fit_moments(rng.standard_normal((100_000, 4)))
    assert np.max(np.abs(m.mean)) < 0.02
    assert np.max(np.abs(m.cov - np.eye(4))) < 0.05


def test_fit_moments_needs_two_rows():
    with pytest.raises(InsufficientSampleError):
        metrics.fit_moments(np.zeros((1, 3)))


def test_frechet_identical_moments_zero():
    rng = np.random.default_rng(6)
    c = rng.standard_normal((3, 3))
    m = metrics.GaussianMoments(mean=rng.standard_normal(3), cov=c.T @ c)
    assert metrics.frechet_distance(m, m) < 1e-8


def test_frechet_equal_cov_shift():
    rng = np.random.default_rng(7)
    c = rng.standard_normal((4, 4))
    cov = c.T @ c
    d = np.array([1.0, -2.0, 0.5, 3.0])
    a = metrics.GaussianMoments(mean=np.zeros(4), cov=cov)
    b = metrics.GaussianMoments(mean=d, cov=cov.copy())
    assert abs(metrics.frechet_distance(a, b) - d @ d) < 1e-8


def test_frechet_scalar_closed_form():
    a = metrics.GaussianMoments(mean=np.array([0.0]), cov=np.array([[1.0]]))
    b = metrics.GaussianMoments(mean=np.array([3.0]), cov=np.array([[4.0]]))
    # (0-3)^2 + (1-2)^2 = 10
    assert abs(metrics.frechet_distance(a, b) - 10.0) < 1e-8


def test_frechet_symmetry():
    rng = np.random.default_rng(8)
    c1 = rng.standard_normal((3, 3))
    c2 = rng.standard_normal((3, 3))
    a = metrics.GaussianMoments(mean=rng.standard_normal(3), cov=c1.T @ c1)
    b = metrics.GaussianMoments(mean=rng.standard_normal(3), cov=c2.T @ c2)
    assert abs(metrics.frechet_distance(a, b) - metrics.frechet_distance(b, a)) < 1e-9


def test_frechet_rotation_invariance():
    rng = np.random.default_rng(9)
    c1 = rng.standard_normal((4, 4))
    c2 = rng.standard_normal((4, 4))
    a = metrics.GaussianMoments(mean=rng.standard_normal(4), cov=c1.T @ c1)
    b = metrics.GaussianMoments(mean=rng.standard_normal(4), cov=c2.T @ c2)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    ar = metrics.GaussianMoments(mean=q @ a.mean, cov=q @ a.cov @ q.T)
    br = metrics.GaussianMoments(mean=q @ b.mean, cov=q @ b.cov @ q.T)
    assert abs(
        metrics.frechet_distance(a, b) - metrics.frechet_distance(ar, br)
    ) < 1e-8


def test_proxy_fid_same_set_zero():
    rng = np.random.default_rng(10)
    data = rng.standard_normal((500, 6))
    ex = metrics.fit_extractor("raw_pixels", data, rng)
    assert metrics.proxy_fid(data, data, ex) < 1e-8


def test_proxy_fid_shift_oracle():
    rng = np.random.default_rng(11)
    real = rng.standard_normal((20_000, 5))
    c = 0.8
    gen = real + c
    ex = metrics.fit_extractor("raw_pixels", real, rng)
    got = metrics.proxy_fid(gen, real, ex)
    expected = 5 * c**2
    assert abs(got - expected) / expected < 0.01


def test_proxy_fid_ranks_trained_above_degraded():
    # an untrained (noise-emitting) generator must score strictly above a
    # trained one, on every seed; image data keeps the gap unambiguous
    # (on the 2-D ring an untrained tanh generator is near moment-matched)
    from fisgan import data, train

    imgs, labels = data.make_glyph_images(1024, np.random.default_rng(33), side=24)
    flat = imgs.reshape(1024, -1) / 255.0 * 2.0 - 1.0
    ds = data.downsample(data.Dataset(samples=flat, labels=labels), 3)
    eval_options = train.EvalOptions(interval=500, samples=512)
    for seed in range(5):
        cfg = train.TrainConfig(mode="baseline", seed=seed, max_iters=500)
        fresh = train.init_state(cfg, ds)
        ctx = train.build_eval_context(cfg, ds, eval_options)
        degraded_fid, _ = train.evaluate(fresh, ctx, 0, ctx.real_subset.shape[0])
        summary = train.train(cfg, ds, eval_options=eval_options)
        trained_fid = summary.rows[-1].proxy_fid
        assert degraded_fid > trained_fid, f"seed {seed}"


def test_probe_net_on_glyph_images():
    # the 5-epoch default suits corpora with tens of thousands of rows;
    # this 1024-row corpus needs more epochs for the same step count
    from fisgan import data

    rng = np.random.default_rng(21)
    imgs, labels = data.make_glyph_images(1024, rng, side=24)
    flat = imgs.reshape(1024, -1) / 255.0 * 2.0 - 1.0
    ds = data.Dataset(samples=flat, labels=labels)
    down = data.downsample(ds, 3)
    ex = metrics.fit_extractor("probe_net", down.samples, rng,
                               labels=down.labels, probe_epochs=30)
    logits, _ = nn.forward(ex.probe, down.samples)
    acc = float(np.mean(logits.argmax(axis=1) == down.labels))
    assert acc >= 0.9
