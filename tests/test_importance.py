import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisgan import importance
from fisgan.errors import DegenerateBatchError, ShapeError


class ZeroRng:
    """rng stub whose normal draws are all zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def test_uniform_norms():
    w = importance.importance_weights(np.ones(4))
    assert np.allclose(w, 0.25)
    assert w.sum() == 1.0


def test_direct_ratio():
    assert np.allclose(importance.importance_weights([2.0, 6.0]), [0.25, 0.75])


def test_zero_mass_entry():
    assert np.allclose(importance.importance_weights([0.0, 5.0]), [0.0, 1.0])


def test_all_zero_norms_degenerate():
    with pytest.raises(DegenerateBatchError):
        importance.importance_weights(np.zeros(3))


def test_scale_invariance():
    # Power-of-two factors scale without rounding, so the ratio cancels
    # bit-for-bit; general factors cancel to within an ulp or two.
    g = np.array([0.3, 1.7, 0.0, 2.4])
    base = importance.importance_weights(g)
    for c in (2.0, 0.125, 2.0**20, 2.0**-12):
        assert np.array_equal(base, importance.importance_weights(c * g))
    for c in (3.0, 1e6, 0.7):
        scaled = importance.importance_weights(c * g)
        assert np.max(np.abs(scaled - base)) < 1e-15


def test_allocate_exact_proportions():
    plan = importance.allocate_counts(np.array([0.25, 0.75]), 100)
    assert np.array_equal(plan.counts, [25, 75])


def test_allocate_largest_remainder_tie_break():
    plan = importance.allocate_counts(np.array([1 / 3, 1 / 3, 1 / 3]), 100)
    assert np.array_equal(plan.counts, [34, 33, 33])


def test_allocate_single_source():
    plan = importance.allocate_counts(np.array([1.0]), 7)
    assert np.array_equal(plan.counts, [7])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=500))
def test_property_conservation_and_monotonicity(seed, n, total):
    rng = np.random.default_rng(seed)
    norms = rng.uniform(0.0, 10.0, size=n)
    if norms.sum() == 0:
        norms[0] = 1.0
    w = importance.importance_weights(norms)
    assert abs(w.sum() - 1.0) < 1e-12
    plan = importance.allocate_counts(w, total)
    assert plan.counts.sum() == total
    order = np.argsort(norms)
    sorted_counts = plan.counts[order]
    sorted_norms = norms[order]
    for a in range(n - 1):
        if sorted_norms[a + 1] > sorted_norms[a]:
            assert sorted_counts[a + 1] >= sorted_counts[a]


def test_augment_zero_plan_rows():
    latents = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, -5.0]])
    plan = importance.AugmentationPlan(counts=np.array([0, 0, 5]), total=5)
    rng = np.random.default_rng(0)
    out = importance.augment(latents, plan, rng)
    assert out.shape == (5, 2)
    # CLT-style check: sample mean near the only source, 3/sqrt(5) slack
    assert np.all(np.abs(out.mean(axis=0) - latents[2]) < 3 / np.sqrt(5))


def test_augment_empty_budget():
    latents = np.zeros((2, 3))
    plan = importance.AugmentationPlan(counts=np.array([0, 0]), total=0)
    out = importance.augment(latents, plan, np.random.default_rng(0))
    assert out.shape == (0, 3)


def test_augment_zero_noise_stub():
    latents = np.array([[1.0, 2.0], [-3.0, 4.0]])
    plan = importance.AugmentationPlan(counts=np.array([2, 1]), total=3)
    out = importance.augment(latents, plan, ZeroRng())
    assert np.array_equal(out, np.array([[1.0, 2.0], [1.0, 2.0], [-3.0, 4.0]]))


def test_augment_deterministic_per_seed():
    latents = np.random.default_rng(1).standard_normal((4, 3))
    plan = importance.allocate_counts(np.full(4, 0.25), 40)
    a = importance.augment(latents, plan, np.random.default_rng(7))
    b = importance.augment(latents, plan, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_build_dataset_zero_mass_source():
    batch = importance.LatentBatch(
        latents=np.array([[10.0, 10.0], [-10.0, -10.0]]),
        norms=np.array([0.0, 1.0]),
    )
    out = importance.build_flow_dataset(batch, 10, np.random.default_rng(2))
    assert out.shape == (10, 2)
    assert np.all(np.linalg.norm(out - batch.latents[1], axis=1) < 6.0)


def test_build_dataset_equal_norms_one_each():
    latents = np.random.default_rng(3).standard_normal((8, 2)) * 40.0
    batch = importance.LatentBatch(latents=latents, norms=np.ones(8))
    out = importance.build_flow_dataset(batch, 8, np.random.default_rng(4))
    assert out.shape == (8, 2)
    nearest = np.argmin(
        np.linalg.norm(out[:, None, :] - latents[None, :, :], axis=2), axis=1
    )
    assert np.array_equal(nearest, np.arange(8))


def test_build_dataset_heavy_cluster_share():
    rng = np.random.default_rng(5)
    heavy = np.tile(np.array([8.0, 0.0]), (8, 1))
    light = np.tile(np.array([-8.0, 0.0]), (8, 1))
    latents = np.vstack([heavy, light])
    norms = np.concatenate([np.full(8, 3.0), np.full(8, 1.0)])  # weight 0.75
    batch = importance.LatentBatch(latents=latents, norms=norms)
    out = importance.build_flow_dataset(batch, 1000, rng)
    near_heavy = np.mean(out[:, 0] > 0)
    assert near_heavy >= 0.70


def test_plan_sum_mismatch_rejected():
    with pytest.raises(ShapeError):
        importance.AugmentationPlan(counts=np.array([1, 1]), total=3)
