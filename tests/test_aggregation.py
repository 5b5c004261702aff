import math
from collections import namedtuple

import numpy as np
import pytest

from safl_sim import WeightScheme, aggregate, weights

# One device's contribution, as the server used to receive it.
Update = namedtuple("Update", "device_id params n_samples")


def reference_weights(scheme: WeightScheme, updates: list[Update]) -> np.ndarray:
    """The per-update weight function that ``weights`` replaced, kept as its
    bitwise reference."""
    n = len(updates)
    if scheme.kind == "uniform":
        w = np.full(n, 1.0 / n)
    elif scheme.kind == "size_proportional":
        sizes = np.array([float(u.n_samples) for u in updates])
        w = sizes / sizes.sum()
    else:
        raw = np.array([float(scheme.custom[u.device_id]) for u in updates])
        w = raw / raw.sum()
    return w / w.sum()


class TestWeights:
    def test_uniform_splits_evenly(self):
        got = weights(WeightScheme("uniform"), np.arange(4), np.ones(4))
        assert np.allclose(got, [0.25] * 4, atol=0)

    def test_size_proportional_matches_shard_sizes(self):
        got = weights(WeightScheme("size_proportional"), np.arange(2), np.array([1, 3]))
        assert np.allclose(got, [0.25, 0.75], atol=0)

    def test_custom_weights_renormalise_over_received(self):
        scheme = WeightScheme("custom", custom=(2.0, 1.0, 1.0))
        got = weights(scheme, np.array([0, 2]), np.ones(3))
        assert np.allclose(got, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    @pytest.mark.parametrize("kind", ["uniform", "size_proportional", "custom"])
    def test_matches_the_per_update_reference_bitwise(self, kind):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            sizes = rng.integers(1, 500, size=n)
            custom = tuple(rng.uniform(0.01, 10.0, size=n).tolist()) if kind == "custom" else None
            scheme = WeightScheme(kind, custom)
            ids = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            updates = [Update(int(k), None, int(sizes[k])) for k in ids]
            assert np.array_equal(weights(scheme, ids, sizes), reference_weights(scheme, updates))

    @pytest.mark.parametrize("kind", ["uniform", "size_proportional", "custom"])
    def test_rows_of_jobs_equal_their_own_weights_bitwise(self, kind):
        # one row of chosen devices per job, as a lockstep round weighs them
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            sizes = rng.integers(1, 500, size=n)
            custom = tuple(rng.uniform(0.01, 10.0, size=n).tolist()) if kind == "custom" else None
            scheme = WeightScheme(kind, custom)
            k = int(rng.integers(1, n + 1))
            ids = np.array([np.sort(rng.choice(n, size=k, replace=False)) for _ in range(int(rng.integers(1, 8)))])
            got = weights(scheme, ids, sizes)
            assert got.shape == ids.shape
            for row, own in zip(got, ids):
                assert np.array_equal(row, weights(scheme, own, sizes))

    def test_weights_always_sum_to_one(self):
        for kind in ("uniform", "size_proportional"):
            got = weights(WeightScheme(kind), np.arange(5), np.array([1, 2, 3, 4, 5]))
            assert abs(got.sum() - 1.0) <= 1e-12
            assert np.all(got >= 0)

    def test_empty_update_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            weights(WeightScheme("uniform"), np.array([], dtype=int), np.ones(3))


def uniform(k: int) -> np.ndarray:
    return weights(WeightScheme("uniform"), np.arange(k), np.ones(k))


class TestAggregate:
    def test_identical_updates_return_that_vector(self):
        v = np.array([0.2, -0.4, 1.0])
        assert np.allclose(aggregate(np.stack([v, v, v]), uniform(3)), v, atol=1e-16)

    def test_two_device_toy_average(self):
        got = aggregate(np.array([[0.0, 0.0], [0.0, 4.0 / 9.0]]), uniform(2))
        assert np.allclose(got, [0.0, 2.0 / 9.0], atol=0)

    def test_matches_fsum_dot_product_oracle(self):
        rng = np.random.default_rng(11)
        params = rng.standard_normal((5, 6))
        wts = weights(WeightScheme("size_proportional"), np.arange(5), np.array([3, 1, 4, 2, 5]))
        got = aggregate(params, wts)
        oracle = np.array(
            [math.fsum(wts[k] * params[k, j] for k in range(5)) for j in range(6)]
        )
        assert np.allclose(got, oracle, atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(12)
        params = rng.standard_normal((6, 4))
        wts = weights(WeightScheme("size_proportional"), np.arange(6), np.arange(1, 7))
        perm = rng.permutation(6)
        got = aggregate(params[perm], wts[perm])
        assert np.allclose(got, aggregate(params, wts), atol=1e-12)

    def test_result_lies_in_coordinatewise_hull(self):
        rng = np.random.default_rng(13)
        params = rng.standard_normal((4, 5))
        got = aggregate(params, uniform(4))
        assert np.all(got >= params.min(axis=0) - 1e-12)
        assert np.all(got <= params.max(axis=0) + 1e-12)

    def test_stacked_jobs_equal_their_own_fusions_bitwise(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            jobs, k, dim = (int(v) for v in rng.integers(1, [12, 210, 40]))
            params = rng.standard_normal((jobs, k, dim))
            wts = rng.uniform(0.01, 1.0, size=(jobs, k))
            wts /= wts.sum(axis=1, keepdims=True)
            got = aggregate(params, wts)
            assert got.shape == (jobs, dim)
            for row, own, w in zip(got, params, wts):
                assert np.array_equal(row, w @ own)
                assert np.array_equal(row, aggregate(own, w))

    def test_stacked_jobs_need_a_weight_row_per_job(self):
        with pytest.raises(ValueError, match="one weight per row"):
            aggregate(np.zeros((2, 3, 4)), np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="one weight per row"):
            aggregate(np.zeros((2, 3, 4)), np.full((3, 3), 1.0 / 3.0))

    def test_params_must_be_2d_with_one_weight_per_row(self):
        with pytest.raises(ValueError, match="2-d"):
            aggregate(np.zeros(3), uniform(3))
        with pytest.raises(ValueError, match="2-d"):
            aggregate(np.zeros((2, 3, 1)), uniform(2))
        with pytest.raises(ValueError, match="one weight per row"):
            aggregate(np.zeros((3, 2)), uniform(2))


class TestWeightSchemeValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WeightScheme("softmax")

    def test_custom_requires_weights(self):
        with pytest.raises(ValueError):
            WeightScheme("custom")
        with pytest.raises(ValueError):
            WeightScheme("custom", custom=(0.5, -0.1))

    def test_custom_weights_only_for_custom_kind(self):
        with pytest.raises(ValueError):
            WeightScheme("uniform", custom=(1.0,))
