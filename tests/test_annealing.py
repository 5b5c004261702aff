import math

import numpy as np
import pytest

from safl_sim import AnnealConfig, mix, sample_mask, selection_probability


class TestSelectionProbability:
    def test_starts_at_one(self):
        assert selection_probability(0, 10.0) == 1.0

    def test_equals_inverse_e_at_the_temperature(self):
        assert selection_probability(80.0, 80.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_strictly_decreasing_in_t(self):
        values = [selection_probability(t, 7.0) for t in range(50)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_underflows_past_forty_temperatures(self):
        for temperature in (0.5, 10.0, 80.0):
            assert selection_probability(40 * temperature, temperature) < 1e-17

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            selection_probability(1, 0.0)
        with pytest.raises(ValueError):
            selection_probability(-1, 5.0)


class TestSampleMask:
    def test_zero_probability_gives_all_ones(self):
        mask = sample_mask(np.random.default_rng(1).random((3, 16)), 0.0, 0.3, 16)
        assert np.array_equal(mask, np.ones((3, 16)))

    def test_unit_probability_gives_all_epsilon(self):
        mask = sample_mask(np.random.default_rng(1).random((3, 16)), 1.0, 0.3, 16)
        assert np.array_equal(mask, np.full((3, 16), 0.3))

    def test_mean_entry_matches_mixture_expectation(self):
        # E[u] = eps*p + 1 - p; 3 sigma band on 1e5 draws
        p, eps, n = 0.4, 0.3, 100_000
        draws = sample_mask(np.random.default_rng(7).random((1, n)), p, eps, n)
        expected = eps * p + 1 - p
        sigma = math.sqrt(p * (1 - p)) * (1 - eps) / math.sqrt(n)
        assert abs(draws.mean() - expected) <= 3 * sigma

    def test_entries_take_only_the_two_values(self):
        draws = sample_mask(np.random.default_rng(8).random((10, 1000)), 0.5, 0.3, 1000)
        assert set(np.unique(draws)) == {0.3, 1.0}

    def test_scalar_mode_is_constant_per_draw(self):
        scalar = AnnealConfig(mask_mode="scalar")
        uniforms = np.random.default_rng(3).random((50, scalar.mask_columns(8)))
        masks = sample_mask(uniforms, 0.5, 0.25, 8)
        assert masks.shape == (50, 8)
        assert all(len(np.unique(row)) == 1 for row in masks)
        assert set(masks[:, 0].tolist()) == {0.25, 1.0}

    def test_row_is_the_per_device_draw_of_its_uniforms(self):
        # a uniform below p is a Bernoulli(p) success: the mask a device drew
        # from its own generator round by round
        p, eps = 0.45, 0.3
        rng = np.random.default_rng(4)
        rows = [np.where(rng.random(6) < p, eps, 1.0) for _ in range(4)]
        assert np.array_equal(sample_mask(np.random.default_rng(4).random((4, 6)), p, eps, 6), rows)

    def test_mask_columns_follow_the_mode(self):
        assert AnnealConfig().mask_columns(7) == 7
        assert AnnealConfig(mask_mode="scalar").mask_columns(7) == 1

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            sample_mask(np.zeros((1, 4)), 1.5, 0.3, 4)

    def test_uniforms_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            sample_mask(np.zeros((1, 3)), 0.5, 0.3, 4)
        with pytest.raises(ValueError, match="shape"):
            sample_mask(np.zeros(4), 0.5, 0.3, 4)


class TestMix:
    def test_all_ones_mask_returns_global_exactly(self):
        rng = np.random.default_rng(5)
        g, l = rng.standard_normal(9), rng.standard_normal(9)
        assert np.array_equal(mix(np.ones(9), g, l), g)

    def test_zero_epsilon_mask_returns_local_exactly(self):
        rng = np.random.default_rng(6)
        g, l = rng.standard_normal(9), rng.standard_normal(9)
        assert np.array_equal(mix(np.zeros(9), g, l), l)

    def test_equal_inputs_are_a_fixed_point_for_any_mask(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal(6)
        (mask,) = sample_mask(rng.random((1, 6)), 0.5, 0.4, 6)
        assert np.allclose(mix(mask, v, v), v, atol=1e-16)

    def test_output_lies_between_inputs_coordinatewise(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            g, l = rng.standard_normal(5), rng.standard_normal(5)
            (mask,) = sample_mask(rng.random((1, 5)), float(rng.random()), float(rng.random()), 5)
            out = mix(mask, g, l)
            lo, hi = np.minimum(g, l), np.maximum(g, l)
            assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_batched_rows_equal_row_by_row_bitwise(self):
        rng = np.random.default_rng(10)
        g, local = rng.standard_normal(7), rng.standard_normal((5, 7))
        masks = sample_mask(rng.random((5, 7)), 0.6, 0.3, 7)
        rows = np.array([mix(m, g, l) for m, l in zip(masks, local)])
        assert np.array_equal(mix(masks, g, local), rows)

    def test_jobs_each_blending_their_own_global_equal_their_own_blends_bitwise(self):
        rng = np.random.default_rng(11)
        for mode_columns in (7, 1):  # per-coordinate and scalar masks
            uniforms = rng.random((4, 5, mode_columns))
            globals_, local = rng.standard_normal((4, 7)), rng.standard_normal((4, 5, 7))
            masks = sample_mask(uniforms, 0.6, 0.3, 7)
            assert masks.shape == (4, 5, 7)
            mixed = mix(masks, globals_, local)
            for job in range(4):
                own = sample_mask(uniforms[job], 0.6, 0.3, 7)
                assert np.array_equal(masks[job], own)
                assert np.array_equal(mixed[job], mix(own, globals_[job], local[job]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mix(np.ones((2, 5, 3)), np.zeros(3), np.zeros((2, 5, 3)))  # one global per job
        with pytest.raises(ValueError):
            mix(np.ones(3), np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError):
            mix(np.ones((2, 3)), np.zeros(4), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            mix(np.ones((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)))


class TestAnnealConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealConfig(temperature=0.0, epsilon=0.5)
        with pytest.raises(ValueError):
            AnnealConfig(temperature=1.0, epsilon=1.5)
        with pytest.raises(ValueError):
            AnnealConfig(temperature=1.0, epsilon=0.5, mask_mode="matrix")
