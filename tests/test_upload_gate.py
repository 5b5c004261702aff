import math

import numpy as np
import pytest

from safl_sim import (
    GateConfig,
    Objective,
    accuracy_proxy,
    decide_upload,
    make_blobs,
    make_linear_regression,
    optimum_oracle,
    performance_gap,
    upload_probability,
)


class TestAccuracyProxy:
    def test_perfect_classifier_scores_one(self):
        data = make_blobs(300, 4, 3, separation=8.0, cluster_std=0.2, seed=1)
        obj = Objective("multinomial_logistic", 4, reg=0.01, n_classes=3)
        w = optimum_oracle(obj, data)
        assert accuracy_proxy(w, data, obj, "holdout_accuracy") == 1.0

    def test_fraction_correct_counting(self):
        # separable 1-d two-class data; a constant-score model predicts class 0
        # everywhere, so the proxy counts exactly the class-0 fraction
        X = np.ones((10, 1))
        y = np.array([0] * 7 + [1] * 3)
        from safl_sim import Dataset

        data = Dataset(X, y, n_classes=2)
        obj = Objective("multinomial_logistic", 1, reg=0.1, n_classes=2)
        w = np.array([1.0, -1.0])  # class 0 score always higher
        assert accuracy_proxy(w, data, obj, "holdout_accuracy") == pytest.approx(0.7)

    def test_inverse_risk_is_one_at_zero_risk(self):
        data = make_linear_regression(50, 3, seed=2)
        obj = Objective("least_squares", 3)
        w = optimum_oracle(obj, data)  # noiseless, interpolates
        assert accuracy_proxy(w, data, obj, "inverse_risk") == pytest.approx(1.0, abs=1e-12)

    def test_holdout_accuracy_rejected_for_regression(self):
        data = make_linear_regression(20, 3, seed=3)
        obj = Objective("ridge", 3, reg=0.1)
        with pytest.raises(ValueError, match="classification"):
            accuracy_proxy(np.zeros(3), data, obj, "holdout_accuracy")

    def test_empty_eval_set_rejected(self):
        from safl_sim import Dataset

        data = Dataset(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError, match="nonempty"):
            accuracy_proxy(np.zeros(2), data, Objective("least_squares", 2), "inverse_risk")


class TestPerformanceGap:
    def test_equal_scores_give_zero(self):
        assert performance_gap(0.8, 0.8) == 0.0

    def test_zero_scores_guarded_against_division(self):
        assert performance_gap(0.0, 0.0, 1e-6) == 0.0

    def test_hand_value(self):
        assert performance_gap(0.9, 0.3, 1e-6) == pytest.approx(0.6 / 1.200001, rel=1e-12)

    def test_range_is_sub_unit(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = rng.random() * 2, rng.random() * 2
            g = performance_gap(a, b)
            assert 0.0 <= g < 1.0

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError):
            performance_gap(-0.1, 0.5)


class TestUploadProbability:
    def test_zero_gap_gives_certainty(self):
        assert upload_probability(0.0, 0.2) == 1.0

    def test_gap_at_scale_gives_inverse_e(self):
        assert upload_probability(0.2, 0.2) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_monotone_decreasing_in_gap(self):
        qs = [upload_probability(g, 0.3) for g in np.linspace(0, 1, 20)]
        assert all(b < a for a, b in zip(qs, qs[1:]))

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            upload_probability(-0.1, 0.2)
        with pytest.raises(ValueError):
            upload_probability(0.1, 0.0)


class TestDecideUpload:
    def test_certain_upload_always_true(self):
        rng = np.random.default_rng(1)
        assert all(decide_upload(1.0, rng) for _ in range(200))

    def test_rate_within_three_sigma(self):
        rng = np.random.default_rng(2)
        n, q = 100_000, 0.5
        hits = sum(decide_upload(q, rng) for _ in range(n))
        sigma = math.sqrt(q * (1 - q) / n)
        assert abs(hits / n - q) <= 3 * sigma

    def test_fixed_seed_reproduces_decisions(self):
        a = [decide_upload(0.3, np.random.default_rng(9)) for _ in range(1)]
        b = [decide_upload(0.3, np.random.default_rng(9)) for _ in range(1)]
        assert a == b
        rng1, rng2 = np.random.default_rng(4), np.random.default_rng(4)
        assert [decide_upload(0.7, rng1) for _ in range(50)] == [decide_upload(0.7, rng2) for _ in range(50)]

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ValueError):
            decide_upload(0.0, np.random.default_rng(1))


class TestGateConfigAndState:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            GateConfig(gap_scale=0.0)
        with pytest.raises(ValueError):
            GateConfig(gap_scale=0.1, eps_div=0.0)
        with pytest.raises(ValueError):
            GateConfig(gap_scale=0.1, proxy="f1")
