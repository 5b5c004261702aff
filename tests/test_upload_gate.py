import math
import tracemalloc

import numpy as np
import pytest
from reference import pooled_shards

import safl_sim.simulation
from safl_sim import (
    AnnealConfig,
    Dataset,
    GateConfig,
    LrSchedule,
    Objective,
    PartitionSpec,
    SimConfig,
    accuracy_proxy,
    decide_upload,
    make_blobs,
    make_linear_regression,
    optimum_oracle,
    performance_gap,
    run,
    upload_probability,
)
from safl_sim.training import Shards
from safl_sim.upload_gate import GAP_EPS, gate_proxies


def reference_proxy(model: np.ndarray, data: Dataset, obj: Objective) -> float:
    """One model's proxy by vector products alone: the form that scoring a
    stack of models must equal bitwise."""
    m = len(data)
    if obj.is_classification:
        return float((np.argmax(data.X @ model.reshape(obj.n_classes, obj.dim).T, axis=1) == data.y).mean())
    if obj.kind == "ridge":
        r = data.X @ model - data.y
        risk = 0.5 * float(r @ r) / m + 0.5 * obj.reg * float(model @ model)
    else:  # lasso
        r = data.y - data.X @ model
        risk = float(r @ r) / m + obj.reg * float(np.abs(model).sum())
    return 1.0 / (1.0 + risk)


class TestAccuracyProxy:
    def test_perfect_classifier_scores_one(self):
        data = make_blobs(300, 4, 3, separation=8.0, cluster_std=0.2, seed=1)
        obj = Objective("multinomial_logistic", 4, reg=0.01, n_classes=3)
        w = optimum_oracle(obj, data)
        assert accuracy_proxy(w, data, obj) == 1.0

    def test_fraction_correct_counting(self):
        # separable 1-d two-class data; a constant-score model predicts class 0
        # everywhere, so the proxy counts exactly the class-0 fraction
        X = np.ones((10, 1))
        y = np.array([0] * 7 + [1] * 3)
        from safl_sim import Dataset

        data = Dataset(X, y, n_classes=2)
        obj = Objective("multinomial_logistic", 1, reg=0.1, n_classes=2)
        w = np.array([1.0, -1.0])  # class 0 score always higher
        assert accuracy_proxy(w, data, obj) == pytest.approx(0.7)

    def test_inverse_risk_is_one_at_zero_risk(self):
        data = make_linear_regression(50, 3, seed=2)
        obj = Objective("least_squares", 3)
        w = optimum_oracle(obj, data)  # noiseless, interpolates
        assert accuracy_proxy(w, data, obj) == pytest.approx(1.0, abs=1e-12)

    def test_empty_eval_set_rejected(self):
        from safl_sim import Dataset

        data = Dataset(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError, match="nonempty"):
            accuracy_proxy(np.zeros(2), data, Objective("least_squares", 2))

    @pytest.mark.parametrize(
        "obj",
        [
            Objective("ridge", 5, reg=0.3),
            Objective("lasso", 5, reg=0.3),
            Objective("multinomial_logistic", 5, reg=0.3, n_classes=4),
        ],
        ids=["ridge", "lasso", "multinomial_logistic"],
    )
    def test_models_of_jobs_score_as_they_score_alone_bitwise(self, obj):
        # the metrics score every job's estimate in one call
        rng = np.random.default_rng(13)
        for samples in (1, 37, 400):
            if obj.is_classification:
                data = make_blobs(samples, 5, 4, cluster_std=2.0, seed=samples)
            else:
                data = make_linear_regression(samples, 5, noise_std=0.5, seed=samples)
            models = rng.standard_normal((6, obj.param_dim))
            got = accuracy_proxy(models, data, obj)
            assert got.shape == (6,)
            for score, model in zip(got, models):
                alone = accuracy_proxy(model, data, obj)
                assert isinstance(alone, float) and float(score) == alone == reference_proxy(model, data, obj)


class TestPerformanceGap:
    def test_equal_scores_give_zero(self):
        assert performance_gap(0.8, 0.8) == 0.0

    def test_zero_scores_guarded_against_division(self):
        assert performance_gap(0.0, 0.0) == 0.0

    def test_hand_value(self):
        assert performance_gap(0.9, 0.3) == pytest.approx(0.6 / 1.200001, rel=1e-12)

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


class TestArrayGap:
    """One array call gives, element by element, the bits of the per-device
    scalar calls."""

    @staticmethod
    def _proxies(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        h_global = rng.integers(0, 41, size=200) / 40  # holdout accuracies
        h_local = rng.random(200)
        h_local[:20] = h_global[:20]  # equal pairs
        h_global[20:30] = h_local[20:30] = 0.0
        h_global[30:40] = GAP_EPS
        h_local[30:35] = 0.0
        h_local[35:40] = [GAP_EPS / 2, GAP_EPS, 2 * GAP_EPS, 1e-300, 1.0]
        return h_global, h_local

    def test_array_gap_and_probability_equal_the_scalar_calls_bitwise(self):
        rng = np.random.default_rng(21)
        for gap_scale in (0.05, 0.1, 0.2, 1.0, 3.7):
            h_global, h_local = self._proxies(rng)
            gaps = performance_gap(h_global, h_local)
            want = [performance_gap(a, b) for a, b in zip(h_global.tolist(), h_local.tolist())]
            assert gaps.tobytes() == np.array(want).tobytes()
            qs = upload_probability(gaps, gap_scale)
            want_q = [upload_probability(g, gap_scale) for g in want]
            assert qs.tobytes() == np.array(want_q).tobytes()

    def test_negative_array_inputs_rejected(self):
        ok = np.array([0.2, 0.5, 0.0])
        with pytest.raises(ValueError, match="proxies"):
            performance_gap(np.array([0.2, -1e-300, 0.1]), ok)
        with pytest.raises(ValueError, match="proxies"):
            performance_gap(ok, np.array([0.2, 0.5, -0.1]))
        with pytest.raises(ValueError, match="gap"):
            upload_probability(np.array([0.1, -1e-300]), 0.1)
        with pytest.raises(ValueError, match="gap_scale"):
            upload_probability(ok, 0.0)


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

    def test_gap_scale_whose_full_gap_probability_underflows_rejected(self):
        # exp(-gap / gap_scale) must stay positive for every gap, and a gap is at most 1
        with pytest.raises(ValueError, match="gap_scale"):
            GateConfig(gap_scale=1e-4)
        assert upload_probability(1.0, GateConfig(gap_scale=0.0014).gap_scale) > 0.0


def _per_device_proxies(global_model, local_models, eval_sets, obj):
    """``gate_proxies`` as two ``accuracy_proxy`` calls per device, each on a
    view of its shard: the reference."""
    sets = [eval_sets.dataset(k) for k in range(len(eval_sets))]
    h_global = np.array([accuracy_proxy(global_model, e, obj) for e in sets])
    h_local = np.array([accuracy_proxy(w, e, obj) for w, e in zip(local_models, sets)])
    return h_global, h_local


def _random_round(kind: str, rng: np.random.Generator):
    """An objective, a global model, k local models and k eval sets of unequal
    sizes, pooled as ``Shards``."""
    d = int(rng.integers(1, 9))
    if kind == "multinomial_logistic":
        C = int(rng.integers(2, 6))
        obj = Objective(kind, d, reg=0.1, n_classes=C)
    else:
        obj = Objective(kind, d, reg=0.0 if kind == "least_squares" else 0.3)
    k = int(rng.integers(1, 13))
    eval_sets = []
    for _ in range(k):
        m = int(rng.integers(1, 10))
        X = rng.standard_normal((m, d))
        if obj.is_classification:
            eval_sets.append(Dataset(X, rng.integers(0, obj.n_classes, size=m), n_classes=obj.n_classes))
        else:
            eval_sets.append(Dataset(X, rng.standard_normal(m)))
    scale = rng.uniform(0.1, 5.0)
    return obj, scale * rng.standard_normal(obj.param_dim), scale * rng.standard_normal((k, obj.param_dim)), pooled_shards(eval_sets)


class TestGateProxies:
    @pytest.mark.parametrize("kind", ["least_squares", "ridge", "lasso"])
    def test_inverse_risk_matches_the_per_device_proxy(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(50):
            obj, w_global, w_local, eval_sets = _random_round(kind, rng)
            got = gate_proxies(w_global, w_local, eval_sets, obj)
            for batched, ref in zip(got, _per_device_proxies(w_global, w_local, eval_sets, obj)):
                assert batched.shape == ref.shape == (len(eval_sets),)
                np.testing.assert_allclose(batched, ref, rtol=1e-13, atol=0)

    def test_holdout_accuracy_equals_the_per_device_proxy(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            obj, w_global, w_local, eval_sets = _random_round("multinomial_logistic", rng)
            got = gate_proxies(w_global, w_local, eval_sets, obj)
            ref = _per_device_proxies(w_global, w_local, eval_sets, obj)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    def test_zero_global_model_predicts_class_zero(self):
        # the first round scores the all-zero global model: every class ties
        obj, _, w_local, eval_sets = _random_round("multinomial_logistic", np.random.default_rng(3))
        h_global, _ = gate_proxies(np.zeros(obj.param_dim), w_local, eval_sets, obj)
        assert np.array_equal(h_global, [np.mean(eval_sets.dataset(k).y == 0) for k in range(len(eval_sets))])

    def test_shards_are_read_in_place_in_any_order(self):
        # a round's chosen devices are a subset of the pooled eval set, in
        # any order: the gather equals the proxies of the shards pooled apart
        rng = np.random.default_rng(13)
        for kind in ("multinomial_logistic", "ridge"):
            obj, w_global, w_local, pooled = _random_round(kind, rng)
            picks = rng.permutation(len(pooled))[: max(1, len(pooled) // 2)]
            chosen = Shards(pooled.data, pooled.starts[picks], pooled.sizes[picks])
            apart = pooled_shards([pooled.dataset(k) for k in picks])
            got = gate_proxies(w_global, w_local[picks], chosen, obj)
            want = gate_proxies(w_global, w_local[picks], apart, obj)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_empty_eval_set_rejected(self):
        obj = Objective("ridge", 2, reg=0.1)
        sets = pooled_shards([Dataset(np.ones((2, 2)), np.zeros(2)), Dataset(np.zeros((0, 2)), np.zeros(0))])
        with pytest.raises(ValueError, match="nonempty"):
            gate_proxies(np.zeros(2), np.zeros((2, 2)), sets, obj)

    def test_local_scores_gather_no_copy_of_the_models_per_row(self):
        # 500 eval rows of 40 features under 100-class models: a (rows,
        # classes, dim) gather of the models and its product take 2 * 16 MB
        rows, C, d, k = 500, 100, 40, 5
        rng = np.random.default_rng(14)
        obj = Objective("multinomial_logistic", d, reg=0.1, n_classes=C)
        data = Dataset(rng.standard_normal((rows, d)), rng.integers(0, C, size=rows), n_classes=C)
        eval_sets = Shards.take(data, np.array_split(np.arange(rows), k))
        w_global, w_local = rng.standard_normal(obj.param_dim), rng.standard_normal((k, obj.param_dim))
        gate_proxies(w_global, w_local, eval_sets, obj)  # builds the row map, cached on first use
        tracemalloc.start()
        try:
            gate_proxies(w_global, w_local, eval_sets, obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * C * d * 8 / 4


class TestBatchedGateInTheRound:
    """A gated run equals the run whose gate scores each device with two
    ``accuracy_proxy`` calls: the same gaps and the same decisions."""

    @staticmethod
    def _gated_run(classification: bool):
        # shard sizes straddle 1 / holdout_fraction, so some devices score
        # their holdout and the rest fall back to their training set
        part = PartitionSpec(n=12, mean_size=9.0, size_var=16.0, max_labels_per_device=2, pure_count=3, seed=5)
        if classification:
            data = make_blobs(600, 3, 3, seed=4)
            obj = Objective("multinomial_logistic", 3, reg=0.1, n_classes=3)
            gate = GateConfig(gap_scale=0.2)
        else:
            data = make_linear_regression(600, 3, seed=4)
            obj = Objective("ridge", 3, reg=0.3)
            gate = GateConfig(gap_scale=0.05)
        config = SimConfig(
            objective=obj, partition=part, selected_per_round=7, rounds=15, algorithm="safl_extended",
            anneal=AnnealConfig(temperature=8.0, epsilon=0.3), gate=gate,
            lr=LrSchedule("constant", 0.05), seed=2, holdout_fraction=0.15,
        )
        trace = []

        def observer(record, server, devices, extras):
            trace.append((record.uploads, extras["gate"]))

        result = run(config, dataset=data, observer=observer)
        return config, data, result, trace

    @pytest.mark.parametrize("classification", [True, False])
    def test_gaps_and_decisions_equal_the_per_device_reference(self, monkeypatch, classification):
        config, data, batched, got = self._gated_run(classification)
        problem = safl_sim.simulation.prepare(config, data)
        held = problem.sizes > problem.train.sizes
        assert held.any() and not held.all()
        with monkeypatch.context() as patch:
            patch.setattr(safl_sim.simulation, "gate_proxies", _per_device_proxies)
            _, _, reference, ref = self._gated_run(classification)
        assert [uploads for uploads, _ in got] == [uploads for uploads, _ in ref]
        assert 0 < sum(uploads for uploads, _ in got) < 7 * 15
        for (_, gate), (_, gate_ref) in zip(got, ref):
            assert gate.keys() == gate_ref.keys()
            for k, info in gate.items():
                assert info["uploaded"] == gate_ref[k]["uploaded"]
                if classification:
                    assert info["gap"] == gate_ref[k]["gap"]
                else:
                    assert info["gap"] == pytest.approx(gate_ref[k]["gap"], rel=0, abs=1e-13)
        assert np.array_equal(batched.devices.params, reference.devices.params)
