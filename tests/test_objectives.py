import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import finite_difference_grad, full_batch_grad, power_iteration_extremes, random_problem
from reference import Sample, grad, loss, row_major_gd, sample

from safl_sim import (
    Dataset,
    GradientUnavailableError,
    Objective,
    curvature,
    empirical_risk,
    objectives,
    optimum_oracle,
    partition_with_holdout,
)
from safl_sim import experiments, simulation
from safl_sim.experiments import execute, load_experiment
from safl_sim.objectives import _first_max_class, accuracy_proxy, log_softmax, per_sample_grads
from safl_sim.simulation import prepare
from safl_sim.training import Shards

ROOT = Path(__file__).resolve().parent.parent

SMOOTH_KINDS = ("least_squares", "ridge", "multinomial_logistic")

TOY = Objective("lasso", 2, reg=1.0)
TOY_D1 = Dataset(np.array([[0.25, 0.0]]), np.array([-1.0]))
TOY_D2 = Dataset(np.array([[0.0, 1.5]]), np.array([1.0]))


def toy_union() -> Dataset:
    return Shards.pool([TOY_D1, TOY_D2]).data


class TestLoss:
    def test_lasso_golden_at_origin(self):
        # (-1 - 0)^2 + |0| + |0| = 1
        assert loss(TOY, np.zeros(2), Sample(np.array([0.25, 0.0]), -1.0)) == 1.0

    def test_least_squares_zero_at_interpolating_params(self):
        w = np.array([2.0, -1.0])
        x = np.array([0.3, 0.7])
        s = Sample(x, float(x @ w))
        assert loss(Objective("least_squares", 2), w, s) == 0.0

    def test_ridge_hand_value(self):
        # 0.5*(2-1)^2 + 0.05*1 = 0.55
        obj = Objective("ridge", 1, reg=0.1)
        got = loss(obj, np.array([1.0]), Sample(np.array([2.0]), 1.0))
        assert got == pytest.approx(0.55, abs=1e-15)

    def test_losses_are_nonnegative(self):
        rng = np.random.default_rng(0)
        for kind in SMOOTH_KINDS + ("lasso",):
            obj, data = random_problem(kind, rng)
            for _ in range(20):
                w = rng.standard_normal(obj.param_dim)
                i = int(rng.integers(len(data)))
                assert loss(obj, w, sample(data, i)) >= 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            loss(Objective("least_squares", 3), np.zeros(2), Sample(np.zeros(3), 0.0))
        with pytest.raises(ValueError, match="shape"):
            loss(Objective("least_squares", 3), np.zeros(3), Sample(np.zeros(2), 0.0))


class TestGrad:
    def test_least_squares_hand_value(self):
        obj = Objective("least_squares", 2)
        g = grad(obj, np.zeros(2), Sample(np.array([1.0, 0.0]), 2.0))
        assert np.allclose(g, [-2.0, 0.0], atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for kind in SMOOTH_KINDS:
            obj, data = random_problem(kind, rng)
            for _ in range(100):
                w = rng.standard_normal(obj.param_dim)
                s = sample(data, int(rng.integers(len(data))))
                analytic = grad(obj, w, s)
                numeric = finite_difference_grad(obj, w, s)
                scale = max(np.linalg.norm(analytic), 1.0)
                assert np.linalg.norm(analytic - numeric) / scale < 1e-5

    def test_ridge_is_least_squares_plus_reg_term(self):
        rng = np.random.default_rng(3)
        ridge = Objective("ridge", 4, reg=0.7)
        ls = Objective("least_squares", 4)
        for _ in range(20):
            w = rng.standard_normal(4)
            s = Sample(rng.standard_normal(4), float(rng.standard_normal()))
            assert np.allclose(grad(ridge, w, s), grad(ls, w, s) + 0.7 * w, atol=1e-12)

    def test_full_batch_gradient_vanishes_at_optimum(self):
        rng = np.random.default_rng(11)
        for kind in SMOOTH_KINDS:
            obj, data = random_problem(kind, rng)
            w_star = optimum_oracle(obj, data)
            assert np.linalg.norm(full_batch_grad(obj, w_star, data)) <= 1e-8

    def test_lasso_gradient_unavailable(self):
        with pytest.raises(GradientUnavailableError):
            grad(TOY, np.zeros(2), Sample(np.array([0.25, 0.0]), -1.0))


class TestEmpiricalRisk:
    def test_singleton_equals_loss(self):
        rng = np.random.default_rng(5)
        for kind in SMOOTH_KINDS + ("lasso",):
            obj, data = random_problem(kind, rng, m=1)
            w = rng.standard_normal(obj.param_dim)
            assert empirical_risk(obj, w, data) == pytest.approx(loss(obj, w, sample(data, 0)), rel=1e-14)

    def test_duplicated_sample_equals_loss(self):
        obj = Objective("ridge", 3, reg=0.2)
        x = np.array([1.0, -2.0, 0.5])
        data = Dataset(np.stack([x, x]), np.array([1.5, 1.5]))
        w = np.array([0.3, 0.1, -0.2])
        assert empirical_risk(obj, w, data) == pytest.approx(loss(obj, w, sample(data, 0)), rel=1e-14)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(9)
        for kind in SMOOTH_KINDS + ("lasso",):
            obj, data = random_problem(kind, rng, m=10)
            w = rng.standard_normal(obj.param_dim)
            oracle = math.fsum(loss(obj, w, sample(data, i)) for i in range(10)) / 10
            assert abs(empirical_risk(obj, w, data) - oracle) < 1e-12

    def test_empty_dataset_rejected(self):
        obj = Objective("least_squares", 2)
        empty = Dataset(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError, match="empty"):
            empirical_risk(obj, np.zeros(2), empty)


class TestConvexity:
    def test_midpoint_convexity_witness(self):
        rng = np.random.default_rng(21)
        for kind in SMOOTH_KINDS + ("lasso",):
            obj, data = random_problem(kind, rng)
            for _ in range(25):
                w1 = rng.standard_normal(obj.param_dim)
                w2 = rng.standard_normal(obj.param_dim)
                mid = empirical_risk(obj, 0.5 * (w1 + w2), data)
                assert mid <= 0.5 * empirical_risk(obj, w1, data) + 0.5 * empirical_risk(obj, w2, data) + 1e-12

    def test_strong_convexity_witness_with_reported_mu(self):
        rng = np.random.default_rng(22)
        for kind in SMOOTH_KINDS:
            obj, data = random_problem(kind, rng)
            mu = curvature(obj, data).mu
            for _ in range(25):
                w1 = rng.standard_normal(obj.param_dim)
                w2 = rng.standard_normal(obj.param_dim)
                lower = (
                    empirical_risk(obj, w1, data)
                    + full_batch_grad(obj, w1, data) @ (w2 - w1)
                    + 0.5 * mu * float(np.sum((w2 - w1) ** 2))
                )
                assert empirical_risk(obj, w2, data) >= lower - 1e-9


class TestCurvature:
    def test_orthonormalised_rows_give_reg_shifted_unit_eigenvalues(self):
        # rows scaled so the dataset Hessian X'X/m is the identity
        d = 3
        X = math.sqrt(d) * np.eye(d)
        data = Dataset(X, np.zeros(d))
        bounds = curvature(Objective("ridge", d, reg=0.1), data)
        assert bounds.mu == pytest.approx(1.1, abs=1e-12)
        assert bounds.lam == pytest.approx(1.1, abs=1e-12)

    def test_plain_identity_rows_match_power_iteration(self):
        d = 4
        data = Dataset(np.eye(d), np.zeros(d))
        bounds = curvature(Objective("ridge", d, reg=0.1), data)
        assert bounds.mu == pytest.approx(1.0 / d + 0.1, abs=1e-12)

    def test_noiseless_singleton_has_zero_variance(self):
        x = np.array([0.5, 2.0])
        data = Dataset(x[None, :], np.array([float(x @ np.array([1.0, -1.0]))]))
        assert curvature(Objective("ridge", 2, reg=0.2), data).sigma_sq == 0.0

    def test_extreme_eigenvalues_match_power_iteration(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((2, 2))
        data = Dataset(X, rng.standard_normal(2))
        bounds = curvature(Objective("ridge", 2, reg=0.25), data)
        lam_max, lam_min = power_iteration_extremes(X.T @ X / 2)
        assert bounds.lam == pytest.approx(lam_max + 0.25, abs=1e-8)
        assert bounds.mu == pytest.approx(max(lam_min, 0.0) + 0.25, abs=1e-8)

    def test_sigma_estimate_dominates_variance_at_optimum(self):
        rng = np.random.default_rng(19)
        obj, data = random_problem("ridge", rng, m=15)
        bounds = curvature(obj, data)
        G = per_sample_grads(obj, optimum_oracle(obj, data), data)
        dev = G - G.mean(axis=0)
        trace_var = float((dev * dev).sum(axis=1).mean())
        assert bounds.sigma_sq >= trace_var

    def test_lasso_rejected(self):
        with pytest.raises(GradientUnavailableError):
            curvature(TOY, toy_union())


class TestOptimumOracle:
    def test_toy_goldens_are_exact_rationals(self):
        w1 = optimum_oracle(TOY, TOY_D1)
        w2 = optimum_oracle(TOY, TOY_D2)
        w_star = optimum_oracle(TOY, toy_union())
        assert w1.tolist() == [0.0, 0.0]
        assert w2.tolist() == [0.0, 4.0 / 9.0]
        assert w_star.tolist() == [0.0, 4.0 / 9.0]
        mean = 0.5 * (w1 + w2)
        assert abs(np.linalg.norm(w_star - mean) - 2.0 / 9.0) < 1e-12

    def test_smooth_kinds_reach_tiny_gradient(self):
        rng = np.random.default_rng(23)
        for kind in SMOOTH_KINDS:
            obj, data = random_problem(kind, rng)
            w_star = optimum_oracle(obj, data)
            assert np.linalg.norm(full_batch_grad(obj, w_star, data)) <= 1e-8

    def test_lasso_toy_matches_grid_search(self):
        grid = np.arange(-2.0, 2.0 + 1e-9, 1e-3)
        union = toy_union()
        # J(w) = sum of squared residuals plus the l1 penalty, evaluated on the
        # full 2-d grid (row axis w1, column axis w2)
        r1 = (-1.0 - 0.25 * grid) ** 2  # sample 1 touches only w1
        r2 = (1.0 - 1.5 * grid) ** 2  # sample 2 touches only w2
        J = (r1 + np.abs(grid))[:, None] + (r2 + np.abs(grid))[None, :]
        i, j = np.unravel_index(np.argmin(J), J.shape)
        grid_argmin = np.array([grid[i], grid[j]])
        w_star = optimum_oracle(TOY, union)
        assert np.linalg.norm(w_star - grid_argmin) <= 2e-3

    def test_lasso_coordinate_descent_handles_non_separable_data(self):
        rng = np.random.default_rng(29)
        obj, data = random_problem("lasso", rng, m=20, d=3)

        def summed_cost(w):
            r = data.y - data.X @ w
            return float(r @ r) + obj.reg * float(np.abs(w).sum())

        w_hat = optimum_oracle(obj, data)
        base = summed_cost(w_hat)
        for _ in range(200):
            probe = w_hat + 1e-4 * rng.standard_normal(3)
            assert summed_cost(probe) >= base - 1e-12

    def test_ridge_closed_form_is_stationary(self):
        rng = np.random.default_rng(31)
        obj, data = random_problem("ridge", rng, m=30, d=6)
        w_star = optimum_oracle(obj, data)
        assert np.linalg.norm(full_batch_grad(obj, w_star, data)) < 1e-10


class TestObjectiveValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Objective("huber", 2)

    def test_reg_required_for_penalised_kinds(self):
        for kind in ("ridge", "lasso"):
            with pytest.raises(ValueError, match="reg"):
                Objective(kind, 2)

    def test_logistic_requires_classes(self):
        with pytest.raises(ValueError, match="n_classes"):
            Objective("multinomial_logistic", 2, reg=0.1)

    def test_param_dim_flattens_classifier_weights(self):
        obj = Objective("multinomial_logistic", 8, reg=0.1, n_classes=3)
        assert obj.param_dim == 24


def _workload_document(name: str, monkeypatch) -> dict:
    """perfbench's document of workload ``name`` at benchmark seed 0."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.document(ROOT, name, 0)


def _agrees_within_1e_14(obj: Objective, data: Dataset) -> bool:
    got, (ref, _) = optimum_oracle(obj, data), row_major_gd(obj, data)
    return bool(np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(got))


def _solved_rows(monkeypatch, obj: Objective, data: Dataset):
    """The rows, labels and counts that ``optimum_oracle`` iterates on."""
    seen = []
    solve = objectives._logistic_gd

    def spy(obj, rows, step):
        seen.append((rows.XT.T, rows.y, rows.counts))
        return solve(obj, rows, step)

    monkeypatch.setattr(objectives, "_logistic_gd", spy)
    optimum_oracle(obj, data)
    monkeypatch.setattr(objectives, "_logistic_gd", solve)
    (solved,) = seen
    return solved


def _pooled_set(source: str, tmp_path, monkeypatch) -> tuple[Objective, Dataset]:
    """The objective and pooled training set of a shipped config or of a
    benchmark workload at seed 0."""
    if source.endswith(".json"):
        path = ROOT / source
    else:
        path = tmp_path / f"{source}.json"
        path.write_text(json.dumps(_workload_document(source, monkeypatch)))
    spec = load_experiment(path)
    config = spec.config
    fits, _ = partition_with_holdout(spec.dataset, config.partition, config.holdout_fraction)
    return config.objective, Shards.pool([spec.dataset.subset(rows) for rows in fits]).data


def _random_problems():
    """The 30 problems of ``test_random_problems_agree_within_1e_14``."""
    rng = np.random.default_rng(7)
    classes = [2, 16] + [int(c) for c in rng.integers(2, 17, size=28)]
    for C in classes:
        m, d = int(rng.integers(5, 3001)), int(rng.integers(1, 12))
        X = rng.standard_normal((m, d)) * rng.uniform(0.2, 3.0)
        data = Dataset(X, rng.integers(0, C, size=m), n_classes=C)
        yield Objective("multinomial_logistic", d, reg=float(rng.uniform(0.05, 1.0)), n_classes=C), data


def _stops_at_the_reference_step(monkeypatch, obj: Objective, data: Dataset) -> None:
    """The solve converges within the reference's step count and raises
    within one step fewer."""
    _, steps = row_major_gd(obj, data)
    monkeypatch.setattr(objectives, "LOGISTIC_MAX_ITER", steps)
    optimum_oracle(obj, data)
    monkeypatch.setattr(objectives, "LOGISTIC_MAX_ITER", steps - 1)
    with pytest.raises(objectives.ConvergenceError):
        optimum_oracle(obj, data)


def _drawn_with_replacement(rng, C: int) -> tuple[Objective, Dataset]:
    k, d = int(rng.integers(2, 200)), int(rng.integers(1, 10))
    base = Dataset(rng.standard_normal((k, d)) * rng.uniform(0.2, 3.0), rng.integers(0, C, size=k), n_classes=C)
    data = base.subset(rng.integers(0, k, size=int(rng.integers(k, 5 * k))))
    return Objective("multinomial_logistic", d, reg=float(rng.uniform(0.05, 1.0)), n_classes=C), data


class TestLogisticLayout:
    @pytest.mark.parametrize("source", ["configs/biased_devices.json", "biased", "stress"])
    def test_pooled_optimum_agrees_with_the_row_major_one_within_1e_14(self, tmp_path, monkeypatch, source):
        # the shipped logistic config and the benchmark's logistic workloads
        # (demo is ridge, solved in closed form), whose pooled sets repeat rows
        if source.endswith(".json"):
            path = ROOT / source
        else:
            path = tmp_path / f"{source}.json"
            path.write_text(json.dumps(_workload_document(source, monkeypatch)))
        spec = load_experiment(path)
        config = spec.config
        fits, _ = partition_with_holdout(spec.dataset, config.partition, config.holdout_fraction)
        pooled = Shards.pool([spec.dataset.subset(rows) for rows in fits]).data
        assert _agrees_within_1e_14(config.objective, pooled)

    @pytest.mark.parametrize("C", [2, 3, 9])
    def test_rows_drawn_with_replacement_agree_within_1e_14(self, C):
        rng = np.random.default_rng(C)
        for _ in range(6):
            obj, data = _drawn_with_replacement(rng, C)
            assert _agrees_within_1e_14(obj, data), (len(data), obj.dim)

    @pytest.mark.parametrize("C", [2, 5])
    def test_the_solve_iterates_on_the_distinct_rows_with_their_counts(self, monkeypatch, C):
        rng = np.random.default_rng(40 + C)
        for _ in range(4):
            obj, data = _drawn_with_replacement(rng, C)
            X, y, counts = _solved_rows(monkeypatch, obj, data)
            pairs = np.column_stack([data.X, data.y])
            _, first, seen = np.unique(pairs, axis=0, return_index=True, return_counts=True)
            order = np.argsort(first)
            # one row per distinct (x, y) pair, in order of first appearance,
            # counting every row it stands for
            assert len(X) == len(first) < len(data)
            assert np.array_equal(X, data.X[first[order]]) and np.array_equal(y, data.y[first[order]])
            assert np.array_equal(counts, seen[order]) and counts.sum() == len(data)

    @pytest.mark.parametrize("C", [2, 4])
    @pytest.mark.parametrize("hash_step", [objectives._HASH_STEP, np.uint64(0)])
    def test_equal_features_with_different_labels_do_not_merge(self, monkeypatch, C, hash_step):
        # with every hash 0 the rows sort by index, so the labels alone
        # keep each row apart from its neighbour
        monkeypatch.setattr(objectives, "_HASH_STEP", hash_step)
        rng = np.random.default_rng(60 + C)
        x = rng.standard_normal((30, 5))
        labels = rng.integers(0, C, size=30)
        # each feature row twice with one label, then once with the next
        data = Dataset(np.repeat(x, 3, axis=0), np.stack([labels, labels, (labels + 1) % C], axis=1).ravel(), n_classes=C)
        obj = Objective("multinomial_logistic", 5, reg=0.2, n_classes=C)
        X, y, counts = _solved_rows(monkeypatch, obj, data)
        kept = np.sort(np.r_[0:90:3, 2:90:3])
        assert np.array_equal(X, data.X[kept]) and np.array_equal(y, data.y[kept])
        assert np.array_equal(counts, np.tile([2.0, 1.0], 30))
        assert _agrees_within_1e_14(obj, data)

    @pytest.mark.parametrize("m", [1, 2, 7, 1000])
    def test_one_row_repeated_m_times(self, monkeypatch, m):
        obj = Objective("multinomial_logistic", 3, reg=0.1, n_classes=2)
        data = Dataset(np.tile([0.5, -1.5, 2.0], (m, 1)), np.ones(m, dtype=np.int64), n_classes=2)
        X, y, counts = _solved_rows(monkeypatch, obj, data)
        assert X.shape == (1, 3) and y.tolist() == [1] and counts.tolist() == [m]
        assert _agrees_within_1e_14(obj, data)

    def test_rows_whose_hashes_collide_stay_exact_unmerged(self, monkeypatch):
        # every hash 0: the rows sort by index, so only runs of equal
        # neighbours merge and a repeat after another row stays its own row
        monkeypatch.setattr(objectives, "_HASH_STEP", np.uint64(0))
        rng = np.random.default_rng(80)
        obj, data = _drawn_with_replacement(rng, 3)
        data = data.subset(np.repeat(np.arange(len(data)), rng.integers(1, 4, size=len(data))))
        X, _, counts = _solved_rows(monkeypatch, obj, data)
        runs = 1 + int(((data.X[1:] != data.X[:-1]).any(axis=1) | (data.y[1:] != data.y[:-1])).sum())
        assert len(X) == runs > len(np.unique(np.column_stack([data.X, data.y]), axis=0))
        assert counts.sum() == len(data)
        assert _agrees_within_1e_14(obj, data)

    def test_random_problems_agree_within_1e_14(self):
        rng = np.random.default_rng(7)
        classes = [2, 16] + [int(c) for c in rng.integers(2, 17, size=28)]
        for C in classes:
            m, d = int(rng.integers(5, 3001)), int(rng.integers(1, 12))
            X = rng.standard_normal((m, d)) * rng.uniform(0.2, 3.0)
            data = Dataset(X, rng.integers(0, C, size=m), n_classes=C)
            obj = Objective("multinomial_logistic", d, reg=float(rng.uniform(0.05, 1.0)), n_classes=C)
            ref, _ = row_major_gd(obj, data)
            got = optimum_oracle(obj, data)
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref), (C, m, d)

    @pytest.mark.parametrize("C", [2, 3, 9])
    def test_logits_shifted_at_every_step_agree_within_1e_14(self, monkeypatch, C):
        # a limit of 0 makes every step take the max shift, which otherwise
        # only logits that could overflow take
        monkeypatch.setattr(objectives, "_UNSHIFTED_LIMIT", 0.0)
        rng = np.random.default_rng(70 + C)
        for _ in range(4):
            obj, data = _drawn_with_replacement(rng, C)
            assert _agrees_within_1e_14(obj, data), (len(data), obj.dim)

    @pytest.mark.parametrize("source", ["configs/biased_devices.json", "biased", "stress"])
    def test_pooled_solve_stops_at_the_reference_step(self, tmp_path, monkeypatch, source):
        _stops_at_the_reference_step(monkeypatch, *_pooled_set(source, tmp_path, monkeypatch))

    def test_random_problems_stop_at_the_reference_step(self, monkeypatch):
        for obj, data in _random_problems():
            _stops_at_the_reference_step(monkeypatch, obj, data)

    @pytest.mark.parametrize("C", [2, 3, 9])
    def test_logits_crossing_the_limit_midway_agree_within_1e_14(self, monkeypatch, C):
        # the logit bound ||W[1:] - W[0]|| * max_i ||x_i|| is 0 at the first
        # step and about its value at w* at the last, so a limit of half that
        # leaves the first steps unshifted and shifts the last ones
        rng = np.random.default_rng(90 + C)
        obj, data = _drawn_with_replacement(rng, C)
        ref, _ = row_major_gd(obj, data)
        W = ref.reshape(C, obj.dim)
        final = np.linalg.norm(W[1:] - W[0]) * np.sqrt((data.X * data.X).sum(axis=1)).max()
        monkeypatch.setattr(objectives, "_UNSHIFTED_LIMIT", final / 2)
        # a step takes one exp of its (C - 1, k) relative logits, after one
        # of class 0's (k,) numerators when it shifts
        exp, ranks = np.exp, []
        monkeypatch.setattr(np, "exp", lambda x, *args, **kwargs: ranks.append(x.ndim) or exp(x, *args, **kwargs))
        got = optimum_oracle(obj, data)
        monkeypatch.setattr(np, "exp", exp)
        assert ranks[0] == 2 and ranks[-2:] == [1, 2] and 0 < ranks.count(1) < ranks.count(2)
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


class TestClassMajorPredictions:
    @pytest.mark.parametrize("C", [2, 3, 7, 8, 16])
    def test_first_max_class_is_argmax_with_exact_ties(self, C):
        rng = np.random.default_rng(C)
        for shape in [(C, 257), (5, C, 257)]:
            scores = rng.standard_normal(shape)
            # exact ties: a column's max copied into another class, whole
            # columns of one value, and small integers that tie everywhere
            cols = rng.choice(257, size=60, replace=False)
            scores[..., rng.integers(0, C, size=60), cols] = scores[..., :, cols].max(axis=-2)
            scores[..., :, cols[:10]] = scores[..., :1, cols[:10]]
            scores[..., :, cols[10:13]] = -np.inf
            for stack in (scores, rng.integers(0, 3, size=shape).astype(np.float64)):
                got = _first_max_class(stack)
                assert got.dtype == np.intp and np.array_equal(got, np.argmax(stack, axis=-2))

    @pytest.mark.parametrize("source", ["configs/biased_devices.json", "biased", "stress"])
    def test_accuracy_of_stacked_estimates_equals_the_row_major_argmax(self, tmp_path, monkeypatch, source):
        if source.endswith(".json"):
            path = ROOT / source
        else:
            path = tmp_path / f"{source}.json"
            path.write_text(json.dumps(_workload_document(source, monkeypatch)))
        spec = load_experiment(path)
        obj = spec.config.objective
        problem = prepare(spec.config, spec.dataset)
        pooled, w_star = problem.train.data, problem.w_star
        rng = np.random.default_rng(17)
        # the all-tied zero model of the first round, the optimum, models
        # near it (whose class scores are close where the optimum's are) and
        # random ones
        models = np.stack(
            [np.zeros(obj.param_dim), w_star]
            + [w_star + 1e-3 * rng.standard_normal(obj.param_dim) for _ in range(3)]
            + [rng.standard_normal(obj.param_dim) for _ in range(3)]
        )
        got = accuracy_proxy(models, pooled, obj)
        for score, w in zip(got.tolist(), models):
            row_major = np.argmax(pooled.X @ w.reshape(obj.n_classes, obj.dim).T, axis=1)
            assert score == float(np.mean(row_major == pooled.y))


def _row_major_accuracy(obj: Objective, w: np.ndarray, data: Dataset) -> float:
    return float(np.mean(np.argmax(data.X @ w.reshape(obj.n_classes, obj.dim).T, axis=1) == data.y))


class TestDistinctTable:
    """The pooled training set's table of distinct rows: built once, read by
    the pooled solve and by every round's accuracy, and exact."""

    @staticmethod
    def _execute(tmp_path, doc: dict) -> None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        execute(load_experiment(path), tmp_path / "out", quiet=True)

    @pytest.mark.parametrize("source", ["stress", "configs/demo.json"])
    def test_one_execute_builds_the_table_once_in_prepare(self, tmp_path, monkeypatch, source):
        log = []
        find, solve, run_round = objectives._distinct_rows, experiments.prepare, simulation.run_round

        def prepare_spy(*args, **kwargs):
            log.append("prepare")
            problem = solve(*args, **kwargs)
            log.append("prepared")
            return problem

        monkeypatch.setattr(objectives, "_distinct_rows", lambda *args: log.append("table") or find(*args))
        monkeypatch.setattr(experiments, "prepare", prepare_spy)
        monkeypatch.setattr(simulation, "run_round", lambda *args, **kwargs: log.append("round") or run_round(*args, **kwargs))
        if source.endswith(".json"):
            doc = json.loads((ROOT / source).read_text())
        else:
            doc = _workload_document(source, monkeypatch)
        self._execute(tmp_path, doc)
        rounds = log.count("round")
        # the logistic set-up builds it for the pooled solve, and the rounds'
        # accuracy reads it; the ridge document (demo) never asks for one
        table = ["table"] if source == "stress" else []
        assert rounds > 0 and log == ["prepare", *table, "prepared"] + ["round"] * rounds

    def test_every_rounds_accuracy_is_the_row_major_mean_over_all_rows(self, tmp_path, monkeypatch):
        scored = []
        proxy = simulation.accuracy_proxy

        def spy(model, eval_set, obj):
            got = proxy(model, eval_set, obj)
            scored.append((got, model.copy(), eval_set, obj))
            return got

        monkeypatch.setattr(simulation, "accuracy_proxy", spy)
        self._execute(tmp_path, _workload_document("stress", monkeypatch))
        assert len(scored) == 20
        for got, models, pooled, obj in scored:
            # the pooled set repeats rows, so the table is shorter than it
            assert len(pooled.distinct().counts) < len(pooled)
            assert got.tolist() == [_row_major_accuracy(obj, w, pooled) for w in models]

    def test_writable_arrays_are_never_cached(self):
        rng = np.random.default_rng(90)
        obj, data = _drawn_with_replacement(rng, 3)
        w = rng.standard_normal(obj.param_dim)
        before = accuracy_proxy(w, data, obj)
        assert before == _row_major_accuracy(obj, w, data)
        optimum_oracle(obj, data)
        data.X[:] = -data.X  # every score negated: the argmax becomes the argmin
        after = accuracy_proxy(w, data, obj)
        assert after == _row_major_accuracy(obj, w, data) != before
        fresh = Dataset(data.X.copy(), data.y.copy(), n_classes=3)
        assert np.array_equal(optimum_oracle(obj, data), optimum_oracle(obj, fresh))
        # read-only features with writable labels are still built afresh
        data.X.setflags(write=False)
        assert data.distinct() is not data.distinct()
        data.y.setflags(write=False)
        assert data.distinct() is data.distinct()
