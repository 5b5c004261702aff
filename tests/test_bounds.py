import math

import numpy as np
import pytest

from safl_sim import (
    AnnealConfig,
    LrSchedule,
    Objective,
    PartitionSpec,
    SimConfig,
    corollary1_bound,
    corollary1_constant,
    make_linear_regression,
    measure_bound_inputs,
    run,
    theorem1_bound,
)
from safl_sim.bounds import BoundInputs, theorem3_constant
from safl_sim.simulation import prepare


def inputs_with(**kw):
    defaults = dict(
        mu=1.0,
        lam=1.2,
        sigma_sqs=np.array([0.5, 0.5, 0.5, 0.5]),
        etas=np.full(4, 0.25),
        alpha=0.3,
        epsilon=0.5,
        local_iterations=10,
        zeta=2.0,
    )
    defaults.update(kw)
    return BoundInputs(**defaults)


class TestConstantStepBound:
    def test_noiseless_bound_is_pure_geometric_decay(self):
        inp = inputs_with(sigma_sqs=np.zeros(4))
        for t in (0, 1, 5, 40):
            assert theorem1_bound(inp, t) == pytest.approx((1 - 0.3) ** (2 * t) * 2.0, rel=1e-12)

    def test_decay_term_vanishes_once_the_log_condition_holds(self):
        inp = inputs_with(sigma_sqs=np.zeros(4))
        rho = 1 - inp.alpha * inp.mu
        t = int(np.ceil((-28 - math.log(inp.zeta)) / (2 * math.log(rho)))) + 1
        assert theorem1_bound(inp, t) < 1e-12

    def test_uniform_weights_noise_term_capped_by_network_average(self):
        # with eta = 1/n the noise ratio is at most 1, so the noise term is at
        # most alpha * mean(sigma^2) / (n * mu)
        inp = inputs_with()
        noise_term = theorem1_bound(inp, 10**9)
        cap = inp.alpha * float(np.mean(inp.sigma_sqs)) / (4 * inp.mu)
        assert noise_term <= cap + 1e-15

    def test_bound_decreases_with_rounds(self):
        inp = inputs_with()
        values = [theorem1_bound(inp, t) for t in range(0, 50, 5)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_worst_case_acceptance_probability_loosens_the_bound(self):
        tight = inputs_with(selection_prob=0.0)
        loose = inputs_with(selection_prob=1.0)
        assert theorem1_bound(loose, 10**6) >= theorem1_bound(tight, 10**6)

    def test_step_size_precondition_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            inputs_with(alpha=1.0 / (2 * 1.2 - 1.0))
        with pytest.raises(ValueError, match="alpha"):
            inputs_with(alpha=0.0)

    def test_eta_normalisation_enforced(self):
        with pytest.raises(ValueError, match="etas"):
            inputs_with(etas=np.array([0.5, 0.5, 0.5, 0.5]))


class TestDecayingStepBounds:
    def test_strongly_convex_constant_hand_value(self):
        # alpha0=2, mu=1: denominator 2 - (2-2)^2 = 2, noise part 2*4*3/2 = 12
        c = corollary1_constant(2.0, 1.0, sigma_sq_max=3.0, zeta=5.0)
        assert c == pytest.approx(12.0, rel=1e-12)
        assert corollary1_constant(2.0, 1.0, sigma_sq_max=0.1, zeta=5.0) == pytest.approx(5.0)

    def test_bound_is_c_over_t_plus_one(self):
        assert corollary1_bound(12.0, 0) == 12.0
        assert corollary1_bound(12.0, 1) == 6.0
        assert corollary1_bound(12.0, 11) == 1.0

    def test_alpha0_window_enforced(self):
        mu = 0.5
        lo, hi = (2 - math.sqrt(2)) / mu, (2 + math.sqrt(2)) / mu
        with pytest.raises(ValueError, match="alpha0"):
            corollary1_constant(lo, mu, 1.0, 1.0)
        with pytest.raises(ValueError, match="alpha0"):
            corollary1_constant(hi, mu, 1.0, 1.0)
        assert corollary1_constant(0.5 * (lo + hi), mu, 1.0, 1.0) > 0

    def test_quasi_convex_constant_hand_value(self):
        # alpha0=2, mu=1: denominator 2*1-1 = 1, noise part 4 * weighted sigma
        etas = np.array([0.5, 0.5])
        c = theorem3_constant(2.0, 1.0, np.array([1.0, 3.0]), etas, zeta_weighted=0.5)
        assert c == pytest.approx(8.0, rel=1e-12)

    def test_quasi_convex_requires_alpha0_above_inverse_mu(self):
        with pytest.raises(ValueError, match="alpha0"):
            theorem3_constant(1.0, 1.0, np.array([1.0]), np.array([1.0]), 0.0)


class TestMeasuredInputs:
    def test_zeta_is_max_over_devices_of_mean_over_runs(self):
        obj = Objective("ridge", 2, reg=1.0)
        shards = [
            make_linear_regression(6, 2, feature_scale=0.3, seed=s) for s in (1, 2)
        ]
        w_star = np.zeros(2)
        # two runs, two devices: device 1 has the larger mean squared norm
        inits = np.array(
            [
                [[1.0, 0.0], [2.0, 0.0]],
                [[0.0, 1.0], [0.0, 0.0]],
            ]
        )
        inp = measure_bound_inputs(
            obj, shards, inits, w_star, np.array([0.5, 0.5]),
            alpha=0.1, epsilon=0.5, local_iterations=6,
        )
        assert inp.zeta == pytest.approx(2.0)  # max(mean(1,1), mean(4,0)) = 2
        assert inp.mu >= 1.0  # regulariser floor

    def test_curvature_is_worst_cased_across_shards(self):
        obj = Objective("ridge", 2, reg=0.5)
        shards = [
            make_linear_regression(8, 2, feature_scale=0.2, seed=3),
            make_linear_regression(8, 2, feature_scale=0.9, seed=4),
        ]
        from safl_sim import curvature

        inp = measure_bound_inputs(
            obj, shards, np.zeros((1, 2, 2)), np.zeros(2), np.array([0.5, 0.5]),
            alpha=0.05, epsilon=0.5, local_iterations=8,
        )
        assert inp.mu == pytest.approx(min(curvature(obj, s).mu for s in shards))
        assert inp.lam == pytest.approx(max(curvature(obj, s).lam for s in shards))


class TestBoundDominanceSmall:
    def test_decaying_step_runs_sit_below_their_bound(self):
        # compact version of the acceptance check: 30 seeds, small task
        data = make_linear_regression(80, 4, feature_scale=0.15, coef_scale=8.0, seed=12)
        obj = Objective("ridge", 4, reg=1.0)
        part = PartitionSpec(n=6, mean_size=10.0, size_var=0.0, max_labels_per_device=1, seed=21)
        mses, inits = [], []
        shards = None
        w_star = None
        alpha0 = 2.0  # mid-window once mu ~ 1
        for seed in range(30):
            cfg = SimConfig(
                objective=obj, partition=part, selected_per_round=6, rounds=50,
                algorithm="safl", anneal=AnnealConfig(temperature=8.0, epsilon=0.5),
                lr=LrSchedule("inverse", alpha0), seed=100 + seed, holdout_fraction=0.0,
            )
            res = run(cfg, dataset=data)
            mses.append([r.mse for r in res.records])
            inits.append(res.init_params)
            w_star = res.w_star
        train = prepare(cfg, data).train
        shards = [train.dataset(k) for k in range(len(train))]
        mses = np.array(mses)
        inp = measure_bound_inputs(
            obj, shards, np.stack(inits), w_star, np.full(6, 1 / 6),
            alpha=0.05, epsilon=0.5, local_iterations=10,
        )
        c = corollary1_constant(alpha0, inp.mu, float(np.max(inp.sigma_sqs)), inp.zeta)
        mean = mses.mean(axis=0)
        stderr = mses.std(axis=0, ddof=1) / math.sqrt(30)
        rounds = np.arange(1, mses.shape[1] + 1)
        bound = c / (rounds + 1.0)
        assert np.all(mean - 3 * stderr <= bound)
