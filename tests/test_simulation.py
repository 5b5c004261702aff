import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safl_sim import (
    AnnealConfig,
    Dataset,
    DivergenceError,
    GateConfig,
    LrSchedule,
    Objective,
    PartitionSpec,
    SimConfig,
    WeightScheme,
    make_blobs,
    make_linear_regression,
    partition_with_holdout,
    run,
    run_local_epochs,
)
import safl_sim.training
from safl_sim import simulation
from safl_sim.simulation import block_rounds, build_state, global_estimate, prepare
from safl_sim.training import sample_indices

TOY_OBJ = Objective("lasso", 2, reg=1.0)
TOY_SHARDS = [
    Dataset(np.array([[0.25, 0.0]]), np.array([-1.0])),
    Dataset(np.array([[0.0, 1.5]]), np.array([1.0])),
]


def regression_setup(n=6, mean_size=8, seed=3):
    data = make_linear_regression(depth_samples(n, mean_size), 4, feature_scale=0.3, coef_scale=3.0, seed=seed)
    obj = Objective("ridge", 4, reg=0.8)
    part = PartitionSpec(n=n, mean_size=mean_size, size_var=0.0, max_labels_per_device=1, seed=17)
    return data, obj, part


def depth_samples(n, mean_size):
    return max(4 * n * mean_size // 3, 50)


def base_config(obj, part, **kw):
    defaults = dict(
        objective=obj,
        partition=part,
        selected_per_round=part.n,
        rounds=12,
        local_epochs=1,
        algorithm="fedavg",
        lr=LrSchedule("inverse", 1.5),
        seed=11,
        holdout_fraction=0.0,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestToyScenario:
    def test_single_round_oracle_aggregate(self):
        part = PartitionSpec(n=2, mean_size=1.0, seed=1)
        cfg = SimConfig(
            objective=TOY_OBJ,
            partition=part,
            selected_per_round=2,
            rounds=1,
            algorithm="fedavg",
            weight_scheme=WeightScheme("uniform"),
            local_solver="oracle",
            seed=7,
            holdout_fraction=0.0,
        )
        res = run(cfg, shards=TOY_SHARDS)
        z_bar = res.server.global_params
        assert np.allclose(z_bar, [0.0, 2.0 / 9.0], atol=0)
        # the averaged model sits 2/9 away from the optimum even though one
        # device's local solution is exactly optimal
        assert abs(np.linalg.norm(res.w_star - z_bar) - 2.0 / 9.0) < 1e-12
        assert np.linalg.norm(res.w_star - np.array([0.0, 4.0 / 9.0])) == 0.0
        assert res.records[0].mse == pytest.approx((2.0 / 9.0) ** 2, abs=1e-15)

    def test_sgd_on_lasso_rejected(self):
        part = PartitionSpec(n=2, mean_size=1.0, seed=1)
        with pytest.raises(ValueError, match="non-smooth"):
            SimConfig(
                objective=TOY_OBJ,
                partition=part,
                selected_per_round=2,
                rounds=1,
                seed=1,
            )


class TestFedAvgReduction:
    def test_unit_epsilon_matches_fedavg_bitwise(self):
        data, obj, part = regression_setup()
        cfg_f = base_config(obj, part, algorithm="fedavg")
        cfg_s = base_config(obj, part, algorithm="safl", anneal=AnnealConfig(temperature=5.0, epsilon=1.0))
        res_f, res_s = run(cfg_f, dataset=data), run(cfg_s, dataset=data)
        for a, b in zip(res_f.records, res_s.records):
            assert a.mse == b.mse and a.accuracy == b.accuracy and a.uploads == b.uploads
        assert np.array_equal(res_f.devices.params, res_s.devices.params)

    def test_underflowed_schedule_matches_fedavg_bitwise(self):
        # temperature so small the local-leaning branch has probability < 1e-17
        # from the very first round
        data, obj, part = regression_setup()
        cfg_f = base_config(obj, part, algorithm="fedavg")
        cfg_s = base_config(obj, part, algorithm="safl", anneal=AnnealConfig(temperature=1.0 / 45.0, epsilon=0.2))
        res_f, res_s = run(cfg_f, dataset=data), run(cfg_s, dataset=data)
        assert np.array_equal(res_f.devices.params, res_s.devices.params)


class TestLocalOnlyLimit:
    def test_zero_epsilon_high_temperature_keeps_local_models(self):
        data, obj, part = regression_setup()
        seen = []
        cfg = base_config(
            obj,
            part,
            algorithm="safl",
            anneal=AnnealConfig(temperature=1e9, epsilon=0.0, mask_mode="scalar"),
            rounds=25,
        )

        def observer(record, server, devices, extras):
            for k in extras["selected"]:
                seen.append(np.array_equal(devices.params[k], extras["locals"][k]))

        run(cfg, dataset=data, observer=observer)
        assert seen and all(seen)


class TestSingleDevice:
    def test_fedavg_with_one_device_is_plain_sgd(self):
        data, obj, part = regression_setup(n=1, mean_size=10)
        cfg = base_config(obj, part, selected_per_round=1, rounds=8)
        res = run(cfg, dataset=data)

        # replay: same init stream, same train stream, chained local epochs
        root = np.random.SeedSequence(cfg.seed)
        _, dev_ss = root.spawn(2)
        init_ss, train_ss, _, _ = dev_ss.spawn(4)
        w = 0.1 * np.random.default_rng(init_ss).standard_normal(obj.param_dim)
        shard = data.subset(partition_with_holdout(data, part, 0.0)[0][0])
        rng = np.random.default_rng(train_ss)
        steps = 0
        for _ in range(8):
            indices = sample_indices(len(shard), 1, "iid_draw", rng)
            (w,), took = run_local_epochs([w], [shard], obj, 1, cfg.lr, indices, start_steps=[steps])
            steps += took
        assert np.array_equal(res.devices.params[0], w)


class TestPreparedProblem:
    def test_a_shared_problem_gives_the_trajectory_of_the_dataset(self):
        data, obj, part = regression_setup()
        cfg = base_config(obj, part, algorithm="safl", holdout_fraction=0.25)
        problem = prepare(cfg, data)
        for seed in (11, 12):
            own = run(replace(cfg, seed=seed), dataset=data)
            shared = run(replace(cfg, seed=seed), prepared=problem)
            assert [r.mse for r in own.records] == [r.mse for r in shared.records]
            assert np.array_equal(own.w_star, shared.w_star)
            assert np.array_equal(own.devices.params, shared.devices.params)

    def test_build_state_returns_the_shared_pool(self):
        data, obj, part = regression_setup()
        cfg = base_config(obj, part)
        problem = prepare(cfg, data)
        _, _, pooled, w_star = build_state(cfg, prepared=problem)
        assert pooled is problem.train.data and w_star is problem.w_star

    def test_pair_count_must_equal_the_device_count(self):
        data, obj, part = regression_setup(n=6)
        problem = prepare(base_config(obj, part), data)
        other = base_config(obj, replace(part, n=5))
        with pytest.raises(ValueError, match="one shard per device: 6 for n = 5"):
            build_state(other, prepared=problem)

    def test_a_prepared_problem_takes_no_data(self):
        data, obj, part = regression_setup()
        cfg = base_config(obj, part)
        with pytest.raises(ValueError, match="not both"):
            build_state(cfg, data, prepared=prepare(cfg, data))

    def test_explicit_shards_are_not_frozen_in_place(self):
        cfg = base_config(TOY_OBJ, PartitionSpec(n=2, mean_size=1.0, seed=1), local_solver="oracle", rounds=1)
        shards = [Dataset(s.X.copy(), s.y.copy()) for s in TOY_SHARDS]
        problem = prepare(cfg, shards=shards)
        assert not problem.train.data.X.flags.writeable and problem.evals is problem.train
        shards[0].X[0, 0] = 0.5  # the caller's arrays stay writable

    @staticmethod
    def ragged(holdout_fraction=0.15):
        # shard sizes straddle 1 / holdout_fraction, so some holdouts are empty
        data = make_linear_regression(400, 3, seed=4)
        part = PartitionSpec(n=12, mean_size=9.0, size_var=16.0, max_labels_per_device=1, seed=5)
        return base_config(Objective("ridge", 3, reg=0.3), part, holdout_fraction=holdout_fraction), data

    @classmethod
    def ragged_problem(cls, holdout_fraction=0.15):
        cfg, data = cls.ragged(holdout_fraction)
        fits, holds = partition_with_holdout(data, cfg.partition, holdout_fraction)
        return prepare(cfg, data), [(data.subset(fit), data.subset(hold)) for fit, hold in zip(fits, holds)]

    def test_each_eval_set_is_the_holdout_or_else_the_training_set(self, monkeypatch):
        problem, pairs = self.ragged_problem()
        held = [len(hold) > 0 for _, hold in pairs]
        assert any(held) and not all(held)
        for k, (train, hold) in enumerate(pairs):
            eval_set = hold if len(hold) else train
            for got, want in ((problem.train.dataset(k), train), (problem.evals.dataset(k), eval_set)):
                assert np.array_equal(got.X, want.X) and np.array_equal(got.y, want.y)
        assert problem.sizes.tolist() == [len(train) + len(hold) for train, hold in pairs]
        # each pooled set is bitwise the devices' own gathers, concatenated
        evals = [hold if len(hold) else train for train, hold in pairs]
        for shards, pieces in ((problem.train, [train for train, _ in pairs]), (problem.evals, evals)):
            for field in ("X", "y"):
                got, want = getattr(shards.data, field), np.concatenate([getattr(piece, field) for piece in pieces])
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        unheld, _ = self.ragged_problem(holdout_fraction=0.0)
        assert unheld.evals is unheld.train

        # prepare builds one Dataset per pooled set, and none per device
        built = []
        init, subset = Dataset.__init__, Dataset.subset
        monkeypatch.setattr(Dataset, "__init__", lambda self, *args, **kw: built.append("Dataset") or init(self, *args, **kw))
        monkeypatch.setattr(Dataset, "subset", lambda self, rows: built.append("subset") or subset(self, rows))
        for fraction, pooled_sets in ((0.15, 2), (0.0, 1)):
            cfg, data = self.ragged(fraction)
            built.clear()
            prepare(cfg, data)
            assert built == ["Dataset"] * pooled_sets

    def test_every_array_is_read_only_and_every_view_shares_the_pool(self):
        problem, _ = self.ragged_problem()
        arrays = [problem.sizes, problem.w_star]
        for shards in (problem.train, problem.evals):
            arrays += [shards.data.X, shards.data.y, shards.starts, shards.sizes]
            for k in range(len(shards)):
                view = shards.dataset(k)
                assert np.shares_memory(view.X, shards.data.X) and np.shares_memory(view.y, shards.data.y)
                arrays += [view.X, view.y]
        assert not any(array.flags.writeable for array in arrays)


class TestDeterminismAndAccounting:
    def test_identical_configs_reproduce_bitwise(self):
        data, obj, part = regression_setup()
        cfg = base_config(obj, part, algorithm="safl", anneal=AnnealConfig(temperature=6.0, epsilon=0.4))
        r1, r2 = run(cfg, dataset=data), run(cfg, dataset=data)
        assert [a.mse for a in r1.records] == [b.mse for b in r2.records]
        assert np.array_equal(r1.devices.params, r2.devices.params)

    def test_zero_rounds_give_empty_records(self):
        data, obj, part = regression_setup()
        res = run(base_config(obj, part, rounds=0), dataset=data)
        assert res.records == []

    def test_upload_counts_for_ungated_algorithms(self):
        data, obj, part = regression_setup()
        for algo in ("fedavg", "safl"):
            cfg = base_config(obj, part, algorithm=algo, selected_per_round=4, rounds=10)
            res = run(cfg, dataset=data)
            assert all(r.uploads == 4 for r in res.records)

    def test_annealing_probability_strictly_decreases(self):
        data, obj, part = regression_setup()
        cfg = base_config(obj, part, algorithm="safl", anneal=AnnealConfig(temperature=9.0, epsilon=0.5), rounds=15)
        res = run(cfg, dataset=data)
        ps = [r.selection_prob for r in res.records]
        assert all(p is not None for p in ps)
        assert all(b < a for a, b in zip(ps, ps[1:]))

    def test_early_stop_cuts_the_run(self):
        data, obj, part = regression_setup()
        cfg = base_config(obj, part, rounds=50, early_stop_mse=1e9)
        res = run(cfg, dataset=data)
        assert len(res.records) == 1

    def test_divergence_reports_the_round(self):
        # constant 1e8 rate multiplies the error each step; overflow to inf
        # takes a few rounds, and the report names the round where it lands
        data, obj, part = regression_setup()
        cfg = base_config(obj, part, lr=LrSchedule("constant", 1e8), rounds=10)
        with pytest.raises(DivergenceError) as err:
            run(cfg, dataset=data)
        assert err.value.round_index is not None and 1 <= err.value.round_index <= 10

    def test_divergence_names_the_lowest_selected_diverged_device(self):
        # devices 1 and 3 both overflow in round 1; device 3 has the longer
        # stream, yet the report names device 1, as a device-by-device loop would
        obj = Objective("ridge", 2, reg=0.5)
        sizes, scales = (4, 50, 5, 80), (0.1, 1e4, 0.1, 1e4)
        shards = [Dataset(np.full((m, 2), s), np.zeros(m)) for m, s in zip(sizes, scales)]
        part = PartitionSpec(n=4, mean_size=10.0, seed=1)
        cfg = base_config(obj, part, lr=LrSchedule("constant", 1.0), rounds=3)
        with pytest.raises(DivergenceError) as err:
            run(cfg, shards=shards)
        assert str(err.value).startswith("device 1 diverged in round 1: ")
        assert err.value.round_index == 1


# run seeds of 1, 2, 3-4 and 5-8 32-bit words: a seed shorter than the
# hash's pool of 4 is padded to it, and the words of a longer one past the
# pool are mixed in one by one
SEEDS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**128 - 1),
    st.integers(2**128, 2**256 - 1),
)


class TestStreamDerivation:
    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, n=st.integers(1, 1000), tail=st.lists(st.integers(0, 2**32 - 1), max_size=2))
    @example(seed=0, n=1000, tail=[3])
    @example(seed=10**40, n=1000, tail=[2**32 - 1])
    # seeds of 3, 4 and 5 words: the last seed length that numpy's pool holds
    # whole, and the first whose words it mixes in beyond the pool
    @example(seed=2**96 - 1, n=3, tail=[7])
    @example(seed=2**96, n=3, tail=[7])
    @example(seed=2**128 - 1, n=3, tail=[7])
    @example(seed=2**128, n=3, tail=[7])
    def test_state_table_is_numpys_seed_hash(self, seed, n, tail):
        keys = np.column_stack([np.arange(1, n + 1)] + [np.full(n, word) for word in tail])
        table = simulation.stream_states(seed, keys)
        assert table.shape == (n, 4) and table.dtype == np.uint64
        for key, row in zip(keys.tolist(), table):
            assert np.array_equal(row, np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64))

    @pytest.mark.parametrize("seed", [11, 2**64 + 7, 10**40])
    @pytest.mark.parametrize("algo", ["fedavg", "safl", "safl_extended"])
    def test_every_generator_is_the_spawned_childs(self, algo, seed):
        data, obj, part = regression_setup()
        cfg = base_config(obj, part, algorithm=algo, seed=seed, gate=GateConfig(gap_scale=0.1))
        devices, server, _, _ = build_state(cfg, data)
        server_seq, *device_seqs = np.random.SeedSequence(seed).spawn(1 + cfg.n)

        def state(seq):
            return np.random.default_rng(seq).bit_generator.state

        assert server.rng.bit_generator.state == state(server_seq)
        drawn = {"fedavg": 1, "safl": 2, "safl_extended": 3}[algo]
        lists = (devices.train_rngs, devices.mask_rngs, devices.gate_rngs)
        assert [len(rngs) for rngs in lists] == [cfg.n if purpose <= drawn else 0 for purpose in (1, 2, 3)]
        for k, seq in enumerate(device_seqs):
            init, *streams = seq.spawn(4)
            assert np.array_equal(devices.params[k], cfg.init_scale * np.random.default_rng(init).standard_normal(obj.param_dim))
            for rngs, child in zip(lists[:drawn], streams):
                assert rngs[k].bit_generator.state == state(child)

    def test_a_hash_that_drifts_from_numpy_fails_loudly(self, monkeypatch):
        data, obj, part = regression_setup()
        exact = simulation.stream_states

        def corrupted(seed, keys):
            table = exact(seed, keys)
            table[-1, 0] ^= np.uint64(1)
            return table

        monkeypatch.setattr(simulation, "stream_states", corrupted)
        with pytest.raises(RuntimeError, match="SeedSequence"):
            build_state(base_config(obj, part), data)


class TestGatedUploads:
    def gated_setup(self, gap_scale, rounds=60, seed=5, mean_size=50.0, holdout=0.3,
                    separation=1.0, cluster_std=1.5, samples=1500):
        data = make_blobs(samples, 4, 3, separation=separation, cluster_std=cluster_std, seed=2)
        obj = Objective("multinomial_logistic", 4, reg=0.05, n_classes=3)
        part = PartitionSpec(n=8, mean_size=mean_size, size_var=0.0, max_labels_per_device=3, seed=13, pure_count=3)
        cfg = SimConfig(
            objective=obj,
            partition=part,
            selected_per_round=8,
            rounds=rounds,
            algorithm="safl_extended",
            anneal=AnnealConfig(temperature=10.0, epsilon=0.3),
            gate=GateConfig(gap_scale=gap_scale),
            lr=LrSchedule("constant", 0.1),
            seed=seed,
            holdout_fraction=holdout,
        )
        return cfg, data

    def test_uploads_never_exceed_selection(self):
        cfg, data = self.gated_setup(gap_scale=0.1)
        res = run(cfg, dataset=data)
        assert all(0 <= r.uploads <= 8 for r in res.records)
        total = sum(r.uploads for r in res.records)
        assert total <= cfg.partition.n * cfg.rounds

    def test_upload_rate_tracks_the_recorded_probabilities(self):
        # label overlap keeps the biased device's gap persistently large; the
        # wide holdout keeps the gap series smooth relative to the gate scale
        cfg, data = self.gated_setup(
            gap_scale=0.3, rounds=200, mean_size=120.0, holdout=0.25,
            separation=0.8, cluster_std=1.8, samples=2000,
        )
        qs, gaps, ups = [], [], []

        def observer(record, server, devices, extras):
            info = extras["gate"].get(0)  # device 0 is label-pure (biased)
            if info:
                qs.append(info["q"])
                gaps.append(info["gap"])
                ups.append(info["uploaded"])

        run(cfg, dataset=data, observer=observer)
        qs, gaps, ups = np.array(qs), np.array(gaps), np.array(ups, dtype=float)
        assert len(qs) == 200
        # Bernoulli aggregate oracle: uploads within 4 sd of the summed
        # per-round probabilities reconstructed from the gap series
        assert np.allclose(qs, np.exp(-gaps / cfg.gate.gap_scale), atol=0)
        sd_sum = float(np.sqrt(np.sum(qs * (1 - qs))))
        assert abs(ups.sum() - qs.sum()) <= 4 * sd_sum + 1e-9
        # over the stationary tail the gap is steady, so the rate also sits
        # below the mean-gap envelope
        tail = slice(100, None)
        q_t, u_t = qs[tail], ups[tail]
        envelope = float(np.exp(-gaps[tail].mean() / cfg.gate.gap_scale))
        sd_tail = float(np.sqrt(np.sum(q_t * (1 - q_t)))) / len(q_t)
        assert u_t.mean() <= envelope + 3 * sd_tail + 1e-9

    def test_all_skip_round_leaves_global_model_unchanged(self):
        cfg, data = self.gated_setup(gap_scale=0.004, rounds=40)
        snapshots = []

        def observer(record, server, devices, extras):
            snapshots.append((record.uploads, server.global_params.copy()))

        run(cfg, dataset=data, observer=observer)
        skipped = [i for i, (u, _) in enumerate(snapshots) if u == 0]
        assert skipped, "expected at least one all-skip round at this gate scale"
        for i in skipped:
            if i == 0:
                continue
            assert np.array_equal(snapshots[i][1], snapshots[i - 1][1])

    def test_identical_local_and_global_scores_upload_certainly(self):
        # one device, its local model IS the aggregate, so after the first
        # round the proxies coincide and q stays exactly 1
        data = make_blobs(60, 3, 2, separation=3.0, seed=4)
        obj = Objective("multinomial_logistic", 3, reg=0.05, n_classes=2)
        part = PartitionSpec(n=1, mean_size=30.0, max_labels_per_device=2, seed=6)
        cfg = SimConfig(
            objective=obj,
            partition=part,
            selected_per_round=1,
            rounds=12,
            algorithm="safl_extended",
            anneal=AnnealConfig(temperature=1e-3, epsilon=1.0),  # adopt global outright
            gate=GateConfig(gap_scale=0.05),
            lr=LrSchedule("constant", 1e-9),  # training barely moves the model
            seed=9,
            holdout_fraction=0.3,
        )
        qs = []

        def observer(record, server, devices, extras):
            qs.append(extras["gate"][0]["q"])

        res = run(cfg, dataset=data, observer=observer)
        assert all(q == 1.0 for q in qs[1:])
        assert all(r.uploads == 1 for r in res.records[1:])


class TestConfigValidation:
    def test_selected_bounds(self):
        data, obj, part = regression_setup()
        with pytest.raises(ValueError):
            base_config(obj, part, selected_per_round=part.n + 1)
        with pytest.raises(ValueError):
            base_config(obj, part, selected_per_round=0)

    def test_extended_requires_gate(self):
        data, obj, part = regression_setup()
        with pytest.raises(ValueError, match="gate"):
            base_config(obj, part, algorithm="safl_extended")

    def test_explicit_shards_take_no_holdout(self):
        part = PartitionSpec(n=2, mean_size=1.0, seed=1)
        cfg = base_config(TOY_OBJ, part, local_solver="oracle", holdout_fraction=0.2)
        with pytest.raises(ValueError, match="holdout_fraction"):
            run(cfg, shards=TOY_SHARDS)

    def test_global_estimate_needs_matched_weights(self):
        data, obj, part = regression_setup()
        res = run(base_config(obj, part, rounds=1), dataset=data)
        with pytest.raises(ValueError):
            global_estimate(res.devices.params, np.array([1.0]))


class TestDrawAhead:
    """``run`` draws each stream a block of rounds ahead; this rests on numpy's
    generators giving one draw of a summed size the values of successive draws."""

    SIZES = (3, 4, 1, 6, 5, 2, 7)  # odd sizes leave half a 64-bit draw buffered

    @pytest.mark.parametrize("high", [1, 13])
    def test_integers_concatenate(self, high):
        rng = np.random.default_rng(7)
        parts = np.concatenate([rng.integers(0, high, size=k) for k in self.SIZES])
        assert np.array_equal(parts, np.random.default_rng(7).integers(0, high, size=sum(self.SIZES)))

    def test_uniforms_concatenate(self):
        rng = np.random.default_rng(8)
        parts = np.concatenate([rng.random(k) for k in self.SIZES] + [[rng.random()]])
        whole = np.random.default_rng(8).random(sum(self.SIZES) + 1)
        assert np.array_equal(parts, whole)
        rows = np.random.default_rng(8).random((4, 7))
        assert np.array_equal(rows.ravel(), whole[:28])

    # "shuffle" groups one permutation(m) per epoch into calls of many epochs
    @pytest.mark.parametrize("order", ["iid_draw", "shuffle"])
    @pytest.mark.parametrize("m", [1, 6, 13])
    def test_sample_index_streams_concatenate(self, order, m):
        rng = np.random.default_rng(10)
        parts = np.concatenate([sample_indices(m, epochs, order, rng) for epochs in self.SIZES])
        whole = sample_indices(m, sum(self.SIZES), order, np.random.default_rng(10))
        assert np.array_equal(parts, whole)

    def test_zero_rounds_give_no_records_under_any_budget(self, monkeypatch):
        data, obj, part = regression_setup()
        monkeypatch.setattr(simulation, "PLAN_ENTRIES", 1)
        assert run(base_config(obj, part, rounds=0, algorithm="safl"), dataset=data).records == []

    def test_each_device_draws_its_samples_once_per_block(self, monkeypatch):
        data, obj, part = regression_setup()  # 6 devices of 8 samples
        cfg = base_config(obj, part, algorithm="safl", selected_per_round=4, rounds=13)
        draws = Counter()
        real = simulation.sample_indices

        def counted(m, epochs, order, rng):
            draws[id(rng)] += 1
            return real(m, epochs, order, rng)

        monkeypatch.setattr(simulation, "sample_indices", counted)
        run(cfg, dataset=data)
        assert len(draws) == part.n and set(draws.values()) == {1}  # one block

        draws.clear()
        monkeypatch.setattr(simulation, "PLAN_ENTRIES", 150)  # 4 * 8 indices + 4 * 4 uniforms per round
        assert block_rounds(cfg, prepare(cfg, data)) == 3
        run(cfg, dataset=data)
        assert max(draws.values()) <= math.ceil(13 / 3) < 13


def generator_states(server, devices):
    """The state of the server's generator, then of every device generator."""
    rngs = [server.rng, *devices.train_rngs, *devices.mask_rngs, *devices.gate_rngs]
    return [rng.bit_generator.state for rng in rngs]


def same_draws(got, want):
    """Both None, or equal in dtype, shape and every value."""
    if want is None:
        return got is None
    return got.dtype == want.dtype and np.array_equal(got, want)


class TestPlanner:
    """``plan_rounds`` draws every block's values, and leaves every stream in
    the state, of the device-by-device reference planner, except that it
    does not draw the server stream when every device is chosen."""

    VARIANTS = {
        "fedavg": dict(algorithm="fedavg"),
        "safl": dict(algorithm="safl", anneal=AnnealConfig(temperature=6.0, epsilon=0.4)),
        "safl_scalar": dict(algorithm="safl", anneal=AnnealConfig(temperature=6.0, epsilon=0.4, mask_mode="scalar")),
        "gated_oracle": dict(algorithm="safl_extended", gate=GateConfig(gap_scale=0.5), local_solver="oracle"),
    }

    def ragged(self, **kw):
        n, mean_size = 7, 8
        data = make_linear_regression(depth_samples(n, mean_size), 4, feature_scale=0.3, coef_scale=3.0, seed=3)
        part = PartitionSpec(n=n, mean_size=mean_size, size_var=9.0, max_labels_per_device=1, seed=17)
        cfg = base_config(Objective("ridge", 4, reg=0.8), part, rounds=11, holdout_fraction=0.25, **kw)
        problem = prepare(cfg, data)
        assert len(set(problem.train.sizes.tolist())) > 2 and (problem.sizes > problem.train.sizes).all()
        return cfg, problem

    # one round per block, a few rounds per block, and the whole run in one
    @pytest.mark.parametrize("entries", [40, 150, simulation.PLAN_ENTRIES])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("s", [3, 7])
    @pytest.mark.parametrize("epochs", [1, 2, 3])
    @pytest.mark.parametrize("order", ["iid_draw", "shuffle"])
    def test_blocks_match_the_reference_planner(self, order, epochs, s, variant, entries):
        cfg, problem = self.ragged(
            sample_order=order, local_epochs=epochs, selected_per_round=s, **self.VARIANTS[variant]
        )
        devices, server, _, _ = build_state(cfg, prepared=problem)
        ref_devices, ref_server, _, _ = build_state(cfg, prepared=problem)
        untouched = server.rng.bit_generator.state
        plan = simulation.plan_rounds(cfg, server, devices, problem, entries)
        block = block_rounds(cfg, problem, entries)
        firsts = range(1, cfg.rounds + 1, block)
        if entries == 40:
            assert len(firsts) > 1
        elif entries == simulation.PLAN_ENTRIES:
            assert len(firsts) == 1
        for first in firsts:
            want = reference.plan_block(cfg, ref_server, ref_devices, problem, min(block, cfg.rounds + 1 - first))
            for r, draws in enumerate(want, start=first):
                index, got = next(plan)
                assert index == r
                assert same_draws(got.chosen, draws.chosen)
                assert same_draws(got.indices, draws.indices)
                assert same_draws(got.uniforms, draws.uniforms)
                if r == first:  # the block is drawn when its first round is taken
                    states, ref_states = generator_states(server, devices), generator_states(ref_server, ref_devices)
                    assert states[1:] == ref_states[1:]
                    assert states[0] == (untouched if s == cfg.n else ref_states[0])
        assert next(plan, None) is None

    def test_full_participation_leaves_the_server_stream_undrawn(self):
        cfg, problem = self.ragged(**self.VARIANTS["safl"])
        _, server, _, _ = build_state(cfg, prepared=problem)
        result = run(cfg, prepared=problem)
        assert len(result.records) == cfg.rounds
        assert result.server.rng.bit_generator.state == server.rng.bit_generator.state
        partial = run(replace(cfg, selected_per_round=cfg.n - 1), prepared=problem)
        assert partial.server.rng.bit_generator.state != server.rng.bit_generator.state


def state_recorder(log: list):
    """An observer that keeps each round's record and device state."""

    def observer(record, server, devices, extras):
        log.append((record, devices.params.copy(), devices.steps_done.copy()))

    return observer


def count_layouts(monkeypatch) -> list:
    """Count the kernel's step layouts as they are built."""
    builds = []
    build = safl_sim.training.step_layout

    def counted(shards, epochs):
        builds.append(len(shards))
        return build(shards, epochs)

    monkeypatch.setattr(safl_sim.training, "step_layout", counted)
    return builds


class TestLockstep:
    """``run_jobs`` advances jobs together, one kernel call per round; each
    job's result must be bitwise the one it gets run alone."""

    def configs(self):
        data, obj, part = regression_setup()
        cfg = base_config(
            obj, part, selected_per_round=4, rounds=30,
            anneal=AnnealConfig(temperature=6.0, epsilon=0.4),
            gate=GateConfig(gap_scale=0.5),
            early_stop_mse=6e-4,
        )
        return data, [replace(cfg, algorithm=a, seed=s) for a in simulation.RULES for s in (11, 12)]

    @pytest.mark.parametrize("entries", [None, 200])
    def test_jobs_in_lockstep_equal_jobs_run_alone(self, monkeypatch, entries):
        data, configs = self.configs()
        problem = prepare(configs[0], data)
        alone = [run(config, prepared=problem) for config in configs]
        if entries is not None:  # many blocks of a few rounds each
            monkeypatch.setattr(simulation, "PLAN_ENTRIES", entries)
        together = simulation.run_jobs(configs, problem)
        lengths = [len(result.records) for result in together]
        assert min(lengths) < 30 == max(lengths)  # a job stops early and another runs on
        for own, joint in zip(alone, together):
            assert joint.records == own.records
            assert np.array_equal(joint.devices.params, own.devices.params)
            assert np.array_equal(joint.devices.steps_done, own.devices.steps_done)

    def test_each_seed_draws_its_streams_once_for_all_its_jobs(self, monkeypatch):
        data, configs = self.configs()  # 3 variants x 2 seeds, 4 of 6 devices a round
        problem = prepare(configs[0], data)
        built, planned, draws, drawn = [], [], Counter(), {}
        real_build, real_plan, real_sample = simulation.build_state, simulation.plan_rounds, simulation.sample_indices

        def build(config, **kw):
            built.append((config.algorithm, config.seed))
            return real_build(config, **kw)

        def plan(config, server, devices, problem, entries):
            planned.append((config.seed, entries))
            return real_plan(config, server, devices, problem, entries)

        def sample(m, epochs, order, rng):
            draws[id(rng)] += 1
            drawn[id(rng)] = rng
            return real_sample(m, epochs, order, rng)

        monkeypatch.setattr(simulation, "build_state", build)
        monkeypatch.setattr(simulation, "plan_rounds", plan)
        monkeypatch.setattr(simulation, "sample_indices", sample)
        results = simulation.run_jobs(configs, problem)
        # one state per seed, built for the variant that draws every stream
        assert built == [("safl_extended", 11), ("safl_extended", 12)]
        assert planned == [(11, simulation.PLAN_ENTRIES // 2), (12, simulation.PLAN_ENTRIES // 2)]
        # each seed's whole run is one block, in which every device trains
        assert block_rounds(configs[-1], problem, simulation.PLAN_ENTRIES // 2) >= configs[0].rounds
        assert len(draws) == 2 * configs[0].n and set(draws.values()) == {1}
        by_seed = {seed: [r for c, r in zip(configs, results) if c.seed == seed] for seed in (11, 12)}
        for first, *others in by_seed.values():
            assert {id(rng) for rng in first.devices.train_rngs} <= drawn.keys()
            for other in others:
                assert all(a is b for a, b in zip(other.devices.train_rngs, first.devices.train_rngs, strict=True))
                assert not np.shares_memory(other.devices.params, first.devices.params)
                assert not np.shares_memory(other.devices.steps_done, first.devices.steps_done)
                assert other.server is not first.server and other.server.rng is first.server.rng
        for config, result in zip(configs, results):
            devices = result.devices
            assert len(devices.mask_rngs) == config.rule.mixes * config.n
            assert len(devices.gate_rngs) == config.rule.gates * config.n

    @pytest.mark.parametrize("variant", simulation.RULES)
    def test_a_job_draws_folds_and_gates_as_its_rule_says(self, variant):
        rule = simulation.RULES[variant]
        # a seed's state is built for the mate whose rule draws the most, so
        # its streams hold every mate's only if any two rules are nested
        for other in simulation.RULES.values():
            assert all(a <= b for a, b in zip(rule, other)) or all(a >= b for a, b in zip(rule, other))
        data, configs = self.configs()
        configs = [config for config in configs if config.seed == 11]  # every variant, one seed
        problem = prepare(configs[0], data)
        slot = list(simulation.RULES).index(variant)
        config, gated = configs[slot], []
        observers = [None] * len(configs)
        observers[slot] = lambda record, server, devices, extras: gated.append(bool(extras["gate"]))
        result = simulation.run_jobs(configs, problem, observers)[slot]
        devices = result.devices
        assert len(devices.train_rngs) == config.n
        assert len(devices.mask_rngs) == rule.mixes * config.n
        assert len(devices.gate_rngs) == rule.gates * config.n
        assert result.records and {record.selection_prob is None for record in result.records} == {not rule.mixes}
        assert set(gated) == {rule.gates}
        devices, server, _, _ = build_state(config, prepared=problem)
        _, draws = next(simulation.plan_rounds(config, server, devices, problem, simulation.PLAN_ENTRIES))
        assert (draws.uniforms is None) == (not rule.mixes)

    def test_the_blocks_of_a_seed_are_read_only(self):
        data, configs = self.configs()
        problem = prepare(configs[-1], data)
        devices, server, _, _ = build_state(configs[-1], prepared=problem)
        _, draws = next(simulation.plan_rounds(configs[-1], server, devices, problem, simulation.PLAN_ENTRIES))
        for array in (draws.chosen, draws.indices, draws.uniforms):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    @pytest.mark.parametrize("entries", [None, 300])
    def test_seed_mates_outlive_the_job_that_draws_their_plan(self, monkeypatch, entries):
        # seed 11's safl job draws the seed's plan and stops after round 5,
        # while its fedavg mate runs on to round 11
        data, configs = self.full_participation()
        problem = prepare(configs[0], data)
        alone = [run(config, prepared=problem) for config in configs]
        if entries is not None:
            monkeypatch.setattr(simulation, "PLAN_ENTRIES", entries)
        together = simulation.run_jobs(configs, problem)
        lengths = {(c.algorithm, c.seed): len(result.records) for c, result in zip(configs, together)}
        assert lengths[("safl", 11)] == 5 < lengths[("fedavg", 11)] == 11
        if entries is not None:  # the mate draws blocks after the lead retires
            block = block_rounds(configs[-1], problem, entries // 2)
            assert any(5 < first <= 11 for first in range(1, configs[0].rounds + 1, block))
        for own, joint in zip(alone, together):
            assert joint.records == own.records
            assert np.array_equal(joint.devices.params, own.devices.params)
            assert np.array_equal(joint.devices.steps_done, own.devices.steps_done)

    def test_a_repeated_job_draws_its_own_gate_decisions(self, monkeypatch):
        # a repeated gated job must not share its gate streams with its twin,
        # so it plans apart and equals its alone run
        data, configs = self.configs()
        problem = prepare(configs[0], data)
        gated = [config for config in configs if config.algorithm == "safl_extended" and config.seed == 11]
        alone = run(gated[0], prepared=problem)
        twins = simulation.run_jobs(gated * 2, problem)
        assert twins[0].devices.gate_rngs[0] is not twins[1].devices.gate_rngs[0]
        for result in twins:
            assert result.records == alone.records
            assert np.array_equal(result.devices.params, alone.devices.params)

    def test_observers_see_what_they_see_alone(self):
        # the round's steps run for every job before any observer is called,
        # so each observer must still see only its own job's state, as alone
        data, configs = self.configs()
        problem = prepare(configs[0], data)

        def recorder(log):
            def observer(record, server, devices, extras):
                log.append((
                    record,
                    server.global_params.copy(),
                    devices.params.copy(),
                    devices.steps_done.copy(),
                    extras["selected"],
                    {k: v.copy() for k, v in extras["locals"].items()},
                    {k: dict(v) for k, v in extras["gate"].items()},
                ))
            return observer

        alone = [[] for _ in configs]
        for config, log in zip(configs, alone):
            run(config, prepared=problem, observer=recorder(log))
        together = [[] for _ in configs]
        simulation.run_jobs(configs, problem, [recorder(log) for log in together])
        assert min(map(len, together)) < 30 == max(map(len, together))  # an early stop
        assert any(seen[6] for log in together for seen in log)  # a gated job is seen
        for own, joint in zip(alone, together):
            assert len(joint) == len(own)
            for (rec, server, params, steps, selected, locals_, gate), seen in zip(own, joint):
                assert seen[0] == rec
                assert np.array_equal(seen[1], server)
                assert np.array_equal(seen[2], params) and np.array_equal(seen[3], steps)
                assert seen[4] == selected and seen[6] == gate
                assert seen[5].keys() == locals_.keys()
                assert all(np.array_equal(seen[5][k], v) for k, v in locals_.items())

    def full_participation(self):
        # every job trains all six devices each round, so the batch repeats
        # until a job retires: at rounds 5, 10 and 11, the last at 20
        data, obj, part = regression_setup()
        cfg = base_config(obj, part, rounds=30, anneal=AnnealConfig(temperature=6.0, epsilon=0.4), early_stop_mse=1e-3)
        return data, [replace(cfg, algorithm=a, seed=s) for a in ("fedavg", "safl") for s in (11, 12)]

    def diverging_later_job(self):
        # device 4's first sample overflows a step that starts from the
        # result of a step on it: a job whose stream draws it twice in one
        # round diverges in training.  Seed 104 does in round 3; seeds 47
        # and 52 never do in 4 rounds (checked below).
        obj = Objective("ridge", 2, reg=0.5)
        rng = np.random.default_rng(0)
        shards = [Dataset(0.3 * rng.standard_normal((m, 2)), rng.standard_normal(m)) for m in (4, 6, 5, 7, 12, 3)]
        shards[4].X[0] = [1e150, 0.0]
        cfg = base_config(obj, PartitionSpec(n=6, mean_size=10.0, seed=1), rounds=4, lr=LrSchedule("constant", 0.1))
        configs = [replace(cfg, seed=47), replace(cfg, seed=104), replace(cfg, algorithm="safl", seed=52)]
        return prepare(cfg, shards=shards), configs

    def test_jobs_retiring_at_full_participation_equal_jobs_run_alone(self):
        data, configs = self.full_participation()
        problem = prepare(configs[0], data)
        alone = [run(config, prepared=problem) for config in configs]
        together = simulation.run_jobs(configs, problem)
        assert sorted(len(result.records) for result in together) == [5, 10, 11, 20]
        for own, joint in zip(alone, together):
            assert joint.records == own.records
            assert np.array_equal(joint.devices.params, own.devices.params)
            assert np.array_equal(joint.devices.steps_done, own.devices.steps_done)

    def test_a_later_job_diverging_leaves_every_job_as_it_runs_alone(self):
        # the diverging job's rows train in one call with the others', so the
        # jobs before it are trained again without it; every job must still
        # see, round by round, what it sees alone
        problem, configs = self.diverging_later_job()
        alone, errors = [[] for _ in configs], []
        for config, log in zip(configs, alone):
            try:
                run(config, prepared=problem, observer=state_recorder(log))
            except DivergenceError as err:
                errors.append(str(err))
        assert [len(log) for log in alone] == [4, 2, 4]
        assert errors == ["device 4 diverged in round 3: parameters diverged during local training"]
        together = [[] for _ in configs]
        with pytest.raises(DivergenceError) as joint:
            simulation.run_jobs(configs, problem, [state_recorder(log) for log in together])
        assert str(joint.value) == errors[0]
        # the job after the diverging one retires with it, after round 2
        assert [len(log) for log in together] == [4, 2, 2]
        for own, seen in zip(alone, together):
            for (record, params, steps), (record_j, params_j, steps_j) in zip(own, seen):
                assert record_j == record
                assert np.array_equal(params_j, params) and np.array_equal(steps_j, steps)

    def test_the_layout_is_built_once_per_live_job_set_at_full_participation(self, monkeypatch):
        builds = count_layouts(monkeypatch)
        data, configs = self.full_participation()
        simulation.run_jobs(configs, prepare(configs[0], data))
        assert len(builds) == 4  # all four jobs, then three, two and one
        builds.clear()
        # the jobs before the diverging one train again on a batch of their
        # own, which the rounds after keep
        problem, configs = self.diverging_later_job()
        with pytest.raises(DivergenceError):
            simulation.run_jobs(configs, problem)
        assert len(builds) == 2

    def test_the_layout_is_built_once_per_round_at_partial_participation(self, monkeypatch):
        data, configs = self.configs()
        problem = prepare(configs[0], data)
        chosen = [{} for _ in configs]

        def recorder(picks):
            def observer(record, server, devices, extras):
                picks[record.round_index] = tuple(extras["selected"])
            return observer

        builds = count_layouts(monkeypatch)
        simulation.run_jobs(configs, problem, [recorder(picks) for picks in chosen])
        rounds = max(map(len, chosen))
        # every round some live job chooses another set than the round before
        for r in range(2, rounds + 1):
            assert any(r in picks and picks[r] != picks[r - 1] for picks in chosen)
        assert len(builds) == rounds

    def test_jobs_must_differ_only_in_algorithm_and_seed(self):
        data, configs = self.configs()
        with pytest.raises(ValueError, match="only in algorithm and seed"):
            simulation.run_jobs([configs[0], replace(configs[1], rounds=5)], prepare(configs[0], data))

    def test_divergence_is_that_of_the_first_job_to_diverge(self):
        # device 4 overflows in the first round it trains in: round 8 for
        # seed 3, round 3 for seed 4, round 2 for seed 2.  Run one after
        # another, the first job raises and the others never start, so the
        # report names round 8, although the later jobs diverge first.
        obj = Objective("ridge", 2, reg=0.5)
        sizes, scales = (4, 6, 5, 7, 80, 3), (0.1, 0.1, 0.1, 0.1, 1e4, 0.1)
        shards = [Dataset(np.full((m, 2), x), np.zeros(m)) for m, x in zip(sizes, scales)]
        cfg = base_config(
            obj, PartitionSpec(n=6, mean_size=10.0, seed=1), selected_per_round=2, rounds=12,
            lr=LrSchedule("constant", 1.0),
        )
        configs = [replace(cfg, seed=3), replace(cfg, algorithm="safl", seed=4), replace(cfg, seed=2)]
        with pytest.raises(DivergenceError) as alone:
            run(configs[0], shards=shards)
        with pytest.raises(DivergenceError) as joint:
            simulation.run_jobs(configs, prepare(cfg, shards=shards))
        assert str(joint.value) == str(alone.value) == (
            "device 4 diverged in round 8: parameters diverged during local training"
        )
        assert joint.value.round_index == 8

    def test_a_gated_job_diverging_in_training_is_reported_as_alone(self):
        # the shards and rate above, with seeds 4 and 2 gated: device 4
        # overflows in round 3 and round 2 for them, and a gate that scored
        # its non-finite row would draw a NaN upload probability.  Behind
        # fedavg seed 3, the gated jobs retire in those rounds, unobserved,
        # and the report names fedavg's round 8
        obj = Objective("ridge", 2, reg=0.5)
        sizes, scales = (4, 6, 5, 7, 80, 3), (0.1, 0.1, 0.1, 0.1, 1e4, 0.1)
        shards = [Dataset(np.full((m, 2), x), np.zeros(m)) for m, x in zip(sizes, scales)]
        cfg = base_config(
            obj, PartitionSpec(n=6, mean_size=10.0, seed=1), selected_per_round=2, rounds=12,
            lr=LrSchedule("constant", 1.0), algorithm="safl_extended", gate=GateConfig(0.5),
            anneal=AnnealConfig(6.0, 0.4),
        )
        configs = [replace(cfg, algorithm="fedavg", seed=3), replace(cfg, seed=4), replace(cfg, seed=2)]
        problem = prepare(cfg, shards=shards)
        alone, errors = [[] for _ in configs], []
        for config, log in zip(configs, alone):
            with pytest.raises(DivergenceError) as err:
                run(config, prepared=problem, observer=state_recorder(log))
            errors.append(str(err.value))
        assert errors == [
            f"device 4 diverged in round {r}: parameters diverged during local training" for r in (8, 3, 2)
        ]
        assert [len(log) for log in alone] == [7, 2, 1]
        together = [[] for _ in configs]
        with pytest.raises(DivergenceError) as joint:
            simulation.run_jobs(configs, problem, [state_recorder(log) for log in together])
        assert str(joint.value) == errors[0] and joint.value.round_index == 8
        assert [len(log) for log in together] == [7, 2, 1]
        for own, seen in zip(alone, together):
            for (record, params, steps), (record_j, params_j, steps_j) in zip(own, seen):
                assert record_j == record
                assert np.array_equal(params_j, params) and np.array_equal(steps_j, steps)

    def test_metrics_divergence_is_that_of_the_first_job_to_diverge(self):
        # the metrics overflow in round 18 for seed 1 and in round 16 for seed 2
        data, obj, part = regression_setup()
        cfg = base_config(obj, part, selected_per_round=3, rounds=40, lr=LrSchedule("constant", 20.0))
        configs = [replace(cfg, seed=1), replace(cfg, seed=2)]
        with pytest.raises(DivergenceError) as joint:
            simulation.run_jobs(configs, prepare(cfg, data))
        assert str(joint.value).startswith("metrics diverged in round 18: ")

    def test_observed_jobs_before_a_later_metrics_divergence_see_its_round(self):
        # with T = 16, seeds 1 and 4 never diverge and seed 5 diverges only
        # in round 17, while fedavg seed 2's metrics overflow in round 16
        data, obj, part = regression_setup()
        cfg = base_config(obj, part, selected_per_round=3, rounds=16, lr=LrSchedule("constant", 20.0))
        configs = [replace(cfg, seed=1), replace(cfg, algorithm="safl", seed=4), replace(cfg, seed=2),
                   replace(cfg, algorithm="safl", seed=5)]
        problem = prepare(cfg, data)
        alone, errors = [[] for _ in configs], []
        for config, log in zip(configs, alone):
            try:
                run(config, prepared=problem, observer=state_recorder(log))
            except DivergenceError as err:
                errors.append(str(err))
        assert [len(log) for log in alone] == [16, 16, 15, 16]
        assert errors == ["metrics diverged in round 16: mse inf, device_mse inf"]
        together = [[] for _ in configs]
        with pytest.raises(DivergenceError) as joint:
            simulation.run_jobs(configs, problem, [state_recorder(log) for log in together])
        assert str(joint.value) == errors[0] and joint.value.round_index == 16
        # the jobs before the diverging one are observed in its round; it and
        # the job after it retire unobserved in that round
        assert [len(log) for log in together] == [16, 16, 15, 15]
        for own, seen in zip(alone, together):
            for (record, params, steps), (record_j, params_j, steps_j) in zip(own, seen):
                assert record_j == record
                assert np.array_equal(params_j, params) and np.array_equal(steps_j, steps)
