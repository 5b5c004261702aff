import tracemalloc

import numpy as np
import pytest
from conftest import full_batch_grad, random_problem, record_explicit_decay, record_unshifted
import reference
from reference import Sample, sample, sgd_step

import safl_sim.training
from safl_sim import (
    Dataset,
    LrSchedule,
    Objective,
    curvature,
    empirical_risk,
    optimum_oracle,
)
from safl_sim.training import Shards, sample_indices


def run_local_epochs(params, shards, *args, **kwargs):
    """The kernel on ``shards``: a ``Shards``, or separate shards, which are
    pooled first as a simulation holds them (``reference.pooled_shards``)."""
    if not isinstance(shards, Shards):
        shards = reference.pooled_shards(shards)
    return safl_sim.training.run_local_epochs(params, shards, *args, **kwargs)


class TestLrSchedule:
    def test_constant_rate_ignores_step(self):
        sched = LrSchedule("constant", 0.3)
        assert (sched.rates(0, 1000) == 0.3).all()

    def test_inverse_rate_decays_like_one_over_t(self):
        sched = LrSchedule("inverse", 2.0)
        assert sched.rates(0, 4)[0] == 2.0
        assert sched.rates(0, 4)[3] == pytest.approx(0.5)
        assert np.allclose(sched.rates(2, 3), [2.0 / 3, 2.0 / 4, 2.0 / 5])
        assert np.array_equal(sched.rates(np.array([2, 7]), 3), np.stack([sched.rates(2, 3), sched.rates(7, 3)], axis=1))

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValueError):
            LrSchedule("cosine", 0.1)
        with pytest.raises(ValueError):
            LrSchedule("constant", 0.0)


class TestSgdStep:
    def test_zero_rate_returns_input(self):
        obj = Objective("least_squares", 2)
        w = np.array([0.4, -0.1])
        out = sgd_step(w, Sample(np.array([1.0, 2.0]), 0.5), obj, 0.0)
        assert np.array_equal(out, w)

    def test_hand_computed_step(self):
        # grad at w=0 for sample ([1], 1) is -1, so w' = 0 + 0.5
        obj = Objective("least_squares", 1)
        out = sgd_step(np.zeros(1), Sample(np.array([1.0]), 1.0), obj, 0.5)
        assert out.tolist() == [0.5]

    def test_full_batch_step_contracts_toward_optimum(self):
        rng = np.random.default_rng(13)
        obj, data = random_problem("ridge", rng, m=20, d=5)
        w_star = optimum_oracle(obj, data)
        mu = curvature(obj, data).mu
        lam = curvature(obj, data).lam
        alpha = 0.9 / lam
        w = rng.standard_normal(5)
        for _ in range(5):
            w_next = w - alpha * full_batch_grad(obj, w, data)
            assert np.linalg.norm(w_next - w_star) <= (1 - alpha * mu) * np.linalg.norm(w - w_star) + 1e-12
            w = w_next

    def test_non_finite_gradient_returns_a_non_finite_row(self):
        obj = Objective("least_squares", 2)
        out = sgd_step(np.array([np.inf, 1.0]), Sample(np.array([1.0, 0.5]), 0.0), obj, 0.1)
        assert not np.isfinite(out).any()
        # a finite step that overflows comes back as the kernel's does
        w0, shard = np.array([1e300, 2.0]), Dataset(np.array([[1e10, 0.0]]), np.zeros(1))
        out = sgd_step(w0, sample(shard, 0), obj, 0.1)
        (row,), _ = run_local_epochs([w0], [shard], obj, 1, LrSchedule("constant", 0.1), np.zeros(1, dtype=int))
        assert not np.isfinite(out).any() and np.array_equal(out, row, equal_nan=True)


def tiny_shard(m: int, d: int = 3, seed: int = 0) -> tuple[Objective, Dataset]:
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, d))
    y = X @ rng.standard_normal(d)
    return Objective("ridge", d, reg=0.2), Dataset(X, y)


def stream(shard, epochs: int, seed: int, order: str = "iid_draw") -> np.ndarray:
    """One device's sample-index stream from a fresh generator."""
    return sample_indices(len(shard), epochs, order, np.random.default_rng(seed))


class TestSampleIndices:
    @pytest.mark.parametrize("order", ["iid_draw", "shuffle"])
    @pytest.mark.parametrize("m", [1, 2, 6, 13, 100])
    @pytest.mark.parametrize("epochs", [1, 3, 29])
    def test_values_and_generator_state_match_one_draw_per_epoch(self, order, m, epochs):
        rng, ref = np.random.default_rng(m + epochs), np.random.default_rng(m + epochs)
        got = sample_indices(m, epochs, order, rng)
        want = reference.sample_indices(m, epochs, order, ref)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestRunLocalEpochs:
    def test_single_sample_single_epoch_is_one_step(self):
        obj, shard = tiny_shard(1)
        sched = LrSchedule("constant", 0.1)
        w0 = np.zeros(3)
        (z,), steps = run_local_epochs([w0], [shard], obj, 1, sched, stream(shard, 1, 42))
        assert steps == 1
        manual = sgd_step(w0, sample(shard, 0), obj, 0.1)
        assert np.allclose(z, manual, atol=0)

    def test_step_count_is_epochs_times_shard_size(self):
        obj, shard = tiny_shard(5)
        _, steps = run_local_epochs([np.zeros(3)], [shard], obj, 3, LrSchedule("constant", 0.01), stream(shard, 3, 1))
        assert steps == 15

    @pytest.mark.parametrize("order", ["iid_draw", "shuffle"])
    def test_bitwise_deterministic_for_fixed_stream(self, order):
        obj, shard = tiny_shard(7)
        sched = LrSchedule("inverse", 0.5)
        (z1,), _ = run_local_epochs([np.zeros(3)], [shard], obj, 2, sched, stream(shard, 2, 5, order))
        (z2,), _ = run_local_epochs([np.zeros(3)], [shard], obj, 2, sched, stream(shard, 2, 5, order))
        assert np.array_equal(z1, z2)

    def test_shuffle_replays_a_permutation_stream(self):
        obj, shard = tiny_shard(6)
        sched = LrSchedule("constant", 0.05)
        (z,), _ = run_local_epochs([np.zeros(3)], [shard], obj, 1, sched, stream(shard, 1, 11, "shuffle"))
        perm = np.random.default_rng(11).permutation(6)
        w = np.zeros(3)
        for i in perm:
            w = sgd_step(w, sample(shard, int(i)), obj, 0.05)
        assert np.allclose(z, w, atol=0)

    def test_iid_draw_replays_the_index_stream(self):
        obj, shard = tiny_shard(6)
        sched = LrSchedule("constant", 0.05)
        (z,), _ = run_local_epochs([np.zeros(3)], [shard], obj, 2, sched, stream(shard, 2, 12))
        idx = np.random.default_rng(12).integers(0, 6, size=12)
        w = np.zeros(3)
        for i in idx:
            w = sgd_step(w, sample(shard, int(i)), obj, 0.05)
        assert np.allclose(z, w, atol=0)

    def test_start_step_offsets_the_schedule(self):
        obj, shard = tiny_shard(1)
        sched = LrSchedule("inverse", 1.0)
        (z,), _ = run_local_epochs([np.zeros(3)], [shard], obj, 1, sched, stream(shard, 1, 3), start_steps=[9])
        manual = sgd_step(np.zeros(3), sample(shard, 0), obj, 1.0 / 10)
        assert np.allclose(z, manual, atol=0)

    def test_logistic_path_matches_generic_stepper(self):
        rng = np.random.default_rng(17)
        obj, shard = random_problem("multinomial_logistic", rng, m=6)
        sched = LrSchedule("constant", 0.1)
        (z,), _ = run_local_epochs([np.zeros(obj.param_dim)], [shard], obj, 1, sched, stream(shard, 1, 9))
        idx = np.random.default_rng(9).integers(0, 6, size=6)
        w = np.zeros(obj.param_dim)
        for i in idx:
            w = sgd_step(w, sample(shard, int(i)), obj, 0.1)
        assert np.allclose(z, w, atol=1e-12)

    def test_many_classes_build_no_class_by_class_table(self):
        # the one-hot targets take one float per step and class: a C x C
        # identity table would take 200 MB on its own at C = 5000
        C = 5000
        obj = Objective("multinomial_logistic", 2, reg=0.1, n_classes=C)
        shards = reference.pooled_shards([Dataset(np.array([[1.0, 0.5], [-0.5, 1.0]]), np.array([3, C - 1]), C)])
        sched, indices = LrSchedule("constant", 0.1), np.array([0, 1, 1, 0])
        tracemalloc.start()
        try:
            (z,), steps = run_local_epochs([np.zeros(obj.param_dim)], shards, obj, 2, sched, indices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steps == 4 and peak < C * C * 8 // 20
        w = np.zeros(obj.param_dim)
        for i in indices.tolist():
            w = sgd_step(w, sample(shards.data, i), obj, 0.1)
        assert np.abs(z - w).max() <= 1e-13 * max(1.0, np.abs(w).max())

    def test_full_batch_descent_decreases_risk_each_epoch(self):
        # deterministic descent on noiseless data with alpha < 1/lam
        rng = np.random.default_rng(23)
        obj, data = random_problem("ridge", rng, m=25, d=4)
        alpha = 0.8 / curvature(obj, data).lam
        w = rng.standard_normal(4)
        risks = [empirical_risk(obj, w, data)]
        for _ in range(10):
            w = w - alpha * full_batch_grad(obj, w, data)
            risks.append(empirical_risk(obj, w, data))
        assert all(b < a for a, b in zip(risks, risks[1:]))

    def test_a_divergent_row_comes_back_non_finite_and_leaves_its_batch_mates_alone(self):
        # the kernel raises nothing for divergence: the row whose shard
        # overflows at this rate returns non-finite, and the rows trained
        # beside it are bitwise those they give alone
        obj, shard = tiny_shard(8)
        _, wild = tiny_shard(6, seed=1)
        wild = Dataset(1e4 * wild.X, wild.y)
        sched = LrSchedule("constant", 0.1)
        shards = [shard, wild, shard]
        streams = [stream(s, 50, seed) for seed, s in enumerate(shards)]
        starts = np.random.default_rng(5).standard_normal((3, 3))
        trained, _ = run_local_epochs(starts, shards, obj, 50, sched, np.concatenate(streams))
        assert not np.isfinite(trained[1]).all()
        for k in (0, 2):
            (alone,), _ = run_local_epochs(starts[k : k + 1], [shard], obj, 50, sched, streams[k])
            assert np.isfinite(alone).all() and np.array_equal(trained[k], alone)

    @pytest.mark.parametrize("kind", ["least_squares", "ridge"])
    def test_a_diverging_row_matches_chained_sgd_steps_epoch_by_epoch(self, kind):
        # the wild shard overflows at this rate within a few epochs: after
        # every epoch count the kernel's row and the reference's are
        # non-finite in the same places and agree where they are finite
        obj, shard = tiny_shard(8)
        obj = Objective(kind, 3, reg=obj.reg if kind == "ridge" else 0.0)
        _, wild = tiny_shard(6, seed=1)
        wild = Dataset(1e4 * wild.X, wild.y)
        sched = LrSchedule("constant", 0.1)
        start = np.random.default_rng(5).standard_normal(3)
        states = set()
        for epochs in range(1, 41):
            (row,), _ = run_local_epochs([start], [wild], obj, epochs, sched, stream(wild, epochs, 3))
            ref = replay_sgd(start, wild, obj, epochs, sched, np.random.default_rng(3), 0, "iid_draw")
            finite = np.isfinite(ref)
            assert np.array_equal(np.isfinite(row), finite)
            if finite.any():
                scale = max(1.0, np.abs(ref[finite]).max())
                assert np.abs(row[finite] - ref[finite]).max() <= 1e-13 * scale
            states.add((finite.all(), finite.any()))
        assert states == {(True, True), (False, False)}  # the row ran finite, then left the range

    def test_index_streams_must_fit_their_shards(self):
        obj, shard = tiny_shard(4)
        sched = LrSchedule("constant", 0.1)
        with pytest.raises(ValueError, match="one per step"):
            run_local_epochs([np.zeros(3)], [shard], obj, 1, sched, np.zeros(3, dtype=int))
        # index 4 is past the first shard: it would read the second one's first
        # row; index -1 is before the second: it would read the first one's last
        for bad in ([0, 1, 2, 4, 0, 1, 2, 3], [0, 1, 2, 3, 0, -1, 2, 3]):
            with pytest.raises(ValueError, match="its own device's shard"):
                run_local_epochs([np.zeros(3)] * 2, [shard] * 2, obj, 1, sched, np.array(bad))

    def test_empty_shard_rejected(self):
        obj = Objective("least_squares", 2)
        empty = Dataset(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError, match="empty"):
            run_local_epochs([np.zeros(2)], [empty], obj, 1, LrSchedule("constant", 0.1), np.zeros(0, dtype=int))


def replay_sgd(w, shard, obj, epochs, sched, rng, start_step, order):
    """The reference: one device's own index stream, one ``sgd_step`` per sample."""
    m = len(shard)
    if order == "iid_draw":
        idx = rng.integers(0, m, size=epochs * m)
    else:
        idx = np.concatenate([rng.permutation(m) for _ in range(epochs)])
    for i, rate in zip(idx, sched.rates(start_step, len(idx)).tolist()):
        w = sgd_step(w, sample(shard, int(i)), obj, rate)
    return w


def ragged_batch(kind: str, count: int, seed: int):
    """``count`` devices of one objective with shard sizes 1..count in shuffled
    order, random starting points and distinct schedule offsets."""
    rng = np.random.default_rng(seed)
    obj, _ = random_problem(kind, rng, m=1)
    sizes = rng.permutation(np.arange(1, count + 1))
    shards = [random_problem(kind, rng, m=int(m))[1] for m in sizes]
    params = [0.5 * rng.standard_normal(obj.param_dim) for _ in range(count)]
    starts = [int(s) for s in rng.choice(1000, size=count, replace=False)]
    return obj, shards, params, starts


def start_steps(count: int, offsets: str, rng: np.random.Generator, apart: int = 0) -> np.ndarray:
    """Schedule offsets that all rows share (``equal``), that all rows but
    row ``apart`` share (``one_apart``), or that differ from row to row
    (``mixed``)."""
    if offsets == "equal":
        return np.full(count, 37)
    if offsets == "one_apart":
        starts = np.full(count, 37)
        starts[apart] = 36
        return starts
    return rng.choice(1000, size=count, replace=False)


def class_batch(classes: int, count: int, offsets: str, seed: int):
    """``count`` logistic devices over ``classes`` labels with shard sizes
    1..count in shuffled order, random starting points and ``start_steps``."""
    rng = np.random.default_rng(seed)
    obj = Objective("multinomial_logistic", 4, reg=0.1, n_classes=classes)
    sizes = rng.permutation(np.arange(1, count + 1))
    shards = [
        Dataset(rng.standard_normal((m, 4)), rng.integers(0, classes, size=m), n_classes=classes) for m in sizes
    ]
    params = [rng.standard_normal(obj.param_dim) for _ in range(count)]
    # the row apart is the longest stream's, the kernel's first row
    return obj, shards, params, start_steps(count, offsets, rng, apart=int(np.argmax(sizes)))


class TestBatchedKernel:
    @pytest.mark.parametrize("kind", ["least_squares", "ridge", "multinomial_logistic"])
    @pytest.mark.parametrize("order", ["iid_draw", "shuffle"])
    @pytest.mark.parametrize("sched", [LrSchedule("constant", 0.05), LrSchedule("inverse", 2.0)])
    def test_each_device_matches_chained_sgd_steps(self, kind, order, sched):
        obj, shards, params, starts = ragged_batch(kind, 40, seed=len(kind) + len(order))
        count = len(shards)
        indices = np.concatenate([stream(shards[k], 2, 500 + k, order) for k in range(count)])
        Z, total = run_local_epochs(params, shards, obj, 2, sched, indices, start_steps=starts)
        assert Z.shape == (count, obj.param_dim)
        assert total == 2 * sum(len(s) for s in shards)
        for k in range(count):
            ref = replay_sgd(params[k], shards[k], obj, 2, sched, np.random.default_rng(500 + k), starts[k], order)
            assert np.abs(Z[k] - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("kind", ["least_squares", "ridge", "multinomial_logistic"])
    @pytest.mark.parametrize("order", ["iid_draw", "shuffle"])
    @pytest.mark.parametrize("sched", [LrSchedule("constant", 0.05), LrSchedule("inverse", 2.0)])
    def test_buffered_steps_equal_the_allocating_loops_bitwise(self, monkeypatch, kind, order, sched):
        obj, shards, params, starts = ragged_batch(kind, 40, seed=len(kind) + len(order))
        indices = np.concatenate([stream(shards[k], 2, 500 + k, order) for k in range(len(shards))])
        Z, _ = run_local_epochs(params, shards, obj, 2, sched, indices, start_steps=starts)
        monkeypatch.setattr(safl_sim.training, "_sgd_steps", reference.sgd_steps)
        Z_ref, _ = run_local_epochs(params, shards, obj, 2, sched, indices, start_steps=starts)
        assert np.array_equal(Z, Z_ref)

    @pytest.mark.parametrize("classes", [2, 8, 9])  # numpy's class sum is pairwise from 8 on
    @pytest.mark.parametrize("sched", [LrSchedule("constant", 0.3), LrSchedule("inverse", 4.0)])
    @pytest.mark.parametrize("offsets", ["equal", "one_apart", "mixed"])
    def test_every_class_count_and_rate_sharing_equals_the_allocating_loops_bitwise(
        self, monkeypatch, classes, sched, offsets
    ):
        obj, shards, params, starts = class_batch(classes, 30, offsets, seed=classes)
        self.assert_equals_the_allocating_loops(monkeypatch, obj, shards, params, starts, sched)

    @pytest.mark.parametrize("kind", ["least_squares", "ridge"])
    @pytest.mark.parametrize("sched", [LrSchedule("constant", 0.05), LrSchedule("inverse", 0.5)])
    @pytest.mark.parametrize("offsets", ["equal", "one_apart", "mixed"])
    def test_quadratic_rate_sharing_equals_the_allocating_loops_bitwise(self, monkeypatch, kind, sched, offsets):
        obj, shards, params, _ = ragged_batch(kind, 30, seed=len(kind))
        longest = int(np.argmax([len(shard) for shard in shards]))
        starts = start_steps(30, offsets, np.random.default_rng(4), apart=longest)
        self.assert_equals_the_allocating_loops(monkeypatch, obj, shards, params, starts, sched)

    @staticmethod
    def assert_equals_the_allocating_loops(monkeypatch, obj, shards, params, starts, sched):
        # one epoch over shard sizes 1..K: one stream runs out at every step,
        # so the active rows shrink by one each step
        assert sorted(len(shard) for shard in shards) == list(range(1, len(shards) + 1))
        indices = np.concatenate([stream(shards[k], 1, 700 + k) for k in range(len(shards))])
        Z, _ = run_local_epochs(params, shards, obj, 1, sched, indices, start_steps=starts)
        monkeypatch.setattr(safl_sim.training, "_sgd_steps", reference.sgd_steps)
        Z_ref, _ = run_local_epochs(params, shards, obj, 1, sched, indices, start_steps=starts)
        assert np.array_equal(Z, Z_ref)

    @pytest.mark.parametrize("offsets", ["equal", "one_apart", "mixed"])
    def test_rows_share_one_float_rate_when_the_schedule_allows(self, offsets):
        starts = start_steps(6, offsets, np.random.default_rng(2))
        active = [6, 6, 4, 1]
        for sched in (LrSchedule("constant", 0.3), LrSchedule("inverse", 2.0)):
            table = safl_sim.training._step_rates(sched, starts, len(active))
            rates = safl_sim.training._per_step(table, active, 1)
            full = sched.rates(starts, len(active))
            if sched.kind == "constant" or offsets == "equal":
                assert all(type(rate) is float for rate in rates)
                assert rates == full[:, 0].tolist()
            else:
                assert [rate.shape for rate in rates] == [(a, 1) for a in active]
                assert all(np.array_equal(rate[:, 0], full[j, :a]) for j, (a, rate) in enumerate(zip(active, rates)))

    @pytest.mark.parametrize("kind", ["ridge", "multinomial_logistic"])
    def test_result_is_bitwise_independent_of_the_batch(self, kind):
        obj, shards, params, starts = ragged_batch(kind, 30, seed=3)
        sched = LrSchedule("inverse", 1.0)
        indices = np.concatenate([stream(shards[k], 2, k) for k in range(30)])
        Z, _ = run_local_epochs(params, shards, obj, 2, sched, indices, start_steps=starts)
        for k in (0, 7, 29):
            (alone,), _ = run_local_epochs(
                [params[k]], [shards[k]], obj, 2, sched, stream(shards[k], 2, k), start_steps=[starts[k]]
            )
            assert np.array_equal(alone, Z[k])

    @pytest.mark.parametrize("kind", ["ridge", "multinomial_logistic"])
    def test_lockstep_batch_repeating_each_shard_matches_each_device_alone(self, kind):
        # jobs run in lockstep put a device's shard in the batch once per
        # job, each copy with its own parameters, stream and schedule offset
        obj, shards, _, _ = ragged_batch(kind, 40, seed=5)
        rng = np.random.default_rng(6)
        rows = np.concatenate([rng.permutation(40) for _ in range(6)])  # 240 rows, 6 per shard
        params = 0.5 * rng.standard_normal((len(rows), obj.param_dim))
        starts = rng.choice([0, 0, 3, 17, 250, 999], size=len(rows))
        streams = [stream(shards[k], 2, 900 + i) for i, k in enumerate(rows)]
        sched = LrSchedule("inverse", 1.5)
        Z, _ = run_local_epochs(
            params, [shards[k] for k in rows], obj, 2, sched, np.concatenate(streams), start_steps=starts
        )
        # the same rows read in place from the shards pooled once, as a simulation reads them
        pooled = reference.pooled_shards(shards)
        in_place = Shards(pooled.data, pooled.starts[rows], pooled.sizes[rows])
        Z_pooled, _ = run_local_epochs(params, in_place, obj, 2, sched, np.concatenate(streams), start_steps=starts)
        assert np.array_equal(Z_pooled, Z)
        for i, k in enumerate(rows):
            (alone,), _ = run_local_epochs([params[i]], [shards[k]], obj, 2, sched, streams[i], start_steps=[starts[i]])
            assert np.array_equal(alone, Z[i])

    def test_simulation_resolves_the_kernel_and_gets_an_int_step_total(self):
        from safl_sim import simulation

        obj, shards, params, _ = ragged_batch("ridge", 5, seed=8)
        indices = np.concatenate([stream(shards[k], 3, k) for k in range(5)])
        pooled = reference.pooled_shards(shards)
        result = simulation.run_local_epochs(params, pooled, obj, 3, LrSchedule("constant", 0.01), indices)
        assert type(result[1]) is int
        assert result[1] == sum(3 * len(s) for s in shards)


def scaled_batch(classes: int, seed: int):
    """Nine logistic devices over ``classes`` labels with shard sizes 1..9 in
    shuffled order and schedule offsets of at least 10, the size-5 shard's
    features scaled by 100: its logit bound fails, and the others' hold.
    The kernel trains the longest stream first, so the scaled row is its
    fifth, between four longer rows and four shorter ones."""
    obj, shards, params, _ = class_batch(classes, 9, "equal", seed)
    scaled = next(k for k, shard in enumerate(shards) if len(shard) == 5)
    shards[scaled] = Dataset(100 * shards[scaled].X, shards[scaled].y, n_classes=classes)
    starts = np.random.default_rng(seed).choice(np.arange(10, 1000), size=9, replace=False)
    return obj, shards, params, starts, scaled


class TestShiftedLogits:
    """A logistic call in which one row's logit bound fails shifts that row
    by its class max and subtracts +0.0 from the rest."""

    @pytest.mark.parametrize("classes", [2, 3, 8, 9])
    @pytest.mark.parametrize("sched", [LrSchedule("constant", 0.3), LrSchedule("inverse", 4.0)])
    def test_every_row_trains_as_alone_and_as_chained_sgd_steps(self, monkeypatch, classes, sched):
        obj, shards, params, starts, scaled = scaled_batch(classes, seed=classes)
        streams = [stream(shard, 2, 300 + k) for k, shard in enumerate(shards)]
        decisions = record_unshifted(monkeypatch)
        Z, _ = run_local_epochs(params, shards, obj, 2, sched, np.concatenate(streams), start_steps=starts)
        assert decisions[0].tolist() == [True] * 4 + [False] + [True] * 4
        assert np.isfinite(Z).all()
        for k in range(len(shards)):
            (alone,), _ = run_local_epochs([params[k]], [shards[k]], obj, 2, sched, streams[k], start_steps=[starts[k]])
            assert np.array_equal(alone, Z[k])
            ref = replay_sgd(params[k], shards[k], obj, 2, sched, np.random.default_rng(300 + k), starts[k], "iid_draw")
            assert np.abs(Z[k] - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
        # the rows trained alone took the unshifted path, the scaled one the shifted
        assert [bool(d.all()) for d in decisions[1:]] == [k != scaled for k in range(len(shards))]
        monkeypatch.setattr(safl_sim.training, "_sgd_steps", reference.sgd_steps)
        Z_ref, _ = run_local_epochs(params, shards, obj, 2, sched, np.concatenate(streams), start_steps=starts)
        assert np.array_equal(Z, Z_ref)

    @pytest.mark.parametrize("classes", [2, 9])
    def test_the_scaled_row_overflows_unshifted(self, monkeypatch, classes):
        # the shift is needed: with every row declared safe, the scaled
        # row's logits overflow, and the other rows keep their bits
        obj, shards, params, starts, scaled = scaled_batch(classes, seed=classes)
        indices = np.concatenate([stream(shard, 2, 300 + k) for k, shard in enumerate(shards)])
        sched = LrSchedule("constant", 0.3)
        Z, _ = run_local_epochs(params, shards, obj, 2, sched, indices, start_steps=starts)
        monkeypatch.setattr(safl_sim.training, "_unshifted_rows", lambda W3, *args: np.ones(len(W3), dtype=bool))
        unshifted, _ = run_local_epochs(params, shards, obj, 2, sched, indices, start_steps=starts)
        assert not np.isfinite(unshifted[scaled]).all()
        others = np.arange(len(shards)) != scaled
        assert np.array_equal(unshifted[others], Z[others])

    def test_a_decay_that_could_grow_the_parameters_shifts(self):
        # rate * reg above 2 makes |1 - rate * reg| above 1, so the bound no
        # longer holds, however small the data
        obj, shards, params, _ = class_batch(3, 4, "equal", seed=1)
        shards = reference.pooled_shards(shards)
        W3 = np.asarray(params)[shards.layout(1).rank].reshape(4, 3, -1)
        for value, unshifted in ((2.0 / obj.reg, True), (2.0 / obj.reg * 1.01, False)):
            sched = LrSchedule("constant", value)
            small = Shards(Dataset(1e-9 * shards.data.X, shards.data.y, 3), shards.starts, shards.sizes)
            got = safl_sim.training._unshifted_rows(W3, small.layout(1), obj, sched, np.zeros(4, dtype=int))
            assert got.tolist() == [unshifted] * 4

    def test_layout_norms_are_each_shards_largest_row_norm(self):
        obj, shards, _, _ = class_batch(3, 12, "equal", seed=2)
        pooled = reference.pooled_shards(shards)
        rows = np.random.default_rng(3).permutation(np.repeat(np.arange(12), 3))  # each shard thrice, in any order
        layout = Shards(pooled.data, pooled.starts[rows], pooled.sizes[rows]).layout(2)
        want = np.array([np.linalg.norm(shards[k].X, axis=1).max() for k in rows])
        assert np.allclose(layout.norms, want[layout.rank], rtol=1e-15, atol=0)
        # the pooled set is read-only, so its row norms are computed once and kept
        assert pooled.data.row_norms() is pooled.data.row_norms()
        assert not pooled.data.row_norms().flags.writeable
        assert shards[0].row_norms() is not shards[0].row_norms()


def decay_batch(kind: str, classes: int | None, sched: LrSchedule):
    """Nine devices of ``kind`` with reg 1 whose decays ``1 - rate * reg``
    leave every row lazy but those marked in the returned mask.

    Under ``constant`` 0.4 every decay is 0.6, so the size-400 shard's
    running product falls below 2**-256 (at step 348) and the others' never
    does.  Under ``inverse`` 256 the size-60 shard starts at step 300, where
    its first decay is 1 - 256/301, below 1/2; the size-400 shard starts at
    step 511, where it is 1/2, and its product then falls below 2**-256;
    the rest start from step 2000 on.  The kernel trains the longest stream
    first, so under ``inverse`` both explicit rows lie between lazy ones.
    """
    rng = np.random.default_rng(len(kind) + (classes or 0))
    inverse = sched.kind == "inverse"
    sizes = [300, 400, 120, 60, 1, 8, 200, 33, 500 if inverse else 250]
    explicit = np.array([m == 400 or (inverse and m == 60) for m in sizes])
    if kind == "multinomial_logistic":
        obj = Objective(kind, 4, reg=1.0, n_classes=classes)
        shards = [Dataset(0.3 * rng.standard_normal((m, 4)), rng.integers(0, classes, m), n_classes=classes) for m in sizes]
    else:
        obj = Objective(kind, 3, reg=1.0)
        coef = rng.standard_normal(3)
        shards = []
        for m in sizes:
            X = 0.3 * rng.standard_normal((m, 3))
            shards.append(Dataset(X, X @ coef + 0.1 * rng.standard_normal(m)))
    params = [rng.standard_normal(obj.param_dim) for _ in sizes]
    starts = 2000 + rng.choice(1000, size=len(sizes), replace=False)
    starts[sizes.index(60)], starts[sizes.index(400)] = 300, 511
    return obj, shards, params, starts, explicit


class TestExplicitDecay:
    """Rows whose decays do not suit ``w = sigma * v`` keep ``sigma == 1``
    and multiply ``w`` by their decay each step, beside lazy rows."""

    @pytest.mark.parametrize("kind, classes", [("ridge", None)] + [("multinomial_logistic", c) for c in (2, 3, 8, 9)])
    @pytest.mark.parametrize("sched", [LrSchedule("constant", 0.4), LrSchedule("inverse", 256.0)])
    def test_every_row_trains_as_alone_and_as_chained_sgd_steps(self, monkeypatch, kind, classes, sched):
        obj, shards, params, starts, explicit = decay_batch(kind, classes, sched)
        streams = [stream(shard, 1, 400 + k) for k, shard in enumerate(shards)]
        decisions = record_explicit_decay(monkeypatch)
        Z, _ = run_local_epochs(params, shards, obj, 1, sched, np.concatenate(streams), start_steps=starts)
        rank = np.argsort([-len(shard) for shard in shards], kind="stable")
        assert decisions[0].tolist() == explicit[rank].tolist()
        assert np.isfinite(Z).all()
        for k in range(len(shards)):
            (alone,), _ = run_local_epochs([params[k]], [shards[k]], obj, 1, sched, streams[k], start_steps=[starts[k]])
            assert np.array_equal(alone, Z[k])
            ref = replay_sgd(params[k], shards[k], obj, 1, sched, np.random.default_rng(400 + k), starts[k], "iid_draw")
            assert np.abs(Z[k] - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
        # alone, each row makes the same decision
        assert [bool(d[0]) for d in decisions[1:]] == explicit.tolist()
        monkeypatch.setattr(safl_sim.training, "_sgd_steps", reference.sgd_steps)
        Z_ref, _ = run_local_epochs(params, shards, obj, 1, sched, np.concatenate(streams), start_steps=starts)
        assert np.array_equal(Z, Z_ref)

    @pytest.mark.parametrize("kind, classes", [("ridge", None)] + [("multinomial_logistic", c) for c in (2, 3, 8, 9)])
    @pytest.mark.parametrize("sched", [LrSchedule("constant", 0.6), LrSchedule("inverse", 256.0)])
    def test_a_call_whose_rows_all_decay_explicitly_trains_each_row_as_alone(self, monkeypatch, kind, classes, sched):
        # rate * reg above 1/2 at each row's first step puts its first decay
        # below 1/2: 0.6 under constant, and from 256/300 to 256/201 under
        # inverse, where every row starts at a step from 200 to 299
        obj, shards, params, _, _ = decay_batch(kind, classes, sched)
        starts = 200 + np.random.default_rng(5).choice(100, size=len(shards), replace=False)
        streams = [stream(shard, 1, 500 + k) for k, shard in enumerate(shards)]
        decisions = record_explicit_decay(monkeypatch)
        Z, _ = run_local_epochs(params, shards, obj, 1, sched, np.concatenate(streams), start_steps=starts)
        assert decisions[0].tolist() == [True] * len(shards)
        assert np.isfinite(Z).all()
        for k in range(len(shards)):
            (alone,), _ = run_local_epochs([params[k]], [shards[k]], obj, 1, sched, streams[k], start_steps=[starts[k]])
            assert np.array_equal(alone, Z[k])
            ref = replay_sgd(params[k], shards[k], obj, 1, sched, np.random.default_rng(500 + k), starts[k], "iid_draw")
            assert np.abs(Z[k] - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
        monkeypatch.setattr(safl_sim.training, "_sgd_steps", reference.sgd_steps)
        Z_ref, _ = run_local_epochs(params, shards, obj, 1, sched, np.concatenate(streams), start_steps=starts)
        assert np.array_equal(Z, Z_ref)

    def test_a_call_without_a_regulariser_decays_nothing(self, monkeypatch):
        obj, shards, params, starts = ragged_batch("least_squares", 12, seed=4)
        decisions = record_explicit_decay(monkeypatch)
        indices = np.concatenate([stream(shard, 2, k) for k, shard in enumerate(shards)])
        run_local_epochs(params, shards, obj, 2, LrSchedule("inverse", 0.5), indices, start_steps=starts)
        assert decisions == []
