import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from safl_sim import (
    Dataset,
    PartitionSpec,
    load_csv,
    make_blobs,
    make_linear_regression,
    partition_with_holdout,
)
from safl_sim import partition as PARTITION


def draws(data: Dataset, spec: PartitionSpec) -> list[np.ndarray]:
    """Each device's rows in the order the partition draws them, before the
    holdout split permutes them."""
    return PARTITION._shard_indices(data, spec, PARTITION._streams(spec))


def shards(data: Dataset, spec: PartitionSpec) -> list[np.ndarray]:
    """Each device's training rows with no holdout: its drawn rows, permuted."""
    return partition_with_holdout(data, spec, 0.0)[0]


# a dataset with room for shards of up to MAX_SHARD_FACTOR * 1000 samples
ROOMY = make_linear_regression(1000, 1, seed=0)


def size_draws(spec: PartitionSpec) -> np.ndarray:
    """The draws x_k ~ Normal(mean_size, size_var) on the first of the spec's four streams."""
    sizes_rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(4)[0])
    return sizes_rng.normal(spec.mean_size, np.sqrt(spec.size_var), size=spec.n)


class TestSampleSizes:
    def test_degenerate_variance_gives_mean_exactly(self):
        spec = PartitionSpec(n=50, mean_size=600.0, size_var=0.0, seed=1)
        assert PARTITION.check_fits(ROOMY, spec).tolist() == [600] * 50

    def test_small_mean_clamps_to_one(self):
        spec = PartitionSpec(n=25, mean_size=0.2, size_var=0.0, seed=1)
        assert PARTITION.check_fits(ROOMY, spec).tolist() == [1] * 25

    @pytest.mark.parametrize("seed", [0, 3, 7, 2**64 + 7])
    @pytest.mark.parametrize("mean_size, size_var", [(20.0, 25.0), (0.7, 4.0)])
    def test_sizes_are_the_floor_of_each_draw_clamped_to_one(self, mean_size, size_var, seed):
        spec = PartitionSpec(n=400, mean_size=mean_size, size_var=size_var, seed=seed)
        got = PARTITION.check_fits(ROOMY, spec)
        assert got.dtype == np.int64
        assert got.tolist() == [max(int(np.floor(x)), 1) for x in size_draws(spec)]

    @pytest.mark.parametrize("mean_size, size_var", [(1e19, 1e38), (8.0, 1e300)])
    def test_sizes_beyond_int64_are_refused_as_drawn(self, mean_size, size_var):
        # floored and compared as floats, never converted to an integer
        spec = PartitionSpec(n=400, mean_size=mean_size, size_var=size_var, seed=3)
        biggest = np.floor(size_draws(spec)).max()
        assert biggest > 2**63
        with pytest.raises(ValueError, match=re.escape(f"is {biggest:.3g}, above the limit of 10000 (10 times")):
            PARTITION.check_fits(ROOMY, spec)

    def test_monte_carlo_mean_matches_floor_corrected_oracle(self):
        # floor shaves ~0.5 off the mean when the spread dwarfs the lattice,
        # so E[max(floor(x), 1)] ~ 599.5; allow 3 standard errors
        spec = PartitionSpec(n=10_000, mean_size=600.0, size_var=100.0, seed=5)
        sizes = PARTITION.check_fits(ROOMY, spec)
        stderr = np.sqrt(100.0 + 1.0 / 12.0) / np.sqrt(10_000)
        assert abs(sizes.mean() - 599.5) <= 3 * stderr


def _isin_pool(labels, chosen, n_classes):
    """The label pool as the partition built it with ``np.isin``: the reference."""
    return np.nonzero(np.isin(labels, chosen))[0]


class TestLabelPool:
    def test_lookup_table_shards_equal_the_isin_reference(self, monkeypatch):
        rng = np.random.default_rng(2024)
        for trial in range(30):
            classes = int(rng.integers(2, 8))
            data = make_blobs(int(rng.integers(60, 400)), 3, classes, seed=trial)
            if classes >= 4 and trial % 2:  # some labels absent from the data
                even = data.y % 2 == 0
                data = Dataset(data.X[even], data.y[even], data.n_classes)
            n = int(rng.integers(2, 30))
            spec = PartitionSpec(
                n=n,
                mean_size=float(rng.uniform(1.0, 40.0)),
                size_var=float(rng.uniform(0.0, 60.0)),
                max_labels_per_device=int(rng.integers(2, data.labels().size + 1)),
                pure_count=int(rng.integers(1, n + 1)),
                seed=trial,
            )
            shipped = draws(data, spec)
            with monkeypatch.context() as patch:
                patch.setattr(PARTITION, "_label_pool", _isin_pool)
                reference = draws(data, spec)
            assert len(shipped) == len(reference) == n
            for a, b in zip(shipped, reference):
                assert np.array_equal(a, b)


    def test_each_label_subset_is_scanned_once(self, monkeypatch):
        scanned = []

        def counting_pool(labels, chosen, n_classes):
            scanned.append(tuple(sorted(chosen.tolist())))
            return _isin_pool(labels, chosen, n_classes)

        monkeypatch.setattr(PARTITION, "_label_pool", counting_pool)
        data = make_blobs(300, 3, 3, seed=4)
        shards(data, PartitionSpec(n=200, mean_size=5.0, max_labels_per_device=3, pure_count=20, seed=3))
        assert len(scanned) == len(set(scanned)) == 7  # every nonempty subset of 3 labels


class TestPartition:
    def test_shard_sizes_match_draws_exactly(self):
        data = make_blobs(400, 4, 5, seed=3)
        spec = PartitionSpec(n=12, mean_size=20.0, size_var=30.0, max_labels_per_device=3, seed=8)
        assert [len(rows) for rows in shards(data, spec)] == PARTITION.check_fits(data, spec).tolist()

    def test_label_subsets_respect_the_cap(self):
        data = make_blobs(500, 4, 6, seed=3)
        spec = PartitionSpec(n=20, mean_size=15.0, max_labels_per_device=3, seed=9)
        for rows in shards(data, spec):
            assert len(np.unique(data.y[rows])) <= 3

    def test_single_label_cap_gives_pure_shards(self):
        data = make_blobs(500, 4, 6, seed=3)
        spec = PartitionSpec(n=15, mean_size=12.0, max_labels_per_device=1, seed=2)
        for rows in shards(data, spec):
            assert len(np.unique(data.y[rows])) == 1

    def test_pure_count_forces_leading_devices_to_one_label(self):
        data = make_blobs(600, 4, 5, seed=3)
        spec = PartitionSpec(n=10, mean_size=25.0, max_labels_per_device=4, seed=6, pure_count=4)
        for rows in shards(data, spec)[:4]:
            assert len(np.unique(data.y[rows])) == 1

    def test_deterministic_for_fixed_seed(self):
        data = make_blobs(300, 3, 4, seed=1)
        spec = PartitionSpec(n=8, mean_size=30.0, size_var=16.0, max_labels_per_device=2, seed=14)
        for a, b in zip(shards(data, spec), shards(data, spec)):
            assert np.array_equal(a, b)

    def test_oversized_shards_draw_with_replacement(self):
        # 40 samples of one class, shard sizes of 120 force replacement
        data = make_blobs(40, 3, 2, seed=1)
        spec = PartitionSpec(n=3, mean_size=120.0, max_labels_per_device=1, seed=4)
        assert all(len(rows) == 120 for rows in shards(data, spec))

    def test_regression_data_partitions_without_labels(self):
        data = make_linear_regression(200, 5, seed=2)
        spec = PartitionSpec(n=10, mean_size=15.0, max_labels_per_device=1, seed=3)
        assert all(len(rows) == 15 for rows in shards(data, spec))

    def test_label_cap_above_label_count_rejected(self):
        data = make_blobs(100, 3, 2, seed=1)
        spec = PartitionSpec(n=4, mean_size=10.0, max_labels_per_device=5, seed=4)
        with pytest.raises(ValueError, match="max_labels_per_device"):
            shards(data, spec)

    def test_shards_above_the_size_limit_rejected_naming_the_keys(self):
        data = make_blobs(40, 3, 2, seed=1)
        limit = PARTITION.MAX_SHARD_FACTOR * len(data)
        at_limit = PartitionSpec(n=2, mean_size=float(limit), seed=4)
        PARTITION.check_fits(data, at_limit)
        assert [len(rows) for rows in shards(data, at_limit)] == [limit, limit]
        for spec in (replace(at_limit, mean_size=limit + 1.0), replace(at_limit, size_var=1e300)):
            for reject in (PARTITION.check_fits, shards):
                with pytest.raises(ValueError, match="mean_size .* size_var"):
                    reject(data, spec)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            PartitionSpec(n=0, mean_size=10.0)
        with pytest.raises(ValueError):
            PartitionSpec(n=5, mean_size=0.0)
        with pytest.raises(ValueError):
            PartitionSpec(n=5, mean_size=10.0, pure_count=6)


class TestHoldoutSplit:
    def test_split_is_disjoint_and_sized(self):
        data = make_blobs(400, 4, 4, seed=7)
        spec = PartitionSpec(n=6, mean_size=20.0, max_labels_per_device=2, seed=5)
        fits, holds = partition_with_holdout(data, spec, 0.2)
        sizes = PARTITION.check_fits(data, spec)
        for train, hold, m in zip(fits, holds, sizes):
            assert len(train) + len(hold) == m
            assert len(hold) == int(np.floor(0.2 * m))
            assert len(train) >= 1
        # together, a device's pieces are its shard's rows (a draw may repeat a row)
        for rows, train, hold in zip(draws(data, spec), fits, holds):
            assert np.array_equal(np.sort(np.concatenate([train, hold])), np.sort(rows))

    def test_singleton_shards_keep_their_only_sample_for_training(self):
        data = make_linear_regression(50, 3, seed=2)
        spec = PartitionSpec(n=5, mean_size=0.5, seed=3)
        for train, hold in zip(*partition_with_holdout(data, spec, 0.5)):
            assert len(train) == 1 and len(hold) == 0

    def test_pieces_are_the_shards_split_by_the_split_stream(self):
        # the pieces are rows of the dataset, not of the shard: the same
        # rows as splitting each device's drawn rows
        data = make_blobs(300, 3, 3, seed=9)
        spec = PartitionSpec(n=9, mean_size=12.0, size_var=20.0, max_labels_per_device=2, seed=21)
        split_rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(4)[3])
        for rows, train_rows, hold_rows in zip(draws(data, spec), *partition_with_holdout(data, spec, 0.3)):
            perm = split_rng.permutation(len(rows))
            n_hold = len(hold_rows)
            assert n_hold == min(int(np.floor(len(rows) * 0.3)), len(rows) - 1)
            assert np.array_equal(train_rows, rows[perm[n_hold:]]) and np.array_equal(hold_rows, rows[perm[:n_hold]])

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.9])
    def test_holdout_sizes_are_those_of_the_split(self, fraction):
        data = make_blobs(300, 3, 3, seed=9)
        spec = PartitionSpec(n=9, mean_size=12.0, size_var=40.0, max_labels_per_device=2, seed=21)
        sizes = PARTITION.check_fits(data, spec)
        _, holds = partition_with_holdout(data, spec, fraction)
        assert [len(hold) for hold in holds] == PARTITION.holdout_sizes(sizes, fraction).tolist()

    def test_split_is_deterministic(self):
        data = make_blobs(200, 3, 3, seed=9)
        spec = PartitionSpec(n=5, mean_size=30.0, max_labels_per_device=2, seed=21)
        a = partition_with_holdout(data, spec, 0.25)
        b = partition_with_holdout(data, spec, 0.25)
        for ta, ha, tb, hb in zip(*a, *b):
            assert np.array_equal(ta, tb) and np.array_equal(ha, hb)


class TestDatasetCsv:
    @staticmethod
    def save(data: Dataset, path) -> None:
        """Write ``data`` in the dataset CSV format that ``load_csv`` reads."""
        header = ",".join([*(f"f{j}" for j in range(data.dim)), "label"])
        np.savetxt(path, np.column_stack([data.X, data.y]), fmt="%.17g", delimiter=",", comments="", header=header)

    def test_round_trip_classification(self, tmp_path):
        data = make_blobs(60, 3, 4, seed=5)
        path = tmp_path / "data.csv"
        self.save(data, path)
        loaded = load_csv(path, n_classes=4)
        assert np.array_equal(loaded.X, data.X)
        assert np.array_equal(loaded.y, data.y)
        assert loaded.n_classes == 4

    def test_round_trip_regression(self, tmp_path):
        data = make_linear_regression(40, 5, noise_std=0.3, seed=6)
        path = tmp_path / "data.csv"
        self.save(data, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.X, data.X)
        assert np.array_equal(loaded.y, data.y)
        assert loaded.n_classes is None

    def test_header_shape_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1,2,3\n")
        with pytest.raises(ValueError, match="f0"):
            load_csv(path)


def _labelled(counts: list[int]) -> Dataset:
    """One feature, ``counts[c]`` rows of label c (possibly none), the labels shuffled."""
    y = np.random.default_rng(0).permutation(np.repeat(np.arange(len(counts)), counts))
    return Dataset(np.arange(y.size, dtype=float)[:, None], y, n_classes=len(counts))


class _Recording:
    """A generator that records the population, size and replace flag of each ``choice`` call."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.calls = rng, []

    def choice(self, a, size, replace):
        self.calls.append((np.size(a), size, replace))
        return self.rng.choice(a, size=size, replace=replace)


def _path(population: int, size: int, replace: bool) -> str:
    """The branch numpy's ``Generator.choice`` takes for a call."""
    if replace:
        return "replace"
    return "tail" if population > 10000 and size > population // 50 else "floyd"


def _reference_paths(data: Dataset, spec: PartitionSpec) -> list[str]:
    """Assert that the batched partition equals the per-device reference,
    in shards and in the final state of every stream; the ``choice``
    path each device's draw took in the reference."""
    ours, theirs = PARTITION._streams(spec), PARTITION._streams(spec)
    recording = _Recording(theirs[2])
    got = PARTITION._shard_indices(data, spec, ours)
    want = reference.shard_indices(data, spec, (theirs[0], theirs[1], recording, theirs[3]))
    assert len(got) == len(want) == spec.n
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert [rng.bit_generator.state for rng in ours] == [rng.bit_generator.state for rng in theirs]
    return [_path(*call) for call in recording.calls]


class TestBatchedDraws:
    """The partition's whole-array draws are the per-device ``choice`` calls, bitwise."""

    @pytest.mark.parametrize(
        "rows, mean_size, size_var, paths",
        [
            (10000, 200.0, 0.0, {"floyd"}),  # m = pop // 50
            (10000, 201.0, 0.0, {"floyd"}),  # a pool of 10000 rows never takes the tail shuffle
            (10001, 200.0, 0.0, {"floyd"}),
            (10001, 201.0, 0.0, {"tail"}),  # m = pop // 50 + 1
            (10001, 10001.0, 0.0, {"tail"}),
            (10000, 10000.0, 0.0, {"floyd"}),
            (10001, 201.0, 2.0, {"floyd", "tail"}),  # tail devices split the batched draws
            (150, 160.0, 400.0, {"floyd", "replace"}),
        ],
    )
    def test_each_choice_path_is_reproduced(self, rows, mean_size, size_var, paths):
        data = make_linear_regression(rows, 1, seed=rows)
        spec = PartitionSpec(n=24, mean_size=mean_size, size_var=size_var, seed=rows + int(mean_size))
        assert set(_reference_paths(data, spec)) == paths

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.sampled_from([0, 1, 7, 150, 4999, 5001, 10000, 10001]), min_size=2, max_size=4),
        regression=st.booleans(),
        n=st.integers(1, 40),
        mean_size=st.sampled_from([1.0, 3.0, 20.0, 200.0, 201.0, 401.0]),
        size_var=st.sampled_from([0.0, 4.0, 400.0, 40000.0]),
        cap=st.integers(1, 4),
        pure=st.integers(0, 40),
        seed=st.integers(0, 2**64),
    )
    def test_random_specs_draw_what_the_reference_draws(
        self, counts, regression, n, mean_size, size_var, cap, pure, seed
    ):
        data = _labelled(counts if sum(counts) else [1] + counts[1:])
        if regression:
            data = Dataset(data.X, data.y.astype(float))
        present = 1 if regression else data.labels().size
        spec = PartitionSpec(
            n=n, mean_size=mean_size, size_var=size_var, max_labels_per_device=min(cap, present),
            pure_count=min(pure, n), seed=seed,
        )
        assume(np.floor(size_draws(spec)).max() <= PARTITION.MAX_SHARD_FACTOR * len(data))
        _reference_paths(data, spec)

    def test_one_partition_reaches_every_path(self):
        # label 0 alone is a pool of 10001 rows; label 2 alone one of 7
        data = _labelled([10001, 150, 7])
        spec = PartitionSpec(n=120, mean_size=200.0, size_var=900.0, max_labels_per_device=2, pure_count=60, seed=3)
        assert set(_reference_paths(data, spec)) == {"floyd", "tail", "replace"}

    def test_batches_of_devices_draw_as_their_choice_calls(self):
        # pools near m make picks repeat, so Floyd's rule fires; pools below m draw with replacement
        rng = np.random.default_rng(11)
        for trial in range(300):
            count = int(rng.integers(1, 30))
            m = rng.integers(1, 60, size=count)
            pop = np.maximum(m + rng.integers(-5, 3 * m + 1), 1)
            ours, theirs = np.random.default_rng(trial), np.random.default_rng(trial)
            got = PARTITION._batched_choice(ours, pop, m)
            want = [theirs.choice(p, k, replace=p < k) for p, k in zip(pop.tolist(), m.tolist())]
            assert np.array_equal(got, np.concatenate(want))
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_partition_with_holdout_derives_its_streams_once(self, monkeypatch):
        derived, streams = [], PARTITION._streams

        def counting(spec):
            derived.append(spec)
            return streams(spec)

        monkeypatch.setattr(PARTITION, "_streams", counting)
        partition_with_holdout(make_blobs(200, 2, 3, seed=1), PartitionSpec(n=5, mean_size=10.0, seed=2), 0.2)
        assert len(derived) == 1


class TestDatasetLabels:
    def test_labels_are_the_sorted_distinct_labels_present(self):
        rng = np.random.default_rng(5)
        for trial in range(60):
            classes = int(rng.integers(2, 12))
            present = np.flatnonzero(rng.random(classes) < 0.5)  # often some classes absent, sometimes all
            rows = 0 if present.size == 0 else int(rng.integers(1, 200))
            y = rng.choice(present, size=rows) if rows else np.zeros(0, dtype=np.int64)
            labels = Dataset(np.zeros((rows, 1)), y, n_classes=classes).labels()
            assert labels.dtype == np.unique(y).dtype and np.array_equal(labels, np.unique(y))
