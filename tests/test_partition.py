import importlib
from dataclasses import replace

import numpy as np
import pytest

from safl_sim import (
    Dataset,
    PartitionSpec,
    load_csv,
    make_blobs,
    make_linear_regression,
    partition,
    partition_with_holdout,
)
from safl_sim.datasets import save_csv
from safl_sim.partition import sample_sizes

PARTITION = importlib.import_module("safl_sim.partition")  # the package's `partition` is the function


class TestSampleSizes:
    def test_degenerate_variance_gives_mean_exactly(self):
        spec = PartitionSpec(n=50, mean_size=600.0, size_var=0.0, seed=1)
        assert sample_sizes(spec) == [600] * 50

    def test_small_mean_clamps_to_one(self):
        spec = PartitionSpec(n=25, mean_size=0.2, size_var=0.0, seed=1)
        assert sample_sizes(spec) == [1] * 25

    def test_monte_carlo_mean_matches_floor_corrected_oracle(self):
        # floor shaves ~0.5 off the mean when the spread dwarfs the lattice,
        # so E[max(floor(x), 1)] ~ 599.5; allow 3 standard errors
        spec = PartitionSpec(n=10_000, mean_size=600.0, size_var=100.0, seed=5)
        sizes = np.array(sample_sizes(spec))
        stderr = np.sqrt(100.0 + 1.0 / 12.0) / np.sqrt(10_000)
        assert abs(sizes.mean() - 599.5) <= 3 * stderr


def _isin_pool(labels, chosen, n_classes):
    """The label pool as ``partition`` built it with ``np.isin``: the reference."""
    return np.nonzero(np.isin(labels, chosen))[0]


class TestLabelPool:
    def test_lookup_table_shards_equal_the_isin_reference(self, monkeypatch):
        rng = np.random.default_rng(2024)
        for trial in range(30):
            classes = int(rng.integers(2, 8))
            data = make_blobs(int(rng.integers(60, 400)), 3, classes, seed=trial)
            if classes >= 4 and trial % 2:  # some labels absent from the data
                data = data.subset(np.flatnonzero(data.y % 2 == 0))
            n = int(rng.integers(2, 30))
            spec = PartitionSpec(
                n=n,
                mean_size=float(rng.uniform(1.0, 40.0)),
                size_var=float(rng.uniform(0.0, 60.0)),
                max_labels_per_device=int(rng.integers(2, data.labels().size + 1)),
                pure_count=int(rng.integers(1, n + 1)),
                seed=trial,
            )
            shipped = partition(data, spec)
            with monkeypatch.context() as patch:
                patch.setattr(PARTITION, "_label_pool", _isin_pool)
                reference = partition(data, spec)
            assert len(shipped) == len(reference) == n
            for a, b in zip(shipped, reference):
                assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


    def test_each_label_subset_is_scanned_once(self, monkeypatch):
        scanned = []

        def counting_pool(labels, chosen, n_classes):
            scanned.append(tuple(sorted(chosen.tolist())))
            return _isin_pool(labels, chosen, n_classes)

        monkeypatch.setattr(PARTITION, "_label_pool", counting_pool)
        data = make_blobs(300, 3, 3, seed=4)
        partition(data, PartitionSpec(n=200, mean_size=5.0, max_labels_per_device=3, pure_count=20, seed=3))
        assert len(scanned) == len(set(scanned)) == 7  # every nonempty subset of 3 labels


class TestPartition:
    def test_shard_sizes_match_draws_exactly(self):
        data = make_blobs(400, 4, 5, seed=3)
        spec = PartitionSpec(n=12, mean_size=20.0, size_var=30.0, max_labels_per_device=3, seed=8)
        shards = partition(data, spec)
        assert [len(s) for s in shards] == sample_sizes(spec)

    def test_label_subsets_respect_the_cap(self):
        data = make_blobs(500, 4, 6, seed=3)
        spec = PartitionSpec(n=20, mean_size=15.0, max_labels_per_device=3, seed=9)
        for shard in partition(data, spec):
            assert len(np.unique(shard.y)) <= 3

    def test_single_label_cap_gives_pure_shards(self):
        data = make_blobs(500, 4, 6, seed=3)
        spec = PartitionSpec(n=15, mean_size=12.0, max_labels_per_device=1, seed=2)
        for shard in partition(data, spec):
            assert len(np.unique(shard.y)) == 1

    def test_pure_count_forces_leading_devices_to_one_label(self):
        data = make_blobs(600, 4, 5, seed=3)
        spec = PartitionSpec(n=10, mean_size=25.0, max_labels_per_device=4, seed=6, pure_count=4)
        shards = partition(data, spec)
        for shard in shards[:4]:
            assert len(np.unique(shard.y)) == 1

    def test_deterministic_for_fixed_seed(self):
        data = make_blobs(300, 3, 4, seed=1)
        spec = PartitionSpec(n=8, mean_size=30.0, size_var=16.0, max_labels_per_device=2, seed=14)
        a = partition(data, spec)
        b = partition(data, spec)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.X, sb.X) and np.array_equal(sa.y, sb.y)

    def test_oversized_shards_draw_with_replacement(self):
        # 40 samples of one class, shard sizes of 120 force replacement
        data = make_blobs(40, 3, 2, seed=1)
        spec = PartitionSpec(n=3, mean_size=120.0, max_labels_per_device=1, seed=4)
        shards = partition(data, spec)
        assert all(len(s) == 120 for s in shards)

    def test_regression_data_partitions_without_labels(self):
        data = make_linear_regression(200, 5, seed=2)
        spec = PartitionSpec(n=10, mean_size=15.0, max_labels_per_device=1, seed=3)
        shards = partition(data, spec)
        assert all(len(s) == 15 for s in shards)

    def test_label_cap_above_label_count_rejected(self):
        data = make_blobs(100, 3, 2, seed=1)
        spec = PartitionSpec(n=4, mean_size=10.0, max_labels_per_device=5, seed=4)
        with pytest.raises(ValueError, match="max_labels_per_device"):
            partition(data, spec)

    def test_shards_above_the_size_limit_rejected_naming_the_keys(self):
        data = make_blobs(40, 3, 2, seed=1)
        limit = PARTITION.MAX_SHARD_FACTOR * len(data)
        at_limit = PartitionSpec(n=2, mean_size=float(limit), seed=4)
        PARTITION.check_fits(data, at_limit)
        assert [len(s) for s in partition(data, at_limit)] == [limit, limit]
        for spec in (replace(at_limit, mean_size=limit + 1.0), replace(at_limit, size_var=1e300)):
            for reject in (PARTITION.check_fits, partition):
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
        sizes = sample_sizes(spec)
        for train, hold, m in zip(fits, holds, sizes):
            assert len(train) + len(hold) == m
            assert len(hold) == int(np.floor(0.2 * m))
            assert len(train) >= 1
        # together, a device's pieces are its shard's rows (a draw may repeat a row)
        for rows, train, hold in zip(PARTITION._shard_indices(data, spec), fits, holds):
            assert np.array_equal(np.sort(np.concatenate([train, hold])), np.sort(rows))

    def test_singleton_shards_keep_their_only_sample_for_training(self):
        data = make_linear_regression(50, 3, seed=2)
        spec = PartitionSpec(n=5, mean_size=0.5, seed=3)
        for train, hold in zip(*partition_with_holdout(data, spec, 0.5)):
            assert len(data.subset(train)) == 1 and len(data.subset(hold)) == 0

    def test_pieces_are_the_shards_split_by_the_split_stream(self):
        # the pieces are rows of the dataset, not of the shard: the same
        # rows as splitting each shard of ``partition``
        data = make_blobs(300, 3, 3, seed=9)
        spec = PartitionSpec(n=9, mean_size=12.0, size_var=20.0, max_labels_per_device=2, seed=21)
        split_rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(4)[3])
        for shard, train_rows, hold_rows in zip(partition(data, spec), *partition_with_holdout(data, spec, 0.3)):
            train, hold = data.subset(train_rows), data.subset(hold_rows)
            perm = split_rng.permutation(len(shard))
            n_hold = len(hold)
            assert n_hold == min(int(np.floor(len(shard) * 0.3)), len(shard) - 1)
            assert np.array_equal(train.X, shard.X[perm[n_hold:]]) and np.array_equal(train.y, shard.y[perm[n_hold:]])
            assert np.array_equal(hold.X, shard.X[perm[:n_hold]]) and np.array_equal(hold.y, shard.y[perm[:n_hold]])

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.9])
    def test_holdout_sizes_are_those_of_the_split(self, fraction):
        data = make_blobs(300, 3, 3, seed=9)
        spec = PartitionSpec(n=9, mean_size=12.0, size_var=40.0, max_labels_per_device=2, seed=21)
        sizes = PARTITION.check_fits(data, spec)
        assert sizes == sample_sizes(spec)
        _, holds = partition_with_holdout(data, spec, fraction)
        assert [len(data.subset(hold)) for hold in holds] == PARTITION.holdout_sizes(sizes, fraction).tolist()

    def test_split_is_deterministic(self):
        data = make_blobs(200, 3, 3, seed=9)
        spec = PartitionSpec(n=5, mean_size=30.0, max_labels_per_device=2, seed=21)
        a = partition_with_holdout(data, spec, 0.25)
        b = partition_with_holdout(data, spec, 0.25)
        for ta, ha, tb, hb in zip(*a, *b):
            assert np.array_equal(data.subset(ta).X, data.subset(tb).X)
            assert np.array_equal(data.subset(ha).X, data.subset(hb).X)


class TestDatasetCsv:
    def test_round_trip_classification(self, tmp_path):
        data = make_blobs(60, 3, 4, seed=5)
        path = tmp_path / "data.csv"
        save_csv(data, path)
        loaded = load_csv(path, n_classes=4)
        assert np.array_equal(loaded.X, data.X)
        assert np.array_equal(loaded.y, data.y)
        assert loaded.n_classes == 4

    def test_round_trip_regression(self, tmp_path):
        data = make_linear_regression(40, 5, noise_std=0.3, seed=6)
        path = tmp_path / "data.csv"
        save_csv(data, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.X, data.X)
        assert np.array_equal(loaded.y, data.y)
        assert loaded.n_classes is None

    def test_header_shape_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1,2,3\n")
        with pytest.raises(ValueError, match="f0"):
            load_csv(path)
