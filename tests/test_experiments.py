import contextlib
import copy
import inspect
import io
import json
import math
import re
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safl_sim.bounds
import safl_sim.cli
import safl_sim.experiments
import safl_sim.objectives
import safl_sim.simulation
from safl_sim import AnnealConfig, GateConfig, LrSchedule, Objective, PartitionSpec, run, selection_probability
from safl_sim.cli import main as cli_main
from safl_sim.experiments import (
    METRICS_COLUMNS,
    ExperimentConfigError,
    MetricsRow,
    compare,
    emit_metrics_csv,
    execute,
    load_experiment,
    parse_metrics_csv,
    sim_config,
)
from safl_sim.partition import MAX_ROUND_STEPS
from safl_sim.simulation import DivergenceError, RoundRecord, prepare


def experiment_doc(**overrides):
    doc = {
        "name": "unit",
        "data": {"kind": "linear", "samples": 100, "dim": 5, "feature_scale": 0.2, "coef_scale": 4.0, "seed": 3},
        "objective": {"kind": "ridge", "reg": 1.0},
        "partition": {"mean_size": 8, "size_var": 0.0, "max_labels_per_device": 1, "seed": 7},
        "n": 8,
        "s": 8,
        "T": 12,
        "E": 1,
        "lr": {"kind": "inverse", "value": 1.8},
        "anneal": {"temperature": 6.0, "epsilon": 0.4},
        "holdout_fraction": 0.0,
        "variants": ["fedavg", "safl"],
        "seeds": [1, 2],
    }
    doc.update(overrides)
    return doc


def classification_doc(**overrides):
    """Six logistic devices, all selected; the constant-step bound holds for
    a step below about 0.0219 (1/(2*lam - mu) of these shards)."""
    doc = experiment_doc(
        data={"kind": "blobs", "samples": 120, "dim": 3, "classes": 3, "seed": 2},
        objective={"kind": "multinomial_logistic", "reg": 0.5},
        partition={"mean_size": 10, "size_var": 4.0, "max_labels_per_device": 2, "pure_count": 2, "seed": 7},
        n=6, s=6, T=3, holdout_fraction=0.2, lr={"kind": "constant", "value": 0.01},
    )
    doc.update(overrides)
    return doc


def count_calls(monkeypatch, module, name) -> list:
    """Replace ``module.name`` with a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def write_doc(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestLoadExperiment:
    def test_missing_device_count_names_the_key(self, tmp_path):
        doc = experiment_doc()
        del doc["n"]
        with pytest.raises(ExperimentConfigError, match="'n'"):
            load_experiment(write_doc(tmp_path, doc))

    def test_unknown_top_level_key_rejected(self, tmp_path):
        doc = experiment_doc(batch_size=50)
        with pytest.raises(ExperimentConfigError, match="'batch_size'"):
            load_experiment(write_doc(tmp_path, doc))

    def test_unknown_nested_key_rejected(self, tmp_path):
        doc = experiment_doc()
        doc["partition"]["dirichlet"] = 0.3
        with pytest.raises(ExperimentConfigError, match="'dirichlet'"):
            load_experiment(write_doc(tmp_path, doc))

    def test_unknown_variant_rejected(self, tmp_path):
        doc = experiment_doc(variants=["fedavg", "fedprox"])
        with pytest.raises(ExperimentConfigError, match="fedprox"):
            load_experiment(write_doc(tmp_path, doc))

    def test_extended_variant_requires_gate_section(self, tmp_path):
        doc = experiment_doc(variants=["safl_extended"])
        with pytest.raises(ExperimentConfigError, match="gate"):
            load_experiment(write_doc(tmp_path, doc))

    def test_well_formed_document_loads(self, tmp_path):
        spec = load_experiment(write_doc(tmp_path, experiment_doc()))
        assert spec.config.partition.n == 8
        assert spec.variants == ("fedavg", "safl")
        assert spec.config.lr.kind == "inverse"


class TestSharedSeedGuarantee:
    def test_variants_see_identical_shards_and_inits(self, tmp_path):
        spec = load_experiment(write_doc(tmp_path, experiment_doc()))
        res_f = run(sim_config(spec, "fedavg", 1), dataset=spec.dataset)
        res_s = run(sim_config(spec, "safl", 1), dataset=spec.dataset)
        assert np.array_equal(res_f.init_params, res_s.init_params)
        problem_f = prepare(sim_config(spec, "fedavg", 1), spec.dataset)
        problem_s = prepare(sim_config(spec, "safl", 1), spec.dataset)
        for shards_f, shards_s in ((problem_f.train, problem_s.train), (problem_f.evals, problem_s.evals)):
            assert np.array_equal(shards_f.starts, shards_s.starts)
            assert np.array_equal(shards_f.sizes, shards_s.sizes)
            assert np.array_equal(shards_f.data.X, shards_s.data.X)
            assert np.array_equal(shards_f.data.y, shards_s.data.y)


class TestExecute:
    def test_two_variants_emit_equal_round_grids(self, tmp_path):
        spec = load_experiment(write_doc(tmp_path, experiment_doc()))
        paths = execute(spec, tmp_path / "out", quiet=True)
        rows_f = parse_metrics_csv(paths["fedavg"])
        rows_s = parse_metrics_csv(paths["safl"])
        assert sorted({r.round for r in rows_f}) == sorted({r.round for r in rows_s})
        assert len(rows_f) == len(rows_s) == 12 * 2
        assert (tmp_path / "out" / "summary.json").exists()

    def test_p_column_is_the_rounds_acceptance_probability(self, tmp_path):
        # with 6 of 8 devices selected, a mean over the selected devices'
        # copies of p would be one ulp off in rounds 3, 4, 5 and 10
        doc = experiment_doc(s=6)
        paths = execute(load_experiment(write_doc(tmp_path, doc)), tmp_path / "out", quiet=True)
        rows = parse_metrics_csv(paths["safl"])
        temperature = doc["anneal"]["temperature"]
        assert rows and all(r.p == selection_probability(r.round, temperature) for r in rows)

    def test_seed_override_is_reproducible_bytewise(self, tmp_path):
        spec = load_experiment(write_doc(tmp_path, experiment_doc()), seed_override=7)
        p1 = execute(spec, tmp_path / "o1", quiet=True)
        p2 = execute(spec, tmp_path / "o2", quiet=True)
        for variant in ("fedavg", "safl"):
            assert p1[variant].read_bytes() == p2[variant].read_bytes()

    def test_rows_round_trip_through_csv(self, tmp_path):
        rows = [
            MetricsRow("safl", 3, 1, 0.125, 0.5, 4, 0.9048374180359595, None, 12.0),
            MetricsRow("safl", 3, 2, 1e-17, 0.25, 8, None, 3.5e300, None),
            MetricsRow("safl_extended", 2**40, 10**6, -2.5e-308, 1.0, 0, 0.1 + 0.2, math.pi, 1 / 3),
        ]
        # every column type appears, and each optional column both empty and filled
        kinds = typing.get_type_hints(MetricsRow)
        assert list(kinds) == list(METRICS_COLUMNS)
        assert set(kinds.values()) == {str, int, float, float | None}
        for name, kind in kinds.items():
            values = [getattr(r, name) for r in rows]
            optional = type(None) in typing.get_args(kind)
            assert (None in values) == optional
            assert all(type(v) is (typing.get_args(kind)[0] if optional else kind) for v in values if v is not None)
        path = tmp_path / "m.csv"
        emit_metrics_csv(rows, path)
        parsed = parse_metrics_csv(path)
        assert parsed == rows
        assert [[type(v) for v in r._asdict().values()] for r in parsed] == [
            [type(v) for v in r._asdict().values()] for r in rows
        ]

    def test_rows_and_records_are_immutable(self):
        row = MetricsRow("safl", 3, 1, 0.125, 0.5, 4, None)
        record = RoundRecord(1, 0.125, 0.5, 4, None, 0.25)
        for value, field in ((row, "mse"), (record, "mse"), (row, "bound_theorem1"), (record, "selection_prob")):
            with pytest.raises(AttributeError):
                setattr(value, field, 1.0)
        assert row.bound_theorem1 is row.bound_corollary1 is None  # the bounds default to empty

    def test_readme_states_the_metrics_header(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        formats = readme[readme.index("## File formats"):]
        header = re.search(r"Metrics CSV.*?```\n(.*?)\n```", formats, re.S)[1]
        assert header == ",".join(METRICS_COLUMNS)

    def test_readme_schema_matches_the_loader(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```jsonc\n(.*?)\n```", readme, re.S)[1]
        quoted = set(re.findall(r'"(\w+)"\s*:', block))
        # the keys of each section are its owner's parameters, less those
        # that the loader fills itself
        sections = {Objective: {"dim", "n_classes"}, PartitionSpec: {"n"}, LrSchedule: set(), AnnealConfig: set(), GateConfig: set()}
        owned = set(safl_sim.experiments.TOP_KEYS)
        for owner, filled in sections.items():
            owned |= set(inspect.signature(owner).parameters) - filled
        assert owned <= quoted, f"README schema leaves out {sorted(owned - quoted)}"
        data_keys = {"kind", "path", "classes"}.union(
            *(inspect.signature(make).parameters for make in safl_sim.experiments.DATA_GENERATORS.values())
        )
        accepted = owned | data_keys | {"custom"}  # the weights object's keys are kind and custom
        assert quoted <= accepted, f"README schema names unknown keys {sorted(quoted - accepted)}"
        # and the example itself loads, each key in its own section
        path = tmp_path / "schema.json"
        path.write_text(re.sub(r"//.*", "", block), encoding="utf-8")
        load_experiment(path)

    def test_unknown_variant_filter_rejected(self, tmp_path):
        with pytest.raises(ExperimentConfigError, match="safl_extended"):
            load_experiment(write_doc(tmp_path, experiment_doc()), variants=["safl_extended"])

    def test_bound_columns_emitted_when_preconditions_hold(self, tmp_path):
        spec = load_experiment(write_doc(tmp_path, experiment_doc()))
        paths = execute(spec, tmp_path / "out", quiet=True)
        rows = parse_metrics_csv(paths["safl"])
        assert all(r.bound_corollary1 is not None for r in rows)
        assert all(r.bound_theorem1 is None for r in rows)  # decaying schedule

    def test_bound_columns_empty_for_partial_participation(self, tmp_path):
        doc = experiment_doc(s=4)
        spec = load_experiment(write_doc(tmp_path, doc))
        paths = execute(spec, tmp_path / "out", quiet=True)
        rows = parse_metrics_csv(paths["safl"])
        assert all(r.bound_corollary1 is None for r in rows)

    def test_annealing_column_empty_for_plain_averaging(self, tmp_path):
        spec = load_experiment(write_doc(tmp_path, experiment_doc()))
        paths = execute(spec, tmp_path / "out", quiet=True)
        assert all(r.p is None for r in parse_metrics_csv(paths["fedavg"]))
        assert all(r.p is not None for r in parse_metrics_csv(paths["safl"]))


class TestSharedProblem:
    """Jobs differ only in algorithm and run seed, so execute prepares the
    partition, the pooled optimum and the bound inputs once per experiment."""

    def test_two_variants_by_two_seeds_partition_and_solve_the_pool_once(self, tmp_path, monkeypatch):
        partitions = count_calls(monkeypatch, safl_sim.simulation, "partition_with_holdout")
        pooled_solves = count_calls(monkeypatch, safl_sim.simulation, "optimum_oracle")
        spec = load_experiment(write_doc(tmp_path, classification_doc()))
        paths = execute(spec, tmp_path / "out", quiet=True)
        assert len(partitions) == 1 and len(pooled_solves) == 1
        assert len(parse_metrics_csv(paths["safl"])) == 2 * 3  # two seeds, three rounds

    def test_every_job_trains_in_one_kernel_call_per_round(self, tmp_path, monkeypatch):
        # the (variant, seed) jobs advance in lockstep: T kernel calls, not jobs * T
        calls = count_calls(monkeypatch, safl_sim.simulation, "run_local_epochs")
        doc = experiment_doc(s=5, seeds=[1, 2, 3])
        execute(load_experiment(write_doc(tmp_path, doc)), tmp_path / "out", quiet=True)
        assert len(calls) == doc["T"]
        assert [len(shards) for _, shards, *_ in calls] == [2 * 3 * doc["s"]] * doc["T"]

    def test_unmet_step_precondition_solves_no_shard(self, tmp_path, monkeypatch):
        shard_solves = count_calls(monkeypatch, safl_sim.objectives, "optimum_oracle")
        curvatures = [count_calls(monkeypatch, m, "curvature") for m in (safl_sim.bounds, safl_sim.experiments)]
        doc = classification_doc(lr={"kind": "constant", "value": 0.05})  # above 1/(2*lam - mu)
        paths = execute(load_experiment(write_doc(tmp_path, doc)), tmp_path / "out", quiet=True)
        assert shard_solves == [] and curvatures == [[], []]
        for variant in ("fedavg", "safl"):
            assert all(r.bound_theorem1 is None for r in parse_metrics_csv(paths[variant]))

    @pytest.mark.parametrize(
        "doc, column",
        [(classification_doc(), "bound_theorem1"), (experiment_doc(T=3), "bound_corollary1")],
        ids=["constant", "inverse"],
    )
    def test_bound_that_holds_solves_each_shard_once(self, tmp_path, monkeypatch, doc, column):
        curvatures = [count_calls(monkeypatch, m, "curvature") for m in (safl_sim.bounds, safl_sim.experiments)]
        paths = execute(load_experiment(write_doc(tmp_path, doc)), tmp_path / "out", quiet=True)
        assert sum(map(len, curvatures)) == doc["n"]  # not n per (variant, seed) job
        for variant in ("fedavg", "safl"):
            assert all(getattr(r, column) is not None for r in parse_metrics_csv(paths[variant]))

    @pytest.mark.parametrize("T, seeds", [(5, [1]), (20, [1, 2, 3])])
    def test_oracle_solves_each_training_shard_once(self, tmp_path, monkeypatch, T, seeds):
        doc = experiment_doc(local_solver="oracle", s=5, T=T, seeds=seeds)
        solves = count_calls(monkeypatch, safl_sim.simulation, "optimum_oracle")
        execute(load_experiment(write_doc(tmp_path, doc)), tmp_path / "out", quiet=True)
        assert len(solves) == 1 + doc["n"]  # the pooled optimum, then each shard: none per round or job

    def test_shared_arrays_are_read_only(self, tmp_path):
        spec = load_experiment(write_doc(tmp_path, classification_doc()))
        problem = prepare(spec.config, spec.dataset)
        run(sim_config(spec, "safl", 1), prepared=problem)
        shared = [problem.w_star, problem.sizes]
        for shards in (problem.train, problem.evals):
            shared += [shards.data.X, shards.data.y, shards.starts, shards.sizes]
            shared += [a for k in range(len(shards)) for a in (shards.dataset(k).X, shards.dataset(k).y)]
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    @pytest.mark.parametrize("lr", ["constant", "inverse"])
    def test_initial_spread_beyond_the_float_range_is_divergence(self, tmp_path, lr):
        # parameters near 1e300 stay finite, but their squared distance to
        # w* does not: an infinite mse is divergence, not a row of the CSV
        value = {"constant": 0.01, "inverse": 1.8}[lr]
        doc = experiment_doc(init_scale=1e300, T=3, seeds=[1], lr={"kind": lr, "value": value})
        spec = load_experiment(write_doc(tmp_path, doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the spread's overflow used to warn
            with pytest.raises(DivergenceError, match="round 1"):
                execute(spec, tmp_path / "out", quiet=True)


class TestCompare:
    def test_identical_files_show_zero_difference(self, tmp_path, capsys):
        spec = load_experiment(write_doc(tmp_path, experiment_doc(variants=["safl"])))
        paths = execute(spec, tmp_path / "out", quiet=True)
        twin = tmp_path / "twin.csv"
        twin.write_bytes(paths["safl"].read_bytes())
        compare([paths["safl"], twin])
        outp = capsys.readouterr().out
        delta_col = [line.split()[-1] for line in outp.strip().splitlines()[1:]]
        assert all(float(d) == 0.0 for d in delta_col)

    def test_threshold_statistics_reported(self, tmp_path, capsys):
        spec = load_experiment(write_doc(tmp_path, experiment_doc()))
        paths = execute(spec, tmp_path / "out", quiet=True)
        compare([paths["fedavg"], paths["safl"]], mse_threshold=1e6)
        outp = capsys.readouterr().out
        assert "rounds to mse" in outp and "median" in outp

    def test_single_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="two"):
            compare([tmp_path / "only.csv"])

    def test_rounds_after_an_early_stopped_seed_are_left_out(self, tmp_path, capsys):
        def write(name, mses_by_seed):
            rows = [
                MetricsRow("safl", seed, r, mse, 0.5, r, 0.5, None, None)
                for seed, mses in mses_by_seed.items()
                for r, mse in enumerate(mses, start=1)
            ]
            emit_metrics_csv(rows, tmp_path / name)
            return tmp_path / name

        stopped = write("a.csv", {1: [4.0] * 6, 2: [9.0, 1.0, 0.1]})  # seed 2 stopped after round 3
        full = write("b.csv", {1: [4.0] * 6, 2: [4.0] * 6})
        compare([stopped, full], mse_threshold=0.5)
        table, thresholds = capsys.readouterr().out.split("rounds to mse")
        assert {int(line.split()[1]) for line in table.strip().splitlines()[1:]} == {1, 2, 3}
        assert "median 3 (min 3, max 3, unreached 1)" in thresholds

    @staticmethod
    def write_final(path, variant, mses_by_seed):
        """Two rounds per seed; each seed's second-round mse is its given one."""
        rows = [
            MetricsRow(variant, seed, r, mse if r == 2 else 9.0, 0.5, r, None, None, None)
            for seed, mse in mses_by_seed.items()
            for r in (1, 2)
        ]
        emit_metrics_csv(rows, path)
        return path

    def paired_lines(self, capsys, *files):
        compare(list(files))
        return [line for line in capsys.readouterr().out.splitlines() if "paired" in line]

    def test_paired_difference_at_the_final_round(self, tmp_path, capsys):
        base = self.write_final(tmp_path / "a.csv", "fedavg", {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 5.0})
        # differences -0.5, -0.5, -0.5, +0.5 and a tie: mean -0.2, sample sd
        # sqrt(0.2), so paired stderr 0.2; p = 2 * (C(4,0) + C(4,1)) / 2^4
        other = self.write_final(tmp_path / "b.csv", "safl", {1: 0.5, 2: 1.5, 3: 2.5, 4: 4.5, 5: 5.0})
        assert self.paired_lines(capsys, base, other) == [
            "safl                   2  paired vs fedavg over 5 seeds: wins 3, losses 1,"
            " sign test p 0.625, stderr 0.2, d_mse -0.2"
        ]

    def test_paired_difference_covers_the_shared_seeds_only(self, tmp_path, capsys):
        base = self.write_final(tmp_path / "a.csv", "fedavg", {seed: 1.0 for seed in range(1, 12)})
        # nine shared seeds (3 to 11), all won: p = 2 / 2^9; seed 12 has no pair
        wins = self.write_final(tmp_path / "b.csv", "safl", {seed: 0.5 for seed in range(3, 13)})
        apart = self.write_final(tmp_path / "c.csv", "safl_extended", {20: 0.5, 21: 0.5})
        assert self.paired_lines(capsys, base, wins, apart) == [
            "safl                   2  paired vs fedavg over 9 seeds: wins 9, losses 0,"
            " sign test p 0.00391, stderr 0, d_mse -0.5",
            "safl_extended          2  paired vs fedavg: no shared seed",
        ]

    def test_incompatible_round_grids_rejected(self, tmp_path):
        spec_a = load_experiment(write_doc(tmp_path, experiment_doc(variants=["safl"])))
        spec_b = load_experiment(write_doc(tmp_path, experiment_doc(variants=["safl"], T=5), name="b.json"))
        pa = execute(spec_a, tmp_path / "oa", quiet=True)
        pb = execute(spec_b, tmp_path / "ob", quiet=True)
        with pytest.raises(ValueError, match="round grid"):
            compare([pa["safl"], pb["safl"]])


class TestCli:
    def test_missing_required_key_exits_one_and_names_it(self, tmp_path, capsys):
        doc = experiment_doc()
        del doc["n"]
        path = write_doc(tmp_path, doc)
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "'n'" in capsys.readouterr().err

    @pytest.mark.parametrize("rounds", [0, -2, 2.5])
    def test_round_count_below_one_exits_one_and_names_it(self, tmp_path, capsys, rounds):
        path = write_doc(tmp_path, experiment_doc(T=rounds))
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        assert "'T'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value, named",
        [
            ("partition", "mean_size", math.nan, "mean_size"),
            ("partition", "size_var", math.nan, "size_var"),
            ("anneal", "temperature", math.nan, "temperature"),
            ("gate", "gap_scale", math.nan, "gap_scale"),
            ("gate", "eps_div", 1e-6, "gate: unknown key 'eps_div'"),
            ("lr", "value", math.nan, "lr:"),
            (None, "init_scale", math.nan, "init_scale"),
            (None, "partition", None, "'partition'"),
            (None, "data", None, "'data'"),
            (None, "anneal", [1, 2], "'anneal'"),
            (None, "seeds", [True], "'seeds'"),
            (None, "E", 1.5, "'E'"),
            (None, "n", "4", "'n'"),
            (None, "s", "4", "'s'"),
            (None, "s", 9, "'s'"),
            (None, "sample_order", "bogus", "sample_order"),
            (None, "holdout_fraction", "0.2", "'holdout_fraction'"),
            (None, "init_scale", "x", "'init_scale'"),
            (None, "early_stop_mse", "x", "'early_stop_mse'"),
            (None, "early_stop_mse", 0, "'early_stop_mse' must be > 0"),
            (None, "early_stop_mse", -1, "'early_stop_mse' must be > 0"),
            ("objective", "reg", "0.5", "'reg'"),
            ("partition", "mean_size", math.inf, "'mean_size'"),
            ("partition", "mean_size", 1e12, "mean_size"),
            ("partition", "size_var", 1e300, "size_var"),
            ("partition", "max_labels_per_device", 1.5, "'max_labels_per_device'"),
            ("data", "samples", "80", "'samples'"),
            ("data", "samples", 0, "samples"),
            (None, "data", {"kind": "blobs", "samples": 60, "dim": 3, "classes": 1}, "classes"),
            (None, "seeds", [-1], "'seeds'"),
            (None, "seeds", [1, 1], "experiment: 'seeds' contains duplicates"),
            ("data", "seed", -4, "seed"),
            ("partition", "seed", -2, "seed"),
            ("lr", "value", math.inf, "'value'"),
            ("anneal", "temperature", math.inf, "'temperature'"),
            (None, "name", 5, "'name'"),
            (None, "weights", {"kind": "custom", "custom": [1, 2]}, "custom weights"),
            (None, "weights", {"kind": "custom", "custom": [1.0] * 9}, "custom weights"),
            (None, "weights", {"kind": "custom", "custom": [0] * 8}, "custom weights"),
            (None, "weights", {"kind": "custom", "custom": [1e308] * 8}, "weights: custom weights must have a finite sum"),
            (None, "weights", "ida", "weights"),
            ("gate", "proxy", "holdout_accuracy", "gate: unknown key 'proxy'"),
            ("data", "noise_std", -1, "noise_std"),
            (None, "data", {"kind": "blobs", "samples": 60, "dim": 3, "classes": 3, "cluster_std": -1}, "cluster_std"),
            ("gate", "gap_scale", 1e-4, "gap_scale"),
            # finite features whose squares overflow
            ("data", "feature_scale", 1e160, "data: features are too large"),
            (None, "data", {"kind": "blobs", "samples": 60, "dim": 3, "classes": 3, "separation": 1e200}, "data: features are too large"),
            (None, "data", {"kind": "blobs", "samples": 60, "dim": 3, "classes": 3, "cluster_std": 1e300}, "data: features are too large"),
            # more metrics rows than the cap, and counts beyond the float range
            (None, "T", 10**30, "experiment: 'T' = 10"),
            (None, "T", 10**400, "experiment: 'T' = 10"),
            (None, "E", 10**400, "experiment: 'E' = 10"),
        ],
    )
    def test_malformed_document_exits_one_and_names_the_key(self, tmp_path, capsys, section, key, value, named):
        doc = experiment_doc(gate={"gap_scale": 0.1}, T=2, seeds=[1])
        if section is None:
            doc[key] = value
        else:
            doc[section][key] = value
        path = write_doc(tmp_path, doc)
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        assert named in capsys.readouterr().err

    def test_epochs_beyond_a_rounds_step_limit_exit_one_naming_e(self, tmp_path, capsys):
        # E = 1e9 on the demo asks for 2.4e11 sample indices in one round:
        # refused on load, never a failed allocation with a traceback
        doc = json.loads((Path(__file__).resolve().parent.parent / "configs" / "demo.json").read_text())
        doc["E"] = 10**9
        path = write_doc(tmp_path, doc)
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert "'E'" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["multinomial_logistic", "lasso"])
    def test_an_optimum_that_never_converges_exits_one_naming_the_objective(self, tmp_path, capsys, monkeypatch, kind):
        # separable blobs with almost no regulariser: the pooled logistic
        # solve creeps towards an optimum far out until its iteration cap;
        # the caps are lowered here so that the test is quick
        if kind == "lasso":
            descend = safl_sim.objectives._lasso_coordinate_descent
            monkeypatch.setattr(
                safl_sim.objectives, "_lasso_coordinate_descent", lambda data, reg: descend(data, reg, max_sweeps=1)
            )
            doc = experiment_doc(objective={"kind": "lasso", "reg": 0.1}, local_solver="oracle", seeds=[1])
            message = "lasso coordinate descent"
        else:
            monkeypatch.setattr(safl_sim.objectives, "LOGISTIC_MAX_ITER", 50)
            blobs = {"kind": "blobs", "samples": 60, "dim": 2, "classes": 2, "separation": 5.0, "cluster_std": 0.05, "seed": 2}
            doc = classification_doc(data=blobs, objective={"kind": kind, "reg": 1e-9}, seeds=[1])
            message = "logistic solver"
        code = cli_main(["run", "--config", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error: objective: " in err and message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "section, key, value, named",
        [
            (None, "n", 10**13, "partition"),
            ("data", "samples", 10**13, "data"),
            ("data", "dim", 10**13, "data"),
            (None, "data", {"kind": "blobs", "samples": 40, "dim": 3, "classes": 10**13}, "data"),
        ],
    )
    def test_sizes_too_large_to_allocate_exit_one_naming_the_section(self, tmp_path, capsys, section, key, value, named):
        # each asks numpy for tens of TiB in one array, which fails at once:
        # a config error naming the section, never a traceback
        doc = experiment_doc(T=2, seeds=[1])
        if section is None:
            doc[key] = value
        else:
            doc[section][key] = value
        code = cli_main(["run", "--config", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {named}: Unable to allocate") and "Traceback" not in err

    def test_round_step_limit_counts_the_s_largest_training_shards(self, tmp_path):
        # 8 devices of 10 samples, 2 held out each: 8 to train on, so a
        # round of s = 3 takes 24 E steps a job, and the 4 jobs train in one
        # kernel call, 96 E steps; the oracle draws none
        limit = MAX_ROUND_STEPS
        doc = experiment_doc(partition={"mean_size": 10, "size_var": 0.0, "seed": 7}, s=3, holdout_fraction=0.2)
        load_experiment(write_doc(tmp_path, {**doc, "E": limit // 96}))
        with pytest.raises(ExperimentConfigError, match="'E'"):
            load_experiment(write_doc(tmp_path, {**doc, "E": limit // 96 + 1}))
        oracle = {**doc, "E": limit, "local_solver": "oracle", "objective": {"kind": "lasso", "reg": 1.0}}
        load_experiment(write_doc(tmp_path, oracle))

    def test_round_step_limit_counts_every_job_in_lockstep(self, tmp_path, monkeypatch, capsys):
        # one job's table, 24 E entries, is a quarter of the limit; the 4
        # jobs' lockstep table is over it, refused on load before anything runs
        doc = experiment_doc(partition={"mean_size": 10, "size_var": 0.0, "seed": 7}, s=3, holdout_fraction=0.2)
        doc["E"] = MAX_ROUND_STEPS // 96 + 1
        monkeypatch.setattr(safl_sim.cli, "execute", lambda *args, **kwargs: pytest.fail("the document ran"))
        code = cli_main(["run", "--config", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert "'E'" in err and "times the job count, 4," in err and "Traceback" not in err

    def test_metrics_row_limit_counts_every_job(self, tmp_path):
        # 2 variants times 3 seeds: 6 rows a round, refused on load above the cap
        doc = experiment_doc(seeds=[1, 2, 3])
        limit = safl_sim.experiments.MAX_RECORDS
        load_experiment(write_doc(tmp_path, {**doc, "T": limit // 6}))
        with pytest.raises(ExperimentConfigError, match=f"'T' = {limit // 6 + 1} gives 2.1e\\+06 metrics rows"):
            load_experiment(write_doc(tmp_path, {**doc, "T": limit // 6 + 1}))

    def test_a_long_seed_list_builds_a_few_configs_per_variant(self, tmp_path, monkeypatch, capsys):
        # 2 variants times 200000 seeds at T = 12: 4.8e6 rows, refused on load
        # after checking each variant at its first seed, not once per job
        built = []
        check = safl_sim.simulation.SimConfig.__post_init__
        monkeypatch.setattr(safl_sim.simulation.SimConfig, "__post_init__", lambda config: built.append(config) or check(config))
        path = write_doc(tmp_path, experiment_doc(seeds=list(range(200_000))))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert "'T' = 12 gives 4.8e+06 metrics rows" in capsys.readouterr().err
        assert 0 < len(built) <= 2 * 2

    @pytest.mark.parametrize("seeds", [[3, 4, -1, 2, -5], [-2, 1]])
    def test_a_negative_seed_anywhere_in_the_list_is_refused(self, tmp_path, seeds):
        with pytest.raises(ExperimentConfigError, match="experiment: 'seeds' must be >= 0"):
            load_experiment(write_doc(tmp_path, experiment_doc(seeds=seeds)))

    def test_round_step_limit_counts_the_padded_step_table(self, tmp_path, monkeypatch, capsys):
        # a round draws 3.34e6 steps, under the limit, but the kernel pads
        # all 1000 streams to the longest training shard, 24784 samples: a
        # table of 2.48e7 entries, refused on load before anything runs
        doc = {
            "data": {"kind": "blobs", "samples": 30000, "dim": 8, "classes": 3,
                     "separation": 1.1, "cluster_std": 1.4, "seed": 31},
            "objective": {"kind": "multinomial_logistic", "reg": 0.05},
            "partition": {"mean_size": 20, "size_var": 1e8, "max_labels_per_device": 3,
                          "pure_count": 300, "seed": 77},
            "n": 1000, "s": 1000, "T": 2, "E": 1, "lr": {"kind": "constant", "value": 0.1},
            "holdout_fraction": 0.2, "variants": ["fedavg"], "seeds": [1],
        }
        monkeypatch.setattr(safl_sim.cli, "execute", lambda *args, **kwargs: pytest.fail("the document ran"))
        code = cli_main(["run", "--config", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert "'E'" in err and "24784 samples" in err and "Traceback" not in err

    def test_label_cap_above_the_labels_present_exits_one(self, tmp_path, capsys):
        doc = experiment_doc(data={"kind": "blobs", "samples": 60, "dim": 3, "classes": 3}, T=2, seeds=[1])
        doc["partition"]["max_labels_per_device"] = 5
        path = write_doc(tmp_path, doc)
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        assert "max_labels_per_device" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "objective, classes, cell, value",
        [
            ({"kind": "least_squares"}, None, (5, 0), "nan"),
            ({"kind": "multinomial_logistic", "reg": 0.5}, 3, (5, 1), "nan"),
            ({"kind": "lasso", "reg": 0.5}, None, (5, 0), "inf"),
            ({"kind": "ridge", "reg": 1.0}, None, (5, 1), "-inf"),
            ({"kind": "ridge", "reg": 1.0}, None, (5, 3), "nan"),
            ({"kind": "multinomial_logistic", "reg": 0.5}, 3, (5, 3), "1.5"),
            ({"kind": "ridge", "reg": 1.0}, None, (0, 0), "x0"),
            ({"kind": "multinomial_logistic", "reg": 0.5}, 3, (5, 1), "1e200"),
        ],
        ids=[
            "nan-feature-least_squares", "nan-feature-logistic", "inf-feature-lasso", "inf-feature-ridge",
            "nan-target", "fractional-label", "bad-header", "overflowing-square-logistic",
        ],
    )
    def test_malformed_dataset_csv_exits_one(self, tmp_path, capsys, objective, classes, cell, value):
        # past loading, a non-finite value ends in a solver traceback, a
        # divergence or NaN metrics, and a fractional label is truncated
        lines = ["f0,f1,f2,label"] + [f"{0.1 * i},{0.3 - 0.01 * i},{(-1) ** i},{i % 3}" for i in range(60)]
        row, column = cell
        fields = lines[row].split(",")
        fields[column] = value
        lines[row] = ",".join(fields)
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
        doc = experiment_doc(data={"kind": "csv", "path": str(data), "classes": classes}, objective=objective, n=4, s=4, T=3, seeds=[1])
        doc["partition"]["mean_size"] = 10
        if objective["kind"] == "lasso":
            doc["local_solver"] = "oracle"  # lasso is not trained by SGD
        code = cli_main(["run", "--config", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        assert "data: 'path'" in capsys.readouterr().err

    def test_config_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_bytes(json.dumps(experiment_doc()).encode("utf-8").replace(b'"unit"', b'"\xff"'))
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_negative_seed_override_exits_one(self, tmp_path, capsys):
        path = write_doc(tmp_path, experiment_doc(T=2, seeds=[1]))
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--seed-override", "-1", "--quiet"])
        assert code == 1
        assert "--seed-override" in capsys.readouterr().err

    def test_custom_weights_one_per_device_fill_the_bound_column(self, tmp_path):
        doc = experiment_doc(
            weights={"kind": "custom", "custom": [1, 2, 3, 4, 5, 6, 7, 8]},
            lr={"kind": "constant", "value": 0.01}, T=3, seeds=[1],
        )
        paths = execute(load_experiment(write_doc(tmp_path, doc)), tmp_path / "out", quiet=True)
        assert all(r.bound_theorem1 is not None for r in parse_metrics_csv(paths["safl"]))

    def test_successful_run_exits_zero(self, tmp_path):
        path = write_doc(tmp_path, experiment_doc(T=4, seeds=[1]))
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        assert (tmp_path / "out" / "fedavg.csv").exists()

    def test_divergent_run_exits_two(self, tmp_path, capsys):
        doc = experiment_doc(lr={"kind": "constant", "value": 1e9}, T=10, seeds=[1], variants=["fedavg"])
        path = write_doc(tmp_path, doc)
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert "divergence" in capsys.readouterr().err

    def test_infinite_metric_exits_two_and_names_the_round(self, tmp_path, capsys):
        doc = experiment_doc(n=4, s=4, init_scale=1e300, T=3, seeds=[1], variants=["fedavg"])
        path = write_doc(tmp_path, doc)
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert "round 1" in capsys.readouterr().err

    def test_unwritable_output_exits_three(self, tmp_path):
        path = write_doc(tmp_path, experiment_doc(T=2, seeds=[1]))
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        code = cli_main(["run", "--config", str(path), "--out", str(blocker), "--quiet"])
        assert code == 3

    def test_variant_subset_flag(self, tmp_path):
        path = write_doc(tmp_path, experiment_doc(T=3, seeds=[1]))
        out = tmp_path / "out"
        code = cli_main(["run", "--config", str(path), "--out", str(out), "--variants", "safl", "--quiet"])
        assert code == 0
        assert (out / "safl.csv").exists() and not (out / "fedavg.csv").exists()

    @pytest.mark.parametrize("flag", [",", ""])
    def test_variant_filter_naming_no_variant_exits_one(self, tmp_path, capsys, flag):
        path = write_doc(tmp_path, experiment_doc(T=3, seeds=[1]))
        out = tmp_path / "out"
        code = cli_main(["run", "--config", str(path), "--out", str(out), "--variants", flag, "--quiet"])
        assert code == 1
        assert "--variants" in capsys.readouterr().err
        assert not out.exists()

    NARROWINGS = [([], 1), (["--seed-override", "1"], 0), (["--variants", "safl"], 0)]

    @pytest.mark.parametrize("flags, code", NARROWINGS, ids=["all-4-jobs", "seed-override", "variants"])
    def test_round_step_limit_counts_the_jobs_that_run(self, tmp_path, monkeypatch, capsys, flags, code):
        # a job trains 24 steps a round (s = 3 devices of 8 training samples):
        # the document's 4 jobs are over a limit of 48, either narrowed 2 fit
        doc = experiment_doc(partition={"mean_size": 10, "size_var": 0.0, "seed": 7}, s=3, holdout_fraction=0.2, T=3)
        monkeypatch.setattr(safl_sim.experiments, "MAX_ROUND_STEPS", 48)
        argv = ["run", "--config", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "out"), "--quiet", *flags]
        assert cli_main(argv) == code
        assert ("'E'" in capsys.readouterr().err) == (code == 1)

    @pytest.mark.parametrize("flags, code", NARROWINGS, ids=["all-4-jobs", "seed-override", "variants"])
    def test_metrics_row_limit_counts_the_jobs_that_run(self, tmp_path, monkeypatch, capsys, flags, code):
        # T = 12: the document's 4 jobs write 48 rows, over a limit of 30, either narrowed 2 write 24
        monkeypatch.setattr(safl_sim.experiments, "MAX_RECORDS", 30)
        argv = ["run", "--config", str(write_doc(tmp_path, experiment_doc())), "--out", str(tmp_path / "out"), "--quiet", *flags]
        assert cli_main(argv) == code
        assert ("'T' = 12 gives 48 metrics rows" in capsys.readouterr().err) == (code == 1)

    def test_narrowing_still_validates_the_whole_document(self, tmp_path, capsys):
        # the safl_extended variant that --variants leaves out still needs its gate
        path = write_doc(tmp_path, experiment_doc(variants=["fedavg", "safl_extended"], T=2, seeds=[1]))
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--variants", "fedavg", "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert "gate" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_readme_names_every_run_option(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("## CLI"):readme.index("## Experiment files")]
        subcommands = next(a for a in safl_sim.cli._build_parser()._actions if a.choices)
        options = {o for a in subcommands.choices["run"]._actions for o in a.option_strings if o.startswith("--")}
        assert options >= {"--config", "--out", "--seed-override", "--variants", "--quiet", "--help"}
        assert {o for o in options - {"--help"} if not re.search(re.escape(o) + r"(?![\w-])", section)} == set()

    @pytest.mark.parametrize("both_empty", [True, False])
    def test_compare_of_a_header_only_file_exits_one(self, tmp_path, capsys, both_empty):
        empty = tmp_path / "empty.csv"
        emit_metrics_csv([], empty)
        other = tmp_path / "other.csv"
        if both_empty:
            emit_metrics_csv([], other)
        else:
            emit_metrics_csv([MetricsRow("fedavg", 1, 1, 0.5, 0.5, 4, None, None, None)], other)
        code = cli_main(["compare", str(other), str(empty)])
        assert code == 1
        expected = other if both_empty else empty
        assert capsys.readouterr().err == f"compare error: {expected}: no metrics rows\n"

    def test_compare_single_file_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli_main(["compare", str(tmp_path / "a.csv")])
        assert exc.value.code == 2


def tiny_doc(kind):
    """A document that runs all three variants in well under a second and
    sets every optional key, so that each key can be mutated."""
    doc = experiment_doc(
        n=4, s=4, T=2, E=1, seeds=[1],
        partition={"mean_size": 6, "size_var": 1.0, "max_labels_per_device": 2, "pure_count": 1, "seed": 7},
        lr={"kind": "constant", "value": 0.05},
        anneal={"temperature": 6.0, "epsilon": 0.4, "mask_mode": "scalar"},
        gate={"gap_scale": 0.1},
        weights="uniform", sample_order="shuffle", local_solver="sgd",
        holdout_fraction=0.2, init_scale=0.1, early_stop_mse=None,
        variants=["fedavg", "safl", "safl_extended"],
    )
    if kind == "blobs":
        doc["data"] = {"kind": "blobs", "samples": 40, "dim": 3, "classes": 3, "separation": 2.0, "cluster_std": 1.0, "seed": 2}
        doc["objective"] = {"kind": "multinomial_logistic", "reg": 0.5}
    else:
        doc["data"]["samples"] = 40
    return doc


TINY_DOCS = {kind: tiny_doc(kind) for kind in ("linear", "blobs")}
MUTABLE_KEYS = [
    (kind, section, key)
    for kind, doc in TINY_DOCS.items()
    for section, keys in [(None, list(doc))] + [(name, list(v)) for name, v in doc.items() if isinstance(v, dict)]
    for key in keys
]
# wrong types, non-finite numbers and values out of range for most keys
BAD_VALUES = ["x", True, None, [], {}, 1.5, -1, 0, math.inf, -math.inf, math.nan]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(target=st.sampled_from(MUTABLE_KEYS), value=st.sampled_from(BAD_VALUES))
def test_a_mutated_key_runs_or_exits_one_naming_it(tmp_path_factory, target, value):
    kind, section, key = target
    doc = copy.deepcopy(TINY_DOCS[kind])
    (doc if section is None else doc[section])[key] = value
    tmp = tmp_path_factory.mktemp("mutant")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main(["run", "--config", str(write_doc(tmp, doc)), "--out", str(tmp / "out"), "--quiet"])
    assert code in (0, 1, 2)
    if code == 1:
        assert re.search(rf"\b{re.escape(key)}\b", err.getvalue())
