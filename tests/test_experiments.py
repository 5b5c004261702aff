import contextlib
import copy
import functools
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
    DATA_GENERATORS,
    MAX_ROUND_STEPS,
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
        with pytest.raises(ExperimentConfigError, match="fedprox") as err:
            load_experiment(write_doc(tmp_path, doc))
        # the known variants are the rule table's keys, in order
        assert f"one of {', '.join(safl_sim.simulation.RULES)}, not" in str(err.value)

    @pytest.mark.parametrize("variant", [v for v, rule in safl_sim.simulation.RULES.items() if rule.gates])
    def test_extended_variant_requires_gate_section(self, tmp_path, capsys, variant):
        path = write_doc(tmp_path, experiment_doc(variants=[variant]))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"{variant} requires a 'gate' configuration" in err and "Traceback" not in err

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

    # each file's seeds: fedavg's seed 3 stopped after round 20, safl shares
    # seeds 2 to 4 with it, safl_extended none, and the twin is fedavg's file
    OFFSETS = {1: 0.05, 2: 0.2, 3: 0.1, 4: 0.025, 5: 0.55, 6: 0.15, 20: 0.3, 21: 0.0}
    SCALES = {"fedavg": lambda seed: 1.0, "safl": lambda seed: 0.6 + seed % 2 * 0.7, "safl_extended": lambda seed: 0.5}
    PINNED_TABLE = """\
variant            round           mse      stderr    accuracy     d_mse_vs_fedavg
fedavg                 1       2.09375      0.0387      0.4950                   0
fedavg                 3       0.47865      0.0387      0.5350                   0
fedavg                 5      0.272635      0.0387      0.5750                   0
fedavg                 7       0.20174      0.0387      0.6150                   0
fedavg                 9      0.167824      0.0387      0.6550                   0
fedavg                11       0.14857      0.0387      0.6950                   0
fedavg                13      0.136419      0.0387      0.7350                   0
fedavg                15      0.128177      0.0387      0.7750                   0
fedavg                17      0.122284      0.0387      0.8150                   0
fedavg                19      0.117899      0.0387      0.8550                   0
fedavg                20      0.116111      0.0387      0.8750                   0
safl                   1         1.965       0.399      0.4800            -0.12875
safl                   3      0.543712       0.138      0.5200            0.065062
safl                   5      0.362419       0.111      0.5600           0.0897837
safl                   7      0.300031       0.102      0.6000           0.0982912
safl                   9      0.270185      0.0984      0.6400            0.102361
safl                  11      0.253242      0.0964      0.6800            0.104672
safl                  13      0.242549      0.0951      0.7200             0.10613
safl                  15      0.235295      0.0943      0.7600            0.107119
safl                  17       0.23011      0.0937      0.8000            0.107826
safl                  19      0.226251      0.0933      0.8400            0.108352
safl                  20      0.224677      0.0931      0.8600            0.108567
safl_extended          1          1.15        0.15      0.3150            -0.94375
safl_extended          3       0.34245        0.15      0.3550             -0.1362
safl_extended          5      0.239443        0.15      0.3950          -0.0331927
safl_extended          7      0.203995        0.15      0.4350          0.00225508
safl_extended          9      0.187037        0.15      0.4750            0.019213
safl_extended         11       0.17741        0.15      0.5150           0.0288399
safl_extended         13      0.171335        0.15      0.5550           0.0349154
safl_extended         15      0.167213        0.15      0.5950           0.0390367
safl_extended         17      0.164267        0.15      0.6350           0.0419832
safl_extended         19      0.162075        0.15      0.6750           0.0441755
safl_extended         20       0.16118        0.15      0.6950           0.0450697
fedavg                 1       2.09375      0.0387      0.4950                   0
fedavg                 3       0.47865      0.0387      0.5350                   0
fedavg                 5      0.272635      0.0387      0.5750                   0
fedavg                 7       0.20174      0.0387      0.6150                   0
fedavg                 9      0.167824      0.0387      0.6550                   0
fedavg                11       0.14857      0.0387      0.6950                   0
fedavg                13      0.136419      0.0387      0.7350                   0
fedavg                15      0.128177      0.0387      0.7750                   0
fedavg                17      0.122284      0.0387      0.8150                   0
fedavg                19      0.117899      0.0387      0.8550                   0
fedavg                20      0.116111      0.0387      0.8750                   0
safl                  20  paired vs fedavg over 3 seeds: wins 2, losses 1, sign test p 1, stderr 0.00522, d_mse -0.00372678
safl_extended         20  paired vs fedavg: no shared seed
fedavg                20  paired vs fedavg over 4 seeds: wins 0, losses 0, sign test p 1, stderr 0, d_mse 0
"""
    PINNED_THRESHOLDS = {
        None: "",
        0.5: """
rounds to mse <= 0.5:
  fedavg: median 3 (min 3, max 4, unreached 0)
  safl: median 3 (min 2, max 4, unreached 1)
  safl_extended: median 2.5 (min 2, max 3, unreached 0)
  fedavg: median 3 (min 3, max 4, unreached 0)
""",
        1e-9: """
rounds to mse <= 1e-09:
  fedavg: never reached
  safl: never reached
  safl_extended: never reached
  fedavg: never reached
""",
    }

    @pytest.mark.parametrize("threshold", [None, 0.5, 1e-9])
    def test_the_whole_output_is_pinned(self, tmp_path, threshold):
        def write(variant, last_round_by_seed):
            rows = [
                MetricsRow(
                    variant, seed, r, self.SCALES[variant](seed) * 2 / r**1.5 + self.OFFSETS[seed],
                    0.5 + r / 50 - seed / 100, 2 * r + seed, None if variant == "fedavg" else 0.9**r, None, None,
                )
                for seed, last in last_round_by_seed.items()
                for r in range(1, last + 1)
            ]
            emit_metrics_csv(rows, tmp_path / f"{variant}.csv")
            return tmp_path / f"{variant}.csv"

        base = write("fedavg", {1: 22, 2: 22, 3: 20, 4: 22})
        twin = tmp_path / "twin.csv"
        twin.write_bytes(base.read_bytes())
        files = [base, write("safl", {seed: 22 for seed in range(2, 7)}), write("safl_extended", {20: 22, 21: 22}), twin]
        out = io.StringIO()
        compare(files, mse_threshold=threshold, stream=out)
        assert out.getvalue() == self.PINNED_TABLE + self.PINNED_THRESHOLDS[threshold]


class TestCli:
    def test_an_aggregate_beyond_the_float_range_exits_two(self, tmp_path, monkeypatch, capsys):
        # 7 devices all selected come back at the largest float; fused, they overflow
        def at_the_float_max(params, *args, **kwargs):
            return np.full_like(params, np.finfo(float).max), None

        monkeypatch.setattr(safl_sim.simulation, "run_local_epochs", at_the_float_max)
        path = write_doc(tmp_path, experiment_doc(n=7, s=7, variants=["fedavg"], seeds=[1]))
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err == "runtime divergence: aggregate diverged in round 1\n"

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
            ("data", "kind", "bogus", "data: unknown kind 'bogus'"),
            ("objective", "kind", "multinomial_logistic", "objective: 'multinomial_logistic' needs classification data"),
            ("objective", "reg", 10**400, "objective: 'reg' must be a finite number"),
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

    def test_a_document_that_is_not_an_object_exits_one(self, tmp_path, capsys):
        path = write_doc(tmp_path, [experiment_doc()])
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err == "config error: experiment document must be a JSON object\n"

    @pytest.mark.parametrize("init_scale, round_1_bound", [(1e150, pytest.approx(9.53e300, rel=1e-3)), (1e154, None)])
    def test_a_spread_beyond_the_float_range_leaves_the_bound_column_empty(self, tmp_path, init_scale, round_1_bound):
        # at 1e154 the squared initial distances overflow while every mse stays finite
        doc = json.loads((Path(__file__).resolve().parent.parent / "configs" / "demo.json").read_text())
        doc.update(T=3, seeds=[1], variants=["fedavg"], init_scale=init_scale)
        path = write_doc(tmp_path, doc)
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        bounds = [r.bound_corollary1 for r in parse_metrics_csv(tmp_path / "out" / "fedavg.csv")]
        assert bounds[0] == round_1_bound
        assert [b is None for b in bounds] == [round_1_bound is None] * 3

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
        "section, key, value, message",
        [
            (None, "n", 10**13, "experiment: 'seeds' = 1 gives a parameter stack of 1e+14 floats"),
            ("data", "samples", 10**13, "data: 'samples' = 10000000000000 gives 1e+13 rows of dim 5 features, 5e+13 floats"),
            ("data", "dim", 10**13, "data: 'samples' = 100 gives 100 rows of dim 10000000000000 features, 1e+15 floats"),
            (
                None, "data", {"kind": "blobs", "samples": 40, "dim": 3, "classes": 10**13},
                "data: 'classes' = 10000000000000 gives 1e+13 class centres of dim 3 features, 3e+13 floats",
            ),
        ],
        ids=["n", "samples", "dim", "classes"],
    )
    def test_sizes_too_large_to_allocate_exit_one_naming_the_section(self, tmp_path, capsys, section, key, value, message):
        # each would ask numpy for tens of TiB in one array: refused on load
        # by the limit that counts that array, before anything is drawn
        doc = experiment_doc(T=2, seeds=[1])
        if section is None:
            doc[key] = value
        else:
            doc[section][key] = value
        code = cli_main(["run", "--config", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and "Traceback" not in err

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

    @pytest.mark.parametrize(
        "doc, message, floats",
        [
            # 10 jobs train 200 devices of 20 samples for E = 40 epochs: a step
            # table of 1.6e6 entries, under MAX_ROUND_STEPS, but of 1000 features
            # each, 1.6e9 floats (11.9 GiB)
            (
                experiment_doc(
                    data={"kind": "linear", "samples": 400, "dim": 1000, "seed": 3},
                    partition={"mean_size": 20, "size_var": 0.0, "seed": 7},
                    n=200, s=200, T=1, E=40, seeds=[1, 2, 3, 4, 5],
                ),
                "config error: experiment: 'E' = 40 gives a round a step table of 1.6e+06 entries",
                "of dim 1000 features each, 1.6e+09 floats",
            ),
            # 1000 devices of 20 samples drawn from a 1.6 MB dataset: a pooled
            # training set of 20000 rows of 1e5 features, 2e9 floats (14.9 GiB)
            (
                experiment_doc(
                    data={"kind": "linear", "samples": 2, "dim": 100_000, "seed": 3},
                    partition={"mean_size": 20, "size_var": 0.0, "seed": 7},
                    n=1000, s=10, T=1, variants=["fedavg"], seeds=[1],
                ),
                "config error: partition: the pooled training and eval sets hold 2e+04 rows",
                "of dim 100000 features, 2e+09 floats",
            ),
            # 2 samples of 1e5 features: the pooled ridge solve would form
            # X'X, 1e10 floats (74.5 GiB)
            (
                experiment_doc(
                    data={"kind": "linear", "samples": 2, "dim": 100_000, "seed": 3},
                    objective={"kind": "ridge", "reg": 0.1},
                    partition={"mean_size": 1, "size_var": 0.0, "seed": 7},
                    n=2, s=2, T=1, variants=["fedavg"], seeds=[1],
                ),
                "config error: data: dim 100000 gives ridge's set-up a 100000 x 100000 matrix",
                "(X'X), 1e+10 floats",
            ),
            # the demo with 20000 classes: 13 epochs fit, at 14 a logistic
            # round's one-hot targets take 6720 steps times 20000 classes
            (
                {
                    **json.loads((Path(__file__).resolve().parent.parent / "configs" / "demo.json").read_text()),
                    "data": {"kind": "blobs", "samples": 40, "dim": 2, "classes": 20000, "seed": 42},
                    "objective": {"kind": "multinomial_logistic", "reg": 0.1},
                    "lr": {"kind": "constant", "value": 0.1}, "T": 3, "E": 14, "seeds": [1],
                },
                "config error: experiment: 'E' = 14 gives a round a step table of 6.72e+03 entries",
                "of 20000 one-hot targets each, 1.34e+08 floats",
            ),
            # 200 jobs hold 10000 devices' 100 parameters each: 2e8 floats
            (
                experiment_doc(
                    data={"kind": "linear", "samples": 1000, "dim": 100, "seed": 3},
                    partition={"mean_size": 1, "size_var": 0.0, "seed": 7},
                    n=10_000, s=1, T=1, seeds=list(range(100)),
                ),
                "config error: experiment: 'seeds' = 100 gives a parameter stack of 2e+08 floats (200 jobs,",
                "times n = 10000 devices times 100 parameters), above the limit of 134217728",
            ),
            # the stack of 2e7 floats fits, but 2000 seeds build 3 generators
            # for each of 10000 devices: about 45 GB before round 1
            (
                experiment_doc(
                    data={"kind": "linear", "samples": 1000, "dim": 1, "seed": 3},
                    partition={"mean_size": 1, "size_var": 0.0, "seed": 7},
                    n=10_000, s=1, T=1, variants=["safl"], seeds=list(range(2000)),
                ),
                "config error: experiment: 'seeds' = 2000 gives 6e+07 random generators before round 1",
                "(2000 seeds times n = 10000 devices times 3 streams), 4.47e+10 bytes at 745 each",
            ),
            # 20 jobs score 1000 classes over 8000 pooled training rows
            # (100 devices of 80 training rows each) every round
            (
                experiment_doc(
                    data={"kind": "blobs", "samples": 20_000, "dim": 2, "classes": 1000, "seed": 2},
                    objective={"kind": "multinomial_logistic", "reg": 0.5},
                    partition={"mean_size": 100, "size_var": 0.0, "max_labels_per_device": 1000, "seed": 7},
                    n=100, s=1, T=1, holdout_fraction=0.2, lr={"kind": "constant", "value": 0.1},
                    seeds=list(range(10)),
                ),
                "config error: experiment: 'seeds' = 10 gives the round metric a logit table of 1.6e+08 floats",
                "(20 jobs, 2 variants times 10 seeds, times 1000 classes times 8000 distinct training rows at most)",
            ),
        ],
        ids=["step-table", "pooled-sets", "dim-squared", "one-hot-targets", "parameter-stack", "generators", "logit-table"],
    )
    def test_a_gather_beyond_memory_exits_one_naming_the_key(self, tmp_path, monkeypatch, capsys, doc, message, floats):
        # refused on load, before anything but the small dataset is allocated
        monkeypatch.setattr(safl_sim.cli, "execute", lambda *args, **kwargs: pytest.fail("the document ran"))
        code = cli_main(["run", "--config", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and floats in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "data, objective, solver, s, counted",
        [
            (None, {"kind": "ridge", "reg": 1.0}, "oracle", 4, True),  # the pooled solve
            ({"kind": "blobs", "samples": 40, "dim": 50, "classes": 3, "seed": 2},
             {"kind": "multinomial_logistic", "reg": 0.5}, "sgd", 4, True),  # the pooled step size
            (None, {"kind": "least_squares"}, "sgd", 8, True),  # the bound columns, at s = n
            (None, {"kind": "least_squares"}, "sgd", 4, False),
            (None, {"kind": "least_squares"}, "oracle", 8, False),
            (None, {"kind": "lasso", "reg": 1.0}, "oracle", 8, False),
        ],
        ids=["ridge", "logistic", "least-squares-bounds", "least-squares-partial", "least-squares-oracle", "lasso"],
    )
    def test_float_limit_counts_dim_squared_where_set_up_forms_it(
        self, tmp_path, monkeypatch, data, objective, solver, s, counted
    ):
        # 8 devices of 2 samples of 50 features: the dataset holds 2000
        # floats, the pooled sets 800 and the 2 jobs' step table at most
        # 1600, below X'X's 2500
        doc = experiment_doc(
            data=data or {"kind": "linear", "samples": 40, "dim": 50, "seed": 3},
            objective=objective, local_solver=solver, s=s, seeds=[1],
            partition={"mean_size": 2, "size_var": 0.0, "max_labels_per_device": 1, "seed": 7},
        )
        monkeypatch.setattr(safl_sim.experiments, "MAX_FLOATS", 2500)
        load_experiment(write_doc(tmp_path, doc))
        monkeypatch.setattr(safl_sim.experiments, "MAX_FLOATS", 2499)
        if not counted:
            load_experiment(write_doc(tmp_path, doc))
            return
        with pytest.raises(ExperimentConfigError, match=r"^data: dim 50 gives .* 50 x 50 matrix \(X'X\), 2.5e\+03 floats"):
            load_experiment(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("holdout_fraction", [0.0, 0.2])
    def test_float_limit_counts_the_pooled_sets_that_set_up_gathers(self, tmp_path, monkeypatch, holdout_fraction):
        # at 0.2 the holdouts are [0, 1, 0, 1, 1, 1, 0, 1, 0]: the eval set
        # holds the five holdouts and the four other devices' training sets,
        # more rows than the partition draws; at 0 it is the training set.
        # The dataset's 30 samples are 150 floats, below either.
        doc = experiment_doc(
            partition={"mean_size": 6, "size_var": 16.0, "seed": 4}, n=9, s=1, holdout_fraction=holdout_fraction,
            variants=["fedavg"], seeds=[1],
        )
        doc["data"]["samples"] = 30
        spec = load_experiment(write_doc(tmp_path, doc))
        problem = prepare(spec.config, spec.dataset)
        floats = problem.train.data.X.size
        if problem.evals is not problem.train:
            floats += problem.evals.data.X.size
            assert floats > int(problem.sizes.sum()) * spec.dataset.dim
        monkeypatch.setattr(safl_sim.experiments, "MAX_FLOATS", floats)
        load_experiment(write_doc(tmp_path, doc))
        monkeypatch.setattr(safl_sim.experiments, "MAX_FLOATS", floats - 1)
        with pytest.raises(ExperimentConfigError, match=f"partition: .* {floats} floats"):
            load_experiment(write_doc(tmp_path, doc))

    def test_float_limit_counts_the_step_table_of_every_job(self, tmp_path, monkeypatch):
        # 4 jobs train 8 devices of 8 training samples for E = 3 epochs: a
        # table of 768 entries of 5 features; the pooled sets hold 640 floats
        doc = experiment_doc(partition={"mean_size": 10, "size_var": 0.0, "seed": 7}, holdout_fraction=0.2, E=3)
        monkeypatch.setattr(safl_sim.experiments, "MAX_FLOATS", 3840)
        load_experiment(write_doc(tmp_path, doc))
        monkeypatch.setattr(safl_sim.experiments, "MAX_FLOATS", 3839)
        with pytest.raises(ExperimentConfigError, match="'E' = 3 .* 768 entries .* of dim 5 features each, 3.84e\\+03 floats"):
            load_experiment(write_doc(tmp_path, doc))

    def test_limits_count_the_parameter_stack_and_the_generators(self, tmp_path, monkeypatch):
        # 4 jobs of 8 logistic devices over 3 classes of 1 feature, one
        # sample each: a stack of 96 floats, above every other array; each
        # of the 2 seeds builds 3 generators per device (safl draws init,
        # train and mask streams), 48 in all
        doc = experiment_doc(
            data={"kind": "blobs", "samples": 60, "dim": 1, "classes": 3, "seed": 2},
            objective={"kind": "multinomial_logistic", "reg": 0.5}, s=1,
            partition={"mean_size": 1, "size_var": 0.0, "max_labels_per_device": 1, "seed": 7},
        )
        path = write_doc(tmp_path, doc)
        monkeypatch.setattr(safl_sim.experiments, "MAX_FLOATS", 96)
        monkeypatch.setattr(safl_sim.experiments, "MAX_BYTES", 48 * 745)
        load_experiment(path)
        monkeypatch.setattr(safl_sim.experiments, "MAX_FLOATS", 95)
        with pytest.raises(ExperimentConfigError, match=r"^experiment: 'seeds' = 2 gives a parameter stack of 96 floats"):
            load_experiment(path)
        monkeypatch.setattr(safl_sim.experiments, "MAX_FLOATS", 96)
        monkeypatch.setattr(safl_sim.experiments, "MAX_BYTES", 48 * 745 - 1)
        with pytest.raises(ExperimentConfigError, match=r"^experiment: 'seeds' = 2 gives 48 random generators"):
            load_experiment(path)

    @pytest.mark.parametrize("samples, distinct", [(60, 24), (12, 12)])
    def test_limits_count_the_round_metrics_logit_table(self, tmp_path, monkeypatch, samples, distinct):
        # 4 jobs score 3 classes over at most the 24 pooled training rows of
        # 8 logistic devices, and at most the dataset's rows: above the
        # stack of 96 floats and every other array
        doc = experiment_doc(
            data={"kind": "blobs", "samples": samples, "dim": 1, "classes": 3, "seed": 2},
            objective={"kind": "multinomial_logistic", "reg": 0.5}, s=1,
            partition={"mean_size": 3, "size_var": 0.0, "max_labels_per_device": 1, "seed": 7},
        )
        path = write_doc(tmp_path, doc)
        logits = 4 * 3 * distinct
        monkeypatch.setattr(safl_sim.experiments, "MAX_FLOATS", logits)
        load_experiment(path)
        monkeypatch.setattr(safl_sim.experiments, "MAX_FLOATS", logits - 1)
        with pytest.raises(
            ExperimentConfigError, match=rf"^experiment: 'seeds' = 2 gives the round metric a logit table of {logits} floats"
        ):
            load_experiment(path)

    def test_limits_that_need_no_shard_size_run_before_the_sizes_are_drawn(self, tmp_path, monkeypatch, capsys):
        # the 2 seeds' 48 generators are over the limit: refused naming
        # 'seeds' before check_fits draws the n shard sizes
        monkeypatch.setattr(safl_sim.experiments, "MAX_BYTES", 48 * 745 - 1)
        monkeypatch.setattr(safl_sim.experiments, "check_fits", lambda *args: pytest.fail("the sizes were drawn"))
        code = cli_main(["run", "--config", str(write_doc(tmp_path, experiment_doc())), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: experiment: 'seeds' = 2 gives 48 random generators")

    @pytest.mark.parametrize(
        "data, floats, message",
        [
            ({"kind": "linear", "samples": 100, "dim": 5, "seed": 3}, 500, "'samples' = 100 gives 100 rows of dim 5 features"),
            (
                {"kind": "blobs", "samples": 10, "dim": 5, "classes": 30, "seed": 2}, 150,
                "'classes' = 30 gives 30 class centres of dim 5 features",
            ),
        ],
        ids=["linear-features", "blobs-centres"],
    )
    def test_float_limit_counts_a_generated_dataset_before_drawing_it(self, tmp_path, monkeypatch, data, floats, message):
        # at the limit the generator is called, and it fails here; one float
        # below, the document is refused without calling it
        @functools.wraps(DATA_GENERATORS[data["kind"]])
        def generate(*args, **kwargs):
            raise ValueError("drawn")

        monkeypatch.setitem(DATA_GENERATORS, data["kind"], generate)
        path = write_doc(tmp_path, experiment_doc(data=data))
        monkeypatch.setattr(safl_sim.experiments, "MAX_FLOATS", floats)
        with pytest.raises(ExperimentConfigError, match="^data: drawn$"):
            load_experiment(path)
        monkeypatch.setattr(safl_sim.experiments, "MAX_FLOATS", floats - 1)
        with pytest.raises(ExperimentConfigError, match=re.escape(f"data: {message}, {floats} floats, above the limit of {floats - 1}")):
            load_experiment(path)

    def test_label_cap_above_the_labels_present_exits_one(self, tmp_path, capsys):
        doc = experiment_doc(data={"kind": "blobs", "samples": 60, "dim": 3, "classes": 3}, T=2, seeds=[1])
        doc["partition"]["max_labels_per_device"] = 5
        path = write_doc(tmp_path, doc)
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        assert "max_labels_per_device" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "objective, classes, cell, value, message",
        [
            ({"kind": "least_squares"}, None, (5, 0), "nan", "features must be finite"),
            ({"kind": "multinomial_logistic", "reg": 0.5}, 3, (5, 1), "nan", "features must be finite"),
            ({"kind": "lasso", "reg": 0.5}, None, (5, 0), "inf", "features must be finite"),
            ({"kind": "ridge", "reg": 1.0}, None, (5, 1), "-inf", "features must be finite"),
            ({"kind": "ridge", "reg": 1.0}, None, (5, 3), "nan", "targets must be finite"),
            ({"kind": "multinomial_logistic", "reg": 0.5}, 3, (5, 3), "1.5", "class labels must be integers"),
            ({"kind": "ridge", "reg": 1.0}, None, (0, 0), "x0", "dataset CSV feature columns must be named f0..f{d-1}"),
            (
                {"kind": "multinomial_logistic", "reg": 0.5}, 3, (5, 1), "1e200",
                "features are too large: their sum of squares overflows",
            ),
            ({"kind": "ridge", "reg": 1.0}, None, (0, 3), "target", "dataset CSV must have header f0,...,f{d-1},label"),
            ({"kind": "ridge", "reg": 1.0}, None, (5, 3), "0,1", "dataset CSV row has 5 fields, expected 4"),
        ],
        ids=[
            "nan-feature-least_squares", "nan-feature-logistic", "inf-feature-lasso", "inf-feature-ridge",
            "nan-target", "fractional-label", "bad-header", "overflowing-square-logistic", "no-label-column",
            "field-count",
        ],
    )
    def test_malformed_dataset_csv_exits_one(self, tmp_path, capsys, objective, classes, cell, value, message):
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
        assert capsys.readouterr().err == f"config error: data: 'path' ({data}): {message}\n"

    def test_a_blank_dataset_csv_row_is_skipped(self, tmp_path):
        # the file with a blank row writes the bytes of the file without it
        lines = ["f0,f1,label"] + [f"{0.1 * i},{(-1) ** i},{0.2 * i}" for i in range(40)]
        digests = []
        for name, rows in (("plain", lines), ("blank", [*lines[:20], "", *lines[20:]])):
            data = tmp_path / f"{name}.csv"
            data.write_text("\n".join(rows) + "\n")
            doc = experiment_doc(data={"kind": "csv", "path": str(data)}, n=4, s=4, T=3, seeds=[1], variants=["fedavg"])
            out = tmp_path / name
            assert cli_main(["run", "--config", str(write_doc(tmp_path, doc)), "--out", str(out), "--quiet"]) == 0
            digests.append((out / "fedavg.csv").read_bytes())
        assert digests[0] == digests[1]

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

    HEADER = ",".join(METRICS_COLUMNS) + "\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("variant,seed,round\n", "unexpected metrics header"),
            (HEADER + "fedavg,1,1,0.5\n", "malformed metrics row"),
            # seed 1's round 1 twice, mse 1.0 and then 3.0
            (
                HEADER + "fedavg,1,1,1.0,0.5,20,,,\nfedavg,1,1,3.0,0.5,20,,,\n",
                "repeated metrics row for (variant, seed, round) = ('fedavg', 1, 1)",
            ),
        ],
        ids=["header", "field-count", "repeated-row"],
    )
    def test_compare_of_a_malformed_file_exits_one_and_names_it(self, tmp_path, capsys, text, message):
        bad = tmp_path / "fedavg.csv"
        bad.write_text(text)
        other = tmp_path / "safl.csv"
        emit_metrics_csv([MetricsRow("safl", 1, 1, 2.0, 0.5, 20, 0.5)], other)
        assert cli_main(["compare", str(bad), str(other)]) == 1
        assert capsys.readouterr().err == f"compare error: {bad}: {message}\n"

    def test_compare_of_seeds_that_share_no_round_exits_one(self, tmp_path, capsys):
        # both files' round grids are {1, 2}, but seed 1 reports round 1 only and seed 2 round 2 only
        rows = [MetricsRow("fedavg", 1, 1, 1.0, 0.5, 20, None), MetricsRow("fedavg", 2, 2, 1.0, 0.5, 40, None)]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            emit_metrics_csv(rows, path)
        assert cli_main(["compare", *map(str, paths)]) == 1
        assert capsys.readouterr().err == "compare error: no round was reached by every seed\n"

    def test_compare_single_file_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli_main(["compare", str(tmp_path / "a.csv")])
        assert exc.value.code == 2

    def test_compare_of_two_files_exits_zero_and_prints_the_table(self, tmp_path, capsys):
        paths = [tmp_path / "fedavg.csv", tmp_path / "safl.csv"]
        for path, mse in zip(paths, (1.0, 0.75)):
            emit_metrics_csv([MetricsRow(path.stem, 1, 1, mse, 0.5, 20, None)], path)
        assert cli_main(["compare", *map(str, paths)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["variant", "round", "mse", "stderr", "accuracy", "d_mse_vs_fedavg"]
        assert lines[2].split() == ["safl", "1", "0.75", "0", "0.5000", "-0.25"]

    def test_a_blank_metrics_line_is_skipped(self, tmp_path):
        rows = [MetricsRow("fedavg", 1, 1, 0.5, 0.5, 4, None), MetricsRow("fedavg", 1, 2, 0.25, 0.5, 8, None)]
        path = tmp_path / "fedavg.csv"
        emit_metrics_csv(rows, path)
        header, *lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join([header, lines[0], "\n", *lines[1:], "\n"]))
        assert parse_metrics_csv(path) == rows

    def test_run_prints_each_variants_summary_line_unless_quiet(self, tmp_path, capsys):
        path = write_doc(tmp_path, experiment_doc(T=2, seeds=[1], variants=["fedavg"]))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"fedavg: final mse 0.00271226 over 1 seed(s) -> {out / 'fedavg.csv'}\n"


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
