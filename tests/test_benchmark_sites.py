"""The benchmark (perfbench/) traces the simulator by wrapping public
functions at the modules that call them.  A refactor that moves or renames
one of them makes ``perfbench/run.py --trace 1`` fail; this test fails first."""

import importlib.util
import json
import sys
from pathlib import Path

from safl_sim import cli
from safl_sim.experiments import load_experiment, parse_metrics_csv, sim_config
from safl_sim.simulation import build_state, prepare

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_benchmark_wrap_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers.py imports its sibling spans.py
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.missing_sites() == []


def test_the_set_up_call_returns_the_pooled_set_and_its_optimum(tmp_path):
    # perfbench/run.py times set-up as this keyword call, and perfbench/layers.py
    # reads element 2 of its result as the pooled set that run_round scores
    doc = {
        "data": {"kind": "blobs", "samples": 120, "dim": 3, "classes": 3, "seed": 2},
        "objective": {"kind": "multinomial_logistic", "reg": 0.5},
        "partition": {"mean_size": 10, "size_var": 4.0, "max_labels_per_device": 2, "pure_count": 2, "seed": 7},
        "n": 6, "s": 3, "T": 2, "E": 1,
        "lr": {"kind": "constant", "value": 0.05},
        "holdout_fraction": 0.2,
        "variants": ["safl"],
        "seeds": [3],
    }
    config = tmp_path / "setup.json"
    config.write_text(json.dumps(doc))
    spec = load_experiment(config)
    cfg = sim_config(spec, "safl", 3)
    state = build_state(cfg, dataset=spec.dataset)
    problem = prepare(cfg, spec.dataset)
    pooled = state[2]
    assert pooled.n_classes == problem.train.data.n_classes == 3
    for field in ("X", "y"):
        got, want = getattr(pooled, field), getattr(problem.train.data, field)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert state[3].tobytes() == problem.w_star.tobytes()


def _load_perfbench(monkeypatch, name: str):
    """perfbench/<name>.py as module ``name``, without writing bytecode; the
    module leaves ``sys.modules`` when the test ends."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_run_charges_each_solve_to_its_layer(tmp_path, monkeypatch):
    # A solve moved off its wrap site (say, into the prepared problem) would
    # read 0 here instead of 1, and a pooled set other than the one that
    # run_round scores would charge the metrics proxy to the upload gate.
    spans = _load_perfbench(monkeypatch, "spans")
    layers = _load_perfbench(monkeypatch, "layers")  # imports spans by name
    doc = {
        "data": {"kind": "blobs", "samples": 120, "dim": 3, "classes": 3, "seed": 2},
        "objective": {"kind": "multinomial_logistic", "reg": 0.5},
        "partition": {"mean_size": 10, "size_var": 4.0, "max_labels_per_device": 2, "pure_count": 2, "seed": 7},
        "n": 6, "s": 6, "T": 2, "E": 1,
        "lr": {"kind": "constant", "value": 0.05},  # above 1/(2*lam - mu): no bound, no shard solve
        "holdout_fraction": 0.2,
        "variants": ["fedavg", "safl"],
        "seeds": [1],
    }
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(doc))
    tracer = spans.Tracer()
    with layers.traced(tracer):
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    figures = spans.layer_metrics(tracer)
    # every job trains every device in every round, in one kernel call per
    # round; a call site that no longer reported its step total reads 0
    spec = load_experiment(config)
    jobs = len(doc["variants"]) * len(doc["seeds"])
    steps = jobs * doc["T"] * doc["E"] * int(prepare(spec.config, spec.dataset).train.sizes.sum())
    assert figures["training.calls"] == doc["T"]
    assert figures["training.steps"] == steps
    assert figures["partition.calls"] == 1
    assert figures["objectives.optimum_calls"] == 1
    assert figures["objectives.curvature_calls"] == 0
    assert figures["upload_gate.s"] == 0
    # each step of a lockstep round runs once for all jobs, and the round's
    # weights once per batch of them; one that no longer passed through its
    # wrap site would read 0 here
    for layer in ("simulation.metrics_s", "aggregation.s", "annealing.s", "simulation.round_s"):
        assert figures[layer] > 0, layer


def test_traced_gate_counts_one_decision_per_selected_device(tmp_path, monkeypatch):
    # the gate scores a round's devices in one batch but still decides each
    # one apart, so the counters keep meaning one decision per device
    spans = _load_perfbench(monkeypatch, "spans")
    layers = _load_perfbench(monkeypatch, "layers")
    doc = {
        "data": {"kind": "blobs", "samples": 300, "dim": 3, "classes": 3, "seed": 2},
        "objective": {"kind": "multinomial_logistic", "reg": 0.5},
        "partition": {"mean_size": 12, "size_var": 9.0, "max_labels_per_device": 2, "pure_count": 3, "seed": 7},
        "n": 10, "s": 6, "T": 4, "E": 1,
        "lr": {"kind": "constant", "value": 0.05},
        "gate": {"gap_scale": 0.1},
        "holdout_fraction": 0.2,
        "variants": ["fedavg", "safl_extended"],
        "seeds": [1, 2],
    }
    config = tmp_path / "gated.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    tracer = spans.Tracer()
    with layers.traced(tracer):
        assert cli.main(["run", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    figures = spans.layer_metrics(tracer)
    rows = parse_metrics_csv(out / "safl_extended.csv")
    final_uploads = sum(r.uploads_cumulative for r in rows if r.round == doc["T"])
    assert figures["upload_gate.decisions"] == len(doc["seeds"]) * doc["T"] * doc["s"]
    assert figures["upload_gate.uploads"] == final_uploads
    assert 0 < final_uploads < figures["upload_gate.decisions"]
