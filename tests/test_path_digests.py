"""Small documents that reach the paths the shipped configs never take write
exactly these bytes.

Both shipped configs select every device, draw samples with replacement,
mask per coordinate and train by SGD (see ``test_shipped_configs``).  These
documents cover the rest: partial participation, shuffled epochs, the
scalar mask, the oracle solver, a seed stopped early by ``early_stop_mse``,
and the gate's inverse-risk score on ridge, plus logistic SGD at
partial participation with ragged shards, a run seed longer than the
seed hash's pool of four 32-bit words, shuffled epochs at full
participation, where the server draws nothing, and a partition where some
devices hold out samples and others, with none to spare, are scored on
their training set.  A refactor that keeps behaviour leaves every digest as
it is.
"""

import hashlib
import json

import pytest

from safl_sim import simulation
from safl_sim.cli import main as cli_main
from safl_sim.experiments import load_experiment, sim_config
from safl_sim.partition import holdout_sizes, sample_sizes

RIDGE_DATA = {"kind": "linear", "samples": 160, "dim": 4, "feature_scale": 0.3, "coef_scale": 3.0, "seed": 5}
RIDGE = {"kind": "ridge", "reg": 0.8}

DOCS = {
    # s < n, shuffled epochs, scalar masks, the inverse-risk gate on ridge
    "partial_shuffle_scalar": {
        "data": RIDGE_DATA, "objective": RIDGE,
        "partition": {"mean_size": 11, "size_var": 9.0, "max_labels_per_device": 1, "seed": 7},
        "n": 9, "s": 5, "T": 14, "E": 2, "lr": {"kind": "inverse", "value": 1.5},
        "anneal": {"temperature": 6.0, "epsilon": 0.4, "mask_mode": "scalar"},
        "gate": {"gap_scale": 0.05}, "sample_order": "shuffle", "holdout_fraction": 0.25,
        "variants": ["fedavg", "safl", "safl_extended"], "seeds": [1, 2],
    },
    # logistic SGD with odd-sized and even-sized shards at s < n
    "logistic_partial": {
        "data": {"kind": "blobs", "samples": 300, "dim": 3, "classes": 3, "seed": 2},
        "objective": {"kind": "multinomial_logistic", "reg": 0.3},
        "partition": {"mean_size": 13, "size_var": 16.0, "max_labels_per_device": 2, "pure_count": 3, "seed": 7},
        "n": 11, "s": 7, "T": 9, "E": 3, "lr": {"kind": "constant", "value": 0.05},
        "anneal": {"temperature": 5.0, "epsilon": 0.3}, "gate": {"gap_scale": 0.1}, "holdout_fraction": 0.2,
        "variants": ["safl", "safl_extended"], "seeds": [3],
    },
    "oracle": {
        "data": RIDGE_DATA, "objective": RIDGE,
        "partition": {"mean_size": 11, "size_var": 4.0, "max_labels_per_device": 1, "seed": 8},
        "n": 8, "s": 6, "T": 6, "E": 1, "lr": {"kind": "constant", "value": 0.05},
        "anneal": {"temperature": 4.0, "epsilon": 0.5}, "local_solver": "oracle", "holdout_fraction": 0.0,
        "variants": ["fedavg", "safl"], "seeds": [4],
    },
    # stops after rounds 18 and 21 (fedavg) and 37 (safl seed 1); safl seed 2 runs all 40
    "early_stop": {
        "data": RIDGE_DATA, "objective": RIDGE,
        "partition": {"mean_size": 11, "size_var": 0.0, "max_labels_per_device": 1, "seed": 9},
        "n": 8, "s": 8, "T": 40, "E": 1, "lr": {"kind": "inverse", "value": 1.5},
        "anneal": {"temperature": 6.0, "epsilon": 0.4}, "holdout_fraction": 0.0, "early_stop_mse": 3e-4,
        "variants": ["fedavg", "safl"], "seeds": [1, 2],
    },
    # run seeds of 5 and 3 words: the fifth word of 10**40 is mixed in past the pool
    "long_seed": {
        "data": RIDGE_DATA, "objective": RIDGE,
        "partition": {"mean_size": 11, "size_var": 9.0, "max_labels_per_device": 1, "seed": 6},
        "n": 7, "s": 4, "T": 7, "E": 1, "lr": {"kind": "constant", "value": 0.05},
        "anneal": {"temperature": 5.0, "epsilon": 0.4}, "gate": {"gap_scale": 0.05}, "holdout_fraction": 0.25,
        "variants": ["fedavg", "safl", "safl_extended"], "seeds": [10**40, 2**64 + 7],
    },
    # every device every round, shuffled epochs, ragged shards with holdouts
    "full_shuffle": {
        "data": RIDGE_DATA, "objective": RIDGE,
        "partition": {"mean_size": 11, "size_var": 9.0, "max_labels_per_device": 1, "seed": 4},
        "n": 7, "s": 7, "T": 10, "E": 2, "lr": {"kind": "inverse", "value": 1.5},
        "anneal": {"temperature": 5.0, "epsilon": 0.4}, "gate": {"gap_scale": 0.05},
        "sample_order": "shuffle", "holdout_fraction": 0.25,
        "variants": ["fedavg", "safl", "safl_extended"], "seeds": [3, 4],
    },
    # holdouts of [0, 1, 0, 1, 1, 1, 0, 1, 0]: the gate scores four devices on their training set
    "mixed_holdout": {
        "data": RIDGE_DATA, "objective": RIDGE,
        "partition": {"mean_size": 6, "size_var": 16.0, "max_labels_per_device": 1, "seed": 4},
        "n": 9, "s": 6, "T": 8, "E": 2, "lr": {"kind": "constant", "value": 0.05},
        "anneal": {"temperature": 5.0, "epsilon": 0.4}, "gate": {"gap_scale": 0.05}, "holdout_fraction": 0.2,
        "variants": ["fedavg", "safl", "safl_extended"], "seeds": [5],
    },
}

DIGESTS = {
    "partial_shuffle_scalar": {
        "fedavg.csv": "c63ab494b8dab8c9db1427f85e8dc8a84d655a6f62feea4473611a38100c7d58",
        "safl.csv": "dd31772ff6fa28feaa401b611da9f378d6b6874de1e68dad1773a0862a09a6db",
        "safl_extended.csv": "f47d77ee9e2474d41472700d9c70c11ce55ede38fbb79dc18943445c3d9efd44",
        "summary.json": "17d8841c74ba9653ed53ff3b12f253bdfa4f8346bc61bd74e1e3ea235516d1c4",
    },
    "logistic_partial": {
        "safl.csv": "057df8749fe92aa6de4feb3add0991b75b6b403f13134edba6229071496b9c60",
        "safl_extended.csv": "baa943d72867953b96fe758b5e49e5b578e5072c629185825d3da149e0b1b64f",
        "summary.json": "8c2b24d55205ed69904ff77cba04add73e25d3b331e0a22b29a2a9a3b528667d",
    },
    "oracle": {
        "fedavg.csv": "74dbceedba51e5bdd234f1917766eb44cc418dbd8332eb35df3da93ab55ec2d6",
        "safl.csv": "8fb3e8e7b5d36c3265261bedf445cffde0a87a6cec988c4f7bd536e36c7f7b0d",
        "summary.json": "b897999a6cbfcd6a0a7a8962cb5b4cde83626befacdb6c85c849a6e3555e1ddb",
    },
    "early_stop": {
        "fedavg.csv": "2b7371db328546c85e24abade098f54ef2b30e175068cc0da6caf01266cea316",
        "safl.csv": "9fa3681fb84958bf526b981c9d71b9f1320a82b0ac33e70bae2687da101d3b05",
        "summary.json": "d4ae76dc8b064eb55259fa03e31c0052a80f997eb0f4e1faf2f02f5a24f581c4",
    },
    "long_seed": {
        "fedavg.csv": "0c32f36f54ef171fcb83ff095f40df0e587fe069710324f0f219efa4cf4764dc",
        "safl.csv": "c8372c9898b71244cf1553e7010eeecf95c8eb29d39c78ec90b47935d234a409",
        "safl_extended.csv": "3a7412eb8c6529451a861a8fb59dc08eac9f395502bc7e5cc5d20a9bc7f8282d",
        "summary.json": "3814a93b2b55001f32d896a6df4725dc36ba4f3f9ed70427ddaf4ab5a6dda372",
    },
    "full_shuffle": {
        "fedavg.csv": "e877db1bab4888d755c23a0257ec5f7eda06d63e87ea98c65e12c644df792a6a",
        "safl.csv": "cadf162ca3dbd7aaddf3a1e84ee7c2ecf00e5b3a1b49296663979567d72a0a4d",
        "safl_extended.csv": "a799a2b7075ef9de16f4663ae3c9fc9745e4a49d3d29376d94f044cccd71ee17",
        "summary.json": "e8cbf40f68ffa7dd952d3240edd00392ed00ef6890a590eef047faa260a860c8",
    },
    "mixed_holdout": {
        "fedavg.csv": "72d7cdc84953bac33fae6d6ff52bd1c5dfdae62dc1d730b79a2a17aaa3499c83",
        "safl.csv": "d92f42cb66742d39318f9327c2f42a42f3c38b6d9bf83a0b046834de8cc226c1",
        "safl_extended.csv": "8c3bd06594a514ef1ad8d43ad942898e37186b60b1241fc3761d34e629d44d59",
        "summary.json": "78f191ff2ee303dcd7ee95b8c9d67b8e9affc47ae9a430ea609d63d41cb1b898",
    },
}


def run_digests(tmp_path, name: str) -> dict[str, str]:
    """sha256 of every file that ``safl-sim run`` writes for ``DOCS[name]``."""
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(DOCS[name]))
    out = tmp_path / name
    assert cli_main(["run", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}


@pytest.mark.parametrize("name", sorted(DOCS))
def test_document_writes_the_recorded_bytes(tmp_path, name):
    assert run_digests(tmp_path, name) == DIGESTS[name]


def test_mixed_holdout_document_has_both_kinds_of_holdout(tmp_path):
    config = tmp_path / "mixed.json"
    config.write_text(json.dumps(DOCS["mixed_holdout"]))
    spec = load_experiment(config)
    holds = holdout_sizes(sample_sizes(spec.config.partition), spec.config.holdout_fraction)
    assert holds.tolist() == [0, 1, 0, 1, 1, 1, 0, 1, 0]
    problem = simulation.prepare(spec.config, spec.dataset)
    empty = holds == 0
    assert problem.evals is not problem.train
    assert (problem.evals.sizes[empty] == problem.train.sizes[empty]).all()
    assert (problem.evals.sizes[~empty] == holds[~empty]).all()


# a block budget per document and the rounds per block it gives each variant:
# every run spans several blocks and ends in a partial one, except oracle
# fedavg, which draws nothing but its selections
BLOCKS = {
    "partial_shuffle_scalar": (400, [3, 3, 3]),
    "logistic_partial": (800, [2, 2]),
    "oracle": (100, [100, 4]),
    "early_stop": (800, [9, 6]),
    "long_seed": (200, [5, 3, 3]),
    "full_shuffle": (500, [4, 3, 3]),
    "mixed_holdout": (400, [5, 3, 3]),
}


@pytest.mark.parametrize("name", sorted(DOCS))
def test_many_blocks_write_the_bytes_of_one(tmp_path, monkeypatch, name):
    budget, lengths = BLOCKS[name]
    monkeypatch.setattr(simulation, "PLAN_ENTRIES", budget)
    config = tmp_path / "blocks.json"
    config.write_text(json.dumps(DOCS[name]))
    spec = load_experiment(config)
    problem = simulation.prepare(spec.config, spec.dataset)
    assert [simulation.block_rounds(sim_config(spec, v, 0), problem) for v in spec.variants] == lengths
    # execute runs every job in lockstep, and the jobs of a run seed share
    # one plan, that of the variant drawing the most streams; the seeds share
    # the budget, so each seed's plan holds budget // seeds entries a block
    planned = []
    plan_rounds = simulation.plan_rounds

    def spy(config, server, devices, problem, entries):
        planned.append((config.algorithm, config.seed, entries))
        return plan_rounds(config, server, devices, problem, entries)

    monkeypatch.setattr(simulation, "plan_rounds", spy)
    digests = run_digests(tmp_path, name)
    lead = max(spec.variants, key=simulation.ALGORITHMS.index)
    entries = budget // len(spec.seeds)
    assert planned == [(lead, seed, entries) for seed in spec.seeds]
    # so every seed's run spans more than one block
    assert simulation.block_rounds(sim_config(spec, lead, 0), problem, entries) < spec.config.rounds
    assert digests == DIGESTS[name]
