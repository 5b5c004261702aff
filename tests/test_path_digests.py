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
        "fedavg.csv": "f032853d26887291248892ec7811ca0a40f2bfe107c03efbec43b9f85176387e",
        "safl.csv": "f849a736bd68ca6c88e819c876db89387ae7f2cb26e393eff0943c51ffeac809",
        "safl_extended.csv": "92d357115440937f23a7f076762269c02b544b8f25450603d57389cc452212f1",
        "summary.json": "b14ec1a09bd2a74d70f2de98c67a81e0a64d072756b329520382c3d56376905f",
    },
    "logistic_partial": {
        "safl.csv": "6a4b9db25ad7c4f4e61f51c96dd49d34598d03229c42f6511bff5ece65885122",
        "safl_extended.csv": "14cdeab5e74669a7a27ab8ab181048a943c78a68dc684ed40e5e79e13a06c885",
        "summary.json": "c1db3eac7e170c48cf270ffadcacd7180922355cf870a8e550f3f5d892f6bf69",
    },
    "oracle": {
        "fedavg.csv": "74dbceedba51e5bdd234f1917766eb44cc418dbd8332eb35df3da93ab55ec2d6",
        "safl.csv": "8fb3e8e7b5d36c3265261bedf445cffde0a87a6cec988c4f7bd536e36c7f7b0d",
        "summary.json": "b897999a6cbfcd6a0a7a8962cb5b4cde83626befacdb6c85c849a6e3555e1ddb",
    },
    "early_stop": {
        "fedavg.csv": "0e66f629a8e68612a4a5eb517a529e3a0f31e3ca32a18a5cda5e8ab862d67d09",
        "safl.csv": "80f59e74c957dca43811419662488db30bc5bb01a996a0b5e77f3a47d5520cc1",
        "summary.json": "0ec55404e266f482c61caef2b2ee3cba872faf8e39f5e8e37eb32beb9ce7df04",
    },
    "long_seed": {
        "fedavg.csv": "3077ccdc5a5b6e73d056084dd80179e5ff243364d620c0874da7d870157a31b1",
        "safl.csv": "d93cd5e5d7f47c3dd8a7d2500b378f8aec48398870101eca34bd965e802a9bd6",
        "safl_extended.csv": "ad102b08e61cb0b95ecb048975760a5d0b109f48fc7efe7a158a95f7a543c86e",
        "summary.json": "0550e03592d063b42c547277f0c7239df9169dc6eb61a46c9ebc6de8012ce06b",
    },
    "full_shuffle": {
        "fedavg.csv": "e6ebdfb2ffbf5a81c5252c9f0002188c1241435c1fe38348d843b3825c82424d",
        "safl.csv": "c26e6fcb81bdc75062228c81ef14b21026998522bbb90b6cf00e1c083b82f795",
        "safl_extended.csv": "cdcda6f7e7fc116c4b01d2abe465aab2f6f667f855c79fa7deb4d5ae4e18d944",
        "summary.json": "5e289fbbb6d018ee64bedf78053d889f496cc1636b4a061155654588438ff906",
    },
    "mixed_holdout": {
        "fedavg.csv": "7cb2ea943396b0fb3d2a090c2e0c0546374cf11ee1ddf56cc09cab8d90f800b0",
        "safl.csv": "c99002eb22eebcdc7dca6fba9a1361b9099f9accce3181b31339677251800ae4",
        "safl_extended.csv": "222916ccae7210d21518bde548a2e2a2812499036b5daaaeadac03397640170d",
        "summary.json": "28cffdbf7fe6a579fdaadce68805f055d74ed4e6d0baff9d95365fbd88275e95",
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
