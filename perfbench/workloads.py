"""The benchmark's workloads, each an experiment document built from a seed.

The benchmark seed moves only the run seeds (the document's ``seeds`` list:
device initialisation, sample order, blend masks, gate draws and server
selection).  Data and partition stay fixed, so the work a pass does, and hence
its time, is the same on every seed while the trajectories differ.  Seed 0
gives the shipped run seeds.  BENCHMARK.json and README.md say why each
workload exists.
"""

from __future__ import annotations

import json
from pathlib import Path

# Run seeds of benchmark seed k are the shipped ones plus k * SEED_STRIDE,
# so the run seeds of different benchmark seeds never overlap.
SEED_STRIDE = 1000

# Workers of the extra passes a traced run makes through execute's worker
# pool; their bytes must equal the 1-worker passes'.  Workloads not named
# here make none.
POOL_WORKERS = {"demo": 2}


def _shift(doc: dict, seed: int) -> dict:
    doc["seeds"] = [s + seed * SEED_STRIDE for s in doc["seeds"]]
    return doc


def _shipped(root: Path, name: str) -> dict:
    with open(root / "configs" / name, encoding="utf-8") as fh:
        return json.load(fh)


def document(root: Path, name: str, seed: int) -> dict:
    """The experiment document of workload ``name`` at benchmark seed ``seed``."""
    if seed < 0:
        raise ValueError("the benchmark seed must be >= 0")
    if name == "demo":
        return _shift(_shipped(root, "demo.json"), seed)
    if name == "biased":
        # A fifth of the shipped 100 devices (and of its 30 label-pure
        # ones) on its first seed: the shipped file takes about 112 s, too
        # long to time several passes per run.  Every device still trains
        # and gets its own curvature solve in each job, so the layer shares
        # stay those of the shipped file.
        doc = _shipped(root, "biased_devices.json")
        doc["n"] = doc["s"] = 20
        doc["partition"]["pure_count"] = 6
        doc["seeds"] = doc["seeds"][:1]
        return _shift(doc, seed)
    if name == "stress":
        return _shift(
            {
                "name": "stress",
                "data": {"kind": "blobs", "samples": 30000, "dim": 8, "classes": 3,
                         "separation": 1.1, "cluster_std": 1.4, "seed": 31},
                "objective": {"kind": "multinomial_logistic", "reg": 0.05},
                "partition": {"mean_size": 20, "size_var": 25.0, "max_labels_per_device": 3,
                              "pure_count": 300, "seed": 77},
                "n": 1000,
                "s": 200,
                "T": 20,
                "E": 1,
                "lr": {"kind": "constant", "value": 0.1},
                "anneal": {"temperature": 80.0, "epsilon": 0.3},
                "gate": {"gap_scale": 0.1},
                "holdout_fraction": 0.2,
                # safl's annealed mixing runs in demo and biased; here it
                # would only add a third set-up and 20 more rounds to a pass
                "variants": ["fedavg", "safl_extended"],
                "seeds": [9000],
            },
            seed,
        )
    raise KeyError(name)
