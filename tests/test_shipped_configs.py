"""Both shipped configs, run end to end, write exactly these bytes, and no
row of the logistic one's run takes the kernel's shifted softmax step.

A refactor that keeps behaviour leaves every digest as it is.  A deliberate
change to the output format or to the trajectories records the new digests
in the same commit.
"""

import hashlib
import json
from pathlib import Path

import pytest
from conftest import record_unshifted

from safl_sim.cli import main as cli_main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DIGESTS = {
    "demo": {
        "fedavg.csv": "26ab1442b1632912a47d7cc565953861f76b90ebe835b6d2f06d46686f53ca0f",
        "safl.csv": "243f87006adad305fd1c5e9d12fcf24f091fae5478d19e282b2f219490e771fd",
        "summary.json": "42a4e5eb8ac07530889395b57a2e47482bbf34e2fe643a4326863e26d104498d",
    },
    "biased_devices": {
        "fedavg.csv": "dc46c1ae0377600f48e63fa266823ed00a30eae2c1829d5d260ab231be2226bc",
        "safl.csv": "6e5ccb854574cf4219d2dfd1da258193b581ab77edbfdda29b3d47a465071192",
        "safl_extended.csv": "d0024aebbce60968045e061d478690e0ce0c9c95176429bce8217ca4afe30dde",
        "summary.json": "3cee9f695691b5398d96c9aa60b41e00c40d239417a179eba007b911432e3ba4",
    },
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_shipped_config_writes_the_recorded_bytes(tmp_path, name):
    out = tmp_path / name
    assert cli_main(["run", "--config", str(CONFIGS / f"{name}.json"), "--out", str(out), "--quiet"]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert written == DIGESTS[name]


def test_no_row_of_the_biased_devices_run_shifts_its_logits(tmp_path, monkeypatch):
    # The logit bound of every row of every round stays below the limit of
    # 700 (at most 552 here), so no kernel call of this run takes the
    # shifted step.  A bound on the pooled set's largest row norm instead
    # of each shard's would fail 9% of these row-rounds.
    unshifted = record_unshifted(monkeypatch)
    path = CONFIGS / "biased_devices.json"
    doc = json.loads(path.read_text())
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    jobs = len(doc["variants"]) * len(doc["seeds"])
    assert sum(map(len, unshifted)) == doc["T"] * jobs * doc["s"]
    assert all(rows.all() for rows in unshifted)
