"""Both shipped configs, run end to end, write exactly these bytes; no row
of the logistic one's run takes the kernel's shifted softmax step, and only
the demo's first round takes the kernel's explicit weight decay.

A refactor that keeps behaviour leaves every digest as it is.  A deliberate
change to the output format or to the trajectories records the new digests
in the same commit.
"""

import hashlib
import json
from pathlib import Path

import pytest
from conftest import record_explicit_decay, record_unshifted

from safl_sim.cli import main as cli_main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DIGESTS = {
    "demo": {
        "fedavg.csv": "440bc5363be4ffbe725c32ba1ca5e1589aa1f8bb8121ef6a40588638e1feeb84",
        "safl.csv": "a9400cdce1a5a819338824a1f40d33c237d21b94855d461c923d23f94d44d3fb",
        "summary.json": "e8d31afa5eae7b686638c20867b11a194ba369049e36933c444e144b50bf4978",
    },
    "biased_devices": {
        "fedavg.csv": "f37d73e0de87287aa689753e84a6df7a2c36792823e908f4549f1c41d061672f",
        "safl.csv": "cb07bd0c3ac37a010980739b945d64870c73814656090d5c9b56d17dc44133a1",
        "safl_extended.csv": "3790b2c5bee486304690f72ab1e30c1c6454425f66f634283d39aec2746b495a",
        "summary.json": "06d208c54e4f2294c48c89e9ddf67a362aadb4fd71b9c421fef13f53f8b82da8",
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


@pytest.mark.parametrize("name, explicit_calls", [("demo", 1), ("biased_devices", 0)])
def test_only_the_demos_first_round_takes_the_explicit_decay(tmp_path, monkeypatch, name, explicit_calls):
    # The demo's round 1 starts every row at step 0 of inverse 2.0 with
    # reg 1, where its first decays 1 - rate * reg are -1, 0 and 1/3, so
    # every row of that kernel call is explicit.  From round 2 on (step 12)
    # every decay is at least 1 - 2/13 and a round's running product stays
    # far above 2**-256, so every row is lazy.  biased_devices decays by
    # 1 - 0.1 * 0.05 at every step, at most 84 steps a round: always lazy.
    explicit = record_explicit_decay(monkeypatch)
    path = CONFIGS / f"{name}.json"
    doc = json.loads(path.read_text())
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    jobs = len(doc["variants"]) * len(doc["seeds"])
    assert len(explicit) == doc["T"] and sum(map(len, explicit)) == doc["T"] * jobs * doc["s"]
    assert [bool(rows.all()) for rows in explicit[:explicit_calls]] == [True] * explicit_calls
    assert not any(rows.any() for rows in explicit[explicit_calls:])
