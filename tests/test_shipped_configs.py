"""Both shipped configs, run end to end, write exactly these bytes.

A refactor that keeps behaviour leaves every digest as it is.  A deliberate
change to the output format or to the trajectories records the new digests
in the same commit.
"""

import hashlib
from pathlib import Path

import pytest

from safl_sim.cli import main as cli_main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DIGESTS = {
    "demo": {
        "fedavg.csv": "26ab1442b1632912a47d7cc565953861f76b90ebe835b6d2f06d46686f53ca0f",
        "safl.csv": "243f87006adad305fd1c5e9d12fcf24f091fae5478d19e282b2f219490e771fd",
        "summary.json": "42a4e5eb8ac07530889395b57a2e47482bbf34e2fe643a4326863e26d104498d",
    },
    "biased_devices": {
        "fedavg.csv": "be610f5bedf0d62d2f149cc98ee64663beff123d5b10c1bd2e0f7d8fa9e8a6b5",
        "safl.csv": "254a3f97d431687c50bd0428a25a9e56eadcc0c5dec944fa82a3c344e3303cb8",
        "safl_extended.csv": "7371b3524ac7efe71c1cfcec47e0f7b1b1db919705bce4ce7ec2c654949dbab3",
        "summary.json": "dbbe26f64c0a1540b464e4182c3b1d02b9c44b49614d3c793e9c35ec355ca16d",
    },
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_shipped_config_writes_the_recorded_bytes(tmp_path, name):
    out = tmp_path / name
    assert cli_main(["run", "--config", str(CONFIGS / f"{name}.json"), "--out", str(out), "--quiet"]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert written == DIGESTS[name]
