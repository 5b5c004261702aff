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
        "fedavg.csv": "25239902aaf4d7b8e6de823b8041bca40af5e421c85f1f91f38ffe5876d0105f",
        "safl.csv": "36dbd5446ebc8ba40d88c2ee46e97fb5adc920da4d0ee1c83f9e1fd98335ec33",
        "safl_extended.csv": "d00dfb8b50e4ed04da5a87befd8e144322baef4cb1aa36cf77c5dce9dd7bbe8a",
        "summary.json": "dc48c470e5608bcac38098ee98ea100680c9b46beb501c6ec512dead1b1b510e",
    },
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_shipped_config_writes_the_recorded_bytes(tmp_path, name):
    out = tmp_path / name
    assert cli_main(["run", "--config", str(CONFIGS / f"{name}.json"), "--out", str(out), "--quiet"]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert written == DIGESTS[name]
