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
        "fedavg.csv": "aa0705eb40a873b421a3afb27efbd3bc12968670d2a426876d593cf994c94b37",
        "safl.csv": "2069644368d780b3445506ca113fe97015ab8d0c49120920c4647d278f51eae0",
        "safl_extended.csv": "32a88cd33352a74924ccbbe182dcbd58aad0a908fe9d33e3d25a9897e712879a",
        "summary.json": "d22cbc2bb90f44bb7eb0ed52300de609e65cf62c0680ab85246124c91c2a3296",
    },
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_shipped_config_writes_the_recorded_bytes(tmp_path, name):
    out = tmp_path / name
    assert cli_main(["run", "--config", str(CONFIGS / f"{name}.json"), "--out", str(out), "--quiet"]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert written == DIGESTS[name]
