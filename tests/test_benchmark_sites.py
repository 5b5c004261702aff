"""The benchmark (perfbench/) traces the simulator by wrapping public
functions at the modules that call them.  A refactor that moves or renames
one of them makes ``perfbench/run.py --trace 1`` fail; this test fails first."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_benchmark_wrap_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers.py imports its sibling spans.py
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.missing_sites() == []
