"""A frozen numerical anchor: every metrics column of both shipped configs
and of every ``test_path_digests`` document, per document, variant, seed and
round, held to the values in ``anchor.json``.

The digest tests pin bytes, so a change that moves rounding re-records
them, and after each re-record they compare only against the change before.
The anchor bounds the sum of such moves.  Integer columns (``seed``,
``round``, ``uploads_cumulative``) must match exactly, an empty field must
stay empty, and a float column must stay within ``RTOL`` relative of its
anchored value.  ``RTOL`` is 1e-11, fixed before any later drift was seen:
about 70 times the largest relative drift of the shipped configs' ``mse``
measured across the earlier changes of rounding (1.45e-13).

Policy.  A value that moves past ``RTOL`` is a change of results, not of
rounding.  The change that makes it re-records the anchor on purpose
(``python tests/test_anchor.py`` writes it from the current package) and
lists the old and new values in ``CHANGES.md``, as a digest re-record does.

The outputs are those the digest tests read (the ``document_outputs``
fixture): no document runs twice.
"""

from __future__ import annotations

import csv
import json
import math
import tempfile
from pathlib import Path

import pytest
from conftest import run_document
from test_path_digests import DOCS

ANCHOR = Path(__file__).resolve().with_name("anchor.json")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RTOL = 1e-11

INT_COLUMNS = ("seed", "round", "uploads_cumulative")
FLOAT_COLUMNS = ("mse", "accuracy_proxy", "p", "bound_theorem1", "bound_corollary1")

# every anchored document by name: the shipped configs and the digest documents
DOCUMENTS = {"demo": CONFIGS / "demo.json", "biased_devices": CONFIGS / "biased_devices.json", **DOCS}


def read_columns(path: Path) -> dict[str, list]:
    """The numeric columns of a metrics CSV, parsed here rather than by the
    package: integers as ints, floats as floats, an empty field as None."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    columns = {name: [int(row[name]) for row in rows] for name in INT_COLUMNS}
    columns.update({name: [float(row[name]) if row[name] else None for row in rows] for name in FLOAT_COLUMNS})
    return columns


def columns_of(name: str, out: Path) -> dict[str, list]:
    """Every numeric column of the metrics CSVs in ``out``, keyed
    ``document/variant/column``."""
    return {
        f"{name}/{path.stem}/{column}": values
        for path in sorted(out.glob("*.csv"))
        for column, values in read_columns(path).items()
    }


def drift(key: str, anchored: list, values: list) -> list[str]:
    """Where one column leaves the anchor, as ``key[row]: old -> new``."""
    if len(values) != len(anchored):
        return [f"{key}: {len(anchored)} rows -> {len(values)}"]
    exact = key.rsplit("/", 1)[1] in INT_COLUMNS
    problems = []
    for row, (old, new) in enumerate(zip(anchored, values)):
        if exact or old is None or new is None:
            moved = old != new
        else:
            moved = not math.isclose(new, old, rel_tol=RTOL, abs_tol=0.0)
        if moved:
            problems.append(f"{key}[{row}]: {old!r} -> {new!r}")
    return problems


@pytest.fixture(scope="module")
def anchor() -> dict[str, list]:
    return json.loads(ANCHOR.read_text(encoding="utf-8"))


def test_the_anchor_covers_every_document(anchor):
    assert {key.split("/")[0] for key in anchor} == set(DOCUMENTS)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_outputs_stay_within_the_anchor(document_outputs, anchor, name):
    got = columns_of(name, document_outputs(name, DOCUMENTS[name]))
    want = {key: values for key, values in anchor.items() if key.split("/")[0] == name}
    assert sorted(got) == sorted(want)
    problems = [problem for key in want for problem in drift(key, want[key], got[key])]
    assert not problems, f"{len(problems)} values moved past {RTOL:g}, first: {problems[:5]}"


def record() -> None:
    """Run every document with the current package and write ``anchor.json``,
    one line per column, so that a re-record's diff shows the columns that moved."""
    with tempfile.TemporaryDirectory() as work:
        columns = {}
        for name in sorted(DOCUMENTS):
            columns.update(columns_of(name, run_document(Path(work), name, DOCUMENTS[name])))
    lines = [f"{json.dumps(key)}: {json.dumps(values)}" for key, values in columns.items()]
    ANCHOR.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    record()
