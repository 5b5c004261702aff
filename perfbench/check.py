"""The output check behind ``jobs_failed``.

A (variant, seed) job passes when its rows in the variant's metrics CSV are
complete and well formed, and, where a reference was recorded for the
benchmark seed, its final round matches that reference:

* ``mse`` and ``accuracy_proxy`` within ``RTOL`` relative (plus ``ATOL``
  absolute, for values near zero).  Byte equality is not required, so a
  kernel that is equivalent but sums in another order still passes;
* ``uploads_cumulative`` exactly, since it counts discrete decisions.

The CSV is parsed here rather than by the package, so the check does not
trust the code it checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

COLUMNS = [
    "variant", "seed", "round", "mse", "accuracy_proxy",
    "uploads_cumulative", "p", "bound_theorem1", "bound_corollary1",
]

# About 4.5e6 ulp at double precision.  Reassociating the arithmetic of
# both SGD kernels moved final-round figures of every workload by at most
# 8e-14 relative (seeds 0-2), so an equivalent kernel passes with room to
# spare; a different algorithm or solver tolerance does not.
RTOL = 1e-9
ATOL = 1e-15

# Variants under which every selected device uploads in every round.
UNGATED = ("fedavg", "safl")


@dataclass(frozen=True)
class Expect:
    """What one run of a workload must produce."""

    variants: tuple[str, ...]
    seeds: tuple[int, ...]
    rounds: int
    selected: int
    # {variant: {str(seed): {"mse", "accuracy_proxy", "uploads_cumulative"}}}
    reference: dict | None = None

    @property
    def jobs(self) -> list[tuple[str, int]]:
        return [(v, s) for v in self.variants for s in self.seeds]


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= RTOL * abs(ref) + ATOL


def _finite(text: str, what: str, problems: list[str]) -> float | None:
    try:
        value = float(text)
    except ValueError:
        problems.append(f"{what} is not a number: {text!r}")
        return None
    if not math.isfinite(value):
        problems.append(f"{what} is not finite: {text!r}")
        return None
    return value


def _check_job(variant: str, seed: int, rows: list[dict], expect: Expect) -> list[str]:
    problems: list[str] = []
    rounds = [r["round"] for r in rows]
    if rounds != [str(t) for t in range(1, expect.rounds + 1)]:
        problems.append(f"expected rounds 1..{expect.rounds}, got {len(rows)} rows")
    previous = 0
    for r in rows:
        where = f"round {r['round']}"
        mse = _finite(r["mse"], f"{where} mse", problems)
        acc = _finite(r["accuracy_proxy"], f"{where} accuracy_proxy", problems)
        if mse is not None and mse < 0:
            problems.append(f"{where} mse is negative")
        if acc is not None and not 0.0 <= acc <= 1.0:
            problems.append(f"{where} accuracy_proxy outside [0, 1]")
        try:
            uploads = int(r["uploads_cumulative"])
        except ValueError:
            problems.append(f"{where} uploads_cumulative is not an integer")
            continue
        step = uploads - previous
        previous = uploads
        if variant in UNGATED and step != expect.selected:
            problems.append(f"{where} uploads grew by {step}, not {expect.selected}")
        elif not 0 <= step <= expect.selected:
            problems.append(f"{where} uploads grew by {step}")
        if variant == "fedavg":
            if r["p"]:
                problems.append(f"{where} p is set for fedavg")
        else:
            p = _finite(r["p"], f"{where} p", problems)
            if p is not None and not 0.0 < p <= 1.0:
                problems.append(f"{where} p outside (0, 1]")
        for col in ("bound_theorem1", "bound_corollary1"):
            if r[col]:
                _finite(r[col], f"{where} {col}", problems)
    if problems or expect.reference is None:
        return problems
    ref = expect.reference.get(variant, {}).get(str(seed))
    if ref is None:
        return [f"no reference for seed {seed}"]
    final = rows[-1]
    for key in ("mse", "accuracy_proxy"):
        if not close(float(final[key]), ref[key]):
            problems.append(f"final {key} {final[key]} differs from reference {ref[key]!r}")
    if int(final["uploads_cumulative"]) != ref["uploads_cumulative"]:
        problems.append(f"final uploads_cumulative {final['uploads_cumulative']} != reference {ref['uploads_cumulative']}")
    return problems


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != COLUMNS:
            raise ValueError(f"{path.name}: unexpected header {reader.fieldnames}")
        rows = list(reader)
    if any(None in r or None in r.values() for r in rows):
        raise ValueError(f"{path.name}: a row has the wrong number of fields")
    return rows


def check_run(out_dir, expect: Expect) -> dict[tuple[str, int], list[str]]:
    """Problems found per job; a job with an empty list passed.

    A problem with a whole file counts against every job it should hold;
    rows of an unexpected job count as a failed job of their own, and rows
    in another variant's file count against the job they name.
    """
    out = Path(out_dir)
    problems: dict[tuple[str, int], list[str]] = {job: [] for job in expect.jobs}
    try:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        missing = [v for v in expect.variants if v not in summary.get("variants", {})]
        if missing:
            raise ValueError(f"summary.json lacks variant {missing[0]}")
    except (OSError, ValueError) as err:
        for job in expect.jobs:
            problems[job].append(f"summary: {err}")
    for variant in expect.variants:
        try:
            rows = read_rows(out / f"{variant}.csv")
        except (OSError, ValueError) as err:
            for seed in expect.seeds:
                problems[(variant, seed)].append(str(err))
            continue
        by_seed: dict[tuple[str, int], list[dict]] = {}
        for r in rows:
            try:
                key = (r["variant"], int(r["seed"]))
            except ValueError:
                key = (r["variant"], -1)
            if r["variant"] != variant:
                # a row in another variant's file is wrong even if its job is expected
                problems.setdefault(key, []).append(f"row of {key} in {variant}.csv")
                continue
            by_seed.setdefault(key, []).append(r)
        for key in by_seed.keys() - problems.keys():
            problems[key] = [f"unexpected rows for {key}"]
        for seed in expect.seeds:
            problems[(variant, seed)] += _check_job(variant, seed, by_seed.get((variant, seed), []), expect)
    return problems


def finals(out_dir, expect: Expect) -> dict:
    """Final-round figures per variant and seed, in the reference's layout."""
    out = Path(out_dir)
    recorded: dict = {}
    for variant in expect.variants:
        last: dict[str, dict] = {}
        for r in read_rows(out / f"{variant}.csv"):
            last[r["seed"]] = r
        recorded[variant] = {
            seed: {
                "mse": float(r["mse"]),
                "accuracy_proxy": float(r["accuracy_proxy"]),
                "uploads_cumulative": int(r["uploads_cumulative"]),
            }
            for seed, r in last.items()
        }
    return recorded


def digest(out_dir, variants) -> str:
    """sha256 over the metrics CSVs of ``variants``, in order."""
    h = hashlib.sha256()
    for variant in variants:
        path = Path(out_dir) / f"{variant}.csv"
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()
