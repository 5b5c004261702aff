"""Record the final-round figures that the output check compares against.

    python3 perfbench/record_reference.py --seeds 0-19

Runs each workload once per benchmark seed with one worker, checks the
output's structure, and writes perfbench/reference.json.  Re-record only when
a change is meant to alter the simulator's output, and say so in the change.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys

from check import finals
from run import HERE, ROOT, Bench, benchmark_spec, stamp


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="benchmark seeds, as 'a-b' or 'a'")
    args = parser.parse_args(argv)

    recorded: dict = {}
    work = ROOT / ".perfbench_work" / "record"
    try:
        for name in (w["name"] for w in benchmark_spec()["workloads"]):
            for seed in args.seeds:
                work.mkdir(parents=True, exist_ok=True)
                bench = Bench(name, seed, work)
                bench.expect = dataclasses.replace(bench.expect, reference=None)
                bench.run_pass(1, f"{name} seed {seed}")
                if bench.problems:
                    print("\n".join(bench.problems), file=sys.stderr)
                    return 1
                recorded.setdefault(name, {})[str(seed)] = finals(work / "out", bench.expect)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = {"recorded_with": stamp(), "workloads": recorded}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
