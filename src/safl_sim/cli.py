"""Command-line front end: run experiment files, compare metrics files.

Exit codes for ``run``: 0 success, 1 configuration error (the message names
the offending key), 2 runtime divergence, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import ExperimentConfigError, compare, execute, load_experiment
from .simulation import DivergenceError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safl-sim",
        description="Deterministic federated-learning simulator over convex tasks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment file")
    run_p.add_argument("--config", required=True, help="path to the experiment JSON document")
    run_p.add_argument("--out", required=True, help="output directory for metrics CSVs and summary.json")
    run_p.add_argument("--seed-override", type=int, default=None, help="run a single seed instead of the file's list")
    run_p.add_argument("--variants", default=None, help="comma-separated subset of the file's variants")
    run_p.add_argument("--quiet", action="store_true", help="suppress the per-variant summary lines")

    cmp_p = sub.add_parser("compare", help="tabulate two or more metrics CSVs")
    cmp_p.add_argument("paths", nargs="+", help="metrics CSV files (>= 2)")
    cmp_p.add_argument("--mse-threshold", type=float, default=None, help="also report rounds-to-threshold statistics")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            variants = None if args.variants is None else [v.strip() for v in args.variants.split(",") if v.strip()]
            spec = load_experiment(args.config, variants=variants, seed_override=args.seed_override)
            execute(spec, args.out, quiet=args.quiet)
        except ExperimentConfigError as err:
            print(f"config error: {err}", file=sys.stderr)
            return 1
        except DivergenceError as err:
            print(f"runtime divergence: {err}", file=sys.stderr)
            return 2
        except OSError as err:
            print(f"i/o error: {err}", file=sys.stderr)
            return 3
        return 0

    # compare
    try:
        compare(args.paths, mse_threshold=args.mse_threshold)
    except (ValueError, OSError) as err:
        print(f"compare error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
