"""Command-line front end.

``kernelbench run <config>`` executes a declarative experiment config and
writes CSVs, SVG plots, and a manifest into the output directory.
``kernelbench verify`` runs the acceptance criteria at desk scale and exits
nonzero if any criterion fails (skipped criteria do not fail the run).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .acceptance import DEFAULT_SEED, SUITES, run_acceptance
from .config import apply_overrides, load_config
from .errors import KernelBenchError
from .runner import run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelbench",
        description="Graph measure families: clustering benchmarks and tournaments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config", help="path to a YAML-syntax .cfg experiment file")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument("--workers", type=int, help="worker processes (0 = serial)")
    run_p.add_argument("--out", help="override the output directory")
    run_p.add_argument("--grid", type=int, help="override the parameter grid size")
    run_p.add_argument("--graphs", type=int, help="override graphs per task")

    verify_p = sub.add_parser("verify", help="run the acceptance criteria")
    verify_p.add_argument(
        "--only", action="append", metavar="SUITE",
        help=f"criterion (A1..A7) or suite {sorted(SUITES)}; repeatable",
    )
    verify_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify_p.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config)
            cfg = apply_overrides(cfg, seed=args.seed, workers=args.workers,
                                  out=args.out, grid=args.grid, graphs=args.graphs)
            out = run(cfg)
            print(f"run complete: {out}")
            return 0
        results = run_acceptance(only=args.only, seed=args.seed, workers=args.workers, log=print)
        failed = [r for r in results if r.passed is False]
        return 1 if failed else 0
    except KernelBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
