"""CLI: run the derived experiment suite and print every table.

Usage::

    python -m repro.eval            # run everything at full scale
    python -m repro.eval e4 e7      # run selected experiments
    python -m repro.eval --scale 0.3 e1
"""

from __future__ import annotations

import argparse
import sys

from repro.eval.harness import EXPERIMENT_IDS, run_experiment


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Run the derived experiment suite (one table or figure each).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help=f"experiment ids to run (default: all of {', '.join(EXPERIMENT_IDS)})",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale factor (default 1.0)",
    )
    args = parser.parse_args(argv)

    ids = args.experiments or list(EXPERIMENT_IDS)
    unknown = [eid for eid in ids if eid not in EXPERIMENT_IDS]
    if unknown:
        parser.error(f"unknown experiment id(s): {', '.join(unknown)}")

    all_passed = True
    for eid in ids:
        result = run_experiment(eid, scale=args.scale)
        print(result.render())
        print()
        all_passed &= result.passed()
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
