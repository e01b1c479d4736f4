"""Serving benchmark: ``repro serve`` end to end, with a traced per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload warm_miss --seed 1 --seconds 15 --trace 0

Each run generates its inputs from ``--seed``, boots ``python -m repro
serve`` as a separate process (several times, for ``setup_s``), warms it
untimed, then drives it for ``--seconds`` over two keep-alive connections
and checks every answer against a serial in-process replay.  ``--trace 1``
adds a second, traced run through ``perfbench/launcher.py`` and reports
the per-layer metrics instead of the end-to-end ones.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import List

WORKLOADS = ("warm_miss", "hot_reads", "evolve")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="serving benchmark for repro serve")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so the servers are stopped and the
    # work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import run_benchmark  # needs both paths above

    # Inputs, the store the server loads and the span file live here, inside
    # the checkout, and go when the run ends.
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        result = run_benchmark(
            root, work, args.workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
