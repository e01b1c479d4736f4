"""Benchmark regression gate: one rule over every section of two reports.

Every bench writer (``run_bench.py``, ``bench_service.py``,
``bench_durability.py``, ``bench_autoscale.py``) merges its sections
into one report, all in the shape ``bench_report.py`` describes: ``meta``,
the raw numbers, ``invariants`` (booleans that must be true) and
``numbers`` (values that carry a bound).  The gate reads the committed
baseline and one fresh report::

    PYTHONPATH=src python benchmarks/check_regression.py                 # runs every writer's --quick first
    PYTHONPATH=src python benchmarks/check_regression.py --fresh q.json  # gate an existing fresh report

For every section of the baseline and of the fresh report:

* every invariant is true: those :data:`INVARIANTS` requires and any
  other the section records.  A missing one counts as false;
* every :data:`BOUNDS` row of the section finds its number, and when the
  row's conditions hold (a full run, more than one core, or none), the
  number is within the row's limit.  A row whose conditions do not hold
  passes, with a note saying why: one core cannot speed reads up, and the
  shrunk quick world's costs are mostly fixed;
* a section of the baseline missing from the fresh report fails.

Between the two reports, every :data:`TOLERANCES` entry of the baseline
must be in the fresh report, at most :data:`TOLERANCE` times the
committed value, unless both sides sit under the noise floor, where the
timer dominates.  The fresh report is a ``--quick`` run on a shrunk
world, so healthy fresh timings sit far below the committed full-run
ones: the tolerance trips only on order-of-magnitude breakage (a scan
gone quadratic, a dropped index, a convoyed lock), not on percentages.
Fresh-only entries pass; they have no baseline yet.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_substrate.json"

#: Allowed fresh / committed ratio of every tolerance entry.
TOLERANCE = 2.0
#: Pairs with both sides under this are timer noise, not signal.
NOISE_FLOOR_MS = 0.5

#: (section, raw group, metric, noise floor in the metric's own unit).
TOLERANCES = (
    ("substrate", "benchmarks", "mean_s", NOISE_FLOOR_MS / 1e3),
    ("service", "levels", "p50_ms", NOISE_FLOOR_MS),
    ("service", "levels", "p99_ms", NOISE_FLOOR_MS),
)

#: A row's condition: (what it needs, whether a section's meta has it).
Condition = Tuple[str, Callable[[Dict], bool]]
FULL_RUN: Condition = ("a full run", lambda meta: not meta.get("quick"))
MULTI_CORE: Condition = ("more than one core", lambda meta: (meta.get("cpu_count") or 0) > 1)

OPERATORS: Dict[str, Callable[[float, float], bool]] = {
    ">=": operator.ge,
    "<=": operator.le,
    "==": operator.eq,
}


@dataclass(frozen=True)
class Bound:
    """One row of the bound table: ``numbers[number] <op> limit`` when every ``when`` holds."""

    section: str
    number: str
    op: str
    limit: float
    when: Tuple[Condition, ...] = ()


BOUNDS = (
    # The binary store's reason to exist.  Far below the committed full-run
    # ratio (about 5x): the quick world's fixed boot costs dilute it.
    Bound("substrate", "cold_boot_speedup", ">=", 1.3),
    # At the top client level.  Replicas scale reads across cores; a quick
    # run's tiny world does not amortise the extra processes (0.79x on a
    # 2-core VM), so only full runs are held to the floor.
    Bound("service_replicated", "top_speedup", ">=", 1.5, (FULL_RUN, MULTI_CORE)),
    # With N idle keep-alive connections the front-end runs the threads it
    # ran at N/2: an idle connection costs a coroutine, never a thread.
    Bound("service_http", "idle_connections", ">=", 240),
    # The minimum across levels.  A hit is a dict lookup and a miss a full
    # engine evaluation, so the floor catches a cache that stopped caching.
    Bound("service_cached", "min_speedup", ">=", 2.0),
    # An order-of-magnitude backstop: a rolled-up store reboots in well
    # under a second.
    Bound("durability", "worst_recovery_s", "<=", 10.0),
    # The committed full soak must not quietly shrink.
    Bound("durability", "cycles", ">=", 20, (FULL_RUN,)),
    Bound("autoscale", "lost_requests", "==", 0),
    Bound("autoscale", "shm_leaked", "==", 0),
    # The churn actually happened.
    Bound("autoscale", "replicas_added", ">=", 1),
    Bound("autoscale", "replicas_killed", ">=", 1),
    Bound("autoscale", "replicas_respawned", ">=", 1),
    Bound("autoscale", "replicas_retired", ">=", 1),
    # Warm-seeded / cold first request; the quick world's is all fixed cost.
    Bound("autoscale", "warm_start_ratio", "<=", 0.5, (FULL_RUN,)),
    # Worst churn-phase hot-tenant p99 / the pre-join baseline's.
    Bound("autoscale", "hot_p99_ratio", "<=", 1.5, (MULTI_CORE,)),
)

#: The invariants each section must record.
INVARIANTS: Dict[str, Tuple[str, ...]] = {
    "service_http": ("responses_bit_identical", "idle_reference_is_half", "idle_threads_flat"),
    "service_cached": ("responses_bit_identical", "engine_free"),
    "service_sharded": ("responses_bit_identical",),
    "service_replicated": ("responses_bit_identical",),
    "durability": ("zero_loss", "log_bounded", "responses_bit_identical"),
    "autoscale": ("responses_bit_identical", "artefacts_bit_identical"),
}

#: The writers whose --quick runs make the fresh report when none is given.
WRITERS = ("run_bench.py", "bench_service.py", "bench_durability.py", "bench_autoscale.py")


@dataclass(frozen=True)
class Verdict:
    """One check's outcome."""

    name: str
    ok: bool
    note: str = ""


def check_section(label: str, name: str, section: Dict) -> List[Verdict]:
    """The invariants and bound rows of one section of one report."""
    verdicts: List[Verdict] = []
    recorded = section.get("invariants", {})
    required = INVARIANTS.get(name, ())
    for invariant in required + tuple(sorted(set(recorded) - set(required))):
        held = recorded.get(invariant)
        verdicts.append(
            Verdict(f"{label}.{name}.{invariant}", held is True,
                    "" if held is True else f"recorded {held!r}")
        )
    meta, numbers = section.get("meta", {}), section.get("numbers", {})
    for row in BOUNDS:
        if row.section != name:
            continue
        label_name = f"{label}.{name}.{row.number}"
        value = numbers.get(row.number)
        claim = f"{row.op} {row.limit:g}"
        unmet = [needs for needs, holds in row.when if not holds(meta)]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            verdicts.append(Verdict(label_name, False, f"missing (needs {claim})"))
        elif unmet:
            verdicts.append(
                Verdict(label_name, True,
                        f"{value:.4g}, not checked: {claim} needs {' and '.join(unmet)} "
                        f"(quick={meta.get('quick')}, cpu_count={meta.get('cpu_count')})")
            )
        else:
            ok = OPERATORS[row.op](value, row.limit)
            verdicts.append(Verdict(label_name, ok, f"{value:.4g} {'' if ok else 'not '}{claim}"))
    return verdicts


def compare(baseline: Dict, fresh: Dict) -> List[Verdict]:
    """Missing sections, and the tolerance rule over every :data:`TOLERANCES` entry."""
    verdicts = [
        Verdict(f"fresh.{name}", False, "section missing from the fresh report")
        for name in sorted(baseline)
        if name not in fresh
    ]
    for section, group, metric, floor in TOLERANCES:
        if section not in baseline or section not in fresh:
            continue
        base_group = baseline[section].get(group, {})
        fresh_group = fresh[section].get(group, {})
        for entry in sorted(set(base_group) | set(fresh_group)):
            name = f"{section}.{entry}.{metric}"
            base = base_group.get(entry, {}).get(metric)
            new = fresh_group.get(entry, {}).get(metric)
            if new is None:
                verdicts.append(Verdict(name, False, "missing from the fresh report"))
            elif base is None or base <= 0:
                verdicts.append(Verdict(name, True, f"{new:.4g}, no baseline (new)"))
            else:
                ratio = new / base
                values = f"{base:.4g} -> {new:.4g} ({ratio:.2f}x)"
                if base < floor and new < floor:
                    verdicts.append(Verdict(name, True, f"{values}, below noise floor"))
                else:
                    ok = ratio <= TOLERANCE
                    verdicts.append(Verdict(
                        name, ok, values + ("" if ok else f", exceeds {TOLERANCE:.2f}x")
                    ))
    return verdicts


def gate(baseline: Dict, fresh: Dict) -> List[Verdict]:
    """Every verdict of the rule over both reports."""
    verdicts: List[Verdict] = []
    for label, report in (("baseline", baseline), ("fresh", fresh)):
        for name in sorted(report):
            verdicts.extend(check_section(label, name, report[name]))
    return verdicts + compare(baseline, fresh)


def render(verdicts: List[Verdict]) -> str:
    width = max([len(v.name) for v in verdicts] + [10])
    return "\n".join(
        f"{v.name:{width}s}  {'ok' if v.ok else 'FAIL':4s}  {v.note}" for v in verdicts
    )


def run_quick(output: Path) -> List[Verdict]:
    """Merge every writer's ``--quick`` sections into ``output``; a verdict per writer.

    A writer that fails still leaves the others to run: the sections it
    did not write then fail the rule as missing.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    verdicts = []
    for writer in WRITERS:
        code = subprocess.run(
            [sys.executable, str(REPO_ROOT / "benchmarks" / writer), "--quick", "-o", str(output)],
            env=env,
        ).returncode
        verdicts.append(Verdict(f"run.{writer}", code == 0, f"exit status {code}"))
    return verdicts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help="committed report to compare against (default: BENCH_substrate.json)",
    )
    parser.add_argument(
        "--fresh", type=Path, default=None,
        help="fresh report to check; omitted = run every writer's --quick into a "
             "temporary report first",
    )
    return parser


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    baseline = json.loads(args.baseline.read_text())
    verdicts: List[Verdict] = []
    if args.fresh is not None:
        fresh = json.loads(args.fresh.read_text())
    else:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fresh_quick.json"
            verdicts = run_quick(path)
            fresh = json.loads(path.read_text()) if path.exists() else {}
    verdicts += gate(baseline, fresh)
    print(render(verdicts))
    failures = [v.name for v in verdicts if not v.ok]
    if failures:
        print(f"FAIL: {len(failures)} check(s) failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("benchmark regression gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
