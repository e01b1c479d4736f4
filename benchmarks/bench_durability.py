"""Kill-and-reboot durability soak for the binary store's persistence plane.

The acceptance harness for the crash-consistency contract ("an append
that returned is never lost"): a child process serves a synthetic tenant
with ``--persist``-style wiring -- committing deterministic deltas
through :meth:`repro.io.store.BinaryKBStore.sync` with threshold roll-up
armed -- and acknowledges each commit (append + fsync to an ack file)
only after ``sync`` returns.  The parent kills the child over and over::

    PYTHONPATH=src python benchmarks/bench_durability.py          # full soak (24 cycles)
    PYTHONPATH=src python benchmarks/bench_durability.py --quick  # CI smoke (6 cycles)
    PYTHONPATH=src python benchmarks/bench_durability.py -o out.json

Two kinds of kill, interleaved:

* **injected crashes** -- the child swaps :data:`repro.io.store.hooks`
  for a set that ``os._exit(137)``\\ s immediately before or after a
  chosen syscall (``write``/``fsync``/``replace``/``truncate``) while a
  chosen store phase (``append`` or ``rollup``) is active, so kills land
  deterministically *inside* the append fsync window, mid-roll-up between
  the atomic base replace and the log truncation, and at every other
  durable-mutation boundary;
* **SIGKILL under load** -- the parent waits for a batch of fresh acks
  and kills the child wherever it happens to be.

After every kill the parent reboots the store (timed: open + load +
materialise the head snapshot), and asserts

* **zero loss**: every acknowledged commit id is in the recovered chain;
* **bounded log**: ``commits.rpl`` holds at most ``rollup_records``
  records after recovery -- the roll-up threshold really bounds it;
* **bit-identical recommendations**: an uncrashed control chain, built
  by replaying the same deterministic deltas in memory, produces
  byte-identical recommendation packages to the recovered chain.

The results merge into the report as a ``"durability"`` section
(``bench_report.py``), which ``check_regression.py`` gates::

    "durability": {
      "meta": {...thresholds, quick...},
      "recovery": {"mean_s": ..., "max_s": ...},
      ...
      "invariants": {"zero_loss": true, "log_bounded": true,
                     "responses_bit_identical": true},
      "numbers": {"cycles": 24, "worst_recovery_s": ...}
    }
"""

from __future__ import annotations

import argparse
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro._version import __version__
from repro.io.storage import package_to_dict
from repro.io.store import BinaryKBStore
from repro.kb.terms import IRI
from repro.kb.triples import Triple
from repro.recommender.engine import EngineConfig, RecommenderEngine
from repro.synthetic.world import generate_world

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_report import merge_section  # noqa: E402

WORLD_SEED = 1717

#: Injected crash points: (phase, syscall site, before/after the call).
_APPEND_SITES = ("write", "fsync")
_ROLLUP_SITES = ("write", "fsync", "replace", "truncate")
FULL_CRASHES = [
    f"{phase}:{site}:{mode}"
    for phase, sites in (("append", _APPEND_SITES), ("rollup", _ROLLUP_SITES))
    for site in sites
    for mode in ("before", "after")
]
QUICK_CRASHES = [
    "append:write:before",
    "append:fsync:after",
    "rollup:replace:before",
    "rollup:truncate:before",
]


def _delta_for(index: int) -> Tuple[List[Triple], List[Triple]]:
    """Commit ``index``'s deterministic delta (same in child and control)."""
    p = IRI("http://bench/p")
    added = [
        Triple(IRI(f"http://bench/item{index}"), p, IRI(f"http://bench/o{index % 5}")),
        Triple(IRI(f"http://bench/s{index % 7}"), IRI("http://bench/q"),
               IRI(f"http://bench/v{index}")),
    ]
    deleted = []
    if index % 4 == 3:
        # Re-delete something committed two steps earlier: exercises the
        # deleted-keys half of every commit record without ever deleting
        # a triple twice.
        deleted = [
            Triple(IRI(f"http://bench/item{index - 2}"), p,
                   IRI(f"http://bench/o{(index - 2) % 5}"))
        ]
    return added, deleted


def _vid(index: int) -> str:
    return f"c{index:05d}"


def _read_acks(path: Path) -> List[str]:
    """Complete (newline-terminated) ack lines; a torn last line is ignored."""
    if not path.exists():
        return []
    lines = path.read_bytes().split(b"\n")
    return [line.decode("ascii") for line in lines[:-1] if line]


# -- child: commit under load, crash on cue ----------------------------------------


def _install_crash(spec: str) -> None:
    """Swap the store's syscall hooks for a set that dies at ``spec``.

    ``spec`` is ``phase:site:mode`` -- die immediately ``before`` or
    ``after`` the first ``site`` syscall issued while the store is inside
    ``phase`` (``append`` or ``rollup``).  ``os._exit(137)`` models a
    SIGKILL: no unwinding, no flushing, no rewind path runs.
    """
    from repro.io import store as store_module

    phase, site, mode = spec.split(":")
    box = {"phase": None}

    def traced(method_name: str, phase_name: str):
        original = getattr(BinaryKBStore, method_name)

        def wrapper(self, *args, **kwargs):
            box["phase"] = phase_name
            try:
                return original(self, *args, **kwargs)
            finally:
                box["phase"] = None

        setattr(BinaryKBStore, method_name, wrapper)

    traced("append_commit", "append")
    traced("rollup", "rollup")
    base = store_module.hooks

    class _KillerHooks:
        def _fire(self, at_site: str, when: str) -> None:
            if box["phase"] == phase and at_site == site and when == mode:
                os._exit(137)

        def write(self, handle, data):
            self._fire("write", "before")
            result = base.write(handle, data)
            self._fire("write", "after")
            return result

        def fsync(self, fd):
            self._fire("fsync", "before")
            base.fsync(fd)
            self._fire("fsync", "after")

        def replace(self, src, dst):
            self._fire("replace", "before")
            base.replace(src, dst)
            self._fire("replace", "after")

        def truncate(self, handle, size):
            self._fire("truncate", "before")
            base.truncate(handle, size)
            self._fire("truncate", "after")

    store_module.hooks = _KillerHooks()


def run_child(args: argparse.Namespace) -> int:
    """Commit deterministic deltas until killed (exit 3 = crash never fired)."""
    if args.crash:
        _install_crash(args.crash)
    store = BinaryKBStore.open(
        args.dir,
        rollup_bytes=args.rollup_bytes,
        rollup_records=args.rollup_records or None,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        kb = store.load()
    start = len(kb) - args.initial
    with open(args.ack, "ab") as ack:
        for index in range(start, start + args.max_commits):
            added, deleted = _delta_for(index)
            kb.commit_changes(added=added, deleted=deleted, version_id=_vid(index))
            store.sync(kb)
            # The acknowledgement: durable only after sync returned, so
            # every acked id is covered by the zero-loss guarantee.
            ack.write(f"{_vid(index)}\n".encode("ascii"))
            ack.flush()
            os.fsync(ack.fileno())
    store.close()
    return 3 if args.crash else 0


# -- parent: kill, reboot, verify --------------------------------------------------


def _spawn_child(
    script: Path,
    store_dir: Path,
    ack_path: Path,
    initial: int,
    rollup_records: int,
    max_commits: int,
    crash: Optional[str],
) -> subprocess.Popen:
    command = [
        sys.executable, str(script), "--child",
        "--dir", str(store_dir),
        "--ack", str(ack_path),
        "--initial", str(initial),
        "--rollup-records", str(rollup_records),
        "--max-commits", str(max_commits),
    ]
    if crash:
        command += ["--crash", crash]
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(command, env=env)


def _wait_for_acks(ack_path: Path, target: int, timeout_s: float = 120.0) -> None:
    deadline = time.monotonic() + timeout_s
    while len(_read_acks(ack_path)) < target:
        if time.monotonic() > deadline:
            raise SystemExit(
                f"soak child produced {len(_read_acks(ack_path))} acks, "
                f"expected {target} within {timeout_s}s"
            )
        time.sleep(0.01)


def _recommendation(kb, user) -> Dict:
    engine = RecommenderEngine(kb, config=EngineConfig(k=5, spread_depth=1))
    return package_to_dict(engine.recommend(user))


def run(output: Path, quick: bool = False, work_dir: Optional[Path] = None) -> Dict:
    """Run the soak; merge and return the ``durability`` section."""
    import tempfile

    crashes = QUICK_CRASHES if quick else FULL_CRASHES
    sigkills = 2 if quick else len(crashes)
    rollup_records = 4 if quick else 6  # the roll-up threshold, in log records
    commits_per_kill = max(rollup_records + 2, 6)
    # Interleave: crash, kill, crash, kill, ... so injected crashes land
    # on stores in every post-kill state, not only on fresh ones.
    plan: List[Optional[str]] = []
    kills_left = sigkills
    for crash in crashes:
        plan.append(crash)
        if kills_left:
            plan.append(None)
            kills_left -= 1
    plan.extend([None] * kills_left)

    with tempfile.TemporaryDirectory(prefix="bench_durability_") as tmp:
        base_dir = Path(work_dir) if work_dir is not None else Path(tmp)
        base_dir.mkdir(parents=True, exist_ok=True)
        store_dir = base_dir / "kb"
        ack_path = base_dir / "acks.txt"
        if ack_path.exists():  # a reused --work-dir must not leak old acks
            ack_path.unlink()
        world = generate_world(
            seed=WORLD_SEED, n_classes=20 if quick else 40, n_versions=3, n_users=2
        )
        initial = len(world.kb)
        BinaryKBStore.save(world.kb, store_dir)
        control = generate_world(
            seed=WORLD_SEED, n_classes=20 if quick else 40, n_versions=3, n_users=2
        ).kb
        control_extras = 0
        user = world.users[0]

        zero_loss = True
        log_bounded = True
        bit_identical = True
        recoveries: List[float] = []
        rollups_observed = 0
        script = Path(__file__).resolve()

        for cycle, crash in enumerate(plan):
            base_stat = (store_dir / "kb.rpw").stat()
            acks_before = len(_read_acks(ack_path))
            child = _spawn_child(
                script, store_dir, ack_path, initial, rollup_records,
                max_commits=500 if crash else 100_000, crash=crash,
            )
            if crash is None:
                _wait_for_acks(ack_path, acks_before + commits_per_kill)
                child.send_signal(signal.SIGKILL)
            child.wait(timeout=120)
            if crash and child.returncode != 137:
                raise SystemExit(
                    f"cycle {cycle}: injected crash {crash!r} never fired "
                    f"(child exited {child.returncode})"
                )

            began = time.perf_counter()
            store = BinaryKBStore.open(store_dir, rollup_records=rollup_records)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                kb = store.load()
            kb.latest().graph  # materialise the head snapshot
            recoveries.append(time.perf_counter() - began)

            acked = _read_acks(ack_path)
            recovered = set(kb.version_ids())
            if not all(vid in recovered for vid in acked):
                zero_loss = False
                lost = [vid for vid in acked if vid not in recovered]
                print(f"cycle {cycle}: LOST acknowledged commits {lost}")
            records, _size = store.log_stats()
            if records > rollup_records:
                log_bounded = False
                print(f"cycle {cycle}: log holds {records} records "
                      f"(threshold {rollup_records})")
            new_stat = (store_dir / "kb.rpw").stat()
            if (new_stat.st_mtime_ns, new_stat.st_size) != (
                base_stat.st_mtime_ns, base_stat.st_size
            ):
                rollups_observed += 1

            extras = len(kb) - initial
            for index in range(control_extras, extras):
                added, deleted = _delta_for(index)
                control.commit_changes(
                    added=added, deleted=deleted, version_id=_vid(index)
                )
            control_extras = extras
            if kb.version_ids() != control.version_ids() or (
                _recommendation(kb, user) != _recommendation(control, user)
            ):
                bit_identical = False
                print(f"cycle {cycle}: recovered chain diverged from control")
            store.close()
            kind = f"crash {crash}" if crash else "SIGKILL under load"
            print(
                f"cycle {cycle + 1:2d}/{len(plan)}: {kind:28s} "
                f"recovered {len(kb)} versions ({records} log records) "
                f"in {recoveries[-1] * 1e3:.1f} ms"
            )

        acked = _read_acks(ack_path)
        final_versions = extras + initial

    section = {
        "meta": {
            "version": __version__,
            "python": platform.python_version(),
            "quick": quick,
            "world_seed": WORLD_SEED,
            "initial_versions": initial,
            "rollup_records": rollup_records,
            "commits_per_kill_cycle": commits_per_kill,
            "cpu_count": os.cpu_count(),
        },
        "injected_crashes": len(crashes),
        "sigkill_cycles": sigkills,
        "acked_commits": len(acked),
        "recovered_versions": final_versions,
        "rollups_observed": rollups_observed,
        "recovery": {"mean_s": statistics.mean(recoveries), "max_s": max(recoveries)},
        "invariants": {
            "zero_loss": zero_loss,
            "log_bounded": log_bounded,
            "responses_bit_identical": bit_identical,
        },
        "numbers": {"cycles": len(plan), "worst_recovery_s": max(recoveries)},
    }
    merge_section(output, "durability", section)
    print(
        f"durability soak: {len(plan)} kill/reboot cycles, "
        f"{len(acked)} acked commits, {rollups_observed} roll-ups observed, "
        f"worst recovery {max(recoveries) * 1e3:.1f} ms"
    )
    return section


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "-o", "--output", type=Path, default=Path("BENCH_substrate.json"),
        help="report to merge the section into (default: BENCH_substrate.json)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: 6 cycles on a shrunk world instead of 24",
    )
    parser.add_argument(
        "--work-dir", type=Path, default=None,
        help="run the soak in this directory instead of a fresh tmpdir",
    )
    # Internal: the kill target re-invokes this script with --child.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rollup-records", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--dir", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--ack", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--initial", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--rollup-bytes", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--max-commits", type=int, default=500, help=argparse.SUPPRESS)
    parser.add_argument("--crash", default=None, help=argparse.SUPPRESS)
    return parser


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.child:
        return run_child(args)
    section = run(args.output, quick=args.quick, work_dir=args.work_dir)
    return 0 if all(section["invariants"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
