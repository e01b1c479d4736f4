"""Benchmark regression gate: fail CI when a hot path gets drastically slower.

Compares a *fresh* benchmark report against the committed
``BENCH_substrate.json`` baseline, benchmark by benchmark, and exits
non-zero when any fresh mean exceeds ``tolerance x`` its baseline mean.
When given a fresh *serving* report (``--fresh-service``, the output of
``bench_service.py``), the same scheme additionally gates the committed
``service`` section's per-level p50/p99 latencies::

    PYTHONPATH=src python benchmarks/check_regression.py                  # runs --quick itself
    PYTHONPATH=src python benchmarks/check_regression.py --fresh q.json   # reuse a report
    PYTHONPATH=src python benchmarks/check_regression.py --tolerance 3.0
    PYTHONPATH=src python benchmarks/check_regression.py \\
        --fresh q.json --fresh-service service_q.json                     # + service gate

Design notes, so the gate stays honest:

* The fresh report is a ``--quick`` run (shrunk world, CI-speed); the
  committed baseline is a full run on a larger world.  Quick means are
  therefore *far below* baseline means on a healthy checkout, and the gate
  only trips on order-of-magnitude breakage -- an accidentally quadratic
  scan, a dropped index, a cache that stopped caching.  It is a smoke
  gate, deliberately noise-tolerant (default tolerance 2.0x on top of the
  workload headroom), not a microbenchmark diff; refresh the committed
  numbers with ``run_bench.py`` when chasing real percentages.
* A benchmark present in the baseline but missing from the fresh report
  fails the gate: silently losing a benchmark is how harnesses rot.
  Fresh-only benchmarks are reported but pass (they have no baseline yet).
* Benchmarks whose baseline *and* fresh means are both under the noise
  floor (default 0.5 ms) always pass: at that scale the timer and the
  interpreter dominate and ratios are meaningless.  A real regression (an
  index lost, a scan gone quadratic) pushes the fresh mean above the floor
  and the ratio check takes over.
* The cold-boot gate is *cross-benchmark*: the fresh report's
  ``cold_boot_binary`` mean must beat ``cold_boot_nt`` by at least
  ``--cold-boot-min-ratio`` (a deliberately low floor for the shrunk
  --quick world; the committed full-run report carries the real >=5x).
  It guards the binary store's reason to exist, not a percentage.
* The replicated gate (``service_replicated`` sections, committed baseline
  and ``--fresh-replicated`` alike) always requires the recorded
  ``responses_bit_identical`` flag -- replication must never change
  values -- but enforces the replicated/owner-only speedup floor only
  when the run recorded ``cpu_count > 1``: read replicas scale across
  cores, so a 1-core box records its honest flat number and is not
  failed for physics.
* The HTTP front-end gate (the committed ``service_http`` section, and
  a fresh one through :func:`check_async` directly) is all invariants:
  the asyncio front-end must have answered byte-identically to a serial
  replay of the bench's deterministic mixed read/commit stream, and its
  thread count must not have grown between N/2 and N (>= 240) idle
  keep-alive connections -- an implementation property that holds on
  any hardware.
* The cache gate (``service_cached`` sections, committed baseline and
  ``--fresh-cache`` alike) is all invariants: cached responses must have
  been recorded byte-identical to uncached ones over the bench's
  deterministic read schedule, the warm hammer's miss counter must not
  have grown (misses count exactly the engine-filling computations, so
  equal before/after counters prove hits never invoke the engine), and
  the minimum cached/uncached speedup across levels must clear a
  deliberately low floor (default 2x; the real ratio is two orders of
  magnitude).  None of it is a hardware number.
* The durability gate (``durability`` sections, committed baseline and
  ``--fresh-durability`` alike) is all invariants, no ratios: the
  kill-and-reboot soak must have recorded zero loss of acknowledged
  commits, a commit log bounded by its roll-up threshold, bit-identical
  recovered recommendations, a worst recovery under its recorded budget,
  and (for the committed full soak) at least 20 kill/reboot cycles.
  Hardware speed never enters it -- a crash-consistency bug is a bug on
  any box.
* The autoscale gate (``autoscale`` sections, committed baseline and
  ``--fresh-autoscale`` alike) holds the elastic-replica soak to its
  contract: bit-identical responses through every join/kill/respawn/
  retire, bit-identical decoded artefact frames, zero lost requests,
  zero leaked shared-memory segments, and churn that actually happened
  (at least one join, kill, respawn and retire recorded).  Two ratios
  ride conditions: the warm/cold first-request ratio must stay at/under
  0.5 on full (non-``quick``) runs -- the shrunk quick world's first
  request is dominated by fixed costs the handoff cannot remove -- and
  the hot-tenant churn p99 must stay within its recorded budget of the
  pre-join baseline when the run recorded ``cpu_count > 1``.
* The service gate applies the identical tolerance / noise-floor scheme to
  the p50 and p99 of every committed concurrency level (entries named
  ``service.clients_N.p50_ms``).  The fresh serving run is a ``--quick``
  one on a shrunk world, so -- as with the substrate means -- healthy
  fresh latencies sit far below the committed full-run numbers and only
  order-of-magnitude breakage (a lost cache, serialized scoring, a
  convoyed lock) trips it.  A concurrency level present in the committed
  baseline but missing from the fresh run fails, exactly like a missing
  benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

DEFAULT_TOLERANCE = 2.0
#: Means below this (baseline and fresh alike) are timer noise, not signal.
DEFAULT_NOISE_FLOOR_S = 5e-4
REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_substrate.json"


@dataclass(frozen=True)
class Verdict:
    """One benchmark's comparison outcome."""

    name: str
    baseline_mean_s: float | None
    fresh_mean_s: float | None
    ratio: float | None
    ok: bool
    note: str = ""


def compare_reports(
    baseline: Dict,
    fresh: Dict,
    tolerance: float = DEFAULT_TOLERANCE,
    noise_floor_s: float = DEFAULT_NOISE_FLOOR_S,
) -> List[Verdict]:
    """Per-benchmark verdicts of ``fresh`` vs ``baseline`` (see module doc).

    ``baseline`` / ``fresh`` are report dicts in the ``run_bench.py`` layout
    (only their ``"benchmarks"`` sections are read).  ``tolerance`` is the
    allowed ``fresh_mean / baseline_mean`` ratio; pairs entirely below
    ``noise_floor_s`` pass regardless of ratio.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    if noise_floor_s < 0:
        raise ValueError(f"noise_floor_s must be >= 0, got {noise_floor_s}")
    baseline_benchmarks = baseline.get("benchmarks", {})
    fresh_benchmarks = fresh.get("benchmarks", {})
    verdicts: List[Verdict] = []
    for name in sorted(set(baseline_benchmarks) | set(fresh_benchmarks)):
        base_mean = baseline_benchmarks.get(name, {}).get("mean_s")
        fresh_mean = fresh_benchmarks.get(name, {}).get("mean_s")
        if fresh_mean is None:
            verdicts.append(
                Verdict(name, base_mean, None, None, ok=False, note="missing from fresh run")
            )
        elif base_mean is None or base_mean <= 0:
            verdicts.append(
                Verdict(name, None, fresh_mean, None, ok=True, note="no baseline (new)")
            )
        else:
            ratio = fresh_mean / base_mean
            if base_mean < noise_floor_s and fresh_mean < noise_floor_s:
                verdicts.append(
                    Verdict(
                        name, base_mean, fresh_mean, ratio,
                        ok=True, note="below noise floor",
                    )
                )
            else:
                verdicts.append(
                    Verdict(
                        name,
                        base_mean,
                        fresh_mean,
                        ratio,
                        ok=ratio <= tolerance,
                        note="" if ratio <= tolerance else f"exceeds {tolerance:.2f}x",
                    )
                )
    return verdicts


#: Which per-level latency metrics of the service section the gate reads.
SERVICE_METRICS = ("p50_ms", "p99_ms")


def compare_service_sections(
    baseline: Dict,
    fresh: Dict,
    tolerance: float = DEFAULT_TOLERANCE,
    noise_floor_s: float = DEFAULT_NOISE_FLOOR_S,
    section: str = "service",
) -> List[Verdict]:
    """Per-level p50/p99 verdicts of a fresh serving report vs the baseline.

    ``baseline`` / ``fresh`` are full report dicts; only their
    ``section`` -> ``"levels"`` trees are read (the layout
    ``bench_service.py`` merges into the substrate report).  Reuses the
    mean-comparison semantics of :func:`compare_reports` by mapping each
    ``(level, metric)`` pair to a pseudo-benchmark named
    ``service.<level>.<metric>`` with its latency as the mean.
    """
    def as_benchmarks(report: Dict) -> Dict:
        levels = report.get(section, {}).get("levels", {})
        benchmarks: Dict[str, Dict] = {}
        for level_name, metrics in levels.items():
            for metric in SERVICE_METRICS:
                value_ms = metrics.get(metric)
                if value_ms is None:
                    continue
                benchmarks[f"{section}.{level_name}.{metric}"] = {
                    "mean_s": value_ms / 1e3
                }
        return benchmarks

    return compare_reports(
        {"benchmarks": as_benchmarks(baseline)},
        {"benchmarks": as_benchmarks(fresh)},
        tolerance=tolerance,
        noise_floor_s=noise_floor_s,
    )


#: Minimum fresh cold_boot_nt / cold_boot_binary mean ratio.  A --quick CI
#: run boots a shrunk world where fixed costs (users file, engine setup,
#: first evaluation) dilute the store's advantage, so the floor is far
#: below the committed full-run ratio (>=5x); it exists to catch the
#: binary path losing its reason to exist (e.g. lazy decode silently
#: rematerialising everything), not to re-prove the headline number.
DEFAULT_COLD_BOOT_MIN_RATIO = 1.3


def check_cold_boot(fresh: Dict, min_ratio: float = DEFAULT_COLD_BOOT_MIN_RATIO) -> List[Verdict]:
    """Cross-benchmark gate: the binary-store boot must beat the ``.nt`` boot.

    Reads the fresh report's ``cold_boot_nt`` / ``cold_boot_binary`` means
    and fails unless ``nt >= min_ratio x binary``.  Both absent -> no
    verdict (old reports); exactly one absent -> fail (a harness that
    lost half the comparison proves nothing).
    """
    if min_ratio <= 0:
        raise ValueError(f"min_ratio must be > 0, got {min_ratio}")
    benchmarks = fresh.get("benchmarks", {})
    nt = benchmarks.get("cold_boot_nt", {}).get("mean_s")
    binary = benchmarks.get("cold_boot_binary", {}).get("mean_s")
    if nt is None and binary is None:
        return []
    if nt is None or binary is None or binary <= 0:
        return [
            Verdict(
                "cold_boot_speedup", nt, binary, None, ok=False,
                note="one cold_boot side missing from the fresh run",
            )
        ]
    ratio = nt / binary
    return [
        Verdict(
            "cold_boot_speedup",
            nt,
            binary,
            ratio,
            ok=ratio >= min_ratio,
            note=(
                f"binary {ratio:.2f}x faster than .nt"
                if ratio >= min_ratio
                else f"binary only {ratio:.2f}x faster than .nt (floor {min_ratio:.2f}x)"
            ),
        )
    ]


#: Minimum replicated/owner-only throughput speedup at the highest recorded
#: concurrency level -- only enforced when the run's recorded cpu_count is
#: > 1: replicas scale reads across *cores*, so a 1-core box (this repo's
#: committed baseline included) records its honest flat number and the
#: gate checks only the invariants that hold everywhere.
DEFAULT_REPLICATED_MIN_SPEEDUP = 1.5


def check_replicated(
    report: Dict,
    min_speedup: float = DEFAULT_REPLICATED_MIN_SPEEDUP,
    label: str = "service_replicated",
) -> List[Verdict]:
    """Gate a report's ``service_replicated`` section (absent -> no verdicts).

    Two checks, mirroring what the section claims:

    * ``responses_bit_identical`` must be ``True`` -- replication is a pure
      cost optimisation, and a report that stopped asserting that (or
      recorded a divergence) proves the topology wrong, on any hardware;
    * on a multi-core box (recorded ``meta.cpu_count > 1``) the replicated
      topology must beat owner-only by ``min_speedup`` at the highest
      recorded concurrency level.  One core cannot speed anything up, so
      those runs record honestly and skip the floor.
    """
    if min_speedup <= 0:
        raise ValueError(f"min_speedup must be > 0, got {min_speedup}")
    section = report.get("service_replicated")
    if section is None:
        return []
    verdicts: List[Verdict] = []
    if section.get("responses_bit_identical") is not True:
        verdicts.append(
            Verdict(
                f"{label}.bit_identical", None, None, None, ok=False,
                note="replicated responses not recorded as bit-identical",
            )
        )
    else:
        verdicts.append(
            Verdict(
                f"{label}.bit_identical", None, None, None, ok=True,
                note="replicated == single-process",
            )
        )
    speedup = section.get("speedup", {})
    cpu_count = section.get("meta", {}).get("cpu_count")
    if not speedup:
        verdicts.append(
            Verdict(
                f"{label}.speedup", None, None, None, ok=False,
                note="section carries no speedup levels",
            )
        )
        return verdicts
    top_level = max(speedup, key=lambda key: int(key.rsplit("_", 1)[1]))
    ratio = speedup[top_level]
    if cpu_count is None or cpu_count <= 1:
        verdicts.append(
            Verdict(
                f"{label}.speedup.{top_level}", None, None, ratio, ok=True,
                note=f"{ratio:.2f}x recorded on cpu_count={cpu_count} (floor "
                     "needs > 1 core)",
            )
        )
    else:
        verdicts.append(
            Verdict(
                f"{label}.speedup.{top_level}", None, None, ratio,
                ok=ratio >= min_speedup,
                note=(
                    f"{ratio:.2f}x on {cpu_count} cores"
                    if ratio >= min_speedup
                    else f"{ratio:.2f}x on {cpu_count} cores "
                         f"(floor {min_speedup:.2f}x)"
                ),
            )
        )
    return verdicts


#: Fewest idle keep-alive connections (N) the ``service_http`` idle block
#: may have opened for its thread-count invariant to count.
HTTP_MIN_IDLE_CONNECTIONS = 240


def check_async(report: Dict, label: str = "service_http") -> List[Verdict]:
    """Gate the asyncio front-end's ``service_http`` section (absent -> no verdicts).

    Two invariants, neither of them a hardware number:

    * ``responses_bit_identical`` must be ``True`` -- the bench captures a
      deterministic concurrent mixed read/commit stream through the
      front-end and compares every response byte with a serial replay on
      an identically generated twin service;
    * idle connections cost no threads: with ``connections`` (N, at least
      :data:`HTTP_MIN_IDLE_CONNECTIONS`) established, served, idle
      keep-alive connections the server runs exactly as many threads as
      it did with ``connections_half`` (N/2; any other reference count
      fails, since N against N would pass vacuously).
    """
    section = report.get("service_http")
    if section is None:
        return []
    verdicts: List[Verdict] = []
    identical = section.get("responses_bit_identical") is True
    verdicts.append(
        Verdict(
            f"{label}.bit_identical", None, None, None, ok=identical,
            note=(
                "front-end == serial replay over a mixed read/commit stream"
                if identical
                else "front-end responses not recorded as bit-identical"
            ),
        )
    )
    idle = section.get("idle_keepalive") or {}
    counts = [
        idle.get(key)
        for key in ("connections_half", "threads_half", "connections", "threads")
    ]
    if any(count is None for count in counts):
        verdicts.append(
            Verdict(
                f"{label}.idle_threads", None, None, None, ok=False,
                note="section carries no idle_keepalive thread counts",
            )
        )
        return verdicts
    half, threads_half, connections, threads = counts
    if connections < HTTP_MIN_IDLE_CONNECTIONS:
        ok, note = False, (
            f"only {connections} idle connections "
            f"(floor {HTTP_MIN_IDLE_CONNECTIONS})"
        )
    elif half != connections // 2:
        ok, note = False, f"reference count {half} is not N/2 of {connections}"
    elif threads != threads_half:
        ok, note = False, (
            f"{threads} threads at {connections} idle connections vs "
            f"{threads_half} at {half}"
        )
    else:
        ok, note = True, (
            f"{threads} threads at both {half} and {connections} idle connections"
        )
    verdicts.append(
        Verdict(f"{label}.idle_threads", None, None, None, ok=ok, note=note)
    )
    return verdicts


#: Minimum cached/uncached warm-read throughput speedup (the *minimum*
#: across recorded concurrency levels).  Deliberately far under the real
#: number (a hit is a lock + dict lookup; a miss is a full engine
#: evaluation, hundreds of times slower): the floor exists to catch the
#: cache silently not caching, not to re-prove the headline ratio.
DEFAULT_CACHE_MIN_SPEEDUP = 2.0


def check_cache(
    report: Dict,
    min_speedup: float = DEFAULT_CACHE_MIN_SPEEDUP,
    label: str = "service_cached",
) -> List[Verdict]:
    """Gate a report's ``service_cached`` section (absent -> no verdicts).

    Three checks, mirroring what the response cache promises:

    * ``responses_bit_identical`` must be ``True`` -- the bench replays
      the same deterministic read schedule cached and uncached and
      compares raw bodies; memoisation may only ever change the *cost*
      of a response, never its bytes, on any hardware;
    * the hit path must be **engine-free**: the bench fills every key
      untimed, then hammers warm reads with the tenant's miss counter
      snapshotted around the timed run.  Misses count exactly the
      engine-filling computations (singleflight construction), so equal
      before/after counters prove no timed request invoked the engine --
      a hardware-independent invariant;
    * the recorded warm-read ``speedup`` (minimum across concurrency
      levels) must be at least ``min_speedup``.
    """
    if min_speedup <= 0:
        raise ValueError(f"min_speedup must be > 0, got {min_speedup}")
    section = report.get("service_cached")
    if section is None:
        return []
    verdicts: List[Verdict] = []
    identical = section.get("responses_bit_identical") is True
    verdicts.append(
        Verdict(
            f"{label}.bit_identical", None, None, None, ok=identical,
            note=(
                "cached == uncached over the deterministic read schedule"
                if identical
                else "cached responses not recorded as bit-identical"
            ),
        )
    )
    hit_path = section.get("hit_path", {})
    before, after = hit_path.get("misses_before"), hit_path.get("misses_after")
    if before is None or after is None:
        verdicts.append(
            Verdict(
                f"{label}.engine_free", None, None, None, ok=False,
                note="section carries no hit_path miss counters",
            )
        )
    else:
        engine_free = after == before and hit_path.get("engine_free") is True
        verdicts.append(
            Verdict(
                f"{label}.engine_free", None, None, None, ok=engine_free,
                note=(
                    f"{hit_path.get('requests')} warm reads, 0 engine "
                    "invocations"
                    if engine_free
                    else f"warm hammer grew the miss counter {before} -> "
                         f"{after} (hits invoked the engine)"
                ),
            )
        )
    ratio = section.get("speedup")
    if ratio is None:
        verdicts.append(
            Verdict(
                f"{label}.speedup", None, None, None, ok=False,
                note="section carries no speedup",
            )
        )
    else:
        verdicts.append(
            Verdict(
                f"{label}.speedup", None, None, ratio,
                ok=ratio >= min_speedup,
                note=(
                    f"warm reads {ratio:.1f}x uncached (min across levels)"
                    if ratio >= min_speedup
                    else f"warm reads only {ratio:.2f}x uncached "
                         f"(floor {min_speedup:.2f}x)"
                ),
            )
        )
    return verdicts


def check_durability(report: Dict, label: str = "durability") -> List[Verdict]:
    """Gate a report's ``durability`` section (absent -> no verdicts).

    The section is the output of ``bench_durability.py`` -- a
    kill-and-reboot soak over the binary store's persistence plane.  The
    gate holds it to exactly what the store promises:

    * ``zero_loss`` -- no acknowledged commit was ever missing after a
      reboot ("an append that returned is never lost");
    * ``log_bounded`` -- ``commits.rpl`` never exceeded the roll-up
      threshold after recovery (the threshold really bounds it);
    * ``responses_bit_identical`` -- the recovered chain recommended
      byte-identically to an uncrashed control;
    * ``recovery.max_s <= recovery.budget_s`` -- the worst reboot stayed
      inside its recorded budget (roll-up's reason to exist);
    * at least 20 kill/reboot cycles, unless the run recorded
      ``meta.quick`` (the CI smoke runs fewer; the committed full soak
      must not quietly shrink).
    """
    section = report.get("durability")
    if section is None:
        return []
    verdicts: List[Verdict] = []
    for flag, claim in (
        ("zero_loss", "no acknowledged commit lost"),
        ("log_bounded", "commit log stayed under the roll-up threshold"),
        ("responses_bit_identical", "recovered == uncrashed control"),
    ):
        held = section.get(flag) is True
        verdicts.append(
            Verdict(
                f"{label}.{flag}", None, None, None, ok=held,
                note=claim if held else f"soak recorded {flag}={section.get(flag)!r}",
            )
        )
    recovery = section.get("recovery", {})
    max_s, budget_s = recovery.get("max_s"), recovery.get("budget_s")
    if max_s is None or budget_s is None:
        verdicts.append(
            Verdict(
                f"{label}.recovery", None, None, None, ok=False,
                note="section carries no recovery max_s/budget_s",
            )
        )
    else:
        verdicts.append(
            Verdict(
                f"{label}.recovery", budget_s, max_s,
                max_s / budget_s if budget_s else None,
                ok=max_s <= budget_s,
                note=(
                    f"worst reboot {max_s * 1e3:.1f} ms within budget"
                    if max_s <= budget_s
                    else f"worst reboot {max_s * 1e3:.1f} ms over "
                         f"{budget_s * 1e3:.0f} ms budget"
                ),
            )
        )
    cycles = section.get("cycles", 0)
    quick = bool(section.get("meta", {}).get("quick"))
    enough = quick or cycles >= 20
    verdicts.append(
        Verdict(
            f"{label}.cycles", None, None, None, ok=enough,
            note=(
                f"{cycles} kill/reboot cycles"
                + ("" if not quick else " (quick)")
                if enough
                else f"full soak shrank to {cycles} cycles (need >= 20)"
            ),
        )
    )
    return verdicts


#: Warm-seeded first request must cost at most this fraction of a cold one
#: (enforced on full runs only; the quick world's first request is all
#: fixed overhead).
DEFAULT_AUTOSCALE_WARM_RATIO = 0.5


def check_autoscale(
    report: Dict,
    warm_ratio: float = DEFAULT_AUTOSCALE_WARM_RATIO,
    label: str = "autoscale",
) -> List[Verdict]:
    """Gate a report's ``autoscale`` section (absent -> no verdicts).

    The section is the output of ``bench_autoscale.py`` -- the elastic
    hot-tenant replica soak.  Invariants (any hardware): bit-identical
    responses and artefacts, zero lost requests, zero leaked segments,
    and real churn (>= 1 join / kill / respawn / retire).  Conditional
    ratios: warm/cold first request at/under ``warm_ratio`` on full runs,
    hot-tenant churn p99 within its recorded budget when ``cpu_count > 1``.
    """
    if not 0 < warm_ratio:
        raise ValueError(f"warm_ratio must be > 0, got {warm_ratio}")
    section = report.get("autoscale")
    if section is None:
        return []
    verdicts: List[Verdict] = []
    for flag, claim in (
        ("responses_bit_identical", "churned responses == single-process replay"),
        ("artefacts_bit_identical", "decoded artefacts == cold recompute"),
    ):
        held = section.get(flag) is True
        verdicts.append(
            Verdict(
                f"{label}.{flag}", None, None, None, ok=held,
                note=claim if held else f"soak recorded {flag}={section.get(flag)!r}",
            )
        )
    for counter, claim in (
        ("lost_requests", "no request lost across the churn"),
        ("shm_leaked", "no shared-memory segment left behind"),
    ):
        value = section.get(counter)
        held = value == 0
        verdicts.append(
            Verdict(
                f"{label}.{counter}", None, None, None, ok=held,
                note=claim if held else f"soak recorded {counter}={value!r}",
            )
        )
    events = section.get("replica_events") or {}
    missing = [
        kind
        for kind in ("added", "killed", "respawned", "retired")
        if not events.get(kind)
    ]
    verdicts.append(
        Verdict(
            f"{label}.churn", None, None, None, ok=not missing,
            note=(
                "replicas joined, died, respawned and retired mid-stream"
                if not missing
                else f"soak never recorded: {', '.join(missing)}"
            ),
        )
    )
    quick = bool(section.get("meta", {}).get("quick"))
    warm = section.get("warm_start") or {}
    ratio = warm.get("ratio")
    if ratio is None:
        verdicts.append(
            Verdict(
                f"{label}.warm_start", None, None, None, ok=False,
                note="section carries no warm/cold first-request ratio",
            )
        )
    elif quick:
        verdicts.append(
            Verdict(
                f"{label}.warm_start", None, None, ratio, ok=True,
                note=f"{ratio:.2f}x recorded on a quick world (floor needs "
                     "the full first-request cost)",
            )
        )
    else:
        verdicts.append(
            Verdict(
                f"{label}.warm_start", None, None, ratio, ok=ratio <= warm_ratio,
                note=(
                    f"warm first request {ratio:.2f}x of cold "
                    f"(<= {warm_ratio:.2f}x)"
                    if ratio <= warm_ratio
                    else f"warm first request {ratio:.2f}x of cold exceeds "
                         f"{warm_ratio:.2f}x"
                ),
            )
        )
    hot = section.get("hot_p99") or {}
    p99_ratio = hot.get("ratio")
    budget = hot.get("budget_ratio")
    cpu_count = section.get("meta", {}).get("cpu_count")
    if p99_ratio is None or budget is None:
        verdicts.append(
            Verdict(
                f"{label}.hot_p99", None, None, None, ok=False,
                note="section carries no hot-tenant p99 ratio/budget",
            )
        )
    elif cpu_count is None or cpu_count <= 1:
        verdicts.append(
            Verdict(
                f"{label}.hot_p99", None, None, p99_ratio, ok=True,
                note=f"{p99_ratio:.2f}x recorded on cpu_count={cpu_count} "
                     "(budget needs > 1 core)",
            )
        )
    else:
        verdicts.append(
            Verdict(
                f"{label}.hot_p99", None, None, p99_ratio,
                ok=p99_ratio <= budget,
                note=(
                    f"worst churn p99 {p99_ratio:.2f}x of baseline "
                    f"(<= {budget:.2f}x)"
                    if p99_ratio <= budget
                    else f"worst churn p99 {p99_ratio:.2f}x of baseline over "
                         f"{budget:.2f}x budget"
                ),
            )
        )
    return verdicts


def render(verdicts: List[Verdict], tolerance: float) -> str:
    """A fixed-width comparison table."""
    lines = [
        f"{'benchmark':32s} {'baseline':>12s} {'fresh':>12s} {'ratio':>8s}  verdict",
    ]
    for verdict in verdicts:
        base = f"{verdict.baseline_mean_s * 1e3:9.3f} ms" if verdict.baseline_mean_s else "-"
        fresh = f"{verdict.fresh_mean_s * 1e3:9.3f} ms" if verdict.fresh_mean_s else "-"
        ratio = f"{verdict.ratio:7.2f}x" if verdict.ratio is not None else "-"
        status = "ok" if verdict.ok else "REGRESSION"
        note = f" ({verdict.note})" if verdict.note else ""
        lines.append(
            f"{verdict.name:32s} {base:>12s} {fresh:>12s} {ratio:>8s}  {status}{note}"
        )
    lines.append(f"tolerance: {tolerance:.2f}x on per-benchmark mean")
    return "\n".join(lines)


def _run_quick(output: Path) -> Dict:
    """Produce a fresh ``--quick`` report by importing run_bench in-process."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "run_bench", Path(__file__).resolve().parent / "run_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module.run(output, quick=True)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help="committed report to compare against (default: BENCH_substrate.json)",
    )
    parser.add_argument(
        "--fresh", type=Path, default=None,
        help="fresh report to check; omitted = run run_bench --quick now",
    )
    parser.add_argument(
        "--fresh-service", type=Path, default=None,
        help="fresh serving report (bench_service.py output); when given, the "
             "baseline's 'service' p50/p99 levels are gated too",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help=f"allowed fresh/baseline mean ratio (default: {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--noise-floor-ms", type=float, default=DEFAULT_NOISE_FLOOR_S * 1e3,
        help="means below this (both sides) always pass "
             f"(default: {DEFAULT_NOISE_FLOOR_S * 1e3} ms)",
    )
    parser.add_argument(
        "--cold-boot-min-ratio", type=float, default=DEFAULT_COLD_BOOT_MIN_RATIO,
        help="minimum fresh cold_boot_nt/cold_boot_binary ratio "
             f"(default: {DEFAULT_COLD_BOOT_MIN_RATIO})",
    )
    parser.add_argument(
        "--fresh-replicated", type=Path, default=None,
        help="fresh replicated serving report (bench_service.py --replicas "
             "output); its service_replicated section is gated like the "
             "baseline's",
    )
    parser.add_argument(
        "--fresh-cache", type=Path, default=None,
        help="fresh cache serving report (bench_service.py --cache output); "
             "its service_cached section is gated like the baseline's "
             "(bit-identical bodies, engine-free hit path, speedup floor)",
    )
    parser.add_argument(
        "--cache-min-speedup", type=float, default=DEFAULT_CACHE_MIN_SPEEDUP,
        help="minimum cached/uncached warm-read speedup, minimum across "
             f"levels (default: {DEFAULT_CACHE_MIN_SPEEDUP})",
    )
    parser.add_argument(
        "--fresh-durability", type=Path, default=None,
        help="fresh durability soak report (bench_durability.py output); its "
             "durability section is gated like the baseline's (zero-loss, "
             "bounded log, bit-identical recovery, recovery-time budget)",
    )
    parser.add_argument(
        "--fresh-autoscale", type=Path, default=None,
        help="fresh autoscale soak report (bench_autoscale.py output); its "
             "autoscale section is gated like the baseline's (bit-identical "
             "responses/artefacts through churn, zero loss, zero leaks, warm "
             "handoff and hot-p99 budgets where the run qualifies)",
    )
    parser.add_argument(
        "--replicated-min-speedup", type=float,
        default=DEFAULT_REPLICATED_MIN_SPEEDUP,
        help="minimum replicated/owner-only speedup at the top concurrency "
             "level, enforced only when the run recorded cpu_count > 1 "
             f"(default: {DEFAULT_REPLICATED_MIN_SPEEDUP})",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    if args.fresh is not None:
        fresh = json.loads(args.fresh.read_text())
    else:
        with tempfile.TemporaryDirectory() as tmp:
            fresh = _run_quick(Path(tmp) / "fresh_quick.json")

    verdicts = compare_reports(
        baseline,
        fresh,
        tolerance=args.tolerance,
        noise_floor_s=args.noise_floor_ms / 1e3,
    )
    verdicts.extend(check_cold_boot(fresh, min_ratio=args.cold_boot_min_ratio))
    if args.fresh_service is not None:
        verdicts.extend(
            compare_service_sections(
                baseline,
                json.loads(args.fresh_service.read_text()),
                tolerance=args.tolerance,
                noise_floor_s=args.noise_floor_ms / 1e3,
            )
        )
    verdicts.extend(
        check_replicated(baseline, min_speedup=args.replicated_min_speedup)
    )
    verdicts.extend(check_async(baseline))
    verdicts.extend(check_cache(baseline, min_speedup=args.cache_min_speedup))
    if args.fresh_cache is not None:
        verdicts.extend(
            check_cache(
                json.loads(args.fresh_cache.read_text()),
                min_speedup=args.cache_min_speedup,
                label="fresh.service_cached",
            )
        )
    verdicts.extend(check_durability(baseline))
    if args.fresh_durability is not None:
        verdicts.extend(
            check_durability(
                json.loads(args.fresh_durability.read_text()),
                label="fresh.durability",
            )
        )
    verdicts.extend(check_autoscale(baseline))
    if args.fresh_autoscale is not None:
        verdicts.extend(
            check_autoscale(
                json.loads(args.fresh_autoscale.read_text()),
                label="fresh.autoscale",
            )
        )
    if args.fresh_replicated is not None:
        verdicts.extend(
            check_replicated(
                json.loads(args.fresh_replicated.read_text()),
                min_speedup=args.replicated_min_speedup,
                label="fresh.service_replicated",
            )
        )
    print(render(verdicts, args.tolerance))
    failures = [v for v in verdicts if not v.ok]
    if failures:
        print(
            f"FAIL: {len(failures)} benchmark(s) regressed beyond "
            f"{args.tolerance:.2f}x: {', '.join(v.name for v in failures)}",
            file=sys.stderr,
        )
        return 1
    print("benchmark regression gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
