"""The three workloads, their metrics and the readable report.

``warm_miss``  response cache off; two connections rotate through the 64
               users on the warmed head pair, so every read runs the whole
               per-user engine path.
``hot_reads``  cache on with every key filled; two connections draw Zipf
               users, half the requests revalidate with ``If-None-Match``.
``evolve``     cache on; one connection commits the delta stream and reads
               the new head after each commit, the other reads Zipf users.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from inputs import (
    Delta,
    Reference,
    World,
    coin_table,
    delta_stream,
    rotation,
    write_world,
    zipf_table,
)
from loadgen import Connection, Phase, Tally, commit_loop, post, read_loop, recommend_request
from server import Server
from spans import TraceReport

from repro.service.respcache import make_etag
from repro.util.rng import derive_seed

#: Response-cache entries for the cached workloads: above the 64-key population.
CACHE_ENTRIES = 256
#: Boots per run; ``setup_s`` is their median.
BOOTS = 5
#: Commits in the ``evolve`` stream.  The phase is this fixed work (capped
#: at ``--seconds``): each commit grows the KB, so a time-boxed phase would
#: hand a faster server bigger versions to serve and hide its gain.
STREAM_COMMITS = 40
CALIBRATION_N = 1_500_000

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "server_peak_rss_mb": "MB",
}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: how fast this host runs right now."""
    begin = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_N):
        total += i * i % 7
    return time.perf_counter() - begin


def percentile_ms(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of latencies in seconds, in milliseconds."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(fraction * (len(ordered) - 1))))
    return ordered[rank] * 1e3


@dataclass
class Drive:
    """One server's timed phase."""

    tally: Tally
    warm: Tally
    wall: float
    cpu: float
    window: Tuple[float, float]
    stats_before: Dict
    stats_after: Dict
    rss_mb: float


def _warm(connection: Connection, world: World, expected: Dict[str, bytes],
          tally: Tally) -> Dict[int, bytes]:
    """Read every user once on the head pair (untimed); returns their ETags."""
    etags = {}
    for index, user_id in enumerate(world.user_ids):
        tally.attempted += 1
        status, etag, body = connection.exchange(recommend_request(world.tenant, user_id))
        if status != 200 or body != expected[user_id]:
            tally.fail(f"warm-up read of {user_id}: status {status} or body differs")
        elif etag.decode("ascii") != make_etag(body):
            tally.fail(f"warm-up read of {user_id}: ETag {etag!r} is not the body's")
        etags[index] = etag
    return etags


def drive(server: Server, workload: str, world: World, expected: Dict[str, bytes],
          stream: Sequence[Delta], seconds: float, seed: int) -> Drive:
    """Warm the server untimed, then run the workload's timed phase."""
    tenant, users = world.tenant, world.user_ids
    first, second = Connection(server.host, server.port), Connection(server.host, server.port)
    warm = Tally()
    etags = _warm(first, world, expected, warm)
    _warm(second, world, expected, warm)
    plain = [recommend_request(tenant, user_id) for user_id in users]
    phase = Phase(seconds)
    if workload == "warm_miss":
        for n, connection in enumerate((first, second)):
            order = rotation(seed, f"warm_miss/{n}", len(users))
            phase.add(connection, read_loop(
                [(i, plain[i], 200, expected[users[i]]) for i in order]))
    elif workload == "hot_reads":
        conditional = [recommend_request(tenant, u, etags[i]) for i, u in enumerate(users)]
        for n, connection in enumerate((first, second)):
            label = f"hot_reads/{n}"
            plan = [
                (i, conditional[i], 304, etags[i]) if revalidate
                else (i, plain[i], 200, expected[users[i]])
                for i, revalidate in zip(
                    zipf_table(seed, label, len(users)), coin_table(seed, label + "/etag")
                )
            ]
            phase.add(connection, read_loop(plan))
    else:
        rng = random.Random(derive_seed(seed, "evolve/fresh"))
        commits, fresh = [], []
        old = world.head_pair[1]
        for delta in stream:
            commits.append((post(b"/commit", delta.payload(tenant)), delta.version_id))
            user = rng.randrange(len(users))
            fresh.append((user, plain[user], f"{old}->{delta.version_id}"))
            old = delta.version_id
        phase.add(first, commit_loop(commits, fresh))
        plan = [(i, plain[i], 200, None) for i in zipf_table(seed, "evolve/reader", len(users))]
        phase.add(second, read_loop(plan))
    stats_before = server.get_json("/stats")
    tally, wall, cpu = phase.run()
    window = (phase.started, tally.ended)
    stats_after = server.get_json("/stats")
    return Drive(tally, warm, wall, cpu, window, stats_before, stats_after, server.peak_rss_mb())


def verify_collected(reference: Reference, world: World, stream: Sequence[Delta],
                     tallies: Sequence[Tally]) -> Tuple[int, List[str]]:
    """Replay the commits serially and compare every collected body.

    Returns ``(mismatching answers, messages)``.
    """
    wanted: Dict[Tuple[str, str], Dict[int, Dict[bytes, int]]] = {}
    for tally in tallies:
        for user, bodies in tally.collected.items():
            for body, answers in bodies.items():
                context = json.loads(body)["metadata"]["context"]
                pair = tuple(context.split("->"))
                per_user = wanted.setdefault(pair, {}).setdefault(user, {})
                per_user[body] = per_user.get(body, 0) + answers
    # order[i] is the head pair after i commits of the stream.
    order, previous = [world.head_pair], world.head_pair[1]
    for delta in stream:
        order.append((previous, delta.version_id))
        previous = delta.version_id
    committed = 0
    mismatched, messages = 0, []
    for index, pair in enumerate(order):
        if pair not in wanted:
            continue
        while committed < index:
            reference.commit(stream[committed])
            committed += 1
        for user, bodies in wanted.pop(pair).items():
            reference_body = reference.body(pair, world.user_ids[user])
            for body, answers in bodies.items():
                if body != reference_body:
                    mismatched += answers
                    messages.append(f"{world.user_ids[user]} on {pair}: body differs")
    for pair, users in wanted.items():  # a pair the stream never made
        mismatched += sum(sum(b.values()) for b in users.values())
        messages.append(f"answers on unknown pair {pair}")
    return mismatched, messages[:5]


def _stats_metrics(run: Drive, tenant: str) -> Dict[str, float]:
    before, after = run.stats_before, run.stats_after
    adm_b, adm_a = before["admission"], after["admission"]
    batches = adm_a["batches"] - adm_b["batches"]
    batched = adm_a["batched_requests"] - adm_b["batched_requests"]
    cache_b = before["per_tenant"][tenant]["cache"] or {}
    cache_a = after["per_tenant"][tenant]["cache"] or {}
    delta = {key: cache_a.get(key, 0) - cache_b.get(key, 0)
             for key in ("hits", "misses", "singleflight_waits")}
    lookups = sum(delta.values())
    return {
        "service.admission.mean_batch": batched / batches if batches else 0.0,
        "service.admission.shed": float(adm_a["shed"] - adm_b["shed"]),
        "service.respcache.hit_ratio": delta["hits"] / lookups if lookups else 0.0,
        "service.respcache.singleflight_waits": float(delta["singleflight_waits"]),
        "service.server_p50_ms": after["per_tenant"][tenant]["p50_ms"] or 0.0,
    }


def _end_to_end(run: Drive, boots: Sequence[float]) -> Dict[str, float]:
    reads = run.tally.reads
    return {
        "setup_s": statistics.median(boots),
        "throughput_rps": len(reads) / run.wall if run.wall > 0 else 0.0,
        "read_p50_ms": percentile_ms(reads, 0.50),
        "read_p90_ms": percentile_ms(reads, 0.90),
        "server_peak_rss_mb": run.rss_mb,
    }


def run_benchmark(root: Path, work: Path, workload: str, seed: int, seconds: float,
                  trace: bool) -> Dict:
    calibration_s = calibrate()
    world = write_world(work)
    stream = delta_stream(STREAM_COMMITS) if workload == "evolve" else []
    reference = Reference(world)
    expected = reference.bodies(world.head_pair, world.user_ids)
    cache = 0 if workload == "warm_miss" else CACHE_ENTRIES

    boots: List[float] = []
    server: Optional[Server] = None
    try:
        for _ in range(BOOTS):
            if server is not None:
                server.stop()
            server = Server(root, world.kb_dir, world.users_path, cache)
            boots.append(server.wait_ready())
        untraced = drive(server, workload, world, expected, stream, seconds, seed)
    finally:
        if server is not None:
            server.stop()

    traced = report = None
    if trace:
        spans_path = work / "spans.json"
        with Server(root, world.kb_dir, world.users_path, cache,
                    launcher=Path(__file__).resolve().parent / "launcher.py",
                    spans_path=spans_path) as server:
            server.wait_ready()
            traced = drive(server, workload, world, expected, stream, seconds, seed)
        report = TraceReport(spans_path, traced.window, traced.tally.reads,
                             len(traced.tally.commits))

    runs = [untraced] + ([traced] if traced else [])
    mismatched, messages = 0, []
    if workload == "evolve":
        mismatched, messages = verify_collected(
            reference, world, stream, [r.tally for r in runs])
    reference.close()
    attempted = sum(r.tally.attempted + r.warm.attempted for r in runs)
    failed = sum(r.tally.failed + r.warm.failed for r in runs) + mismatched
    errors = [e for r in runs for e in r.warm.errors + r.tally.errors] + messages

    e2e = _end_to_end(untraced, boots)
    t = untraced.tally
    client = {
        "read_p99_ms": percentile_ms(t.reads, 0.99),
        "commit_p50_ms": percentile_ms(t.commits, 0.50),
        "fresh_read_p50_ms": percentile_ms(t.fresh, 0.50),
        "error_rate": failed / attempted if attempted else 1.0,
    }
    _print_report(workload, seed, untraced, boots, calibration_s, e2e, client,
                  failed, attempted, errors)

    if trace:
        metrics = _stats_metrics(untraced, world.tenant)
        metrics.update({
            "frontend.not_modified_share": t.not_modified / len(t.reads) if t.reads else 0.0,
            "loadgen.cpu_share": untraced.cpu / untraced.wall if untraced.wall else 0.0,
            "loadgen.calibration_ms": calibration_s * 1e3,
            "client.commit_p50_ms": client["commit_p50_ms"],
            "client.fresh_read_p50_ms": client["fresh_read_p50_ms"],
            "client.read_p99_ms": client["read_p99_ms"],
        })
        metrics.update(report.metrics)
        traced_rps = len(traced.tally.reads) / traced.wall if traced.wall else 0.0
        metrics["trace.unattributed_share"] = report.unattributed_share
        metrics["trace.overhead"] = (
            e2e["throughput_rps"] / traced_rps - 1.0 if traced_rps else 0.0)
        _print_trace(report, metrics)
        out = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
               for name, value in metrics.items()}
    else:
        out = {name: {"value": value, "unit": END_TO_END[name]} for name, value in e2e.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


PER_LAYER_UNITS = {
    "service.admission.mean_batch": "count",
    "service.admission.shed": "count",
    "service.respcache.hit_ratio": "share",
    "service.respcache.singleflight_waits": "count",
    "service.server_p50_ms": "ms",
    "frontend.not_modified_share": "share",
    "loadgen.cpu_share": "share",
    "loadgen.calibration_ms": "ms",
    "client.commit_p50_ms": "ms",
    "client.fresh_read_p50_ms": "ms",
    "client.read_p99_ms": "ms",
    "frontend.self_ms": "ms",
    "service.read_ms": "ms",
    "service.respcache.begin_ms": "ms",
    "service.admission.queue_wait_ms": "ms",
    "recommender.engine.recommend_many_ms": "ms",
    "recommender.engine.fill_ms": "ms",
    "measures.compute_all_ms": "ms",
    "graphtools.betweenness_ms": "ms",
    "recommender.relatedness.score_batch_ms": "ms",
    "recommender.ranking.rank_items_ms": "ms",
    "recommender.diversity.mmr_select_ms": "ms",
    "recommender.diversity.distance_calls_per_read": "count",
    "measures.structural.class_graph_calls_per_read": "count",
    "recommender.transparency.explain_ms": "ms",
    "io.storage.package_to_dict_ms": "ms",
    "kb.ntriples.parse_ms": "ms",
    "service.registry.commit_ms": "ms",
    "io.load_kb_ms": "ms",
    "trace.unattributed_share": "share",
    "trace.overhead": "share",
}


def _print_report(workload, seed, run: Drive, boots, calibration_s, e2e, client,
                  failed, attempted, errors) -> None:
    t = run.tally
    print(f"workload {workload}, seed {seed}: {run.wall:.2f} s timed, 2 connections, "
          f"calibration loop {calibration_s * 1e3:.1f} ms, "
          f"load generator cpu share {run.cpu / run.wall if run.wall else 0:.3f}")
    rows = [
        ("setup_s", e2e["setup_s"], "s", f"median of {len(boots)} boots"),
        ("throughput_rps", e2e["throughput_rps"], "req/s", f"{len(t.reads)} answers"),
        ("read_p50_ms", e2e["read_p50_ms"], "ms", f"n={len(t.reads)}"),
        ("read_p90_ms", e2e["read_p90_ms"], "ms", f"n={len(t.reads)}"),
    ]
    if len(t.reads) >= 1000:
        rows.append(("read_p99_ms", client["read_p99_ms"], "ms", f"n={len(t.reads)}"))
    if t.commits:
        rows.append(("commit_p50_ms", client["commit_p50_ms"], "ms", f"n={len(t.commits)}"))
        rows.append(("fresh_read_p50_ms", client["fresh_read_p50_ms"], "ms",
                     f"n={len(t.fresh)}"))
    rows += [
        ("error_rate", client["error_rate"], "share", f"{failed} of {attempted} failed"),
        ("server_peak_rss_mb", e2e["server_peak_rss_mb"], "MB", "VmHWM"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<20} {value:12.4f} {unit:<6} ({note})")
    if t.not_modified:
        print(f"  304 answers: {t.not_modified} of {len(t.reads)}")
    for error in errors[:5]:
        print(f"  failure: {error}")


def _print_trace(report: TraceReport, metrics: Dict[str, float]) -> None:
    print(f"traced run: {report.reads} reads, mean round trip {report.round_trip_ms:.3f} ms")
    print("  self time per read on the blocking path:")
    for name, value in sorted(report.self_per_read.items(), key=lambda kv: -kv[1]):
        share = value / report.round_trip_ms if report.round_trip_ms else 0.0
        print(f"    {name:<40} {value:9.3f} ms  {share:6.1%}")
    print(f"    {'(unattributed)':<40} {'':9}     {report.unattributed_share:6.1%}")
    print(f"  largest named self time: {report.largest_layer()}")
    if report.absent:
        print(f"  absent targets: {', '.join(report.absent)}")
    print("  per-layer metrics:")
    for name, value in metrics.items():
        print(f"    {name:<48} {value:12.4f} {PER_LAYER_UNITS[name]}")
