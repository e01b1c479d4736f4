"""Elastic-replica soak: autoscale churn under a Zipf-skewed hammer.

The replicated serving bench (``bench_service.py``'s
``service_replicated`` topology) proves a *static* replica fleet
multiplies hot-tenant read throughput.  This soak
proves the *elastic* plane: replicas join warm (seeded from the owner's
already-computed measure artefacts), leave, die and respawn **while the
Zipf hammer is running**, and none of it costs correctness::

    PYTHONPATH=src python benchmarks/bench_autoscale.py           # full soak
    PYTHONPATH=src python benchmarks/bench_autoscale.py --quick   # CI smoke

Phases (all hammering the same deterministic Zipf schedule, with the
autoscale controller ticking in the background from phase 2 on):

1. **baseline** -- owner only, no replicas: the pre-join hot-tenant p99
   every later phase is compared against;
2. **scale_up** -- the controller sees the hot tenant's read share and
   joins replicas mid-stream (warm artefact handoff, attach-then-unlink
   shared-memory hygiene);
3. **kill_respawn** -- a live replica is SIGKILLed mid-stream; reads
   degrade transparently and the controller respawns the lost capacity;
4. **cool_down** -- traffic leaves the hot tenant entirely; the
   controller retires its replicas back toward the floor.

A commit lands between phases 2 and 3, so the soak also rides the
O(delta) record stream through an elastic fleet.  Every response in
every phase is compared against a single-process mirror replay --
bit-identity is asserted per request, not sampled.  The warm-start
measurement is separate and in-process: the same chain is booted cold
vs seeded from decoded artefact frames, and the first-request latencies
are compared (plus bit-identity of decoded artefacts against a cold
recompute).

The results merge into the report as an ``"autoscale"`` section
(``bench_report.py``), which ``check_regression.py`` gates: bit-identity
invariants, zero lost requests, zero leaked shared-memory segments,
churn actually happening, the warm/cold first-request ratio (full runs)
and the worst churn-phase hot-tenant p99 against the pre-join baseline
(multi-core runs).
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro._version import __version__
from repro.kb import wire
from repro.kb.namespaces import RDF_TYPE
from repro.kb.terms import IRI
from repro.kb.triples import Triple
from repro.recommender.engine import EngineConfig
from repro.service import (
    AutoscaleController,
    RecommendationService,
    ServiceConfig,
    ShardSupervisor,
)
from repro.service.replica import (
    collect_artefacts,
    create_shared_payload,
    decode_shared_payload,
    destroy_segment,
    encode_tenant_artefacts,
)
from repro.synthetic.world import generate_world

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_report import merge_section  # noqa: E402
from bench_service import (  # noqa: E402
    K,
    QUICK_CONFIG,
    WORKERS,
    WORLD_CONFIG,
    WORLD_SEED,
    Schedule,
    Sample,
    hammer,
    in_process,
    percentile,
    plan,
    tenant_names,
    zipf_schedule,
)

#: Must leave the hot tenant over the controller's hot-share trigger.
ZIPF_EXPONENT = 1.3
CLIENTS = 8
REQUESTS_PER_CLIENT = 40  # per phase
REPLICAS_MIN = 0
REPLICAS_MAX = 2


def _shm_segments() -> set:
    shm = Path("/dev/shm")
    if not shm.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in shm.iterdir() if p.name.startswith("psm_")}


def _phase_metrics(samples: Sequence[Sample], hot: str) -> Dict[str, float]:
    hot_samples = sorted(s.latency_s for s in samples if s.tenant == hot)
    all_samples = sorted(s.latency_s for s in samples)
    return {
        "requests": len(all_samples),
        "hot_requests": len(hot_samples),
        "hot_p50_ms": percentile(hot_samples, 0.50) * 1e3 if hot_samples else None,
        "hot_p99_ms": percentile(hot_samples, 0.99) * 1e3 if hot_samples else None,
        "p99_ms": percentile(all_samples, 0.99) * 1e3 if all_samples else None,
    }


# -- warm-start measurement --------------------------------------------------------


def _measure_warm_start(
    kb_bytes: bytes,
    users,
    service_config: ServiceConfig,
    hot_user: str,
    tenant: str,
    trials: int,
) -> Dict:
    """Cold vs warm-seeded first-request latency on the same chain.

    The "owner" serves every user once, so its memo holds exactly the
    artefacts a warmed owner would publish.  Cold boots decode the plain
    payload; warm boots decode the same payload plus the artefact frame
    through the real shared-memory path.  Both time the *first* request
    of a fresh process-equivalent (fresh chain, fresh service, fresh
    caches) -- min over ``trials`` so scheduler noise does not decide.
    """
    owner = RecommendationService(service_config)
    owner.add_tenant(tenant, wire.decode_kb(kb_bytes), users)
    for user in users:
        owner.recommend(tenant, user.user_id)
    owner_kb = owner.tenant(tenant).kb
    artefact_bytes = encode_tenant_artefacts(owner_kb)
    owner_artefacts = collect_artefacts(owner_kb)
    owner.close()

    def first_request_s(warm: bool) -> float:
        if warm:
            segment = create_shared_payload(kb_bytes, artefacts=artefact_bytes)
            try:
                kb = decode_shared_payload(segment.name)
            finally:
                destroy_segment(segment)
        else:
            kb = wire.decode_kb(kb_bytes)
        service = RecommendationService(service_config)
        service.add_tenant(tenant, kb, users)
        try:
            begin = time.perf_counter()
            service.recommend(tenant, hot_user)
            return time.perf_counter() - begin
        finally:
            service.close()

    cold_s = min(first_request_s(warm=False) for _ in range(trials))
    warm_s = min(first_request_s(warm=True) for _ in range(trials))

    # Bit-identity of the handoff itself: the decoded frames must equal a
    # cold recompute of the same caches (exact float equality -- the
    # codec round-trips IEEE doubles, and the measures are deterministic).
    cold_service = RecommendationService(service_config)
    cold_service.add_tenant(tenant, wire.decode_kb(kb_bytes), users)
    for user in users:
        cold_service.recommend(tenant, user.user_id)
    cold_artefacts = collect_artefacts(cold_service.tenant(tenant).kb)
    cold_service.close()
    decoded = wire.decode_artefacts(
        artefact_bytes, wire.decode_kb(kb_bytes).first().graph.dictionary
    )
    bit_identical = decoded == owner_artefacts == cold_artefacts

    return {
        "cold_first_request_ms": cold_s * 1e3,
        "warm_first_request_ms": warm_s * 1e3,
        "ratio": warm_s / cold_s if cold_s else None,
        "artefact_bytes": len(artefact_bytes),
        "trials": trials,
        "artefacts_bit_identical": bit_identical,
    }


# -- the soak ----------------------------------------------------------------------


def run_autoscale(output: Path, quick: bool = False) -> Dict:
    """Run the soak; merge and return the ``autoscale`` section."""
    config = QUICK_CONFIG if quick else WORLD_CONFIG
    per_shard = 2 if quick else 4
    clients, requests_per_client, warm_trials = (
        (min(CLIENTS, 4), min(REQUESTS_PER_CLIENT, 12), 2) if quick
        else (CLIENTS, REQUESTS_PER_CLIENT, 3)
    )
    skew = f"zipf:{ZIPF_EXPONENT}"

    world = generate_world(seed=WORLD_SEED, config=config)
    kb_bytes = wire.encode_kb(world.kb)
    names = tenant_names(1, per_shard)
    user_ids = [user.user_id for user in world.users]
    schedule, hot_tenant, hot_share = zipf_schedule(names, user_ids, ZIPF_EXPONENT)
    cool_names = [name for name in names if name != hot_tenant]

    def cool_schedule(client_index: int, i: int) -> Tuple[str, str]:
        # Traffic leaves the hot tenant entirely: its windowed share drops
        # to zero and the controller retires its replicas.
        step = client_index * 131 + i
        return cool_names[step % len(cool_names)], user_ids[step % len(user_ids)]

    service_config = ServiceConfig(k=K, workers=WORKERS, engine=EngineConfig(k=K))
    before_segments = _shm_segments()

    print(
        f"autoscale soak: 1 shard, replicas [{REPLICAS_MIN}, {REPLICAS_MAX}], "
        f"{len(names)} tenants, skew {skew} (hot tenant {hot_tenant!r} gets "
        f"{hot_share:.0%} of requests), {clients} clients x "
        f"{requests_per_client} req/phase, cpu_count={os.cpu_count()}"
    )

    warm_start = _measure_warm_start(
        kb_bytes, world.users, service_config,
        hot_user=user_ids[0], tenant=hot_tenant, trials=warm_trials,
    )
    print(
        f"warm start: cold {warm_start['cold_first_request_ms']:.1f} ms -> "
        f"warm {warm_start['warm_first_request_ms']:.1f} ms "
        f"({warm_start['ratio']:.2f}x, artefact frame "
        f"{warm_start['artefact_bytes']} bytes, bit-identical="
        f"{warm_start['artefacts_bit_identical']})"
    )

    mirror = RecommendationService(service_config)
    supervisor = ShardSupervisor(shards=1, config=service_config, replicas=0)
    for name in names:
        mirror.add_tenant(name, wire.decode_kb(kb_bytes), world.users)
        supervisor.add_tenant(name, wire.decode_kb(kb_bytes), world.users)
    supervisor.start()

    controller = AutoscaleController(
        supervisor,
        min_replicas=REPLICAS_MIN,
        max_replicas=REPLICAS_MAX,
        interval_s=0.25,
    )
    events = {"added": 0, "retired": 0, "respawned": 0, "killed": 0}
    events_lock = threading.Lock()
    ticking = threading.Event()
    stop_ticker = threading.Event()

    def ticker() -> None:
        # The controller's own thread, with its actions tallied: same tick
        # cadence, but the soak can assert churn actually happened.
        while not stop_ticker.wait(controller.interval_s):
            if not ticking.is_set():
                continue
            try:
                actions = controller.tick()
            except Exception:
                controller.errors += 1
                continue
            with events_lock:
                events["added"] += len(actions["added"])
                events["retired"] += len(actions["retired"])
                events["respawned"] += sum(actions["respawned"].values())

    ticker_thread = threading.Thread(target=ticker, daemon=True)
    ticker_thread.start()

    phases: Dict[str, Dict] = {}
    mismatches = 0
    completed = 0
    expected_total = 0

    mirror_send = in_process(mirror, service_config.request_timeout_s)
    send = in_process(supervisor, service_config.request_timeout_s)

    def run_phase(label: str, phase_schedule: Schedule) -> Dict:
        nonlocal mismatches, completed, expected_total
        expected = {
            (name, user_id): mirror_send(name, user_id)
            for name in names
            for user_id in user_ids
        }
        samples, _ = hammer(
            lambda index: send, plan(phase_schedule, clients, requests_per_client)
        )
        mismatches += sum(s.body != expected[(s.tenant, s.user)] for s in samples)
        completed += len(samples)
        expected_total += clients * requests_per_client
        metrics = _phase_metrics(samples, hot_tenant)
        metrics["replicas"] = supervisor.replica_count(hot_tenant)
        phases[label] = metrics
        hot_p99 = metrics["hot_p99_ms"]
        print(
            f"phase {label:13s}: hot p99 "
            f"{hot_p99:7.2f} ms  ({metrics['hot_requests']} hot req, "
            f"{metrics['replicas']} replicas configured)"
            if hot_p99 is not None
            else f"phase {label:13s}: no hot-tenant traffic "
                 f"({metrics['replicas']} replicas configured)"
        )
        return metrics

    try:
        # Phase 1: pre-join baseline, controller quiet.
        run_phase("baseline", schedule)

        # Phase 2: controller live -- replicas join mid-stream.
        ticking.set()
        run_phase("scale_up", schedule)

        # A commit rides the record stream through the elastic fleet; the
        # mirror replays it so later expectations stay in lockstep.
        delta = [
            Triple(
                IRI("http://bench/soak_commit"),
                RDF_TYPE,
                sorted(
                    world.kb.latest().schema.classes(), key=lambda c: c.value
                )[0],
            )
        ]
        supervisor.commit_changes(hot_tenant, added=delta, version_id="v_soak")
        mirror.commit_changes(hot_tenant, added=delta, version_id="v_soak")

        # Phase 3: SIGKILL a live replica mid-stream; the ticker respawns.
        killer_done = threading.Event()

        def killer() -> None:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                clients_list = supervisor._replica_clients.get(hot_tenant, [])
                live = [c for c in clients_list if not (c.dead or c.poisoned)]
                if live:
                    live[0].process.kill()
                    with events_lock:
                        events["killed"] += 1
                    break
                time.sleep(0.05)
            killer_done.set()

        killer_thread = threading.Thread(target=killer, daemon=True)
        killer_thread.start()
        run_phase("kill_respawn", schedule)
        killer_thread.join(timeout=30)

        # Phase 4: the hot tenant goes quiet; its replicas retire.
        run_phase("cool_down", cool_schedule)
        # Drain a few more ticks so retirement completes even if the
        # cool-down hammer finished between intervals.
        deadline = time.monotonic() + 10.0
        while (
            supervisor.replica_count(hot_tenant) > REPLICAS_MIN
            and time.monotonic() < deadline
        ):
            time.sleep(controller.interval_s)
        phases["cool_down"]["replicas"] = supervisor.replica_count(hot_tenant)
    finally:
        ticking.clear()
        stop_ticker.set()
        ticker_thread.join(timeout=10)
        supervisor.close()
        mirror.close()

    shm_leaked = len(_shm_segments() - before_segments)
    lost = expected_total - completed
    baseline_p99 = phases["baseline"]["hot_p99_ms"]
    churn_p99s = [
        phases[label]["hot_p99_ms"]
        for label in ("scale_up", "kill_respawn")
        if phases[label]["hot_p99_ms"] is not None
    ]
    worst_churn_p99 = max(churn_p99s) if churn_p99s else None
    p99_ratio = (
        worst_churn_p99 / baseline_p99 if baseline_p99 and worst_churn_p99 else None
    )
    with events_lock:
        replica_events = dict(events)

    print(
        f"churn: {replica_events['added']} joins, {replica_events['killed']} kills, "
        f"{replica_events['respawned']} respawns, {replica_events['retired']} retires; "
        f"hot p99 {baseline_p99:.2f} ms baseline -> {worst_churn_p99:.2f} ms worst "
        f"({p99_ratio:.2f}x); {lost} lost, {mismatches} mismatched, "
        f"{shm_leaked} segments leaked"
    )

    section = {
        "meta": {
            "repro_version": __version__,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "world_seed": WORLD_SEED,
            "n_classes": config.schema.n_classes,
            "n_properties": config.schema.n_properties,
            "n_versions": config.evolution.n_versions,
            "changes_per_version": config.evolution.changes_per_version,
            "n_users": len(world.users),
            "n_tenants": len(names),
            "skew": skew,
            "hot_tenant": hot_tenant,
            "hot_share": hot_share,
            "clients": clients,
            "requests_per_client": requests_per_client,
            "workers": WORKERS,
            "replicas_min": REPLICAS_MIN,
            "replicas_max": REPLICAS_MAX,
            "k": K,
            "quick": quick,
        },
        "phases": phases,
        "hot_p99": {
            "baseline_ms": baseline_p99,
            "worst_churn_ms": worst_churn_p99,
            "ratio": p99_ratio,
        },
        "warm_start": {
            key: value
            for key, value in warm_start.items()
            if key != "artefacts_bit_identical"
        },
        "replica_events": replica_events,
        "controller_errors": controller.errors,
        "invariants": {
            "responses_bit_identical": mismatches == 0,
            "artefacts_bit_identical": warm_start["artefacts_bit_identical"],
        },
        "numbers": {
            "lost_requests": lost,
            "shm_leaked": shm_leaked,
            **{f"replicas_{kind}": count for kind, count in replica_events.items()},
            "warm_start_ratio": warm_start["ratio"],
            "hot_p99_ratio": p99_ratio,
        },
    }
    merge_section(output, "autoscale", section)
    return section


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "-o", "--output", type=Path, default=Path("BENCH_substrate.json"),
        help="report to merge the section into (default: BENCH_substrate.json)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: shrunk workload, few requests (not comparable to full runs)",
    )
    return parser


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    section = run_autoscale(args.output, quick=args.quick)
    return 0 if all(section["invariants"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
