"""Closed-loop serving bench: one runner over a table of topologies.

Builds the canonical synthetic world (the ``run_bench.py`` world), stands
every topology of :func:`topologies` up in process and hammers it from
1 / 8 / 32 closed-loop clients, each issuing its next request as soon as
the previous one answers.  Each topology merges one section into the
report (``bench_report.py``)::

    PYTHONPATH=src python benchmarks/bench_service.py                  # every topology, into BENCH_substrate.json
    PYTHONPATH=src python benchmarks/bench_service.py --quick -o q.json   # smoke mode (seconds)
    PYTHONPATH=src python benchmarks/bench_service.py --only service_sharded  # re-record one section

The topologies:

* ``service`` -- a :class:`repro.service.RecommendationService`
  (admission-batched worker threads) over the one bench tenant;
* ``service_http`` -- the same service behind the asyncio front-end
  (:mod:`repro.service.aio`, the one ``repro serve`` runs), one
  persistent keep-alive connection per client;
* ``service_cached`` -- the same service with its versioned response
  cache on;
* ``service_sharded`` -- a :class:`repro.service.ShardSupervisor` with 4
  shard processes (2 on a quick run) over a fleet of tenants, every one a
  wire-format replica of the bench KB, 2 per shard (1 on a quick run);
* ``service_replicated`` -- 2 shards plus 2 read replicas per tenant (1 on
  a quick run) under a Zipf 1.1 tenant mix, so one tenant is hot: the
  load a tenant-per-process plane cannot scale and replicas exist for.

Every topology but ``service`` runs the same warmup and schedule as its
reference -- the in-process service over the same tenants, the uncached
service, or the owner-only sharded topology -- and compares every
response body with the reference's, byte for byte.  In process, both
backends are driven through ``recommend_cached_async(...).result().body``,
the call the front-end makes on both, so every measured request includes
serialisation.  Each level runs against a freshly built topology whose
per-context caches are warmed by one untimed pass over every
(tenant, user) key per serving process, so levels differ only in
concurrency and the cached topology's timed hammer is pure hit path.

On top of that, ``service_http`` keeps two front-end probes: a
concurrent mixed read/commit stream captured byte for byte against a
serial replay on a twin world, and the thread count with N/2 and N idle
keep-alive connections (an idle connection costs a coroutine, never a
thread).  ``service_cached`` records the tenant's miss counter around
every timed hammer: no new miss proves a hit never invokes the engine.
A shard or replica only helps with spare cores, so every section's meta
records ``cpu_count``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import random
import socket
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro._version import __version__
from repro.kb import wire
from repro.recommender.engine import EngineConfig
from repro.service import (
    AsyncServerThread,
    RecommendationService,
    ServiceConfig,
    ShardSupervisor,
)
from repro.service.registry import TenantRegistry
from repro.synthetic.config import EvolutionConfig, SchemaConfig, WorldConfig
from repro.synthetic.world import generate_world

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_report import merge_section  # noqa: E402

#: Same canonical workload family as run_bench.py.
WORLD_SEED = 4242
WORLD_CONFIG = WorldConfig(
    schema=SchemaConfig(n_classes=120, n_properties=80),
    evolution=EvolutionConfig(n_versions=3, changes_per_version=150),
)
QUICK_CONFIG = WorldConfig(
    schema=SchemaConfig(n_classes=30, n_properties=20),
    evolution=EvolutionConfig(n_versions=3, changes_per_version=40),
)

CLIENT_LEVELS = (1, 8, 32)
REQUESTS_PER_CLIENT = 60
QUICK_REQUESTS_PER_CLIENT = 5
WORKERS = 4
K = 5
TENANT = "bench"
#: Far above the (tenants x users) key population, so the cached
#: topology measures the hit path, not eviction churn.
CACHE_ENTRIES = 4096
#: Idle keep-alive connections the ``service_http`` probe opens (N).  Far
#: inside default file-descriptor limits (two sockets per connection).
IDLE_CONNECTIONS = 240
ZIPF_EXPONENT = 1.1

#: (client_index, request_index) -> (tenant, user).
Schedule = Callable[[int, int], Tuple[str, str]]
#: One client's call: (tenant, user) -> the response body.
Send = Callable[[str, str], bytes]


class Sample(NamedTuple):
    """One answered request of the hammer."""

    tenant: str
    user: str
    latency_s: float
    body: bytes


def _close(send: object) -> None:
    close = getattr(send, "close", None)
    if close is not None:
        close()


def hammer(
    connect: Callable[[int], Send], plans: Sequence[Sequence[Tuple[str, str]]]
) -> Tuple[List[Sample], float]:
    """Closed-loop clients, one thread per plan, each sending its requests back to back.

    ``connect(index)`` makes client ``index``'s send inside its own thread
    (the HTTP clients open their keep-alive connection there); a send
    with a ``close`` is closed when its client ends.  Returns every
    client's samples, client by client in plan order, and the wall time
    from the common start to the last answer.  A failed request is
    raised: a lost request fails the run.
    """
    samples: List[List[Sample]] = [[] for _ in plans]
    errors: List[BaseException] = []
    start_barrier = threading.Barrier(len(plans) + 1)

    def client(index: int) -> None:
        send = None
        try:
            send = connect(index)
            start_barrier.wait()
            for tenant, user in plans[index]:
                begin = time.perf_counter()
                body = send(tenant, user)
                samples[index].append(Sample(tenant, user, time.perf_counter() - begin, body))
        except BaseException as exc:  # re-raised by the main thread below
            errors.append(exc)
            start_barrier.abort()  # never leave the main thread waiting
        finally:
            _close(send)

    threads = [threading.Thread(target=client, args=(i,), daemon=True) for i in range(len(plans))]
    for thread in threads:
        thread.start()
    try:
        start_barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a client failed during setup; errors[0] is raised below
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    if errors:
        raise errors[0]
    return [sample for per_client in samples for sample in per_client], wall


def percentile(sorted_samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty sample list."""
    rank = max(0, min(len(sorted_samples) - 1, round(fraction * (len(sorted_samples) - 1))))
    return sorted_samples[rank]


def _level_metrics(samples: List[Sample], wall: float, clients: int) -> Dict[str, float]:
    latencies = sorted(sample.latency_s for sample in samples)
    return {
        "clients": clients,
        "requests": len(latencies),
        "wall_s": wall,
        "throughput_rps": len(latencies) / wall if wall > 0 else 0.0,
        "mean_ms": statistics.fmean(latencies) * 1e3,
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
        "max_ms": latencies[-1] * 1e3,
    }


# -- request schedules -------------------------------------------------------------


def plan(schedule: Schedule, clients: int, requests_per_client: int) -> List[List[Tuple[str, str]]]:
    """Each client's request list under ``schedule``."""
    return [[schedule(c, i) for i in range(requests_per_client)] for c in range(clients)]


def _rotation(names: Sequence[str], user_ids: Sequence[str]) -> Schedule:
    """Deterministic per-client rotation over tenants and users alike."""

    def schedule(client_index: int, i: int) -> Tuple[str, str]:
        step = client_index + i
        return names[step % len(names)], user_ids[step % len(user_ids)]

    return schedule


def zipf_schedule(
    names: Sequence[str], user_ids: Sequence[str], exponent: float, table_size: int = 4096
) -> Tuple[Schedule, str, float]:
    """A deterministic Zipf-skewed schedule over the tenant fleet.

    Tenant ranks follow sorted name order (rank r gets weight
    ``1 / (r + 1) ** exponent``); the draw sequence is one precomputed
    ``random.Random(WORLD_SEED).choices`` table, indexed by a per-client
    stride -- every run, process and topology sees byte-for-byte the same
    request stream.  Returns ``(schedule, hot_tenant, hot_share)``.
    """
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(names))]
    table = random.Random(WORLD_SEED).choices(range(len(names)), weights, k=table_size)
    hot_share = table.count(0) / len(table)

    def schedule(client_index: int, i: int) -> Tuple[str, str]:
        step = client_index * 131 + i  # coprime stride: clients walk distinct slices
        return names[table[step % len(table)]], user_ids[step % len(user_ids)]

    return schedule, names[0], hot_share


def tenant_names(shards: int, per_shard: int) -> List[str]:
    """Deterministic tenant names giving every shard exactly ``per_shard``.

    Candidate names are probed in order and kept only while their shard
    (by the production routing hash) still has room, so a sharded run
    never benches a topology with idle shards.
    """
    counts = {shard: 0 for shard in range(shards)}
    names: List[str] = []
    candidate = 0
    while any(count < per_shard for count in counts.values()):
        name = f"bench{candidate:03d}"
        candidate += 1
        shard = TenantRegistry.shard_of(name, shards)
        if counts[shard] < per_shard:
            counts[shard] += 1
            names.append(name)
    return sorted(names)


# -- transports --------------------------------------------------------------------


def in_process(backend, timeout_s: float) -> Send:
    """The front-end's call on either backend: the body ``recommend_cached_async`` resolves to."""

    def send(tenant: str, user_id: str) -> bytes:
        return backend.recommend_cached_async(tenant, user_id).result(timeout=timeout_s).body

    return send


class _KeepAlive:
    """One persistent keep-alive connection to the front-end; calling it POSTs a /recommend.

    One connection per client, reused for every request, so the bench
    measures the server, not per-request TCP setup.  ``pinned`` adds
    fixed fields (a version pair) to every read.
    """

    def __init__(self, address: Tuple[str, int], pinned: Optional[Dict[str, str]] = None) -> None:
        self.connection = http.client.HTTPConnection(*address, timeout=60)
        self.connection.connect()
        # Small request/response pairs over a reused connection: disable
        # Nagle or every exchange risks a ~40ms delayed-ACK stall.
        self.connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.pinned = pinned or {}

    def post(self, path: str, payload: Dict) -> bytes:
        self.connection.request(
            "POST", path, json.dumps(payload).encode("utf-8"),
            {"Content-Type": "application/json"},
        )
        response = self.connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"{path} -> {response.status}: {body[:200]!r}")
        return body

    def __call__(self, tenant: str, user_id: str) -> bytes:
        return self.post("/recommend", {"tenant": tenant, "user": user_id, **self.pinned})

    def close(self) -> None:
        self.connection.close()


# -- the topology table ------------------------------------------------------------


class Backend(NamedTuple):
    """How one side of a topology serves."""

    shards: int = 0  # 0: one in-process RecommendationService
    replicas: int = 0
    cache: bool = False
    http: bool = False


class Topology(NamedTuple):
    """One report section: a backend, the reference it is compared with, a tenant mix."""

    section: str
    backend: Backend
    reference: Optional[Backend] = None
    skew: Optional[float] = None  # Zipf exponent of the tenant mix; None: rotation


def topologies(quick: bool) -> List[Topology]:
    threads = Backend()
    return [
        Topology("service", threads),
        Topology("service_http", Backend(http=True), reference=threads),
        Topology("service_cached", Backend(cache=True), reference=threads),
        Topology("service_sharded", Backend(shards=2 if quick else 4), reference=threads),
        Topology(
            "service_replicated", Backend(shards=2, replicas=1 if quick else 2),
            reference=Backend(shards=2), skew=ZIPF_EXPONENT,
        ),
    ]


class Level(NamedTuple):
    """One measured client level of one backend."""

    metrics: Dict[str, float]
    bodies: Dict[Tuple[str, str], bytes]  # each (tenant, user) key's body
    mismatches: int  # bodies unlike the expected ones
    cache: Dict[str, int]  # cache counters around the timed hammer (cached backends)


@contextmanager
def _serving(
    backend: Backend, names: Sequence[str], kb_bytes: bytes, users, config: ServiceConfig
) -> Iterator[Tuple[Callable[[int], Send], Optional[RecommendationService]]]:
    """Stand ``backend`` up over the tenant fleet; yields ``(connect, service)``.

    ``service`` is the in-process service whose counters a level reads,
    or ``None`` behind shard processes.
    """
    if backend.shards:
        supervisor = ShardSupervisor(shards=backend.shards, config=config, replicas=backend.replicas)
        try:
            for name in names:
                supervisor.add_tenant(name, wire.decode_kb(kb_bytes), users)
            supervisor.start()
            send = in_process(supervisor, config.request_timeout_s)
            yield (lambda index: send), None
        finally:
            supervisor.close()
        return
    service = RecommendationService(
        replace(config, cache_entries=CACHE_ENTRIES) if backend.cache else config
    )
    try:
        for name in names:
            service.add_tenant(name, wire.decode_kb(kb_bytes), users)
        if backend.http:
            with AsyncServerThread(service) as server:
                yield (lambda index: _KeepAlive(server.address)), service
        else:
            send = in_process(service, config.request_timeout_s)
            yield (lambda index: send), service
    finally:
        service.close()


def _cache_counters(stats: Dict) -> Tuple[int, int]:
    blocks = [entry["cache"] for entry in stats["per_tenant"].values() if entry["cache"]]
    return sum(b["misses"] for b in blocks), sum(b["hits"] for b in blocks)


def _measure(
    backend: Backend,
    names: Sequence[str],
    kb_bytes: bytes,
    users,
    config: ServiceConfig,
    plans: List[List[Tuple[str, str]]],
    expected: Optional[Dict[Tuple[str, str], bytes]],
) -> Level:
    """One client level against a freshly built ``backend``."""
    keys = [(name, user.user_id) for name in names for user in users]
    with _serving(backend, names, kb_bytes, users, config) as (connect, service):
        warm = connect(0)
        try:
            # One pass per serving process: round-robin reads spread the
            # passes over the owner and every replica.
            bodies = [(key, warm(*key)) for _ in range(1 + backend.replicas) for key in keys]
        finally:
            _close(warm)
        before = service.stats() if service else None
        samples, wall = hammer(connect, plans)
        after = service.stats() if service else None
    bodies += [((s.tenant, s.user), s.body) for s in samples]
    metrics = _level_metrics(samples, wall, len(plans))
    cache: Dict[str, int] = {}
    if service is not None:
        metrics["batches"] = after["admission"]["batches"] - before["admission"]["batches"]
        metrics["largest_batch"] = after["admission"]["largest_batch"]
        if backend.cache:
            (misses_before, hits_before), (misses_after, hits_after) = (
                _cache_counters(before), _cache_counters(after)
            )
            cache = {
                "misses_before": misses_before,
                "misses_after": misses_after,
                "hits": hits_after - hits_before,
                "requests": len(samples),
            }
    mismatches = 0 if expected is None else sum(expected[key] != body for key, body in bodies)
    return Level(metrics, dict(bodies), mismatches, cache)


# -- the front-end probes ----------------------------------------------------------


def _idle_keepalive(world, service_config: ServiceConfig) -> Dict[str, int]:
    """Thread counts with N/2 and N established, served, idle connections.

    Each connection's round trip matters: an unaccepted or unserved
    socket would count as held without the server ever paying for it.
    It is a ``/recommend`` because that path never leaves the event loop
    and the admission workers (both fixed), whereas ``/health`` runs in
    the loop's executor, which may start a thread whenever a request
    arrives before an idle one is back -- a cost of requests, bounded by
    the executor size, not of connections.
    """
    service = RecommendationService(service_config)
    service.add_tenant(TENANT, world.kb, world.users)
    user_id = world.users[0].user_id
    connections: List[_KeepAlive] = []
    half = IDLE_CONNECTIONS // 2

    def open_idle(address) -> _KeepAlive:
        client = _KeepAlive(address)
        connections.append(client)
        client(TENANT, user_id)
        return client

    try:
        with AsyncServerThread(service, max_connections=IDLE_CONNECTIONS + 8) as server:
            for _ in range(half):
                open_idle(server.address)
            threads_half = threading.active_count()
            for _ in range(IDLE_CONNECTIONS - half):
                open_idle(server.address)
            threads = threading.active_count()
            # Liveness under load: the server still answers with every
            # idle connection open, on old connections and new ones alike.
            connections[0].connection.request("GET", "/health")
            connections[0].connection.getresponse().read()
            open_idle(server.address)
    finally:
        for client in connections:
            client.close()
        service.close()
    return {
        "connections_half": half,
        "threads_half": threads_half,
        "connections": IDLE_CONNECTIONS,
        "threads": threads,
    }


def _mixed_stream_bit_identical(
    config: WorldConfig, service_config: ServiceConfig, requests_per_client: int
) -> bool:
    """The front-end's bytes under a concurrent mixed stream == a serial replay.

    Client 0 commits three versions (a single committer, so the version
    chain is deterministic); three readers read with the version pair
    pinned, so a read racing a commit scores the same snapshot however
    the two interleave.  Every response is byte-deterministic, so the
    same requests replayed one by one on an identically generated twin
    service must give the same bytes, client by client.
    """
    readers = 3
    requests = max(4, min(requests_per_client, 12))
    commits = [
        {
            "tenant": TENANT,
            "added": f"<urn:bench:s{i}> <urn:bench:p> <urn:bench:o{i}> .\n",
            "version_id": f"bench_http_c{i}",
        }
        for i in range(3)
    ]
    served = generate_world(seed=WORLD_SEED, config=config)
    ids = served.kb.version_ids()
    pinned = {"old": ids[-2], "new": ids[-1]}
    user_ids = [user.user_id for user in served.users]
    reads = plan(_rotation([TENANT], user_ids), readers + 1, requests)[1:]
    plans = [[(TENANT, "")] * len(commits)] + reads

    service = RecommendationService(service_config)
    service.add_tenant(TENANT, served.kb, served.users)
    try:
        with AsyncServerThread(service) as server:

            def connect(index: int) -> Send:
                client = _KeepAlive(server.address, pinned)
                if index:
                    return client
                pending = iter(commits)

                def commit(tenant: str, user_id: str) -> bytes:
                    return client.post("/commit", next(pending))

                commit.close = client.close
                return commit

            samples, _ = hammer(connect, plans)
    finally:
        service.close()

    # Serial replay: the committer's requests in order, then each reader's
    # (pinned reads do not depend on how they interleaved with commits).
    twin_world = generate_world(seed=WORLD_SEED, config=config)
    twin = RecommendationService(service_config)
    twin.add_tenant(TENANT, twin_world.kb, twin_world.users)
    try:
        expected = [json.dumps(twin.commit_request(commit)).encode() for commit in commits]
        expected += [
            twin.recommend_cached_async(
                tenant, user_id, old_id=pinned["old"], new_id=pinned["new"]
            ).result(timeout=service_config.request_timeout_s).body
            for client_reads in reads
            for tenant, user_id in client_reads
        ]
    finally:
        twin.close()
    identical = [sample.body for sample in samples] == expected
    print(
        f"front-end responses {'bit-identical to' if identical else 'DIVERGED from'} a serial "
        f"replay over a mixed stream ({len(samples)} responses, {len(commits)} commits)"
    )
    return identical


# -- the runner --------------------------------------------------------------------


def run(
    output: Path, quick: bool = False, only: Optional[Sequence[str]] = None
) -> Dict[str, Dict]:
    """Run every topology (or ``only`` those) and merge their sections into ``output``."""
    table = topologies(quick)
    if only:
        unknown = set(only) - {topology.section for topology in table}
        if unknown:
            raise SystemExit(f"unknown section(s): {', '.join(sorted(unknown))}")
        table = [topology for topology in table if topology.section in only]
    config = QUICK_CONFIG if quick else WORLD_CONFIG
    requests = QUICK_REQUESTS_PER_CLIENT if quick else REQUESTS_PER_CLIENT
    world = generate_world(seed=WORLD_SEED, config=config)
    kb_bytes = wire.encode_kb(world.kb)
    user_ids = [user.user_id for user in world.users]
    service_config = ServiceConfig(k=K, workers=WORKERS, engine=EngineConfig(k=K))
    print(f"serving bench: cpu_count={os.cpu_count()}, {len(user_ids)} users per tenant")

    # Reference levels, reused by every topology that shares them.
    references: Dict[tuple, Level] = {}

    def measure(label, backend, names, skew, clients, expected=None) -> Level:
        key = (backend, tuple(names), skew, clients)
        if expected is None and key in references:
            return references[key]
        schedule = (
            _rotation(names, user_ids) if skew is None
            else zipf_schedule(names, user_ids, skew)[0]
        )
        level = _measure(
            backend, names, kb_bytes, world.users, service_config,
            plan(schedule, clients, requests), expected,
        )
        if expected is None:
            references[key] = level
        print(
            f"{label} clients {clients:3d}: {level.metrics['throughput_rps']:8.1f} req/s  "
            f"p50 {level.metrics['p50_ms']:7.2f} ms  p99 {level.metrics['p99_ms']:7.2f} ms"
        )
        return level

    sections: Dict[str, Dict] = {}
    for topology in table:
        backend, skew = topology.backend, topology.skew
        names = tenant_names(backend.shards, 1 if quick else 2) if backend.shards else [TENANT]
        meta = {
            "repro_version": __version__,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "world_seed": WORLD_SEED,
            "n_classes": config.schema.n_classes,
            "n_properties": config.schema.n_properties,
            "n_versions": config.evolution.n_versions,
            "changes_per_version": config.evolution.changes_per_version,
            "n_users": len(user_ids),
            "n_tenants": len(names),
            "shards": backend.shards,
            "replicas": backend.replicas,
            "cache_entries": CACHE_ENTRIES if backend.cache else 0,
            "transport": "http" if backend.http else "python-api",
            "requests_per_client": requests,
            "workers": WORKERS,
            "k": K,
            "quick": quick,
        }
        if skew is not None:
            _, hot_tenant, hot_share = zipf_schedule(names, user_ids, skew)
            meta.update(skew=f"zipf:{skew}", hot_tenant=hot_tenant, hot_share=hot_share)

        levels: Dict[str, Dict] = {}
        reference: Dict[str, Dict] = {}
        speedup: Dict[str, float] = {}
        hit_path = {"misses_before": 0, "misses_after": 0, "hits": 0, "requests": 0}
        mismatches = 0
        for clients in CLIENT_LEVELS:
            name = f"clients_{clients}"
            expected = None
            if topology.reference is not None:
                base = measure(
                    f"{topology.section} reference", topology.reference, names, skew, clients
                )
                reference[name], expected = base.metrics, base.bodies
            level = measure(topology.section, backend, names, skew, clients, expected)
            levels[name] = level.metrics
            mismatches += level.mismatches
            for counter, value in level.cache.items():
                hit_path[counter] += value
            if topology.reference is not None:
                speedup[name] = (
                    level.metrics["throughput_rps"] / reference[name]["throughput_rps"]
                    if reference[name]["throughput_rps"] else 0.0
                )

        section = {"meta": meta, "levels": levels}
        invariants: Dict[str, bool] = {}
        numbers: Dict[str, float] = {}
        if topology.reference is not None:
            section.update(reference=reference, speedup=speedup)
            invariants["responses_bit_identical"] = mismatches == 0
            print(f"{topology.section}: {mismatches} bodies differ from the reference's")
        if backend.cache:
            section["hit_path"] = hit_path
            invariants["engine_free"] = hit_path["misses_after"] == hit_path["misses_before"]
            numbers["min_speedup"] = min(speedup.values())
        if backend.http:
            mixed = _mixed_stream_bit_identical(config, service_config, requests)
            invariants["responses_bit_identical"] = invariants["responses_bit_identical"] and mixed
            section["idle_keepalive"] = idle = _idle_keepalive(world, service_config)
            print(
                f"idle keep-alive: {idle['threads_half']} threads at "
                f"{idle['connections_half']} connections, {idle['threads']} at "
                f"{idle['connections']}"
            )
            invariants["idle_reference_is_half"] = (
                idle["connections_half"] == idle["connections"] // 2
            )
            invariants["idle_threads_flat"] = idle["threads"] == idle["threads_half"]
            numbers["idle_connections"] = idle["connections"]
        if backend.replicas:
            numbers["top_speedup"] = speedup[f"clients_{max(CLIENT_LEVELS)}"]
        section.update(invariants=invariants, numbers=numbers)
        sections[topology.section] = section
        merge_section(output, topology.section, section)
    return sections


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "-o", "--output", type=Path, default=Path("BENCH_substrate.json"),
        help="report to merge the sections into (default: BENCH_substrate.json)",
    )
    parser.add_argument(
        "--only", nargs="*", default=None,
        help="run only the named topologies (section names, e.g. service_http)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: shrunk workload, few requests (not comparable to full runs)",
    )
    return parser


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    sections = run(args.output, quick=args.quick, only=args.only)
    return 0 if all(all(s["invariants"].values()) for s in sections.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
