"""Closed-loop load generator for the serving layer (single-process and sharded).

Builds a synthetic tenant, stands up an in-process
:class:`repro.service.RecommendationService` and hammers
``recommend`` from 1 / 8 / 32 concurrent closed-loop clients (every client
issues its next request as soon as the previous one resolves), reporting
throughput and latency percentiles per concurrency level::

    PYTHONPATH=src python benchmarks/bench_service.py                    # merge into BENCH_substrate.json
    PYTHONPATH=src python benchmarks/bench_service.py -o out.json        # custom report path
    PYTHONPATH=src python benchmarks/bench_service.py --quick            # smoke mode (seconds)
    PYTHONPATH=src python benchmarks/bench_service.py --clients 1 8      # custom levels
    PYTHONPATH=src python benchmarks/bench_service.py --http             # through the HTTP front-end

With ``--http`` the same closed-loop clients hammer the HTTP front-end
(:mod:`repro.service.aio`, the one ``repro serve`` runs) on an ephemeral
port instead of the Python API; every client opens **one persistent
keep-alive connection** and reuses it for all of its requests, so the
measured latencies are the server's, not per-request TCP setup's.  The
results merge as a separate ``"service_http"`` section -- the gated
``"service"`` numbers keep measuring the service itself -- which also
records the front-end's two invariants:

* ``responses_bit_identical``: a deterministic concurrent mixed
  read/commit stream (single committer, reads pinned to one version pair,
  so every response is byte-deterministic) is captured byte for byte and
  compared with a serial replay of the same requests on an identically
  generated twin service -- any divergence is an error;
* ``idle_keepalive``: the server's thread count with N/2 and with N
  established, served, idle keep-alive connections (N = 240).  The two
  must be equal -- an idle connection costs a coroutine, never a thread --
  which holds on any hardware::

    PYTHONPATH=src python benchmarks/bench_service.py --http
    PYTHONPATH=src python benchmarks/bench_service.py --http --quick

With ``--cache`` the harness benchmarks the **versioned response cache**
(:mod:`repro.service.respcache`) against the uncached service, in two
phases: a deterministic read schedule replayed against a cache-off and a
cache-on service over identically-generated worlds (every response body
must match byte for byte -- the cache may change cost, never bytes), and
a **warm repeated-read hammer** where every key is filled once untimed
and the tenant's miss counter is recorded before and after the timed run
(zero new misses proves hits never invoke the engine -- the
hardware-independent signal the regression gate reads).  The same hammer
runs uncached at every level; the cached/uncached throughput ratio is the
hit-path speedup.  The results merge as a ``"service_cached"`` section::

    PYTHONPATH=src python benchmarks/bench_service.py --cache
    PYTHONPATH=src python benchmarks/bench_service.py --cache --quick

With ``--shards N`` the harness instead benchmarks the **sharded
topology**: a multi-tenant world (every tenant a wire-format replica of
the same synthetic KB, so shards have real independent state) is served
once by a single-process service and once by a
:class:`repro.service.ShardSupervisor` with N worker processes, under the
same client levels and the same deterministic (tenant, user) request
schedule; the report records both sides plus the throughput speedup, and
verifies that the two topologies returned bit-identical responses::

    PYTHONPATH=src python benchmarks/bench_service.py --shards 4
    PYTHONPATH=src python benchmarks/bench_service.py --shards 2 --quick

With ``--replicas R`` (on top of ``--shards``) the harness benchmarks the
**replicated topology** under a *skewed* tenant mix: request tenants are
drawn from a deterministic Zipf table (``--skew zipf:A``, default
``zipf:1.1``), so one tenant is hot -- exactly the workload the sharded
plane cannot scale (a tenant lives on one shard process) and the
zero-copy shared-memory replicas of :mod:`repro.service.replica` exist
for.  The same skewed schedule runs once against the owner-only topology
(``replicas=0``) and once with R read replicas per tenant; the merged
``"service_replicated"`` section records both sides, the per-level
speedup, the hot tenant's request share, ``cpu_count``, and that
replicated responses were bit-identical to a single-process service::

    PYTHONPATH=src python benchmarks/bench_service.py --shards 2 --replicas 2
    PYTHONPATH=src python benchmarks/bench_service.py --shards 2 --replicas 1 --quick

The report *merges* a ``"service"`` (or ``"service_sharded"`` /
``"service_replicated"``) section into the target JSON (the substrate
report of ``run_bench.py``), so one ``BENCH_substrate.json`` carries the
substrate micro-benchmarks and the serving numbers::

    {
      ...,
      "service": {"meta": {...}, "levels": {"clients_1": {...}, ...}},
      "service_sharded": {
        "meta": {...workload, shards, cpu_count...},
        "single_process": {"clients_32": {...}},
        "sharded":        {"clients_32": {...}},
        "speedup":        {"clients_32": ...},
        "responses_bit_identical": true
      }
    }

Each level runs against a fresh service / supervisor (cold per-context
caches are warmed by untimed requests first -- the steady state of a
long-lived deployment), over the same version pair, with deterministic
per-client rotation, so levels differ only in concurrency.  Note that a
shard only helps when it owns tenants *and* the machine has spare cores:
the meta records ``cpu_count`` so a 1-core CI box's flat speedup is not
mistaken for a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from repro._version import __version__
from repro.io.storage import package_to_dict
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

DEFAULT_CLIENT_LEVELS = (1, 8, 32)
TENANT = "bench"

#: (client_index, request_index) -> request; shared by every topology so the
#: single-process and sharded runs see byte-for-byte the same stream.
Schedule = Callable[[int, int], Tuple[str, str]]


def _percentile(sorted_samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty sample list."""
    rank = max(0, min(len(sorted_samples) - 1, round(fraction * (len(sorted_samples) - 1))))
    return sorted_samples[rank]


def _hammer(
    recommend: "Callable[[str, str], object] | Callable[[], Callable[[str, str], object]]",
    schedule: Schedule,
    clients: int,
    requests_per_client: int,
    per_client: bool = False,
) -> Tuple[List[float], float]:
    """Closed-loop hammer; returns (sorted latency samples, wall seconds).

    With ``per_client=True``, ``recommend`` is a zero-argument *factory*
    called once inside each client thread -- the HTTP transport uses this
    to give every client its own persistent keep-alive connection, so the
    measured numbers are the server's, not TCP connection setup's.
    """
    latencies: List[List[float]] = [[] for _ in range(clients)]
    errors: List[BaseException] = []
    start_barrier = threading.Barrier(clients + 1)

    def client_loop(index: int) -> None:
        my_latencies = latencies[index]
        send = None
        try:
            send = recommend() if per_client else recommend
            start_barrier.wait()
            for i in range(requests_per_client):
                tenant, user_id = schedule(index, i)
                begin = time.perf_counter()
                send(tenant, user_id)
                my_latencies.append(time.perf_counter() - begin)
        except BaseException as exc:  # surfaced as a failed run
            errors.append(exc)
            start_barrier.abort()  # never leave the main thread waiting
        finally:
            # Per-client transports (the HTTP mode's keep-alive
            # connections) expose close on the callable; release them.
            close = getattr(send, "close", None)
            if close is not None:
                close()

    threads = [
        threading.Thread(target=client_loop, args=(i,), daemon=True)
        for i in range(clients)
    ]
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
    return sorted(s for per_client in latencies for s in per_client), wall


def _level_metrics(samples: List[float], wall: float, clients: int) -> Dict[str, float]:
    return {
        "clients": clients,
        "requests": len(samples),
        "wall_s": wall,
        "throughput_rps": len(samples) / wall if wall > 0 else 0.0,
        "mean_ms": statistics.fmean(samples) * 1e3,
        "p50_ms": _percentile(samples, 0.50) * 1e3,
        "p99_ms": _percentile(samples, 0.99) * 1e3,
        "max_ms": samples[-1] * 1e3,
    }


# -- single-process, single-tenant (the classic "service" section) -----------------


def _http_client_factory(host: str, port: int) -> Callable[[], Callable[[str, str], Dict]]:
    """A factory of per-client ``recommend`` callables over HTTP.

    Each load-generator client calls the factory once and gets its own
    persistent ``http.client.HTTPConnection`` (the server speaks HTTP/1.1
    with Content-Length, so the connection stays alive across requests).
    One connection per client, reused for every request: the benchmark
    measures the server, not per-request TCP setup.
    """
    import http.client
    import socket

    def make() -> Callable[[str, str], Dict]:
        connection = http.client.HTTPConnection(host, port)
        connection.connect()
        # Small request/response pairs over a reused connection: disable
        # Nagle or every exchange risks a ~40ms delayed-ACK stall.
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def recommend(tenant: str, user_id: str) -> Dict:
            body = json.dumps({"tenant": tenant, "user": user_id}).encode("utf-8")
            connection.request(
                "POST", "/recommend", body, {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            payload = response.read()
            if response.status != 200:
                raise RuntimeError(
                    f"/recommend -> {response.status}: {payload[:200]!r}"
                )
            return json.loads(payload)

        recommend.close = connection.close  # released by the hammer/warmup
        return recommend

    return make


def _run_level(
    world,
    clients: int,
    requests_per_client: int,
    workers: int,
    warmup_requests: int,
    k: int,
    http: bool = False,
) -> Dict[str, float]:
    """One concurrency level against a fresh service; returns its metrics.

    ``http=True`` hammers the HTTP front-end on an ephemeral port (one
    keep-alive connection per client) instead of the Python API.
    """
    service = RecommendationService(
        ServiceConfig(k=k, workers=workers, engine=EngineConfig(k=k))
    )
    service.add_tenant(TENANT, world.kb, world.users)
    user_ids = [user.user_id for user in world.users]

    def schedule(client_index: int, i: int) -> Tuple[str, str]:
        # Deterministic per-client rotation over the user population.
        return TENANT, user_ids[(client_index + i) % len(user_ids)]

    server = None
    try:
        if http:
            server = AsyncServerThread(service)
            factory = _http_client_factory(*server.start())
            warm = factory()
            recommend, per_client = factory, True
        else:
            warm = service.recommend
            recommend, per_client = service.recommend, False
        for i in range(warmup_requests):
            warm(TENANT, user_ids[i % len(user_ids)])
        warm_close = getattr(warm, "close", None)
        if warm_close is not None:
            warm_close()
        stats_before = service.admission_stats.snapshot()
        samples, wall = _hammer(
            recommend, schedule, clients, requests_per_client, per_client=per_client
        )
        stats_after = service.admission_stats.snapshot()
    finally:
        if server is not None:
            server.stop()
        service.close()

    metrics = _level_metrics(samples, wall, clients)
    metrics["batches"] = stats_after["batches"] - stats_before["batches"]
    metrics["largest_batch"] = stats_after["largest_batch"]
    return metrics


def run(
    output: Path,
    clients: List[int] | None = None,
    requests_per_client: int = 60,
    workers: int = 4,
    warmup_requests: int = 8,
    k: int = 5,
    quick: bool = False,
    http: bool = False,
) -> Dict:
    """Run every concurrency level and merge the section into ``output``.

    ``http=True`` benches through the HTTP front-end (persistent
    keep-alive connection per client) and merges a ``"service_http"``
    section instead, so the gated in-process ``"service"`` numbers keep
    their meaning.  That section also records the front-end's two
    invariants: ``responses_bit_identical`` (a concurrent mixed
    read/commit stream against a serial replay on a twin world) and
    ``idle_keepalive`` (thread counts at N/2 and N idle connections).
    """
    levels = list(clients or DEFAULT_CLIENT_LEVELS)
    config = QUICK_CONFIG if quick else WORLD_CONFIG
    if quick:
        requests_per_client = min(requests_per_client, 5)
        warmup_requests = min(warmup_requests, 2)
    world = generate_world(seed=WORLD_SEED, config=config)

    results: Dict[str, Dict] = {}
    for level in levels:
        metrics = _run_level(
            world,
            clients=level,
            requests_per_client=requests_per_client,
            workers=workers,
            warmup_requests=warmup_requests,
            k=k,
            http=http,
        )
        results[f"clients_{level}"] = metrics
        print(
            f"clients {level:3d}: {metrics['throughput_rps']:8.1f} req/s  "
            f"p50 {metrics['p50_ms']:7.2f} ms  p99 {metrics['p99_ms']:7.2f} ms  "
            f"({metrics['requests']} requests, {metrics['batches']} batches, "
            f"largest batch {metrics['largest_batch']})"
        )

    section = {
        "meta": {
            "repro_version": __version__,
            "python": platform.python_version(),
            "world_seed": WORLD_SEED,
            "n_classes": config.schema.n_classes,
            "n_properties": config.schema.n_properties,
            "n_versions": config.evolution.n_versions,
            "changes_per_version": config.evolution.changes_per_version,
            "n_users": len(world.users),
            "requests_per_client": requests_per_client,
            "workers": workers,
            "k": k,
            "quick": quick,
            "transport": "http" if http else "python-api",
        },
        "levels": results,
    }
    if http:
        service_config = ServiceConfig(k=k, workers=workers, engine=EngineConfig(k=k))
        section["responses_bit_identical"] = _mixed_stream_bit_identical(
            config, service_config, requests_per_client
        )
        section["idle_keepalive"] = idle = _idle_keepalive(world, service_config)
        print(
            f"idle keep-alive: {idle['threads_half']} threads at "
            f"{idle['connections_half']} connections, {idle['threads']} at "
            f"{idle['connections']}"
        )
    _merge_section(output, "service_http" if http else "service", section)
    return section


# -- HTTP front-end invariants ------------------------------------------------------

#: Idle keep-alive connections the ``service_http`` idle block opens (N).
#: The server's thread count at N must equal its count at N/2: an idle
#: connection costs a parked coroutine, never a thread.  Far inside
#: default file-descriptor limits (two sockets per connection in-process).
IDLE_CONNECTIONS = 240


def _open_idle_connection(host: str, port: int, user_id: str):
    """Open one keep-alive connection, prove it is served, leave it idle.

    The round-trip matters: an unaccepted or unserved socket would count
    as "held" without the server ever paying for it.  It is a
    ``/recommend`` because that path never leaves the event loop and the
    admission workers (both fixed), whereas ``/health`` runs in the loop's
    executor, which may start a thread of its own whenever a request
    arrives before an idle one is back -- a cost of requests, bounded by
    the executor size, not of connections.
    """
    import http.client

    connection = http.client.HTTPConnection(host, port, timeout=30)
    connection.request(
        "POST", "/recommend", json.dumps({"tenant": TENANT, "user": user_id}),
        {"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    payload = response.read()
    if response.status != 200:
        connection.close()
        raise RuntimeError(f"idle /recommend -> {response.status}: {payload[:200]!r}")
    return connection


def _idle_keepalive(world, service_config: ServiceConfig) -> Dict:
    """Thread counts with N/2 and N established, served, idle connections."""
    service = RecommendationService(service_config)
    service.add_tenant(TENANT, world.kb, world.users)
    user_id = world.users[0].user_id
    connections = []
    half = IDLE_CONNECTIONS // 2
    try:
        with AsyncServerThread(service, max_connections=IDLE_CONNECTIONS + 8) as server:
            host, port = server.address
            for _ in range(half):
                connections.append(_open_idle_connection(host, port, user_id))
            threads_half = threading.active_count()
            for _ in range(IDLE_CONNECTIONS - half):
                connections.append(_open_idle_connection(host, port, user_id))
            threads = threading.active_count()
            # Liveness under load: the server still answers with every
            # idle connection open, on old connections and new ones alike.
            connections[0].request("GET", "/health")
            connections[0].getresponse().read()
            _open_idle_connection(host, port, user_id).close()
    finally:
        for connection in connections:
            connection.close()
        service.close()
    return {
        "connections_half": half,
        "threads_half": threads_half,
        "connections": IDLE_CONNECTIONS,
        "threads": threads,
    }


def _capture_stream(
    host: str,
    port: int,
    schedule: Schedule,
    clients: int,
    requests_per_client: int,
    pinned_pair: Tuple[str, str],
    commit_bodies: List[bytes],
) -> List[List[bytes]]:
    """Hammer a mixed read/commit stream; return raw response bytes per client.

    Client 0 issues the ``commit_bodies`` sequence (single committer ->
    deterministic version chain); every other client reads with the
    version pair **pinned** to ``pinned_pair``, so a read racing a commit
    scores the same snapshot no matter how the two interleave.  That makes
    every response byte-deterministic, so a serial replay of the same
    requests must produce identical bytes per (client, index).
    """
    import http.client

    captured: List[List[bytes]] = [[] for _ in range(clients)]
    errors: List[BaseException] = []
    start_barrier = threading.Barrier(clients)

    def client_loop(index: int) -> None:
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            start_barrier.wait()
            if index == 0 and commit_bodies:
                for body in commit_bodies:
                    connection.request(
                        "POST", "/commit", body, {"Content-Type": "application/json"}
                    )
                    response = connection.getresponse()
                    payload = response.read()
                    if response.status != 200:
                        raise RuntimeError(f"/commit -> {response.status}: {payload[:200]!r}")
                    captured[index].append(payload)
                return
            old_id, new_id = pinned_pair
            for i in range(requests_per_client):
                tenant, user_id = schedule(index, i)
                body = json.dumps(
                    {"tenant": tenant, "user": user_id, "old": old_id, "new": new_id}
                ).encode("utf-8")
                connection.request(
                    "POST", "/recommend", body, {"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                payload = response.read()
                if response.status != 200:
                    raise RuntimeError(f"/recommend -> {response.status}: {payload[:200]!r}")
                captured[index].append(payload)
        except BaseException as exc:
            errors.append(exc)
            start_barrier.abort()
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client_loop, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return captured


def _mixed_stream_bit_identical(
    config: WorldConfig, service_config: ServiceConfig, requests_per_client: int
) -> bool:
    """The front-end's bytes under a concurrent mixed stream == a serial replay.

    The stream (one committer, readers pinned to one version pair) runs
    against the front-end over one world; the same requests are then
    replayed one by one on an identically generated twin service, each
    result serialised the way the front-end serialises it.  Raises on
    any difference.
    """
    clients = 4
    requests = max(4, min(requests_per_client, 12))
    commits = [
        {
            "tenant": TENANT,
            "added": f"<urn:bench:s{i}> <urn:bench:p> <urn:bench:o{i}> .\n",
            "version_id": f"bench_http_c{i}",
        }
        for i in range(3)
    ]
    served_world = generate_world(seed=WORLD_SEED, config=config)
    ids = served_world.kb.version_ids()
    pinned = (ids[-2], ids[-1])
    user_ids = [user.user_id for user in served_world.users]

    def schedule(client_index: int, i: int) -> Tuple[str, str]:
        return TENANT, user_ids[(client_index + i) % len(user_ids)]

    service = RecommendationService(service_config)
    service.add_tenant(TENANT, served_world.kb, served_world.users)
    try:
        with AsyncServerThread(service) as server:
            captured = _capture_stream(
                *server.address, schedule, clients, requests, pinned,
                [json.dumps(commit).encode("utf-8") for commit in commits],
            )
    finally:
        service.close()

    # Serial replay: the committer's requests in order, then each reader's
    # (pinned reads do not depend on how they interleaved with commits).
    twin_world = generate_world(seed=WORLD_SEED, config=config)
    twin = RecommendationService(service_config)
    twin.add_tenant(TENANT, twin_world.kb, twin_world.users)
    try:
        expected = [[json.dumps(twin.commit_request(commit)).encode() for commit in commits]]
        for index in range(1, clients):
            packages = [
                twin.recommend(*schedule(index, i), old_id=pinned[0], new_id=pinned[1])
                for i in range(requests)
            ]
            expected.append([json.dumps(package_to_dict(p)).encode() for p in packages])
    finally:
        twin.close()
    if captured != expected:
        raise AssertionError(
            "front-end responses diverged from a serial replay under the "
            "mixed read/commit stream"
        )
    print(
        f"verified: front-end responses bit-identical to a serial replay over "
        f"a mixed stream ({sum(map(len, captured))} responses, {len(commits)} commits)"
    )
    return True


# -- response cache vs uncached service --------------------------------------------

#: Entry budget for the cached side of the --cache bench: far above the
#: (users x 1 pair) key population of the canonical workload, so the
#: phase measures the hit path, not eviction churn.
CACHE_BENCH_ENTRIES = 4096


def _cached_level(
    world,
    clients: int,
    requests_per_client: int,
    workers: int,
    k: int,
    cached: bool,
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """One warm closed-loop level; returns ``(metrics, hit_info)``.

    Every key the schedule can issue is filled by one untimed warmup pass
    over the user population, so on the cached side the timed hammer is
    pure hit path.  ``hit_info`` records the tenant's miss counter before
    and after the timed run -- equal counters prove no timed request ever
    invoked the engine (misses count exactly the engine-filling
    computations, by construction of the singleflight).
    """
    config = ServiceConfig(
        k=k,
        workers=workers,
        cache_entries=CACHE_BENCH_ENTRIES if cached else 0,
        engine=EngineConfig(k=k),
    )
    service = RecommendationService(config)
    service.add_tenant(TENANT, world.kb, world.users)
    user_ids = [user.user_id for user in world.users]

    def schedule(client_index: int, i: int) -> Tuple[str, str]:
        return TENANT, user_ids[(client_index + i) % len(user_ids)]

    try:
        for user_id in user_ids:  # fill (or warm) every schedule key once
            service.recommend(TENANT, user_id)
        misses_before = hits_before = 0
        if cached:
            before = service.stats()["per_tenant"][TENANT]["cache"]
            misses_before, hits_before = before["misses"], before["hits"]
        samples, wall = _hammer(
            service.recommend, schedule, clients, requests_per_client
        )
        hit_info: Dict[str, int] = {}
        if cached:
            after = service.stats()["per_tenant"][TENANT]["cache"]
            hit_info = {
                "misses_before": misses_before,
                "misses_after": after["misses"],
                "hits": after["hits"] - hits_before,
                "requests": len(samples),
            }
    finally:
        service.close()
    return _level_metrics(samples, wall, clients), hit_info


def run_cached(
    output: Path,
    clients: List[int] | None = None,
    requests_per_client: int = 60,
    workers: int = 4,
    k: int = 5,
    quick: bool = False,
) -> Dict:
    """Benchmark the versioned response cache against the uncached service.

    Two phases, merged as one ``"service_cached"`` section:

    1. **Bit-identity** -- the same deterministic read schedule runs once
       against a cache-off and once against a cache-on service over
       identically-generated worlds; every response body (including
       repeats served from memory on the cached side) must match byte
       for byte.  The cache may only ever change the *cost* of a
       response, never its bytes.
    2. **Hit path** -- a warm repeated-read closed-loop hammer at every
       concurrency level, cached and uncached, with the cached tenant's
       miss counter snapshotted around the timed run: zero new misses
       proves hits never invoke the engine.  The recorded speedup is the
       *minimum* cached/uncached throughput ratio across levels -- the
       gate's floor must hold at any concurrency.
    """
    levels = list(clients or DEFAULT_CLIENT_LEVELS)
    config = QUICK_CONFIG if quick else WORLD_CONFIG
    if quick:
        requests_per_client = min(requests_per_client, 5)
    world = generate_world(seed=WORLD_SEED, config=config)
    user_ids = [user.user_id for user in world.users]

    # -- phase 1: cached bodies byte-identical to uncached -------------------------
    plain_world = generate_world(seed=WORLD_SEED, config=config)
    cached_service = RecommendationService(
        ServiceConfig(
            k=k, workers=workers,
            cache_entries=CACHE_BENCH_ENTRIES, engine=EngineConfig(k=k),
        )
    )
    plain_service = RecommendationService(
        ServiceConfig(k=k, workers=workers, engine=EngineConfig(k=k))
    )
    compared = 0
    try:
        cached_service.add_tenant(TENANT, world.kb, world.users)
        plain_service.add_tenant(TENANT, plain_world.kb, plain_world.users)
        for user_id in user_ids:
            expected = plain_service.recommend_cached(TENANT, user_id)
            for _ in range(2):  # fill, then the memoised repeat
                got = cached_service.recommend_cached(TENANT, user_id)
                if got.body != expected.body:
                    raise AssertionError(
                        f"cached response diverged from uncached for {user_id!r}"
                    )
                compared += 1
    finally:
        plain_service.close()
        cached_service.close()
    print(
        f"verified: cached responses bit-identical to uncached "
        f"({compared} responses over {len(user_ids)} users)"
    )

    # -- phase 2: warm hit-path hammer, cached vs uncached -------------------------
    results: Dict[str, Dict] = {}
    hit_totals = {"misses_before": 0, "misses_after": 0, "hits": 0, "requests": 0}
    speedups: List[float] = []
    for level in levels:
        uncached_metrics, _ = _cached_level(
            world, level, requests_per_client, workers, k, cached=False
        )
        cached_metrics, hit_info = _cached_level(
            world, level, requests_per_client, workers, k, cached=True
        )
        for key in hit_totals:
            hit_totals[key] += hit_info[key]
        ratio = (
            cached_metrics["throughput_rps"] / uncached_metrics["throughput_rps"]
            if uncached_metrics["throughput_rps"]
            else 0.0
        )
        speedups.append(ratio)
        results[f"clients_{level}"] = {
            "uncached": uncached_metrics,
            "cached": cached_metrics,
            "speedup": ratio,
        }
        print(
            f"clients {level:3d}: uncached {uncached_metrics['throughput_rps']:8.1f} "
            f"req/s, cached {cached_metrics['throughput_rps']:8.1f} req/s "
            f"-> {ratio:.1f}x  (misses {hit_info['misses_before']} -> "
            f"{hit_info['misses_after']} over {hit_info['requests']} requests)"
        )

    hit_path = dict(hit_totals)
    hit_path["engine_free"] = hit_path["misses_after"] == hit_path["misses_before"]
    section = {
        "meta": {
            "repro_version": __version__,
            "python": platform.python_version(),
            "world_seed": WORLD_SEED,
            "n_classes": config.schema.n_classes,
            "n_properties": config.schema.n_properties,
            "n_versions": config.evolution.n_versions,
            "changes_per_version": config.evolution.changes_per_version,
            "n_users": len(world.users),
            "requests_per_client": requests_per_client,
            "workers": workers,
            "k": k,
            "cache_entries": CACHE_BENCH_ENTRIES,
            "quick": quick,
            "transport": "python-api",
        },
        "levels": results,
        "hit_path": hit_path,
        "speedup": min(speedups) if speedups else 0.0,
        "responses_bit_identical": True,
    }
    _merge_section(output, "service_cached", section)
    return section


# -- sharded topology vs single-process baseline -----------------------------------


def _tenant_names(shards: int, per_shard: int) -> List[str]:
    """Deterministic tenant names giving every shard exactly ``per_shard``.

    Candidate names are probed in order and kept only while their shard
    (by the production routing hash) still has room, so the sharded run
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


def _multi_tenant_schedule(
    names: Sequence[str], user_ids: Sequence[str]
) -> Schedule:
    def schedule(client_index: int, i: int) -> Tuple[str, str]:
        step = client_index + i
        return names[step % len(names)], user_ids[step % len(user_ids)]

    return schedule


def _warmup_stream(
    names: Sequence[str], user_ids: Sequence[str], per_tenant: int
) -> List[Tuple[str, str]]:
    return [
        (name, user_ids[i % len(user_ids)])
        for name in names
        for i in range(per_tenant)
    ]


def _run_sharded_level(
    make_recommend,
    names: Sequence[str],
    user_ids: Sequence[str],
    clients: int,
    requests_per_client: int,
    warmup_per_tenant: int,
) -> Dict[str, float]:
    """One level against a fresh topology built by ``make_recommend()``.

    ``make_recommend`` returns ``(recommend, close)``; both topologies run
    the identical schedule and warmup stream.
    """
    recommend, close = make_recommend()
    try:
        for tenant, user_id in _warmup_stream(names, user_ids, warmup_per_tenant):
            recommend(tenant, user_id)
        samples, wall = _hammer(
            recommend,
            _multi_tenant_schedule(names, user_ids),
            clients,
            requests_per_client,
        )
    finally:
        close()
    return _level_metrics(samples, wall, clients)


def _verify_bit_identical(
    make_single, make_sharded, names: Sequence[str], user_ids: Sequence[str]
) -> None:
    """Assert sharded == single-process responses over all (tenant, user)."""
    single_recommend, single_close = make_single()
    sharded_recommend, sharded_close = make_sharded()
    try:
        for name in names:
            for user_id in user_ids:
                single = single_recommend(name, user_id)
                sharded = sharded_recommend(name, user_id)
                if single != sharded:
                    raise AssertionError(
                        f"sharded response diverged for ({name}, {user_id})"
                    )
    finally:
        sharded_close()
        single_close()


def run_sharded(
    output: Path,
    shards: int,
    clients: List[int] | None = None,
    requests_per_client: int = 60,
    workers: int = 4,
    warmup_per_tenant: int = 4,
    k: int = 5,
    quick: bool = False,
) -> Dict:
    """Benchmark single-process vs sharded serving over one tenant fleet."""
    if shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {shards}")
    levels = list(clients or DEFAULT_CLIENT_LEVELS)
    config = QUICK_CONFIG if quick else WORLD_CONFIG
    per_shard = 1 if quick else 2
    if quick:
        requests_per_client = min(requests_per_client, 5)
        warmup_per_tenant = min(warmup_per_tenant, 2)

    world = generate_world(seed=WORLD_SEED, config=config)
    kb_bytes = wire.encode_kb(world.kb)  # every tenant gets a bit-identical replica
    names = _tenant_names(shards, per_shard)
    user_ids = [user.user_id for user in world.users]
    service_config = ServiceConfig(k=k, workers=workers, engine=EngineConfig(k=k))

    def make_single():
        service = RecommendationService(service_config)
        for name in names:
            service.add_tenant(name, wire.decode_kb(kb_bytes), world.users)

        def recommend(tenant: str, user_id: str) -> Dict:
            return package_to_dict(service.recommend(tenant, user_id))

        return recommend, service.close

    def make_sharded():
        supervisor = ShardSupervisor(shards=shards, config=service_config)
        for name in names:
            supervisor.add_tenant(name, wire.decode_kb(kb_bytes), world.users)
        supervisor.start()
        return supervisor.recommend, supervisor.close

    print(
        f"sharded bench: {shards} shards, {len(names)} tenants, "
        f"{len(user_ids)} users/tenant, cpu_count={os.cpu_count()}"
    )
    _verify_bit_identical(make_single, make_sharded, names, user_ids)
    print("verified: sharded responses bit-identical to single-process")

    single_levels: Dict[str, Dict] = {}
    sharded_levels: Dict[str, Dict] = {}
    speedup: Dict[str, float] = {}
    for level in levels:
        for label, make, results in (
            ("single ", make_single, single_levels),
            ("sharded", make_sharded, sharded_levels),
        ):
            metrics = _run_sharded_level(
                make, names, user_ids, level, requests_per_client, warmup_per_tenant
            )
            results[f"clients_{level}"] = metrics
            print(
                f"{label} clients {level:3d}: {metrics['throughput_rps']:8.1f} req/s  "
                f"p50 {metrics['p50_ms']:7.2f} ms  p99 {metrics['p99_ms']:7.2f} ms"
            )
        key = f"clients_{level}"
        speedup[key] = (
            sharded_levels[key]["throughput_rps"]
            / single_levels[key]["throughput_rps"]
            if single_levels[key]["throughput_rps"]
            else 0.0
        )
        print(f"speedup clients {level:3d}: {speedup[key]:.2f}x")

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
            "shards": shards,
            "requests_per_client": requests_per_client,
            "workers": workers,
            "k": k,
            "quick": quick,
        },
        "single_process": single_levels,
        "sharded": sharded_levels,
        "speedup": speedup,
        "responses_bit_identical": True,
    }
    _merge_section(output, "service_sharded", section)
    return section


# -- replicated topology under a skewed (hot-tenant) mix ---------------------------


def parse_skew(spec: str) -> float:
    """``zipf:A`` -> the Zipf exponent ``A`` (> 0)."""
    kind, _, raw = spec.partition(":")
    if kind != "zipf" or not raw:
        raise SystemExit(f"--skew must look like zipf:A (e.g. zipf:1.1), got {spec!r}")
    try:
        exponent = float(raw)
    except ValueError:
        raise SystemExit(f"--skew exponent must be a number, got {raw!r}") from None
    if exponent <= 0:
        raise SystemExit(f"--skew exponent must be > 0, got {exponent}")
    return exponent


def _zipf_schedule(
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


def run_replicated(
    output: Path,
    shards: int,
    replicas: int,
    skew: str = "zipf:1.1",
    clients: List[int] | None = None,
    requests_per_client: int = 60,
    workers: int = 4,
    warmup_per_tenant: int = 4,
    k: int = 5,
    quick: bool = False,
) -> Dict:
    """Benchmark owner-only vs replicated serving under a hot-tenant mix.

    Both topologies are sharded (``shards`` processes); the replicated one
    additionally runs ``replicas`` read-only processes per tenant.  The
    schedule is Zipf-skewed so tenant rank 0 dominates -- the single-owner
    bottleneck replicas are built to break.  Warmup is scaled by
    ``1 + replicas`` so round-robin routing warms every replica's
    per-context caches, not just the owner's.
    """
    if shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {shards}")
    if replicas < 1:
        raise SystemExit(f"--replicas must be >= 1, got {replicas}")
    exponent = parse_skew(skew)
    levels = list(clients or DEFAULT_CLIENT_LEVELS)
    config = QUICK_CONFIG if quick else WORLD_CONFIG
    per_shard = 1 if quick else 2
    if quick:
        requests_per_client = min(requests_per_client, 5)
        warmup_per_tenant = min(warmup_per_tenant, 2)

    world = generate_world(seed=WORLD_SEED, config=config)
    kb_bytes = wire.encode_kb(world.kb)
    names = _tenant_names(shards, per_shard)
    user_ids = [user.user_id for user in world.users]
    schedule, hot_tenant, hot_share = _zipf_schedule(names, user_ids, exponent)
    service_config = ServiceConfig(k=k, workers=workers, engine=EngineConfig(k=k))

    def make_single():
        service = RecommendationService(service_config)
        for name in names:
            service.add_tenant(name, wire.decode_kb(kb_bytes), world.users)

        def recommend(tenant: str, user_id: str) -> Dict:
            return package_to_dict(service.recommend(tenant, user_id))

        return recommend, service.close

    def make_topology(n_replicas: int):
        def make():
            supervisor = ShardSupervisor(
                shards=shards, config=service_config, replicas=n_replicas
            )
            for name in names:
                supervisor.add_tenant(name, wire.decode_kb(kb_bytes), world.users)
            supervisor.start()
            return supervisor.recommend, supervisor.close

        return make

    print(
        f"replicated bench: {shards} shards + {replicas} replicas/tenant, "
        f"{len(names)} tenants, skew {skew} (hot tenant {hot_tenant!r} gets "
        f"{hot_share:.0%} of requests), cpu_count={os.cpu_count()}"
    )
    _verify_bit_identical(make_single, make_topology(replicas), names, user_ids)
    print("verified: replicated responses bit-identical to single-process")

    owner_levels: Dict[str, Dict] = {}
    replicated_levels: Dict[str, Dict] = {}
    speedup: Dict[str, float] = {}
    for level in levels:
        for label, n_replicas, results in (
            ("owner-only", 0, owner_levels),
            ("replicated", replicas, replicated_levels),
        ):
            recommend, close = make_topology(n_replicas)()
            try:
                # x(1 + replicas) warmup: round-robin spreads the stream
                # over owner + replicas, so each process warms its caches.
                warm_rounds = warmup_per_tenant * (1 + n_replicas)
                for tenant, user_id in _warmup_stream(names, user_ids, warm_rounds):
                    recommend(tenant, user_id)
                samples, wall = _hammer(
                    recommend, schedule, level, requests_per_client
                )
            finally:
                close()
            metrics = _level_metrics(samples, wall, level)
            results[f"clients_{level}"] = metrics
            print(
                f"{label} clients {level:3d}: {metrics['throughput_rps']:8.1f} req/s  "
                f"p50 {metrics['p50_ms']:7.2f} ms  p99 {metrics['p99_ms']:7.2f} ms"
            )
        key = f"clients_{level}"
        speedup[key] = (
            replicated_levels[key]["throughput_rps"]
            / owner_levels[key]["throughput_rps"]
            if owner_levels[key]["throughput_rps"]
            else 0.0
        )
        print(f"speedup clients {level:3d}: {speedup[key]:.2f}x")

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
            "shards": shards,
            "replicas": replicas,
            "skew": skew,
            "hot_tenant": hot_tenant,
            "hot_share": hot_share,
            "requests_per_client": requests_per_client,
            "workers": workers,
            "k": k,
            "quick": quick,
        },
        "owner_only": owner_levels,
        "replicated": replicated_levels,
        "speedup": speedup,
        "responses_bit_identical": True,
    }
    _merge_section(output, "service_replicated", section)
    return section


def _merge_section(output: Path, key: str, section: Dict) -> None:
    report: Dict = {}
    if output.exists():
        report = json.loads(output.read_text())
    report[key] = section
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"merged {key} section into {output}")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "-o", "--output", type=Path, default=Path("BENCH_substrate.json"),
        help="report to merge the section into (default: BENCH_substrate.json)",
    )
    parser.add_argument(
        "--clients", nargs="*", type=int, default=None,
        help=f"concurrency levels (default: {' '.join(map(str, DEFAULT_CLIENT_LEVELS))})",
    )
    parser.add_argument(
        "--requests", type=int, default=60, help="requests per client per level"
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="service worker threads (per shard with --shards)",
    )
    parser.add_argument(
        "--warmup", type=int, default=None,
        help="untimed warmup requests (default: 8 total, or 4 per tenant in "
             "--shards mode)",
    )
    parser.add_argument("-k", type=int, default=5, help="package size")
    parser.add_argument(
        "--shards", type=int, default=0,
        help="benchmark the sharded topology with this many worker processes "
             "against a single-process baseline (writes 'service_sharded')",
    )
    parser.add_argument(
        "--replicas", type=int, default=0,
        help="with --shards: benchmark this many read replicas per tenant "
             "against the owner-only sharded topology, under the --skew "
             "tenant mix (writes 'service_replicated')",
    )
    parser.add_argument(
        "--skew", default="zipf:1.1",
        help="tenant mix for the --replicas bench, as zipf:A "
             "(default zipf:1.1; larger A = hotter hot tenant)",
    )
    parser.add_argument(
        "--http", action="store_true",
        help="bench through the HTTP front-end (one persistent keep-alive "
             "connection per client), then check its bytes against a serial "
             "replay of a mixed read/commit stream and its thread count "
             "under idle keep-alive connections; merges a 'service_http' "
             "section",
    )
    parser.add_argument(
        "--cache", dest="use_cache", action="store_true",
        help="bench the versioned response cache against the uncached "
             "service: byte-identity over a deterministic read schedule, "
             "then a warm repeated-read hammer whose miss counter proves "
             "hits never invoke the engine; merges a 'service_cached' "
             "section",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: shrunk workload, few requests (not comparable to full runs)",
    )
    args = parser.parse_args(argv)
    if args.http and args.shards:
        raise SystemExit("--http benches the single-process front-end; drop --shards")
    if args.replicas and not args.shards:
        raise SystemExit("--replicas runs on the sharded topology; add --shards N")
    if args.use_cache and (args.shards or args.http):
        raise SystemExit(
            "--cache benches the single-process Python API; drop --shards/--http"
        )
    if args.use_cache:
        run_cached(
            args.output,
            clients=args.clients,
            requests_per_client=args.requests,
            workers=args.workers,
            k=args.k,
            quick=args.quick,
        )
    elif args.replicas:
        run_replicated(
            args.output,
            shards=args.shards,
            replicas=args.replicas,
            skew=args.skew,
            clients=args.clients,
            requests_per_client=args.requests,
            workers=args.workers,
            warmup_per_tenant=4 if args.warmup is None else args.warmup,
            k=args.k,
            quick=args.quick,
        )
    elif args.shards:
        run_sharded(
            args.output,
            shards=args.shards,
            clients=args.clients,
            requests_per_client=args.requests,
            workers=args.workers,
            warmup_per_tenant=4 if args.warmup is None else args.warmup,
            k=args.k,
            quick=args.quick,
        )
    else:
        run(
            args.output,
            clients=args.clients,
            requests_per_client=args.requests,
            workers=args.workers,
            warmup_requests=8 if args.warmup is None else args.warmup,
            k=args.k,
            quick=args.quick,
            http=args.http,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
