"""Sharded serving tests: routing, supervisor, HTTP front-end, bit-identity.

The load-bearing assertion mirrors the single-process suite's: running
the same tenants behind a :class:`ShardSupervisor` (N worker processes,
wire-format bootstrap, pipe transport) returns responses **bit-identical**
to a single-process :class:`RecommendationService` for identical request
streams -- topology changes cost, never values.  One supervisor (2
shards) is shared module-wide to keep process spawns bounded; the
single-process mirror is fed the same wire payload and the same commits,
so the two stay replicas throughout.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.io.storage import package_to_dict
from repro.kb import wire
from repro.kb.namespaces import RDF_TYPE
from repro.kb.triples import Triple
from repro.recommender.engine import EngineConfig
from repro.service import (
    AsyncServerThread,
    RecommendationService,
    ServiceConfig,
    ServiceError,
    ShardSupervisor,
    TenantRegistry,
    UnknownTenantError,
    UnknownUserError,
    make_etag,
)
from repro.synthetic.config import (
    EvolutionConfig,
    InstanceConfig,
    SchemaConfig,
    UserConfig,
    WorldConfig,
)
from repro.synthetic.schema_gen import SYN
from repro.synthetic.world import generate_world

WORLD_CONFIG = WorldConfig(
    schema=SchemaConfig(n_classes=20, n_properties=12),
    instances=InstanceConfig(base_instances_per_class=6),
    evolution=EvolutionConfig(n_versions=3, changes_per_version=30, n_hotspots=2),
    users=UserConfig(n_users=4, events_per_user=8),
)
TENANTS = ("alpha", "beta", "gamma")
SERVICE_CONFIG = ServiceConfig(k=4, workers=2, engine=EngineConfig(k=4))


class TestShardRouting:
    def test_shard_of_is_stable_and_in_range(self):
        for name in ("acme", "uni", "a", "bench000", "ünïcødé"):
            for shards in (1, 2, 3, 8):
                first = TenantRegistry.shard_of(name, shards)
                assert 0 <= first < shards
                assert TenantRegistry.shard_of(name, shards) == first

    def test_shard_of_known_values(self):
        # Pinned: placement is part of the wire contract between router and
        # shards -- silently changing the hash would strand every tenant.
        assert TenantRegistry.shard_of("alpha", 2) == 0
        assert TenantRegistry.shard_of("beta", 2) == 1
        assert TenantRegistry.shard_of("gamma", 2) == 1

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            TenantRegistry.shard_of("x", 0)

    def test_shard_map_partitions_registry(self):
        world = generate_world(seed=5, config=WORLD_CONFIG)
        registry = TenantRegistry()
        for name in TENANTS:
            registry.add(name, wire.decode_kb(wire.encode_kb(world.kb)))
        mapping = registry.shard_map(2)
        assert sorted(n for names in mapping.values() for n in names) == sorted(TENANTS)
        for shard, names in mapping.items():
            for name in names:
                assert TenantRegistry.shard_of(name, 2) == shard


@pytest.fixture(scope="module")
def topologies():
    """The same three tenants behind both topologies, kept in lock-step."""
    world = generate_world(seed=11, config=WORLD_CONFIG)
    kb_bytes = wire.encode_kb(world.kb)

    single = RecommendationService(SERVICE_CONFIG)
    supervisor = ShardSupervisor(shards=2, config=SERVICE_CONFIG)
    for name in TENANTS:
        single.add_tenant(name, wire.decode_kb(kb_bytes), world.users)
        supervisor.add_tenant(name, wire.decode_kb(kb_bytes), world.users)
    supervisor.start()
    try:
        yield world, single, supervisor
    finally:
        supervisor.close()
        single.close()


class TestSupervisorBasics:
    def test_tenants_span_both_shards(self, topologies):
        _, _, supervisor = topologies
        shards = {supervisor.shard_of(name) for name in TENANTS}
        assert shards == {0, 1}
        assert supervisor.tenant_names() == sorted(TENANTS)

    def test_health_and_stats_aggregate(self, topologies):
        _, _, supervisor = topologies
        health = supervisor.health()
        assert health["status"] == "ok"
        assert health["shards"] == 2
        assert health["tenants"] == len(TENANTS)
        stats = supervisor.stats()
        assert set(stats["shards"]) == {"shard_0", "shard_1"}
        assert stats["tenant_shards"] == {
            name: TenantRegistry.shard_of(name, 2) for name in TENANTS
        }

    def test_tenant_summaries_match_single_process(self, topologies):
        _, single, supervisor = topologies
        assert supervisor.tenants() == single.tenants()

    def test_unknown_tenant_and_user_raise_the_service_errors(self, topologies):
        _, _, supervisor = topologies
        with pytest.raises(UnknownTenantError):
            supervisor.recommend("nope", "u0")
        with pytest.raises(UnknownUserError):
            supervisor.recommend(TENANTS[0], "ghost")

    def test_add_tenant_after_start_rejected(self, topologies):
        world, _, supervisor = topologies
        with pytest.raises(ServiceError):
            supervisor.add_tenant("late", world.kb, world.users)


class TestShardedBitIdentity:
    """The acceptance bar: identical request streams -> identical bytes."""

    def test_identical_request_stream_both_topologies(self, topologies):
        world, single, supervisor = topologies
        # The same deterministic stream every bench client would produce:
        # rotate (tenant, user) pairs, including repeats.
        stream = [
            (TENANTS[(c + i) % len(TENANTS)], world.users[(c + i) % len(world.users)].user_id)
            for c in range(4)
            for i in range(6)
        ]
        for tenant, user_id in stream:
            sharded = supervisor.recommend(tenant, user_id)
            expected = package_to_dict(single.recommend(tenant, user_id))
            assert sharded == expected, (tenant, user_id)
            # JSON-serialised bytes identical too (what HTTP clients see).
            assert json.dumps(sharded, sort_keys=True) == json.dumps(
                expected, sort_keys=True
            )

    def test_concurrent_hammer_matches_single_process(self, topologies):
        world, single, supervisor = topologies
        results = {}
        errors = []

        def hit(tenant, user_id):
            try:
                results[(tenant, user_id)] = supervisor.recommend(tenant, user_id)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hit, args=(tenant, user.user_id))
            for tenant in TENANTS
            for user in world.users
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert len(results) == len(TENANTS) * len(world.users)
        for (tenant, user_id), sharded in results.items():
            assert sharded == package_to_dict(single.recommend(tenant, user_id))

    def test_explicit_version_pair_and_k(self, topologies):
        world, single, supervisor = topologies
        ids = world.kb.version_ids()
        user_id = world.users[0].user_id
        sharded = supervisor.recommend(
            TENANTS[0], user_id, k=2, old_id=ids[0], new_id=ids[1]
        )
        expected = package_to_dict(
            single.recommend(TENANTS[0], user_id, k=2, old_id=ids[0], new_id=ids[1])
        )
        assert sharded == expected
        assert len(sharded["items"]) == 2


class TestShardedCommits:
    """Binary-delta commits route to the owning shard and stay replicas."""

    def test_commit_changes_advances_both_topologies(self, topologies):
        world, single, supervisor = topologies
        classes = sorted(world.kb.latest().schema.classes(), key=lambda c: c.value)
        added = [
            Triple(SYN[f"shard_commit_{i}"], RDF_TYPE, classes[i % len(classes)])
            for i in range(5)
        ]
        result = supervisor.commit_changes(
            TENANTS[0], added=added, version_id="v_sharded", metadata={"who": "test"}
        )
        single.commit_changes(
            TENANTS[0], added=added, version_id="v_sharded", metadata={"who": "test"}
        )
        assert result["version_id"] == "v_sharded"
        assert result["versions"] == single.tenant(TENANTS[0]).kb.version_ids()
        # Post-commit reads score the new head pair identically.
        for user in world.users:
            sharded = supervisor.recommend(TENANTS[0], user.user_id)
            expected = package_to_dict(single.recommend(TENANTS[0], user.user_id))
            assert sharded == expected
            assert sharded["metadata"]["context"].endswith("->v_sharded")

    def test_duplicate_version_id_rejected_by_shard(self, topologies):
        world, _, supervisor = topologies
        classes = sorted(world.kb.latest().schema.classes(), key=lambda c: c.value)
        with pytest.raises(ValueError):
            supervisor.commit_changes(
                TENANTS[1],
                added=[Triple(SYN["dup_commit"], RDF_TYPE, classes[0])],
                version_id=world.kb.version_ids()[0],
            )

    def test_empty_commit_rejected_by_shard(self, topologies):
        _, _, supervisor = topologies
        with pytest.raises(ValueError):
            supervisor.commit_changes(TENANTS[1])


class TestShardedHTTPRouter:
    """The one HTTP front-end over the supervisor: same wire contract as
    over a single-process service (raw bytes, ETags, 304s, SSE, alerts)."""

    @pytest.fixture()
    def served(self, topologies):
        world, single, supervisor = topologies
        with AsyncServerThread(supervisor) as router:
            yield world, single, f"http://127.0.0.1:{router.address[1]}"

    @pytest.fixture()
    def single_base(self, topologies):
        _, single, _ = topologies
        with AsyncServerThread(single) as server:
            yield f"http://127.0.0.1:{server.address[1]}"

    @staticmethod
    def _get(base, path):
        with urllib.request.urlopen(f"{base}{path}", timeout=30) as response:
            return response.status, json.loads(response.read())

    @staticmethod
    def _post_raw(base, path, payload, headers=None):
        """POST -> (status, header dict, raw body bytes); 304-aware."""
        request = urllib.request.Request(
            f"{base}{path}",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()

    @classmethod
    def _post(cls, base, path, payload):
        status, _, body = cls._post_raw(base, path, payload)
        return status, json.loads(body)

    def test_health_reports_shards(self, served):
        _, _, base = served
        status, body = self._get(base, "/health")
        assert status == 200
        assert body["shards"] == 2 and body["tenants"] == len(TENANTS)

    def test_recommend_matches_single_process_json(self, served):
        world, single, base = served
        user_id = world.users[1].user_id
        for tenant in TENANTS:
            status, body = self._post(
                base, "/recommend", {"tenant": tenant, "user": user_id}
            )
            assert status == 200
            assert body == package_to_dict(single.recommend(tenant, user_id))

    def test_commit_ntriples_through_router(self, served):
        world, single, base = served
        classes = sorted(world.kb.latest().schema.classes(), key=lambda c: c.value)
        added = [
            Triple(SYN[f"router_commit_{i}"], RDF_TYPE, classes[i % len(classes)])
            for i in range(3)
        ]
        from repro.kb.ntriples import serialize

        status, body = self._post(
            base,
            "/commit",
            {"tenant": TENANTS[2], "added": serialize(added), "version_id": "v_router"},
        )
        assert status == 200 and body["version_id"] == "v_router"
        single.commit_changes(TENANTS[2], added=added, version_id="v_router")
        user_id = world.users[2].user_id
        status, rec = self._post(
            base, "/recommend", {"tenant": TENANTS[2], "user": user_id}
        )
        assert status == 200
        assert rec == package_to_dict(single.recommend(TENANTS[2], user_id))

    def test_error_statuses(self, served):
        _, _, base = served
        assert self._post(base, "/recommend", {"tenant": "nope", "user": "x"})[0] == 404
        assert self._post(base, "/recommend", {"tenant": TENANTS[0]})[0] == 400
        assert self._post(base, "/commit", {"tenant": TENANTS[0]})[0] == 400
        assert self._post(base, "/frobnicate", {"tenant": TENANTS[0]})[0] == 404

    def test_stats_and_tenants_endpoints(self, served):
        _, single, base = served
        status, body = self._get(base, "/stats")
        assert status == 200 and set(body["shards"]) == {"shard_0", "shard_1"}
        status, body = self._get(base, "/tenants")
        assert status == 200
        assert body["tenants"] == single.tenants()

    def test_recommend_bytes_and_etag_equal_single_process_front_end(
        self, served, single_base
    ):
        world, _, base = served
        ids = world.kb.version_ids()
        for tenant in TENANTS:
            for payload in (
                {"tenant": tenant, "user": world.users[0].user_id},
                {"tenant": tenant, "user": world.users[3].user_id, "k": 2,
                 "old": ids[0], "new": ids[1]},
            ):
                status, headers, routed = self._post_raw(base, "/recommend", payload)
                assert status == 200
                _, single_headers, direct = self._post_raw(
                    single_base, "/recommend", payload
                )
                assert routed == direct, payload
                assert headers["ETag"] == single_headers["ETag"] == make_etag(routed)

    def test_if_none_match_gets_304(self, served):
        world, _, base = served
        payload = {"tenant": TENANTS[1], "user": world.users[2].user_id}
        status, headers, first = self._post_raw(base, "/recommend", payload)
        assert status == 200
        status, revalidated, empty = self._post_raw(
            base, "/recommend", payload, headers={"If-None-Match": headers["ETag"]}
        )
        assert status == 304 and empty == b""
        assert revalidated["ETag"] == headers["ETag"]

    def test_events_stream_router_stats(self, served, topologies):
        _, _, supervisor = topologies
        _, _, base = served
        with urllib.request.urlopen(
            f"{base}/events?interval=0.05&count=2", timeout=30
        ) as response:
            assert response.headers["Content-Type"] == "text/event-stream"
            raw = response.read()
        frames = [frame for frame in raw.split(b"\n\n") if frame]
        assert len(frames) == 2
        for seq, frame in enumerate(frames):
            event, frame_id, data = frame.split(b"\n")
            assert event == b"event: stats"
            assert frame_id == f"id: {seq}".encode()
            stats = json.loads(data[len(b"data: "):])
            assert set(stats) == set(supervisor.stats())
            assert set(stats["shards"]) == {"shard_0", "shard_1"}

    def test_alerts_answers(self, served):
        _, _, base = served
        status, body = self._get(base, "/alerts")
        assert status == 200
        assert body["status"] == "ok" and body["alerts"] == []

    def test_timed_out_read_leaves_the_pipe_serving(self):
        # The front-end cancels a read that misses request_timeout_s; the
        # shard still answers it later, and that answer must not kill the
        # pipe's reader thread.
        world = generate_world(seed=5, config=WORLD_CONFIG)
        config = ServiceConfig(
            k=4, workers=2, request_timeout_s=1e-4, engine=EngineConfig(k=4)
        )
        supervisor = ShardSupervisor(shards=1, config=config)
        supervisor.add_tenant("solo", world.kb, world.users)
        supervisor.start()
        user_id = world.users[0].user_id
        try:
            with AsyncServerThread(supervisor) as router:
                status, _, _ = self._post_raw(
                    f"http://127.0.0.1:{router.address[1]}",
                    "/recommend",
                    {"tenant": "solo", "user": user_id},
                )
            assert status == 504
            # Once the shard has completed the abandoned read, its answer
            # precedes every later reply on the pipe.
            deadline = time.monotonic() + 30
            while True:
                shard = supervisor.stats()["shards"]["shard_0"]
                if shard["per_tenant"]["solo"]["completed"] >= 1:
                    break
                assert time.monotonic() < deadline, "abandoned read never completed"
                time.sleep(0.01)
            assert supervisor.recommend("solo", user_id, timeout=30)["items"]
        finally:
            supervisor.close()


class TestSupervisorLifecycle:
    def test_close_is_idempotent_and_rejects_requests(self):
        world = generate_world(seed=5, config=WORLD_CONFIG)
        supervisor = ShardSupervisor(shards=1, config=SERVICE_CONFIG)
        supervisor.add_tenant("solo", world.kb, world.users)
        supervisor.start()
        assert supervisor.recommend("solo", world.users[0].user_id)["items"]
        supervisor.close()
        supervisor.close()  # idempotent
        from repro.service import ServiceClosedError

        with pytest.raises(ServiceClosedError):
            supervisor.recommend("solo", world.users[0].user_id)

    def test_duplicate_tenant_rejected(self):
        world = generate_world(seed=5, config=WORLD_CONFIG)
        supervisor = ShardSupervisor(shards=2, config=SERVICE_CONFIG)
        supervisor.add_tenant("dup", world.kb, world.users)
        with pytest.raises(ServiceError):
            supervisor.add_tenant("dup", world.kb, world.users)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardSupervisor(shards=0)
