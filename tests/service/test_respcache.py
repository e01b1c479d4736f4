"""Response-cache plane tests: the LRU/singleflight core, the service
wiring (epoch invalidation, differential byte-identity under a mixed
read/commit hammer), the HTTP conditional-GET contract, and the
process-local guarantee on the sharded plane.

The load-bearing assertions mirror the substrate's invariant: the cache
may only ever change the *cost* of a response, never its bytes.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.profiles.feedback import FeedbackEvent, FeedbackStore
from repro.service import (
    AsyncServerThread,
    CachedResponse,
    RecommendationService,
    ResponseCache,
    ServiceConfig,
    ServiceError,
    ShardSupervisor,
    make_etag,
)
from repro.service.http import etag_matches
from repro.synthetic.config import (
    EvolutionConfig,
    InstanceConfig,
    SchemaConfig,
    UserConfig,
    WorldConfig,
)
from repro.synthetic.schema_gen import SYN
from repro.kb.namespaces import RDF_TYPE
from repro.kb.triples import Triple
from repro.synthetic.world import generate_world

WORLD_CONFIG = WorldConfig(
    schema=SchemaConfig(n_classes=20, n_properties=12),
    instances=InstanceConfig(base_instances_per_class=6),
    evolution=EvolutionConfig(n_versions=3, changes_per_version=30, n_hotspots=2),
    users=UserConfig(n_users=4, events_per_user=8),
)

CACHED_CONFIG = ServiceConfig(k=4, workers=2, cache_entries=256)
PLAIN_CONFIG = ServiceConfig(k=4, workers=2)


def _world(seed=11):
    return generate_world(seed=seed, config=WORLD_CONFIG)


def _cache_stats(svc, tenant):
    return svc.stats()["per_tenant"][tenant]["cache"]


# -- the cache core, no service ------------------------------------------------------


class TestResponseCacheCore:
    def _fill(self, cache, tenant="t", old="v1", new="v2", user="u", k=5, body=b"{}"):
        ticket = cache.begin(tenant, old, new, user, k)
        assert ticket.leader
        return ticket.commit(body, object())

    def test_leader_commit_then_hit(self):
        cache = ResponseCache(max_entries=4)
        response = self._fill(cache, body=b'{"items": []}')
        assert isinstance(response, CachedResponse)
        assert not response.hit
        assert response.etag == make_etag(b'{"items": []}')
        hit = cache.begin("t", "v1", "v2", "u", 5)
        assert isinstance(hit, CachedResponse)
        assert hit.hit
        assert hit.body == response.body
        assert hit.etag == response.etag
        stats = cache.stats("t")
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["entries"] == 1 and stats["bytes"] == len(b'{"items": []}')

    def test_entry_budget_evicts_lru(self):
        cache = ResponseCache(max_entries=2)
        self._fill(cache, user="a")
        self._fill(cache, user="b")
        hit = cache.begin("t", "v1", "v2", "a", 5)  # refresh a's recency
        assert isinstance(hit, CachedResponse)
        self._fill(cache, user="c")  # evicts b, the least recently used
        assert isinstance(cache.begin("t", "v1", "v2", "a", 5), CachedResponse)
        assert not isinstance(cache.begin("t", "v1", "v2", "b", 5), CachedResponse)
        assert cache.stats("t")["evictions"] == 1
        assert len(cache) == 2

    def test_byte_budget_and_oversized_entry(self):
        cache = ResponseCache(max_bytes=10)
        self._fill(cache, user="a", body=b"x" * 6)
        self._fill(cache, user="b", body=b"y" * 6)  # 12 bytes > 10: evicts a
        assert cache.stats("t")["evictions"] == 1
        assert cache.total_bytes == 6
        # An entry bigger than the whole budget is served but never cached.
        self._fill(cache, user="big", body=b"z" * 11)
        assert not isinstance(cache.begin("t", "v1", "v2", "big", 5), CachedResponse)
        assert cache.total_bytes == 6

    def test_epoch_bump_invalidates_without_scanning(self):
        cache = ResponseCache(max_entries=8)
        self._fill(cache, user="a")
        assert isinstance(cache.begin("t", "v1", "v2", "a", 5), CachedResponse)
        cache.bump_epoch("t")
        missed = cache.begin("t", "v1", "v2", "a", 5)
        assert not isinstance(missed, CachedResponse)  # fresh leader ticket
        missed.abort(RuntimeError("test leaves no dangling fill"))
        # The stale entry is still resident (no scan) but unreachable.
        assert cache.stats("t")["entries"] == 1

    def test_epoch_pinned_at_begin_not_commit(self):
        # A mutation racing an in-flight fill must not poison the new epoch.
        cache = ResponseCache(max_entries=8)
        ticket = cache.begin("t", "v1", "v2", "u", 5)
        cache.bump_epoch("t")
        ticket.commit(b"old-population", object())
        assert not isinstance(cache.begin("t", "v1", "v2", "u", 5), CachedResponse)

    def test_follower_attaches_and_abort_propagates(self):
        cache = ResponseCache(max_entries=8)
        leader = cache.begin("t", "v1", "v2", "u", 5)
        follower = cache.begin("t", "v1", "v2", "u", 5)
        assert leader.leader and not follower.leader
        outcomes = []
        follower.on_done(lambda response, error: outcomes.append((response, error)))
        leader.commit(b"body", object())
        assert len(outcomes) == 1
        response, error = outcomes[0]
        assert error is None and response.hit and response.body == b"body"
        # Late registration on a landed fill fires immediately.
        late = []
        follower.on_done(lambda response, error: late.append(response))
        assert late and late[0].body == b"body"
        stats = cache.stats("t")
        assert stats["misses"] == 1 and stats["singleflight_waits"] == 1

        boom = RuntimeError("scoring failed")
        leader2 = cache.begin("t", "v1", "v2", "other", 5)
        follower2 = cache.begin("t", "v1", "v2", "other", 5)
        errors = []
        follower2.on_done(lambda response, error: errors.append(error))
        leader2.abort(boom)
        assert errors == [boom]
        # An aborted fill leaves nothing behind: the next miss leads afresh.
        fresh = cache.begin("t", "v1", "v2", "other", 5)
        assert not isinstance(fresh, CachedResponse) and fresh.leader
        fresh.abort(boom)

    def test_forget_tenant_purges_entries_counters_and_epoch(self):
        cache = ResponseCache(max_entries=8)
        self._fill(cache, tenant="a", user="u1")
        self._fill(cache, tenant="b", user="u2")
        cache.bump_epoch("a")
        cache.forget_tenant("a")
        assert cache.epoch("a") == 0
        assert cache.stats("a") == {
            "hits": 0, "misses": 0, "evictions": 0,
            "entries": 0, "bytes": 0, "singleflight_waits": 0,
        }
        # The other tenant is untouched.
        assert isinstance(cache.begin("b", "v1", "v2", "u2", 5), CachedResponse)
        assert len(cache) == 1

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ResponseCache(max_entries=-1)
        with pytest.raises(ValueError):
            ResponseCache(max_bytes=-1)


class TestEtagMatching:
    def test_star_and_lists(self):
        etag = make_etag(b"body")
        assert etag_matches("*", etag)
        assert etag_matches(etag, etag)
        assert etag_matches(f'"other", {etag}', etag)
        assert not etag_matches('"other"', etag)
        assert not etag_matches(None, etag)
        assert not etag_matches("", etag)
        # Weak validators never match a strong tag.
        assert not etag_matches(f"W/{etag}", etag)


# -- service wiring ------------------------------------------------------------------


class TestServiceCachedReads:
    def test_repeat_reads_hit_without_engine_work(self):
        world = _world()
        with RecommendationService(CACHED_CONFIG) as svc:
            svc.add_tenant("uni", world.kb, world.users)
            user = world.users[0].user_id
            first = svc.recommend_cached("uni", user)
            assert not first.hit
            stats = _cache_stats(svc, "uni")
            assert stats["misses"] == 1
            for _ in range(5):
                again = svc.recommend_cached("uni", user)
                assert again.hit
                assert again.body == first.body
                assert again.etag == first.etag
            stats = _cache_stats(svc, "uni")
            # The gate's hardware-independent signal: repeat identical
            # reads never invoke the engine (the miss counter is exactly
            # the number of engine-filling computations).
            assert stats["misses"] == 1
            assert stats["hits"] == 5
            # The blocking Python API rides the same cache.
            package = svc.recommend("uni", user)
            assert _cache_stats(svc, "uni")["misses"] == 1
            assert package.audience == user

    def test_disabled_cache_still_serves_etagged_bytes(self):
        world = _world()
        with RecommendationService(PLAIN_CONFIG) as svc:
            svc.add_tenant("uni", world.kb, world.users)
            user = world.users[0].user_id
            one = svc.recommend_cached("uni", user)
            two = svc.recommend_cached("uni", user)
            assert svc.respcache is None
            assert not one.hit and not two.hit
            assert one.body == two.body  # determinism, not memoisation
            assert one.etag == two.etag == make_etag(one.body)

    def test_cached_equals_uncached_byte_for_byte(self):
        # Twin worlds from one seed: the cached service must produce the
        # exact bytes of the uncached one for every user, repeatedly.
        cached_world, plain_world = _world(), _world()
        with RecommendationService(CACHED_CONFIG) as cached_svc, \
                RecommendationService(PLAIN_CONFIG) as plain_svc:
            cached_svc.add_tenant("uni", cached_world.kb, cached_world.users)
            plain_svc.add_tenant("uni", plain_world.kb, plain_world.users)
            for user in cached_world.users:
                expected = plain_svc.recommend_cached("uni", user.user_id)
                for _ in range(2):
                    got = cached_svc.recommend_cached("uni", user.user_id)
                    assert got.body == expected.body
                    assert got.etag == expected.etag

    def test_singleflight_one_miss_under_concurrency(self):
        world = _world()
        config = ServiceConfig(k=4, workers=1, cache_entries=64)
        with RecommendationService(config) as svc:
            svc.add_tenant("uni", world.kb, world.users)
            user = world.users[0].user_id
            n = 8
            barrier = threading.Barrier(n)
            bodies, errors = [], []

            def read():
                try:
                    barrier.wait(timeout=30)
                    bodies.append(svc.recommend_cached("uni", user).body)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=read) for _ in range(n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, errors
            assert len(set(bodies)) == 1
            stats = _cache_stats(svc, "uni")
            # However the race lands, exactly one computation filled the
            # key; everyone else either waited on the fill or hit it.
            assert stats["misses"] == 1
            assert stats["hits"] + stats["singleflight_waits"] == n - 1

    def test_mixed_read_commit_hammer_is_differentially_correct(self):
        """Cached == uncached byte-for-byte under concurrent commits.

        Reader threads hammer the cached service's *head pair* while a
        writer commits new versions; every captured body is then recomputed
        on an uncached twin, pinned to the version pair the body itself
        names.  A cached body served for the wrong (post-commit) pair
        would fail the byte comparison."""
        cached_world, plain_world = _world(), _world()
        with RecommendationService(CACHED_CONFIG) as cached_svc, \
                RecommendationService(PLAIN_CONFIG) as plain_svc:
            cached_svc.add_tenant("uni", cached_world.kb, cached_world.users)
            plain_svc.add_tenant("uni", plain_world.kb, plain_world.users)
            captured, errors = [], []
            stop = threading.Event()

            def read(user_id):
                while not stop.is_set():
                    try:
                        captured.append(
                            (user_id, cached_svc.recommend_cached("uni", user_id).body)
                        )
                    except Exception as exc:  # pragma: no cover - diagnostic
                        errors.append(exc)
                        return

            readers = [
                threading.Thread(target=read, args=(user.user_id,))
                for user in cached_world.users
            ]
            for thread in readers:
                thread.start()
            try:
                for index in range(4):
                    triple = Triple(
                        SYN[f"hammer_{index}"], RDF_TYPE, SYN["HammerClass"]
                    )
                    # Both services receive every commit, so any pair a
                    # reader captured exists on the twin too.
                    cached_svc.commit_changes(
                        "uni", added=[triple], version_id=f"hammer_v{index}"
                    )
                    plain_svc.commit_changes(
                        "uni", added=[triple], version_id=f"hammer_v{index}"
                    )
                    time.sleep(0.05)  # let readers observe this head
            finally:
                stop.set()
                for thread in readers:
                    thread.join(timeout=60)
            assert not errors, errors
            # Deterministic post-commit reads guarantee the capture set
            # spans commits even on a slow machine.
            for user in cached_world.users:
                captured.append(
                    (user.user_id, cached_svc.recommend_cached("uni", user.user_id).body)
                )
            assert captured
            pairs_seen = set()
            # The uncached reference is computed once per distinct
            # (user, pair); every captured body is still compared to it.
            expected = {}
            for user_id, body in captured:
                context = json.loads(body.decode("utf-8"))["metadata"]["context"]
                old_id, new_id = context.split("->")
                pairs_seen.add((old_id, new_id))
                key = (user_id, old_id, new_id)
                if key not in expected:
                    expected[key] = plain_svc.recommend_cached(
                        "uni", user_id, old_id=old_id, new_id=new_id
                    ).body
                assert body == expected[key], (
                    f"cached body diverged for {user_id} on pair {context}"
                )
            # The hammer must actually have spanned commits, or the test
            # proved nothing about mid-commit admissions.
            assert len(pairs_seen) >= 2
            # Four commits onto three versions push versions out of the
            # tenant's resident window while readers fill, so the test
            # also covers snapshots dropped under concurrent reads.
            assert any(not version.is_materialized for version in cached_world.kb)

    def test_epoch_bump_invalidates_exactly_that_tenant(self):
        world_a, world_b, twin = _world(seed=11), _world(seed=12), _world(seed=11)
        with RecommendationService(CACHED_CONFIG) as svc, \
                RecommendationService(PLAIN_CONFIG) as plain_svc:
            svc.add_tenant("a", world_a.kb, world_a.users)
            svc.add_tenant("b", world_b.kb, world_b.users)
            plain_svc.add_tenant("a", twin.kb, twin.users)
            user_a = world_a.users[0]
            user_b = world_b.users[0].user_id
            svc.recommend_cached("a", user_a.user_id)
            svc.recommend_cached("b", user_b)

            # Replace user_a's profile with a different user's interests --
            # the frozen-dataclass mutation path.
            donor = world_a.users[1]
            mutated = type(user_a)(
                user_id=user_a.user_id,
                profile=donor.profile,
                name=user_a.name,
            )
            svc.tenant("a").add_user(mutated)
            after = svc.recommend_cached("a", user_a.user_id)
            assert not after.hit, "profile mutation must invalidate tenant a"
            # The fresh body reflects the *new* profile, bit-identically
            # to an uncached service holding that profile.
            plain_svc.tenant("a").add_user(
                type(user_a)(
                    user_id=user_a.user_id,
                    profile=donor.profile,
                    name=user_a.name,
                )
            )
            expected = plain_svc.recommend_cached("a", user_a.user_id)
            assert after.body == expected.body
            # Tenant b's entries survived: next read is a hit.
            assert svc.recommend_cached("b", user_b).hit

    def test_feedback_routes_through_population_seam(self):
        world = _world()
        feedback = FeedbackStore()
        hook_calls = []
        with RecommendationService(CACHED_CONFIG) as svc:
            tenant = svc.add_tenant(
                "uni", world.kb, world.users, feedback,
                on_population_change=lambda: hook_calls.append(True),
            )
            user = world.users[0].user_id
            svc.recommend_cached("uni", user)
            assert svc.recommend_cached("uni", user).hit
            tenant.record_feedback(FeedbackEvent(user, "size:class", 1.0))
            assert hook_calls == [True]
            assert not svc.recommend_cached("uni", user).hit

    def test_record_feedback_without_store_rejected(self):
        world = _world()
        with RecommendationService(CACHED_CONFIG) as svc:
            tenant = svc.add_tenant("uni", world.kb, world.users)
            with pytest.raises(ServiceError, match="feedback store"):
                tenant.record_feedback(
                    FeedbackEvent(world.users[0].user_id, "size:class", 1.0)
                )

    def test_population_hook_failure_is_warning_not_error(self):
        world = _world()
        with RecommendationService(CACHED_CONFIG) as svc:
            tenant = svc.add_tenant(
                "uni", world.kb, world.users,
                on_population_change=lambda: (_ for _ in ()).throw(OSError("boom")),
            )
            svc.recommend_cached("uni", world.users[0].user_id)
            with pytest.warns(RuntimeWarning, match="population-change hook failed"):
                tenant.add_user(world.users[0])
            # The epoch bump ran before the failing hook: still invalidated.
            assert not svc.recommend_cached("uni", world.users[0].user_id).hit

    def test_tenant_eviction_purges_cache(self):
        world = _world()
        with RecommendationService(CACHED_CONFIG) as svc:
            svc.add_tenant("uni", world.kb, world.users)
            user = world.users[0].user_id
            svc.recommend_cached("uni", user)
            svc.registry.remove("uni")
            # A re-registered name is a new tenant: counters restart and
            # nothing cached for the old one survives.
            fresh = _world()
            svc.add_tenant("uni", fresh.kb, fresh.users)
            assert _cache_stats(svc, "uni") == {
                "hits": 0, "misses": 0, "evictions": 0,
                "entries": 0, "bytes": 0, "singleflight_waits": 0,
            }
            assert not svc.recommend_cached("uni", user).hit


# -- HTTP front-end -----------------------------------------------------------------


def _post_raw(base, path, payload, headers=None):
    """POST returning (status, header-dict, raw body bytes); 304-aware."""
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


@pytest.fixture()
def cached_http():
    world = _world()
    service = RecommendationService(CACHED_CONFIG)
    service.add_tenant("uni", world.kb, world.users)
    try:
        with AsyncServerThread(service) as server:
            yield world, service, f"http://127.0.0.1:{server.address[1]}"
    finally:
        service.close()


class TestConditionalGet:
    def test_etag_and_304_round_trip(self, cached_http):
        world, service, base = cached_http
        body = {"tenant": "uni", "user": world.users[0].user_id}
        status, headers, first = _post_raw(base, "/recommend", body)
        assert status == 200
        etag = headers["ETag"]
        assert etag == make_etag(first)
        # Conditional repeat: no body, same tag.
        status, headers, empty = _post_raw(
            base, "/recommend", body, headers={"If-None-Match": etag}
        )
        assert status == 304
        assert empty == b""
        assert headers["ETag"] == etag
        # A stale tag gets the full (identical) body again.
        status, _, again = _post_raw(
            base, "/recommend", body, headers={"If-None-Match": '"stale"'}
        )
        assert status == 200
        assert again == first
        # Wire bytes are exactly the cached bytes.
        assert service.recommend_cached("uni", world.users[0].user_id).body == first

    def test_etag_304_and_cross_frontend_byte_identity(self, cached_http):
        """The front-end over a cached shard process revalidates with 304 and
        serves its cache hit as the very bytes the single-process one does."""
        world, _, single_base = cached_http
        twin = _world()
        supervisor = ShardSupervisor(shards=1, config=CACHED_CONFIG)
        supervisor.add_tenant("uni", twin.kb, twin.users)
        supervisor.start()
        try:
            with AsyncServerThread(supervisor) as router:
                base = f"http://127.0.0.1:{router.address[1]}"
                body = {"tenant": "uni", "user": world.users[1].user_id}
                status, headers, routed = _post_raw(base, "/recommend", body)
                assert status == 200
                etag = headers["ETag"]
                assert etag == make_etag(routed)
                status, headers, empty = _post_raw(
                    base, "/recommend", body, headers={"If-None-Match": etag}
                )
                assert status == 304 and empty == b""
                assert headers["ETag"] == etag
                # Both front-ends serve the same cached bytes.
                _, single_headers, direct = _post_raw(single_base, "/recommend", body)
                assert direct == routed
                assert single_headers["ETag"] == etag
            (shard_stats,) = supervisor.stats()["shards"].values()
            cache = shard_stats["per_tenant"]["uni"]["cache"]
            assert cache["misses"] == 1 and cache["hits"] == 1
        finally:
            supervisor.close()

    def test_cache_off_same_bytes_same_etag(self, cached_http):
        world, _, cached_base = cached_http
        twin = generate_world(seed=11, config=WORLD_CONFIG)
        plain = RecommendationService(PLAIN_CONFIG)
        plain.add_tenant("uni", twin.kb, twin.users)
        try:
            with AsyncServerThread(plain) as server:
                plain_base = f"http://127.0.0.1:{server.address[1]}"
                body = {"tenant": "uni", "user": world.users[0].user_id}
                _, cached_headers, cached_bytes = _post_raw(
                    cached_base, "/recommend", body
                )
                _, plain_headers, plain_bytes = _post_raw(plain_base, "/recommend", body)
            assert cached_bytes == plain_bytes
            assert cached_headers["ETag"] == plain_headers["ETag"]
        finally:
            plain.close()

    def test_error_taxonomy_untouched(self, cached_http):
        _, _, base = cached_http
        status, _, body = _post_raw(base, "/recommend", {"tenant": "uni"})
        assert status == 400
        assert "error" in json.loads(body)
        status, _, _ = _post_raw(
            base, "/recommend", {"tenant": "ghost", "user": "u"}
        )
        assert status == 404


# -- sharded plane -------------------------------------------------------------------


class TestShardedProcessLocalCache:
    """The cache needs no cross-process coherence: each shard process runs
    its own, keyed by facts (version ids, population epoch) only that
    process mutates.  The supervisor's config carries the knobs for free."""

    def test_shard_processes_cache_locally(self):
        world = _world()
        supervisor = ShardSupervisor(shards=1, config=CACHED_CONFIG)
        supervisor.add_tenant("uni", world.kb, world.users)
        supervisor.start()
        try:
            user = world.users[0].user_id
            first = supervisor.recommend("uni", user)
            second = supervisor.recommend("uni", user)
            assert first == second
            stats = supervisor.stats()
            (shard_stats,) = stats["shards"].values()
            cache = shard_stats["per_tenant"]["uni"]["cache"]
            # The router holds no cache of its own; the shard process
            # filled once and served the repeat from memory.
            assert cache["misses"] == 1
            assert cache["hits"] == 1
        finally:
            supervisor.close()
