"""Serving-layer tests: registry, admission batching, snapshot consistency.

The load-bearing assertion of the suite: concurrent, admission-batched
serving produces packages **bit-identical** to serial single-threaded
execution on an identical knowledge base -- threads and batching change
cost, never values -- even while a writer commits evolution steps
mid-flight.
"""

import threading
import time

import pytest

from repro.kb.namespaces import RDF_TYPE
from repro.kb.triples import Triple
from repro.kb.version import VersionedKnowledgeBase
from repro.recommender.engine import EngineConfig, RecommenderEngine
from repro.service import (
    RecommendationService,
    ServiceConfig,
    ServiceError,
    TenantRegistry,
    UnknownTenantError,
    UnknownUserError,
)
from repro.service.errors import ServiceClosedError
from repro.synthetic.config import (
    EvolutionConfig,
    InstanceConfig,
    SchemaConfig,
    UserConfig,
    WorldConfig,
)
from repro.synthetic.schema_gen import SYN
from repro.synthetic.world import generate_world

WORLD_SEED = 77
WORLD_CONFIG = WorldConfig(
    schema=SchemaConfig(n_classes=25, n_properties=15),
    instances=InstanceConfig(base_instances_per_class=8),
    evolution=EvolutionConfig(n_versions=3, changes_per_version=40, n_hotspots=2),
    users=UserConfig(n_users=6, events_per_user=10),
)


def _fresh_world():
    return generate_world(seed=WORLD_SEED, config=WORLD_CONFIG)


def _writer_batches(world, n_commits: int, batch_size: int = 6):
    """Deterministic commit payloads (replayable on an identical world)."""
    classes = sorted(world.kb.latest().schema.classes(), key=lambda c: c.value)
    return [
        [
            Triple(SYN[f"svc_w{i}_{j}"], RDF_TYPE, classes[(i + j) % len(classes)])
            for j in range(batch_size)
        ]
        for i in range(n_commits)
    ]


def _assert_packages_equal(actual, expected):
    """Bit-for-bit package equality: ranks, utilities, explanations."""
    assert [s.item.key for s in actual] == [s.item.key for s in expected]
    assert [s.utility for s in actual] == [s.utility for s in expected]  # exact floats
    assert actual.explanations == expected.explanations
    assert actual.metadata == expected.metadata
    assert actual.audience == expected.audience


@pytest.fixture(scope="module")
def world():
    return _fresh_world()


class TestRegistry:
    def test_add_get_roundtrip(self, world):
        registry = TenantRegistry()
        tenant = registry.add("acme", world.kb, world.users)
        assert registry.get("acme") is tenant
        assert "acme" in registry
        assert registry.names() == ["acme"]

    def test_duplicate_tenant_rejected(self, world):
        registry = TenantRegistry()
        registry.add("acme", world.kb)
        with pytest.raises(ServiceError):
            registry.add("acme", world.kb)

    def test_unknown_tenant(self):
        with pytest.raises(UnknownTenantError):
            TenantRegistry().get("nope")

    def test_unknown_user(self, world):
        tenant = TenantRegistry().add("acme", world.kb, world.users)
        with pytest.raises(UnknownUserError):
            tenant.user("not-a-user")

    def test_head_pair_is_latest_adjacent_pair(self, world):
        tenant = TenantRegistry().add("acme", world.kb, world.users)
        ids = world.kb.version_ids()
        assert tenant.head_pair() == (ids[-2], ids[-1])

    def test_head_pair_needs_two_versions(self, world):
        kb = VersionedKnowledgeBase("short")
        tenant = TenantRegistry().add("short", kb)
        with pytest.raises(ServiceError, match="at least two versions"):
            tenant.head_pair()
        kb.commit(world.kb.first().graph, version_id="v1")
        with pytest.raises(ServiceError, match="at least two versions"):
            tenant.head_pair()
        kb.commit_changes(version_id="v2")
        assert tenant.head_pair() == ("v1", "v2")

    def test_describe_is_json_friendly(self, world):
        tenant = TenantRegistry().add("acme", world.kb, world.users)
        summary = tenant.describe()
        assert summary["name"] == "acme"
        assert summary["latest"] == world.kb.version_ids()[-1]
        assert set(summary["users"]) == {u.user_id for u in world.users}


class TestServiceBasics:
    def test_recommend_matches_direct_engine(self):
        world = _fresh_world()
        with RecommendationService(ServiceConfig(k=4)) as service:
            service.add_tenant("t", world.kb, world.users)
            package = service.recommend("t", world.users[0].user_id)

        reference_engine = RecommenderEngine(world.kb, config=EngineConfig())
        ids = world.kb.version_ids()
        expected = reference_engine.recommend(
            world.users[0],
            k=4,
            context=reference_engine.context_for(ids[-2], ids[-1]),
        )
        _assert_packages_equal(package, expected)

    def test_explicit_version_pair(self):
        world = _fresh_world()
        ids = world.kb.version_ids()
        with RecommendationService() as service:
            service.add_tenant("t", world.kb, world.users)
            package = service.recommend(
                "t", world.users[0].user_id, old_id=ids[0], new_id=ids[1]
            )
        assert package.metadata["context"] == f"{ids[0]}->{ids[1]}"

    def test_half_specified_pair_rejected(self):
        world = _fresh_world()
        with RecommendationService() as service:
            service.add_tenant("t", world.kb, world.users)
            with pytest.raises(ValueError):
                service.recommend(
                    "t", world.users[0].user_id, old_id=world.kb.version_ids()[0]
                )

    def test_closed_service_rejects_requests(self):
        world = _fresh_world()
        service = RecommendationService()
        service.add_tenant("t", world.kb, world.users)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.recommend("t", world.users[0].user_id)

    def test_commit_changes_advances_head(self):
        world = _fresh_world()
        with RecommendationService() as service:
            service.add_tenant("t", world.kb, world.users)
            before = service.tenant("t").head_pair()
            version = service.commit_changes(
                "t", added=_writer_batches(world, 1)[0], version_id="v_next"
            )
            assert version.version_id == "v_next"
            after = service.tenant("t").head_pair()
            assert after == (before[1], "v_next")


class TestAdmissionBatching:
    def test_concurrent_same_pair_requests_coalesce(self):
        world = _fresh_world()
        # One worker: while it scores the first admission, the remaining
        # requests pile up on the shared (tenant, pair, k) key and must be
        # served by batched calls, not one engine pass per request.
        with RecommendationService(ServiceConfig(workers=1)) as service:
            service.add_tenant("t", world.kb, world.users)
            # Warm the per-context caches so batch timing dominates.
            service.recommend("t", world.users[0].user_id)
            futures = [
                service.recommend_async("t", user.user_id)
                for user in world.users
                for _ in range(5)
            ]
            packages = [f.result(timeout=60) for f in futures]
        stats = service.admission_stats
        n = len(futures)
        assert stats.submitted == n + 1
        assert all(len(p) > 0 for p in packages)
        assert stats.batches < stats.submitted  # coalescing actually happened
        assert stats.largest_batch > 1
        assert stats.coalesced > 0

    def test_max_batch_bounds_batch_size(self):
        world = _fresh_world()
        config = ServiceConfig(workers=1, max_batch=3)
        with RecommendationService(config) as service:
            service.add_tenant("t", world.kb, world.users)
            service.recommend("t", world.users[0].user_id)
            futures = [
                service.recommend_async("t", user.user_id)
                for user in world.users
                for _ in range(3)
            ]
            for future in futures:
                future.result(timeout=60)
        assert service.admission_stats.largest_batch <= 3

    def test_batched_results_identical_to_serial(self):
        world = _fresh_world()
        with RecommendationService(ServiceConfig(workers=1, k=5)) as service:
            service.add_tenant("t", world.kb, world.users)
            service.recommend("t", world.users[0].user_id)  # warm + admit batch below
            futures = {
                user.user_id: service.recommend_async("t", user.user_id)
                for user in world.users
            }
            batched = {uid: f.result(timeout=60) for uid, f in futures.items()}

        reference_engine = RecommenderEngine(world.kb, config=EngineConfig())
        ids = world.kb.version_ids()
        context = reference_engine.context_for(ids[-2], ids[-1])
        for user in world.users:
            expected = reference_engine.recommend(user, k=5, context=context)
            _assert_packages_equal(batched[user.user_id], expected)


class TestEngineBatchPath:
    def test_recommend_many_bit_identical_to_recommend(self, world):
        engine = RecommenderEngine(world.kb, config=EngineConfig(k=6))
        packages = engine.recommend_many(world.users)
        for user in world.users:
            _assert_packages_equal(packages[user.user_id], engine.recommend(user))


class TestServingHardening:
    """Regressions for long-lived-serving bugs found in review."""

    def test_scorer_follows_the_served_pair(self):
        # With interest spreading on, the scorer depends on the pair's new
        # schema; a commit must not leave later requests scoring against
        # the first-served version's class graph.
        world = _fresh_world()
        config = EngineConfig(k=5, spread_depth=1)
        engine = RecommenderEngine(world.kb, config=config)
        ids = world.kb.version_ids()
        first = engine.recommend(
            world.users[0], context=engine.context_for(ids[-2], ids[-1])
        )
        assert first.metadata["context"] == f"{ids[-2]}->{ids[-1]}"
        world.kb.commit_changes(added=_writer_batches(world, 1)[0], version_id="w0")
        after = engine.recommend(
            world.users[0], context=engine.context_for(ids[-1], "w0")
        )

        fresh_engine = RecommenderEngine(world.kb, config=config)
        expected = fresh_engine.recommend(
            world.users[0], context=fresh_engine.context_for(ids[-1], "w0")
        )
        _assert_packages_equal(after, expected)

    def test_per_pair_caches_are_bounded(self):
        world = _fresh_world()
        engine = RecommenderEngine(
            world.kb, config=EngineConfig(k=3, max_cached_contexts=2)
        )
        for _ in range(6):
            world.kb.commit_changes(added=[], version_id=None)
        ids = world.kb.version_ids()
        for old, new in zip(ids, ids[1:]):
            engine.recommend(world.users[0], context=engine.context_for(old, new))
        assert len(engine._contexts_by_pair) <= 2
        assert len(engine._artefacts) <= 2

    def test_externally_built_contexts_also_bounded(self):
        # Contexts the caller constructs (never registered via context_for)
        # must not leak cache entries past the bound either.
        from repro.measures.base import EvolutionContext

        world = _fresh_world()
        engine = RecommenderEngine(
            world.kb, config=EngineConfig(k=3, max_cached_contexts=2)
        )
        for _ in range(5):
            world.kb.commit_changes(added=[], version_id=None)
        versions = list(world.kb)
        for old, new in zip(versions, versions[1:]):
            context = EvolutionContext(old, new)  # bypasses context_for
            engine.measure_results(context)
            engine.candidates(context)
        assert len(engine._artefacts) <= 2

    def test_cancelled_future_does_not_kill_workers(self):
        world = _fresh_world()
        with RecommendationService(ServiceConfig(workers=1)) as service:
            service.add_tenant("t", world.kb, world.users)
            for _ in range(5):
                service.recommend_async("t", world.users[0].user_id).cancel()
            # The worker pool must survive whatever subset of those cancels
            # raced the resolution path.
            package = service.recommend("t", world.users[1].user_id, timeout=60)
            assert len(package) > 0

    def test_replaced_tenant_never_shares_batches_with_its_predecessor(self):
        # Same name, same auto version ids -- but a removed-and-re-added
        # tenant is a different KB, so its requests must score against it.
        world_a = _fresh_world()
        world_b = generate_world(
            seed=WORLD_SEED + 1, config=WORLD_CONFIG
        )  # different content, same version ids / user ids
        with RecommendationService() as service:
            service.add_tenant("t", world_a.kb, world_a.users)
            before = service.recommend("t", world_a.users[0].user_id)
            service.registry.remove("t")
            service.add_tenant("t", world_b.kb, world_b.users)
            after = service.recommend("t", world_b.users[0].user_id)

        reference = RecommenderEngine(world_b.kb, config=EngineConfig())
        ids = world_b.kb.version_ids()
        expected = reference.recommend(
            world_b.users[0], k=5, context=reference.context_for(ids[-2], ids[-1])
        )
        _assert_packages_equal(after, expected)
        assert before.keys() != after.keys() or [
            s.utility for s in before
        ] != [s.utility for s in after]

    def test_overload_sheds_instead_of_queueing_unboundedly(self):
        from repro.service import ServiceOverloadedError

        world = _fresh_world()
        config = ServiceConfig(workers=1, max_pending=3)
        with RecommendationService(config) as service:
            service.add_tenant("t", world.kb, world.users)
            accepted, shed = [], 0
            # Burst far past max_pending; the worker drains some while we
            # submit, so accepted >= max_pending, but beyond capacity the
            # queue must shed rather than grow.
            for _ in range(50):
                try:
                    accepted.append(service.recommend_async("t", world.users[0].user_id))
                except ServiceOverloadedError:
                    shed += 1
            assert shed > 0
            assert service.admission_stats.shed == shed
            for future in accepted:
                assert len(future.result(timeout=60)) > 0  # accepted work completes

    def test_hot_key_backlog_does_not_starve_other_keys(self):
        # With max_batch=1 and one worker, a backlog on one admission key
        # must round-robin with other keys instead of draining first.
        world = _fresh_world()
        config = ServiceConfig(workers=1, max_batch=1, k=5)
        done_order = []
        with RecommendationService(config) as service:
            service.add_tenant("t", world.kb, world.users)
            service.recommend("t", world.users[0].user_id)  # warm caches
            hot = [
                service.recommend_async("t", world.users[0].user_id)  # key k=5
                for _ in range(4)
            ]
            other = service.recommend_async("t", world.users[1].user_id, k=3)
            for index, future in enumerate([*hot, other]):
                future.add_done_callback(
                    lambda _f, index=index: done_order.append(index)
                )
            for future in [*hot, other]:
                future.result(timeout=60)
        # index 4 is the lone k=3 request: it must not finish after the
        # whole hot-key backlog (a strict-FIFO-over-first-key queue would
        # leave it last).
        assert done_order.index(4) < len(done_order) - 1

    def test_replaced_user_profile_is_respected(self):
        from repro.profiles.user import InterestProfile, User

        world = _fresh_world()
        config = EngineConfig(k=5, spread_depth=1)
        with RecommendationService(
            ServiceConfig(k=5, engine=config)
        ) as service:
            tenant = service.add_tenant("t", world.kb, world.users)
            original = service.recommend("t", world.users[0].user_id)
            # Same user id, disjoint interests: the spread cache must not
            # keep serving the original profile.
            replacement = User(
                user_id=world.users[0].user_id,
                profile=InterestProfile(class_weights={}, family_weights={}),
            )
            tenant.add_user(replacement)
            replaced = service.recommend("t", world.users[0].user_id)

        assert all(scored.utility == 0.0 for scored in replaced)
        assert original.keys() != replaced.keys() or [
            s.utility for s in original
        ] != [s.utility for s in replaced]


class TestConcurrencyBitIdentical:
    """N threads hammer ``recommend`` while a writer commits versions; every
    response must equal a serial recomputation on an identical world."""

    N_COMMITS = 4
    REQUESTS_PER_CLIENT = 8

    def test_hammer_with_writer_matches_serial_replay(self):
        world = _fresh_world()
        batches = _writer_batches(world, self.N_COMMITS)
        responses = []  # (user_id, context string, package)
        errors = []

        with RecommendationService(ServiceConfig(workers=4, k=5)) as service:
            service.add_tenant("t", world.kb, world.users)
            start = threading.Barrier(len(world.users) + 1)

            def client(user_id):
                try:
                    start.wait()
                    for _ in range(self.REQUESTS_PER_CLIENT):
                        package = service.recommend("t", user_id, timeout=60)
                        responses.append(
                            (user_id, package.metadata["context"], package)
                        )
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            def writer():
                # Paced against the response stream so every commit lands
                # while clients are still hammering (otherwise the writer,
                # whose commits are cheap, finishes before the first cold
                # recommendation and nothing races).
                try:
                    start.wait()
                    for i, added in enumerate(batches):
                        deadline = time.monotonic() + 30
                        while (
                            len(responses) < (i + 1) * 6
                            and time.monotonic() < deadline
                        ):
                            time.sleep(0.002)
                        service.commit_changes("t", added=added, version_id=f"w{i}")
                except BaseException as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(user.user_id,))
                for user in world.users
            ]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)

        assert not errors, errors
        assert len(responses) == len(world.users) * self.REQUESTS_PER_CLIENT
        # The writer landed all its versions.
        assert world.kb.version_ids()[-1] == f"w{self.N_COMMITS - 1}"

        # Snapshot consistency: every response scored an adjacent pair that
        # existed when it was admitted (never a torn / half-committed head).
        ids = _fresh_world().kb.version_ids() + [f"w{i}" for i in range(self.N_COMMITS)]
        valid_pairs = {f"{old}->{new}" for old, new in zip(ids, ids[1:])}
        seen_pairs = {context for _, context, _ in responses}
        assert seen_pairs <= valid_pairs
        assert len(seen_pairs) > 1, "writer should have moved the head mid-run"

        # Serial replay on a *fresh* identical world: regenerate the same
        # seed, replay the same commits single-threaded, recompute each
        # observed (user, pair) package on a cold engine and compare
        # bit-for-bit.
        replay_world = _fresh_world()
        for i, added in enumerate(_writer_batches(replay_world, self.N_COMMITS)):
            replay_world.kb.commit_changes(added=added, version_id=f"w{i}")
        serial_engine = RecommenderEngine(replay_world.kb, config=EngineConfig())
        users_by_id = {user.user_id: user for user in replay_world.users}
        expected_cache = {}
        for user_id, context_str, package in responses:
            old_id, _, new_id = context_str.partition("->")
            key = (user_id, old_id, new_id)
            if key not in expected_cache:
                expected_cache[key] = serial_engine.recommend(
                    users_by_id[user_id],
                    k=5,
                    context=serial_engine.context_for(old_id, new_id),
                )
            _assert_packages_equal(package, expected_cache[key])
