"""Bounded memory over a long version chain.

A serving tenant keeps the root and its ``RESIDENT_VERSIONS`` newest
versions materialised; every other version holds only its recorded delta,
and nothing else (a child view, a cached engine context) pins an old
snapshot.  The soak below commits a long stream whose head size stays
flat, reading the head pair after every commit, and checks that:

* exactly the root and the resident window stay materialised, and every
  other version's view is unreachable;
* traced live memory grows by less than one head snapshot over the last
  40 commits (the history each commit adds is its delta, not a copy);
* an explicit read of a dropped pair rebuilds it through delta replay and
  answers with the bytes of an engine over a chain that never drops, and
  the next commit drops it again;
* the replica's commit path (decoded commit records) keeps the same window;
* reads of dropped pairs racing the commits that drop them stay
  bit-identical.
"""

import gc
import json
import random
import sys
import threading
import time
import tracemalloc
import weakref

import pytest

from repro.io.storage import package_to_dict
from repro.kb import wire
from repro.kb.namespaces import RDF_TYPE
from repro.kb.triples import Triple
from repro.recommender.engine import EngineConfig, RecommenderEngine
from repro.service import RecommendationService, ServiceConfig
from repro.service.registry import RESIDENT_VERSIONS
from repro.synthetic.config import (
    EvolutionConfig,
    InstanceConfig,
    SchemaConfig,
    UserConfig,
    WorldConfig,
)
from repro.synthetic.schema_gen import SYN
from repro.synthetic.world import generate_world

TENANT = "soak"
N_COMMITS = 60
#: Instance-dense, so one head snapshot (about 0.5 MB traced) is large
#: against what each commit adds to the history (its recorded delta and a
#: few interned terms, a few KB).
WORLD_CONFIG = WorldConfig(
    schema=SchemaConfig(n_classes=30, n_properties=16),
    instances=InstanceConfig(base_instances_per_class=30, zipf_skew=0.5),
    evolution=EvolutionConfig(n_versions=3, changes_per_version=30, n_hotspots=2),
    users=UserConfig(n_users=4, events_per_user=8),
)
#: The engine configuration ``repro serve`` builds: interest spreading is
#: on, so every cached scorer resolves its version's class graph.
ENGINE_CONFIG = EngineConfig(k=4, spread_depth=1)
SERVICE_CONFIG = ServiceConfig(k=4, workers=2, engine=ENGINE_CONFIG)


def _world():
    return generate_world(seed=11, config=WORLD_CONFIG)


def _stream(world, n_commits):
    """``(version_id, added, deleted)`` per commit.

    Each commit types three fresh instances and deletes the previous
    commit's three, so the head's size stays flat however long the chain.
    """
    classes = sorted(world.kb.first().schema.classes(), key=lambda c: c.value)
    stream, previous = [], []
    for index in range(1, n_commits + 1):
        added = [
            Triple(SYN[f"soak_{index}_{j}"], RDF_TYPE, classes[(index + j) % len(classes)])
            for j in range(3)
        ]
        stream.append((f"soak_{index}", added, previous))
        previous = added
    return stream


def _resident(kb):
    """The versions a serving tenant keeps materialised: root + window."""
    versions = list(kb)
    return [versions[0]] + versions[-RESIDENT_VERSIONS:]


def _live_bytes():
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


@pytest.fixture(scope="module")
def soak():
    """Commit the stream through the service, reading the head after each."""
    world = _world()
    stream = _stream(world, N_COMMITS + 1)
    users = [user.user_id for user in world.users[:2]]
    with RecommendationService(SERVICE_CONFIG) as service:
        kb = service.add_tenant(TENANT, world.kb, world.users).kb
        views, live = {}, {}
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            for index, (version_id, added, deleted) in enumerate(stream[:N_COMMITS], 1):
                service.commit_changes(
                    TENANT, added=added, deleted=deleted, version_id=version_id
                )
                for user_id in users:
                    service.recommend_cached(TENANT, user_id)
                for version in kb:
                    view = version.schema_if_built
                    if view is not None and version.version_id not in views:
                        views[version.version_id] = weakref.ref(view)
                if index in (20, N_COMMITS):
                    live[index] = _live_bytes()
            before = _live_bytes()
            head_copy = kb.latest().graph.copy()
            snapshot_bytes = _live_bytes() - before
            del head_copy
        finally:
            if started:
                tracemalloc.stop()
        yield {
            "service": service,
            "kb": kb,
            "stream": stream,
            "users": users,
            "views": views,
            "growth": live[N_COMMITS] - live[20],
            "snapshot_bytes": snapshot_bytes,
        }


class TestLongChainMemory:
    def test_only_the_root_and_the_window_stay_materialised(self, soak):
        kb = soak["kb"]
        assert len(kb) == 3 + N_COMMITS
        resident = {version.version_id for version in _resident(kb)}
        assert len(resident) == 1 + RESIDENT_VERSIONS
        materialised = {version.version_id for version in kb if version.is_materialized}
        assert materialised == resident
        for version in kb:
            if version.version_id not in resident:
                assert version.schema_if_built is None, version.version_id

    def test_dropped_views_are_unreachable(self, soak):
        kb, views = soak["kb"], soak["views"]
        # Every committed version was read as a head, so each had a view.
        assert {vid for vid, *_ in soak["stream"][:N_COMMITS]} <= set(views)
        gc.collect()
        resident = {version.version_id for version in _resident(kb)}
        alive = {vid for vid, ref in views.items() if ref() is not None}
        assert alive <= resident

    def test_live_memory_grows_by_less_than_one_head_snapshot(self, soak):
        # The head stays at a flat size, so each commit should add only its
        # delta to what stays live: commits 20 -> 60 add 40 deltas, where
        # keeping every snapshot would add 40 snapshots.
        assert soak["snapshot_bytes"] > 0
        assert soak["growth"] < soak["snapshot_bytes"], (
            f"live memory grew {soak['growth']} bytes over {N_COMMITS - 20} "
            f"commits; one head snapshot is {soak['snapshot_bytes']} bytes"
        )

    def test_dropped_pair_reads_bit_identically_and_drops_again(self, soak):
        service, kb, stream = soak["service"], soak["kb"], soak["stream"]
        versions = list(kb)
        old, new = versions[10], versions[11]
        assert not old.is_materialized and not new.is_materialized
        twin_world = _world()
        for version_id, added, deleted in stream[:N_COMMITS]:
            twin_world.kb.commit_changes(added=added, deleted=deleted, version_id=version_id)
        twin = RecommenderEngine(twin_world.kb, config=ENGINE_CONFIG)
        twin_users = {user.user_id: user for user in twin_world.users}
        context = twin.context_for(old.version_id, new.version_id)
        for user_id in soak["users"]:
            body = service.recommend_cached(
                TENANT, user_id, old_id=old.version_id, new_id=new.version_id
            ).body
            package = twin.recommend(twin_users[user_id], k=4, context=context)
            assert body == json.dumps(package_to_dict(package)).encode("utf-8"), user_id
        # The read rebuilt the pair; the next commit drops it again.
        assert old.is_materialized and new.is_materialized
        version_id, added, deleted = stream[N_COMMITS]
        service.commit_changes(TENANT, added=added, deleted=deleted, version_id=version_id)
        assert not old.is_materialized and not new.is_materialized
        assert old.schema_if_built is None and new.schema_if_built is None


def test_replica_commit_path_keeps_the_same_window():
    """Decoded commit records applied through ``Tenant.commit_recorded``."""
    owner = _world()
    replica_kb = wire.decode_kb(wire.encode_kb(owner.kb))
    replica_dictionary = replica_kb.first().graph.dictionary
    owner_dictionary = owner.kb.first().graph.dictionary
    users = [user.user_id for user in owner.users[:2]]
    with RecommendationService(SERVICE_CONFIG) as service:
        tenant = service.add_tenant(TENANT, replica_kb, owner.users)
        cursor = len(owner_dictionary)
        for version_id, added, deleted in _stream(owner, 12):
            owner.kb.commit_changes(added=added, deleted=deleted, version_id=version_id)
            record = wire.encode_commit(owner.kb.latest(), owner_dictionary, cursor)
            cursor = len(owner_dictionary)
            with tenant.write_lock:
                rid, metadata, rec_added, rec_deleted = wire.decode_commit(
                    record, replica_dictionary
                )
                tenant.commit_recorded(
                    added=rec_added, deleted=rec_deleted, version_id=rid, metadata=metadata
                )
            for user_id in users:
                service.recommend_cached(TENANT, user_id)
        assert replica_kb.version_ids() == owner.kb.version_ids()
        resident = {version.version_id for version in _resident(replica_kb)}
        materialised = {v.version_id for v in replica_kb if v.is_materialized}
        assert materialised == resident
        for version in replica_kb:
            if version.version_id not in resident:
                assert version.schema_if_built is None, version.version_id


def test_reads_racing_the_drop_step_stay_bit_identical():
    """Readers rebuild dropped pairs while commits drop them again."""
    world = _world()
    stream = _stream(world, 10)
    twin_world = _world()
    for version_id, added, deleted in stream:
        twin_world.kb.commit_changes(added=added, deleted=deleted, version_id=version_id)
    twin = RecommenderEngine(twin_world.kb, config=ENGINE_CONFIG)
    twin_users = {user.user_id: user for user in twin_world.users}
    user_ids = sorted(twin_users)[:2]
    captured, errors = [], []
    done = threading.Event()
    with RecommendationService(SERVICE_CONFIG) as service:
        kb = service.add_tenant(TENANT, world.kb, world.users).kb

        def read(index):
            rng = random.Random(index)
            reads = 0
            try:
                while not done.is_set() or reads < 2:
                    user_id = user_ids[rng.randrange(len(user_ids))]
                    if reads % 2:
                        # A pair behind the resident window (when the chain
                        # is that long): dropped, or about to be.
                        ids = kb.version_ids()
                        end = rng.randrange(1, max(2, len(ids) - RESIDENT_VERSIONS))
                        response = service.recommend_cached(
                            TENANT, user_id, old_id=ids[end - 1], new_id=ids[end]
                        )
                    else:
                        response = service.recommend_cached(TENANT, user_id)
                    captured.append((user_id, response.body))
                    reads += 1
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=read, args=(index,), daemon=True) for index in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to widen every race window
        try:
            for thread in threads:
                thread.start()
            for version_id, added, deleted in stream:
                service.commit_changes(
                    TENANT, added=added, deleted=deleted, version_id=version_id
                )
                time.sleep(0.02)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=120)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        resident = {version.version_id for version in _resident(kb)}
    expected, behind_window = {}, 0
    for user_id, body in captured:
        old_id, new_id = json.loads(body)["metadata"]["context"].split("->")
        behind_window += new_id not in resident
        key = (user_id, old_id, new_id)
        if key not in expected:
            package = twin.recommend(
                twin_users[user_id], k=4, context=twin.context_for(old_id, new_id)
            )
            expected[key] = json.dumps(package_to_dict(package)).encode("utf-8")
        assert body == expected[key], f"{user_id} on {old_id}->{new_id}"
    assert behind_window >= 1
