"""Unit tests for the versioned knowledge base."""

import gc
import tracemalloc
import weakref

import pytest

from repro.kb.errors import VersionError
from repro.kb.graph import Graph
from repro.kb.namespaces import EX
from repro.kb.triples import Triple
from repro.kb.version import VersionedKnowledgeBase
from repro.measures.semantic import centrality
from repro.measures.structural import betweenness_artefact
from repro.synthetic.config import EvolutionConfig, SchemaConfig, UserConfig, WorldConfig
from repro.synthetic.world import generate_world


def _t(i: int) -> Triple:
    return Triple(EX[f"s{i}"], EX.p, EX[f"o{i}"])


class TestCommit:
    def test_auto_version_ids(self):
        kb = VersionedKnowledgeBase()
        kb.commit(Graph())
        kb.commit(Graph())
        assert kb.version_ids() == ["v1", "v2"]

    def test_explicit_version_id(self):
        kb = VersionedKnowledgeBase()
        kb.commit(Graph(), version_id="release-1")
        assert "release-1" in kb

    def test_duplicate_id_rejected(self):
        kb = VersionedKnowledgeBase()
        kb.commit(Graph(), version_id="v1")
        with pytest.raises(VersionError):
            kb.commit(Graph(), version_id="v1")

    def test_commit_copies_by_default(self):
        kb = VersionedKnowledgeBase()
        g = Graph()
        kb.commit(g)
        g.add(_t(1))
        assert len(kb.latest().graph) == 0

    def test_commit_no_copy_adopts(self):
        kb = VersionedKnowledgeBase()
        g = Graph()
        kb.commit(g, copy=False)
        g.add(_t(1))
        assert len(kb.latest().graph) == 1

    def test_metadata_stored(self):
        kb = VersionedKnowledgeBase()
        v = kb.commit(Graph(), metadata={"author": "curator-1"})
        assert v.metadata["author"] == "curator-1"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            VersionedKnowledgeBase("")


class TestCommitChanges:
    def test_applies_additions_and_deletions(self):
        kb = VersionedKnowledgeBase()
        kb.commit(Graph([_t(1), _t(2)]))
        kb.commit_changes(added=[_t(3)], deleted=[_t(1)])
        latest = kb.latest().graph
        assert _t(3) in latest and _t(2) in latest and _t(1) not in latest

    def test_on_empty_chain_starts_from_nothing(self):
        kb = VersionedKnowledgeBase()
        kb.commit_changes(added=[_t(1)])
        assert len(kb.latest().graph) == 1


class TestAccess:
    def test_version_lookup(self):
        kb = VersionedKnowledgeBase()
        kb.commit(Graph(), version_id="a")
        assert kb.version("a").version_id == "a"

    def test_unknown_version_raises_with_available_ids(self):
        kb = VersionedKnowledgeBase()
        kb.commit(Graph(), version_id="a")
        with pytest.raises(VersionError, match="a"):
            kb.version("missing")

    def test_latest_first(self):
        kb = VersionedKnowledgeBase()
        kb.commit(Graph(), version_id="a")
        kb.commit(Graph(), version_id="b")
        assert kb.first().version_id == "a"
        assert kb.latest().version_id == "b"

    def test_latest_on_empty_raises(self):
        with pytest.raises(VersionError):
            VersionedKnowledgeBase().latest()

    def test_pairs(self):
        kb = VersionedKnowledgeBase()
        for vid in ("a", "b", "c"):
            kb.commit(Graph(), version_id=vid)
        assert [(x.version_id, y.version_id) for x, y in kb.pairs()] == [
            ("a", "b"),
            ("b", "c"),
        ]

    def test_len_and_iter(self):
        kb = VersionedKnowledgeBase()
        kb.commit(Graph())
        assert len(kb) == 1
        assert [v.version_id for v in kb] == ["v1"]

    def test_schema_view_cached(self):
        kb = VersionedKnowledgeBase()
        v = kb.commit(Graph([_t(1)]))
        assert v.schema is v.schema

    def test_version_len(self):
        kb = VersionedKnowledgeBase()
        v = kb.commit(Graph([_t(1), _t(2)]))
        assert len(v) == 2


class TestCompactionReleasesMemory:
    """``compact()`` frees what it drops, and the rebuilt views agree bit for bit."""

    @staticmethod
    def _chain() -> VersionedKnowledgeBase:
        world = generate_world(
            seed=7,
            config=WorldConfig(
                schema=SchemaConfig(n_classes=20, n_properties=12),
                evolution=EvolutionConfig(n_versions=6, changes_per_version=25),
            ),
        )
        # A fresh chain over the same snapshots: no view built yet, so the
        # walk below links every non-root view to its parent's.
        kb = VersionedKnowledgeBase("six")
        for version in world.kb:
            kb.commit(version.graph, version_id=version.version_id)
        return kb

    @staticmethod
    def _artefact_bits(version):
        schema = version.schema
        betweenness = betweenness_artefact(schema)[1]
        centralities = {cls: centrality(schema, cls) for cls in schema.classes()}
        # repr() round-trips a float exactly, so equal reprs are equal bits.
        return (
            {cls: repr(value) for cls, value in betweenness.items()},
            {cls: repr(value) for cls, value in centralities.items()},
        )

    def test_compact_frees_middle_views_and_rebuilds_them_bit_identically(self):
        kb = self._chain()
        versions = list(kb)
        assert len(versions) == 6
        before = [self._artefact_bits(version) for version in versions]
        middle = versions[1:-1]
        views = [weakref.ref(version.schema) for version in middle]
        graphs = [weakref.ref(version.graph) for version in middle]
        # Each child view is linked to its parent's.
        assert all(
            version.schema.parent is version.parent.schema for version in versions[1:]
        )
        assert kb.compact() == len(middle)
        gc.collect()
        assert [ref() for ref in views] == [None] * len(middle)
        assert [ref() for ref in graphs] == [None] * len(middle)
        # The head's parent view is gone, so its link lapsed.
        assert kb.latest().schema.parent is None
        after = [self._artefact_bits(version) for version in versions]
        assert after == before

    def test_a_rebuilt_version_keeps_no_ownership_record(self):
        # 41 deltas from a 518-triple root to a 4,591-triple version: the
        # replay creates or copies most index containers, and a record of
        # each would cost more than sharing the rest saves.
        kb = generate_world(
            seed=4242,
            config=WorldConfig(
                schema=SchemaConfig(n_classes=120, n_properties=80),
                evolution=EvolutionConfig(n_versions=43, changes_per_version=150),
                users=UserConfig(n_users=2),
            ),
        ).kb
        assert kb.compact() == 41
        root, target, head = kb.first(), kb.version(kb.version_ids()[-2]), kb.latest()
        assert not target.is_materialized

        def traced(build):
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            graph = build()
            gc.collect()
            return graph, tracemalloc.get_traced_memory()[0] - before

        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            rebuilt, rebuilt_bytes = traced(lambda: target.graph)
            unshared, unshared_bytes = traced(
                lambda: Graph.from_interned_keys(rebuilt.dictionary, rebuilt.triple_keys)
            )
        finally:
            if started:
                tracemalloc.stop()
        assert rebuilt == unshared
        assert rebuilt_bytes <= 1.2 * unshared_bytes, (
            f"rebuilt version traced {rebuilt_bytes} bytes; an unshared build "
            f"of the same triples {unshared_bytes}"
        )

        # The rebuilt graph shares with the root and the head every index
        # container no delta touched, so a write to it must copy them
        # first.  A subject with several triples, neither it nor the
        # object named by any delta, sits in shared containers only.
        touched = set()
        for version in list(kb)[1:]:
            delta = version.delta_from_parent()
            for triple in delta.added | delta.deleted:
                touched.update((triple.subject, triple.object))
        shared = next(
            t
            for t in root.graph.sorted_triples()
            if t.subject not in touched
            and t.object not in touched
            and len(list(root.graph.match(t.subject))) > 1
        )
        fresh = Triple(shared.subject, shared.predicate, EX.rebuilt_only)
        shapes = [
            (s, p, o)
            for s in (None, shared.subject)
            for p in (None, shared.predicate)
            for o in (None, shared.object, EX.rebuilt_only)
        ]

        def answers(graph):
            return [set(graph.match(s, p, o)) for s, p, o in shapes]

        residents = [root.graph, head.graph]
        before = [(set(graph), answers(graph)) for graph in residents]
        rebuilt.remove(shared)
        rebuilt.add(fresh)
        assert shared not in rebuilt and fresh in rebuilt
        assert [(set(graph), answers(graph)) for graph in residents] == before
