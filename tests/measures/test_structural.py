"""Tests for Section II.c structural shift measures."""

import sys
import threading
import time

import networkx as nx

from repro.graphtools.adjacency import UndirectedGraph
from repro.kb.graph import Graph
from repro.kb.namespaces import EX, RDF_TYPE, RDFS_CLASS, RDFS_SUBCLASSOF
from repro.kb.schema import SchemaView
from repro.kb.triples import Triple
from repro.kb.version import VersionedKnowledgeBase
from repro.measures import structural
from repro.measures.base import EvolutionContext
from repro.measures.structural import (
    BetweennessShift,
    BridgingCentralityShift,
    betweenness_artefact,
    class_graph,
)
from repro.recommender.engine import EngineConfig, RecommenderEngine
from repro.synthetic.config import EvolutionConfig, SchemaConfig, UserConfig, WorldConfig
from repro.synthetic.world import generate_world


def _chain_graph(n: int) -> Graph:
    """Classes C0 - C1 - ... - C(n-1) linked by subsumption."""
    g = Graph()
    for i in range(n):
        g.add(Triple(EX[f"C{i}"], RDF_TYPE, RDFS_CLASS))
    for i in range(n - 1):
        g.add(Triple(EX[f"C{i}"], RDFS_SUBCLASSOF, EX[f"C{i + 1}"]))
    return g


def _context(old: Graph, new: Graph) -> EvolutionContext:
    kb = VersionedKnowledgeBase()
    v1 = kb.commit(old, copy=False)
    v2 = kb.commit(new, copy=False)
    return EvolutionContext(v1, v2)


class TestClassGraph:
    def test_nodes_are_classes(self, university_context):
        g = class_graph(university_context.old_schema)
        assert set(g.nodes()) == set(university_context.old_schema.classes())

    def test_edges_from_subsumption_and_properties(self, university_context):
        g = class_graph(university_context.old_schema)
        assert g.has_edge(EX.Student, EX.Person)  # subsumption
        assert g.has_edge(EX.Professor, EX.Course)  # property edge

    def test_matches_networkx_structure(self, university_context):
        ours = class_graph(university_context.new_schema)
        theirs = nx.Graph()
        theirs.add_nodes_from(ours.nodes())
        theirs.add_edges_from(ours.edges())
        assert theirs.number_of_nodes() == len(ours)
        assert theirs.number_of_edges() == ours.edge_count()


def _count_class_graph_builds(monkeypatch, pause=0.0):
    """Record every graph :func:`class_graph` constructs from now on."""
    builds = []

    class CountingGraph(UndirectedGraph):
        def __init__(self, *args, **kwargs):
            builds.append(self)
            time.sleep(pause)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(structural, "UndirectedGraph", CountingGraph)
    return builds


class TestOneClassGraphPerVersion:
    def test_betweenness_distances_and_spread_profiles_share_one_build(self, monkeypatch):
        config = WorldConfig(
            schema=SchemaConfig(n_classes=30, n_properties=15),
            evolution=EvolutionConfig(n_versions=2, changes_per_version=20),
            users=UserConfig(n_users=6),
        )
        world = generate_world(seed=5, config=config)
        # Fresh versions: the generator's own class-graph reads stay out.
        kb = VersionedKnowledgeBase()
        for version in world.kb:
            kb.commit(version.graph, version_id=version.version_id)
        builds = _count_class_graph_builds(monkeypatch)
        engine = RecommenderEngine(kb, config=EngineConfig(spread_depth=1))
        packages = engine.recommend_many(world.users)
        assert len(packages) == len(world.users)
        context = engine.context()
        # One build per side: betweenness reads both; the distance table
        # and every user's spread profile read the new side's graph again.
        assert len(builds) == 2
        for schema in (context.old_schema, context.new_schema):
            assert class_graph(schema) is betweenness_artefact(schema)[0]
        assert len(builds) == 2

    def test_a_version_reusing_its_parents_betweenness_keeps_its_own_graph(self):
        parent = SchemaView(_chain_graph(6))
        child_graph = parent.graph.copy()
        child_graph.add(Triple(EX.x, RDF_TYPE, EX.C0))  # instance-only: same class graph
        child = SchemaView(child_graph, parent)
        parent_graph, parent_scores = betweenness_artefact(parent)
        graph, scores = betweenness_artefact(child)
        assert scores is parent_scores  # the parent's Brandes pass was reused...
        assert graph is class_graph(child)  # ...but paired with the child's own graph
        assert graph is not parent_graph

    def test_concurrent_first_reads_of_a_cold_view_build_once(self, monkeypatch):
        builds = _count_class_graph_builds(monkeypatch, pause=0.01)
        schema = SchemaView(_chain_graph(50))
        start = threading.Barrier(8)
        graphs = [None] * 8

        def read(slot):
            start.wait(timeout=30)
            graphs[slot] = class_graph(schema)

        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(builds) == 1
        assert all(graph is builds[0] for graph in graphs)


class TestBetweennessShift:
    def test_no_change_no_shift(self):
        g = _chain_graph(5)
        ctx = _context(g, g.copy())
        result = BetweennessShift().compute(ctx)
        assert all(s == 0.0 for s in result.scores.values())

    def test_topology_change_shifts_affected_region(self):
        # V2 splits the chain by removing the middle link: the middle
        # classes lose all their betweenness.
        old = _chain_graph(7)
        new = _chain_graph(7)
        new.remove(Triple(EX.C3, RDFS_SUBCLASSOF, EX.C4))
        ctx = _context(old, new)
        result = BetweennessShift().compute(ctx)
        assert result.score(EX.C3) > 0.0
        assert result.score(EX.C0) < result.score(EX.C3)

    def test_new_hub_redistributes_centrality(self):
        old = _chain_graph(4)
        new = _chain_graph(4)
        # Hub subsumes everything: shortcuts collapse the chain's centrality.
        new.add(Triple(EX.Hub, RDF_TYPE, RDFS_CLASS))
        for i in range(4):
            new.add(Triple(EX[f"C{i}"], RDFS_SUBCLASSOF, EX.Hub))
        ctx = _context(old, new)
        result = BetweennessShift().compute(ctx)
        # The new hub shifts (it had centrality 0 before), and the former
        # chain middles shift even more (they lose their monopoly on paths).
        assert result.score(EX.Hub) > 0.0
        assert result.ranking()[0] in {EX.C1, EX.C2}
        assert result.score(EX.C1) > result.score(EX.C0)

    def test_absent_class_has_zero_centrality_side(self):
        old = _chain_graph(3)
        new = _chain_graph(5)  # C3, C4 appear
        ctx = _context(old, new)
        result = BetweennessShift().compute(ctx)
        assert EX.C4 in result.scores


class TestBridgingCentralityShift:
    def test_no_change_no_shift(self):
        g = _chain_graph(5)
        ctx = _context(g, g.copy())
        result = BridgingCentralityShift().compute(ctx)
        assert all(s == 0.0 for s in result.scores.values())

    def test_bridge_appearing_scores(self, university_context):
        result = BridgingCentralityShift().compute(university_context)
        assert all(s >= 0.0 for s in result.scores.values())
        # Course's topology changed (Seminar attached below it).
        assert result.score(EX.Course) > 0.0

    def test_differs_from_betweenness(self):
        """Bridging centrality and betweenness rank differently in general."""
        old = _chain_graph(2)
        new = Graph()
        # Two triangles joined by a bridge node.
        names = ["A", "B", "C", "D", "E", "F", "Bridge"]
        for n in names:
            new.add(Triple(EX[n], RDF_TYPE, RDFS_CLASS))
        edges = [
            ("A", "B"), ("B", "C"), ("A", "C"),
            ("D", "E"), ("E", "F"), ("D", "F"),
            ("C", "Bridge"), ("Bridge", "D"),
        ]
        for a, b in edges:
            new.add(Triple(EX[a], RDFS_SUBCLASSOF, EX[b]))
        ctx = _context(old, new)
        betweenness = BetweennessShift().compute(ctx)
        bridging = BridgingCentralityShift().compute(ctx)
        assert bridging.ranking()[0] == EX.Bridge
        # The bridging coefficient makes the bridge *relatively* more
        # dominant over a triangle corner than raw betweenness does.
        corner = EX.C
        assert (
            bridging.score(EX.Bridge) / bridging.score(corner)
            > betweenness.score(EX.Bridge) / betweenness.score(corner)
        )
