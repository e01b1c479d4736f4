"""Unit tests for the schema view."""

import pytest

from repro.kb.errors import SchemaError
from repro.kb.graph import Graph
from repro.kb.namespaces import (
    EX,
    RDF_PROPERTY,
    RDF_TYPE,
    RDFS_CLASS,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
)
from repro.kb.schema import PropertyEdge, SchemaView
from repro.kb.terms import Literal
from repro.kb.triples import Triple


@pytest.fixture
def university() -> SchemaView:
    """A small university ontology with instances.

    Agent <- Person <- (Student, Professor); Course.
    teaches: Professor -> Course; enrolledIn: Student -> Course.
    """
    g = Graph()
    for cls in (EX.Agent, EX.Person, EX.Student, EX.Professor, EX.Course):
        g.add(Triple(cls, RDF_TYPE, RDFS_CLASS))
    g.add(Triple(EX.Person, RDFS_SUBCLASSOF, EX.Agent))
    g.add(Triple(EX.Student, RDFS_SUBCLASSOF, EX.Person))
    g.add(Triple(EX.Professor, RDFS_SUBCLASSOF, EX.Person))
    for prop, dom, rng in (
        (EX.teaches, EX.Professor, EX.Course),
        (EX.enrolledIn, EX.Student, EX.Course),
    ):
        g.add(Triple(prop, RDF_TYPE, RDF_PROPERTY))
        g.add(Triple(prop, RDFS_DOMAIN, dom))
        g.add(Triple(prop, RDFS_RANGE, rng))
    # Instances: 2 students, 1 professor, 2 courses.
    g.add(Triple(EX.ada, RDF_TYPE, EX.Student))
    g.add(Triple(EX.bob, RDF_TYPE, EX.Student))
    g.add(Triple(EX.turing, RDF_TYPE, EX.Professor))
    g.add(Triple(EX.cs101, RDF_TYPE, EX.Course))
    g.add(Triple(EX.cs202, RDF_TYPE, EX.Course))
    g.add(Triple(EX.turing, EX.teaches, EX.cs101))
    g.add(Triple(EX.ada, EX.enrolledIn, EX.cs101))
    g.add(Triple(EX.ada, EX.enrolledIn, EX.cs202))
    g.add(Triple(EX.bob, EX.enrolledIn, EX.cs101))
    g.add(Triple(EX.ada, EX.name, Literal("Ada")))
    return SchemaView(g)


class TestClassesAndProperties:
    def test_classes(self, university):
        assert university.classes() == frozenset(
            {EX.Agent, EX.Person, EX.Student, EX.Professor, EX.Course}
        )

    def test_builtin_excluded_by_default(self, university):
        assert RDFS_CLASS not in university.classes()
        assert RDFS_CLASS in university.classes(include_builtin=True)

    def test_properties(self, university):
        props = university.properties()
        assert EX.teaches in props and EX.enrolledIn in props
        assert EX.name in props  # used as a predicate

    def test_is_class(self, university):
        assert university.is_class(EX.Person)
        assert not university.is_class(EX.teaches)
        assert not university.is_class(Literal("x"))

    def test_is_property(self, university):
        assert university.is_property(EX.teaches)
        assert not university.is_property(EX.Person)

    def test_class_from_type_assertion_only(self):
        g = Graph([Triple(EX.x, RDF_TYPE, EX.Widget)])
        assert EX.Widget in SchemaView(g).classes()


class TestSubsumption:
    def test_direct_superclasses(self, university):
        assert university.superclasses(EX.Student) == frozenset({EX.Person})

    def test_transitive_superclasses(self, university):
        assert university.superclasses(EX.Student, transitive=True) == frozenset(
            {EX.Person, EX.Agent}
        )

    def test_direct_subclasses(self, university):
        assert university.subclasses(EX.Person) == frozenset({EX.Student, EX.Professor})

    def test_transitive_subclasses(self, university):
        assert university.subclasses(EX.Agent, transitive=True) == frozenset(
            {EX.Person, EX.Student, EX.Professor}
        )

    def test_roots(self, university):
        assert university.roots() == frozenset({EX.Agent, EX.Course})

    def test_depth(self, university):
        assert university.depth(EX.Agent) == 0
        assert university.depth(EX.Person) == 1
        assert university.depth(EX.Student) == 2

    def test_depth_unknown_class_raises(self, university):
        with pytest.raises(SchemaError):
            university.depth(EX.Nothing)

    def test_cycle_terminates(self):
        g = Graph(
            [
                Triple(EX.A, RDFS_SUBCLASSOF, EX.B),
                Triple(EX.B, RDFS_SUBCLASSOF, EX.A),
            ]
        )
        view = SchemaView(g)
        assert view.superclasses(EX.A, transitive=True) == frozenset({EX.A, EX.B})
        assert view.depth(EX.A) >= 0  # must not loop forever


class TestPropertyStructure:
    def test_domain_range(self, university):
        assert university.domain(EX.teaches) == frozenset({EX.Professor})
        assert university.range(EX.teaches) == frozenset({EX.Course})

    def test_missing_domain_is_empty(self, university):
        assert university.domain(EX.name) == frozenset()

    def test_property_edges(self, university):
        assert PropertyEdge(EX.Professor, EX.teaches, EX.Course) in university.property_edges()

    def test_outgoing_incoming(self, university):
        assert {e.prop for e in university.outgoing_properties(EX.Student)} == {EX.enrolledIn}
        assert {e.prop for e in university.incoming_properties(EX.Course)} == {
            EX.teaches,
            EX.enrolledIn,
        }


class TestInstances:
    def test_direct_instances(self, university):
        assert university.instances_of(EX.Student) == frozenset({EX.ada, EX.bob})

    def test_transitive_instances(self, university):
        assert university.instances_of(EX.Person, transitive=True) == frozenset(
            {EX.ada, EX.bob, EX.turing}
        )

    def test_instance_count(self, university):
        assert university.instance_count(EX.Course) == 2
        assert university.instance_count(EX.Person) == 0
        assert university.instance_count(EX.Person, transitive=True) == 3

    def test_transitive_count_counts_a_multi_typed_instance_once(self, university):
        university.graph.add(Triple(EX.ada, RDF_TYPE, EX.Professor))
        assert university.instance_count(EX.Person, transitive=True) == 3
        assert university.instance_count(EX.Agent, transitive=True) == 3
        assert university.instance_count(EX.Professor) == 2

    def test_total_instances(self, university):
        assert university.total_instances() == 5

    def test_classes_of(self, university):
        assert university.classes_of(EX.ada) == frozenset({EX.Student})

    def test_classes_are_not_instances(self, university):
        # Student is typed rdfs:Class; it must not appear as an instance.
        for cls in university.classes():
            assert EX.Student not in university.instances_of(cls)


class TestNeighborhood:
    def test_neighborhood_subsumption_and_properties(self, university):
        assert university.neighborhood(EX.Student) == frozenset({EX.Person, EX.Course})

    def test_neighborhood_excludes_self(self, university):
        assert EX.Course not in university.neighborhood(EX.Course)

    def test_neighborhood_incoming_properties_count(self, university):
        assert university.neighborhood(EX.Course) == frozenset({EX.Professor, EX.Student})


class TestClassEdges:
    def test_edges_are_undirected_and_deduplicated(self, university):
        edges = university.class_edges()
        for a, b in edges:
            assert a.value <= b.value
        assert (
            (EX.Person, EX.Student) in edges
            or (EX.Student, EX.Person) in edges
        )

    def test_without_subsumption(self, university):
        edges = university.class_edges(include_subsumption=False)
        assert all(
            {a, b} in ({EX.Professor, EX.Course}, {EX.Student, EX.Course}) for a, b in edges
        )


class TestInstanceConnections:
    def test_connection_count(self, university):
        assert university.instance_connections(EX.enrolledIn, EX.Student, EX.Course) == 3
        assert university.instance_connections(EX.teaches, EX.Professor, EX.Course) == 1

    def test_no_instances_gives_zero(self, university):
        assert university.instance_connections(EX.teaches, EX.Agent, EX.Course) == 0

    def test_instance_link_count(self, university):
        # 3 enrolledIn + 1 teaches links touch Student/Course instances.
        assert university.instance_link_count([EX.Student, EX.Course]) == 4


class TestStalenessInvalidation:
    """Mutating a graph after a view is taken must never serve stale values.

    Regression tests for the cache-invalidation audit: every SchemaView
    cache -- including the ``memo`` store the betweenness / semantic
    centrality artefacts live in -- is pinned to the graph's mutation
    counter and self-invalidates on next access.
    """

    def _grown_graph(self) -> Graph:
        g = Graph()
        for cls in (EX.A, EX.B, EX.C):
            g.add(Triple(cls, RDF_TYPE, RDFS_CLASS))
        g.add(Triple(EX.B, RDFS_SUBCLASSOF, EX.A))
        g.add(Triple(EX.p, RDF_TYPE, RDF_PROPERTY))
        g.add(Triple(EX.p, RDFS_DOMAIN, EX.A))
        g.add(Triple(EX.p, RDFS_RANGE, EX.C))
        g.add(Triple(EX.x, RDF_TYPE, EX.A))
        g.add(Triple(EX.y, RDF_TYPE, EX.C))
        g.add(Triple(EX.x, EX.p, EX.y))
        return g

    def test_memo_is_dropped_when_graph_mutates(self):
        view = SchemaView(self._grown_graph())
        view.memo["structural:betweenness"] = ("sentinel-graph", {"stale": 1.0})
        view.graph.add(Triple(EX.D, RDF_TYPE, RDFS_CLASS))
        assert "structural:betweenness" not in view.memo

    def test_stale_betweenness_artefact_is_recomputed_not_served(self):
        from repro.measures.structural import BETWEENNESS_KEY, betweenness_artefact

        view = SchemaView(self._grown_graph())
        graph_before, betweenness_before = betweenness_artefact(view)
        assert BETWEENNESS_KEY in view.memo
        # New hub class wired to everything: betweenness must change.
        view.graph.add(Triple(EX.hub, RDF_TYPE, RDFS_CLASS))
        view.graph.add(Triple(EX.q, RDFS_DOMAIN, EX.hub))
        view.graph.add(Triple(EX.q, RDFS_RANGE, EX.B))
        view.graph.add(Triple(EX.r, RDFS_DOMAIN, EX.hub))
        view.graph.add(Triple(EX.r, RDFS_RANGE, EX.C))
        graph_after, _ = betweenness_artefact(view)
        assert graph_after is not graph_before
        assert EX.hub in graph_after
        assert EX.hub not in graph_before

    def test_stale_semantic_centrality_is_recomputed_not_served(self):
        from repro.measures.semantic import centrality

        view = SchemaView(self._grown_graph())
        before = centrality(view, EX.A)
        assert before > 0.0
        # Removing the only instance link empties every relative
        # cardinality; serving the memoised value would be stale.
        view.graph.remove(Triple(EX.x, EX.p, EX.y))
        assert centrality(view, EX.A) == 0.0

    def test_classes_and_instances_refresh_after_mutation(self):
        view = SchemaView(self._grown_graph())
        assert EX.D not in view.classes()
        assert view.instance_count(EX.A) == 1
        view.graph.add(Triple(EX.D, RDF_TYPE, RDFS_CLASS))
        view.graph.add(Triple(EX.z, RDF_TYPE, EX.A))
        assert EX.D in view.classes()
        assert view.instance_count(EX.A) == 2

    def _linked_child(self):
        """A parent view and an instance-only child view linked to it."""
        parent = SchemaView(self._grown_graph())
        child_graph = parent.graph.copy()
        child_graph.add(Triple(EX.z, RDF_TYPE, EX.A))
        return parent, SchemaView(child_graph, parent)

    def test_child_reuses_betweenness_only_while_unchanged(self):
        from repro.measures.structural import RAW_BETWEENNESS_KEY, betweenness_artefact

        parent, child = self._linked_child()
        assert child.parent is parent
        artefact = betweenness_artefact(parent)
        assert betweenness_artefact(child)[1] is artefact[1]
        assert child.memo[RAW_BETWEENNESS_KEY] is parent.memo[RAW_BETWEENNESS_KEY]
        # A new edge between existing classes: same nodes, another graph.
        # The child's memo invalidates, and the parent's artefact no longer
        # applies.
        child.graph.add(Triple(EX.q, RDFS_DOMAIN, EX.B))
        child.graph.add(Triple(EX.q, RDFS_RANGE, EX.C))
        recomputed = betweenness_artefact(child)
        assert recomputed[1] is not artefact[1]
        cold = betweenness_artefact(SchemaView(child.graph))
        assert list(recomputed[0].nodes()) == list(cold[0].nodes())
        assert recomputed[1] == cold[1]
        assert recomputed[1] != artefact[1]

    def test_neighborhood_cache_refreshes(self):
        view = SchemaView(self._grown_graph())
        assert EX.C in view.neighborhood(EX.A)
        view.graph.remove(Triple(EX.p, RDFS_RANGE, EX.C))
        assert EX.C not in view.neighborhood(EX.A)

    def test_mutated_parent_never_leaks_into_child(self):
        # The parent is mutated and re-warmed after the child view was
        # made: its self-invalidated memo now holds artefacts of a class
        # graph the child does not have, so the child must compute its own.
        from repro.measures.semantic import centrality
        from repro.measures.structural import betweenness_artefact

        parent, child = self._linked_child()
        first = betweenness_artefact(parent)
        assert centrality(parent, EX.A) > 0.0
        parent.graph.remove(Triple(EX.x, EX.p, EX.y))
        parent.graph.add(Triple(EX.q, RDFS_DOMAIN, EX.B))
        parent.graph.add(Triple(EX.q, RDFS_RANGE, EX.C))
        warmed = betweenness_artefact(parent)
        assert warmed is not first
        assert centrality(parent, EX.A) == 0.0
        assert child.parent is parent
        artefact = betweenness_artefact(child)
        assert artefact is not warmed
        assert artefact[1] == betweenness_artefact(SchemaView(child.graph))[1]
        assert artefact[1] != warmed[1]
        assert centrality(child, EX.A) > 0.0
