"""Differential tests: the id-keyed schema view equals Term-keyed derivations.

:class:`repro.kb.schema.SchemaView` derives its maps from the graph's
interned indexes, keyed by term id.  The functions below are the same
derivations written over materialised triples into Term-keyed dicts, as
the view computed them before; every public method of the view must
return exactly what they return, on every version of seeded random
evolution chains (the chains of ``tests/test_differential_evolution.py``)
and on copies of those versions where some instances carry a second type.
"""

import random
from collections import deque

import pytest

from repro.kb.namespaces import (
    EX,
    OWL,
    OWL_CLASS,
    OWL_OBJECT_PROPERTY,
    RDF,
    RDF_PROPERTY,
    RDF_TYPE,
    RDFS,
    RDFS_CLASS,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    XSD,
)
from repro.kb.schema import PropertyEdge, SchemaView
from repro.kb.terms import IRI
from repro.kb.triples import Triple
from repro.synthetic.config import EvolutionConfig, SchemaConfig, WorldConfig
from repro.synthetic.world import generate_world

CHAIN_SEEDS = (11, 23, 37, 41, 53)
N_VERSIONS = 8


def _builtin(iri):
    return any(iri.value.startswith(ns.base) for ns in (RDF, RDFS, OWL, XSD))


# -- the Term-keyed reference derivations ----------------------------------------------


class Reference:
    """Every map of a schema view, derived from ``graph.match`` over terms."""

    def __init__(self, graph):
        g = graph
        found = set()
        for meta in (RDFS_CLASS, OWL_CLASS):
            found |= {s for s in g.subjects(RDF_TYPE, meta) if isinstance(s, IRI)}
        for t in g.match(None, RDFS_SUBCLASSOF, None):
            found |= {x for x in (t.subject, t.object) if isinstance(x, IRI)}
        for pred in (RDFS_DOMAIN, RDFS_RANGE, RDF_TYPE):
            found |= {t.object for t in g.match(None, pred, None) if isinstance(t.object, IRI)}
        self.all_classes = frozenset(found)
        self.classes = frozenset(c for c in found if not _builtin(c))

        found = set()
        for meta in (RDF_PROPERTY, OWL_OBJECT_PROPERTY):
            found |= {s for s in g.subjects(RDF_TYPE, meta) if isinstance(s, IRI)}
        for pred in (RDFS_DOMAIN, RDFS_RANGE):
            found |= {t.subject for t in g.match(None, pred, None) if isinstance(t.subject, IRI)}
        for t in g.match(None, RDFS_SUBPROPERTYOF, None):
            found |= {x for x in (t.subject, t.object) if isinstance(x, IRI)}
        found |= {t.predicate for t in g.match(None, None, None) if not _builtin(t.predicate)}
        self.all_properties = frozenset(found)
        self.properties = frozenset(p for p in found if not _builtin(p))

        def pairs(pred):
            forward, backward = {}, {}
            for t in g.match(None, pred, None):
                if isinstance(t.subject, IRI) and isinstance(t.object, IRI):
                    forward.setdefault(t.subject, set()).add(t.object)
                    backward.setdefault(t.object, set()).add(t.subject)
            return forward, backward

        self.supers, self.subs = pairs(RDFS_SUBCLASSOF)
        self.domains, self.ranges = pairs(RDFS_DOMAIN)[0], pairs(RDFS_RANGE)[0]

        edges = []
        for prop in sorted(set(self.domains) | set(self.ranges), key=lambda p: p.value):
            if _builtin(prop):
                continue
            for src in sorted(self.domains.get(prop, ()), key=lambda c: c.value):
                for dst in sorted(self.ranges.get(prop, ()), key=lambda c: c.value):
                    edges.append(PropertyEdge(src, prop, dst))
        self.edges = tuple(edges)

        self.instances = {}
        for t in g.match(None, RDF_TYPE, None):
            obj = t.object
            if isinstance(obj, IRI) and obj in self.all_classes and not _builtin(obj):
                if t.subject not in self.all_classes:
                    self.instances.setdefault(obj, set()).add(t.subject)
        self.instance_classes = {}
        for cls, members in self.instances.items():
            for member in members:
                self.instance_classes.setdefault(member, set()).add(cls)

        # Every instance-level link, with the member sets that can claim it.
        self.connections = {}
        self.link_claims = []
        for t in g.match(None, None, None):
            if _builtin(t.predicate):
                continue
            obj = t.object
            is_instance = obj in self.instance_classes
            if not isinstance(obj, IRI) and not is_instance:
                continue
            claims = set()
            if isinstance(obj, IRI):
                claims.add(t.subject)
            if is_instance:
                claims.add(obj)
            self.link_claims.append(claims)
            for src in self.instance_classes.get(t.subject, ()):
                for dst in self.instance_classes.get(obj, ()):
                    key = (t.predicate, src, dst)
                    self.connections[key] = self.connections.get(key, 0) + 1

    @staticmethod
    def closure(start, step):
        seen, frontier = set(), deque(step.get(start, ()))
        while frontier:
            node = frontier.popleft()
            if node not in seen:
                seen.add(node)
                frontier.extend(step.get(node, ()))
        return frozenset(seen)

    def instances_of(self, cls, transitive):
        result = set(self.instances.get(cls, ()))
        if transitive:
            for sub in self.closure(cls, self.subs):
                result |= self.instances.get(sub, set())
        return frozenset(result)

    def depth(self, cls):
        depth, frontier, seen = 0, {cls}, {cls}
        while True:
            parents = set()
            for node in frontier:
                parents |= {p for p in self.supers.get(node, ()) if not _builtin(p)}
            parents -= seen
            if not parents:
                return depth
            seen |= parents
            frontier = parents
            depth += 1

    def neighborhood(self, cls):
        related = set(self.supers.get(cls, ())) | self.subs.get(cls, set())
        related |= {e.target for e in self.edges if e.source == cls}
        related |= {e.source for e in self.edges if e.target == cls and e.source != cls}
        related.discard(cls)
        return frozenset(c for c in related if not _builtin(c))

    def class_edges(self, include_subsumption):
        edges = set()
        pairs = [(e.source, e.target) for e in self.edges]
        if include_subsumption:
            pairs += [(c, p) for c, parents in self.supers.items() for p in parents]
        for a, b in pairs:
            if a != b and not _builtin(a) and not _builtin(b):
                edges.add((a, b) if a.value <= b.value else (b, a))
        return edges

    def link_count(self, classes):
        members = set()
        for cls in classes:
            members |= self.instances.get(cls, set())
        return sum(1 for claims in self.link_claims if claims & members)


# -- the comparison ---------------------------------------------------------------------


def assert_view_matches_reference(graph):
    view, ref = SchemaView(graph), Reference(graph)
    assert view.classes() == ref.classes
    assert view.classes(include_builtin=True) == ref.all_classes
    assert view.properties() == ref.properties
    assert view.properties(include_builtin=True) == ref.all_properties
    assert view.property_edges() == ref.edges
    assert view.class_edges() == ref.class_edges(True)
    assert view.class_edges(include_subsumption=False) == ref.class_edges(False)
    assert view.total_instances() == len(ref.instance_classes)
    assert view.roots() == frozenset(
        c for c in ref.classes if all(_builtin(s) for s in ref.supers.get(c, ()))
    )
    absent = EX["not-in-this-graph"]
    for cls in sorted(ref.all_classes | {absent}, key=lambda c: c.value):
        assert view.superclasses(cls) == frozenset(ref.supers.get(cls, ()))
        assert view.subclasses(cls) == frozenset(ref.subs.get(cls, ()))
        assert view.superclasses(cls, transitive=True) == ref.closure(cls, ref.supers)
        assert view.subclasses(cls, transitive=True) == ref.closure(cls, ref.subs)
        assert view.outgoing_properties(cls) == tuple(e for e in ref.edges if e.source == cls)
        assert view.incoming_properties(cls) == tuple(e for e in ref.edges if e.target == cls)
        assert view.neighborhood(cls) == ref.neighborhood(cls)
        if cls in ref.classes:
            assert view.depth(cls) == ref.depth(cls)
        for transitive in (False, True):
            members = ref.instances_of(cls, transitive)
            assert view.instances_of(cls, transitive=transitive) == members
            assert view.instance_count(cls, transitive=transitive) == len(members)
        assert view.instance_link_count([cls]) == ref.link_count([cls])
    for prop in sorted(ref.all_properties | {absent}, key=lambda p: p.value):
        assert view.domain(prop) == frozenset(ref.domains.get(prop, ()))
        assert view.range(prop) == frozenset(ref.ranges.get(prop, ()))
        assert view.edges_of_property(prop) == tuple(e for e in ref.edges if e.prop == prop)
    for edge in ref.edges:
        for key in ((edge.prop, edge.source, edge.target), (edge.prop, edge.target, edge.source)):
            assert view.instance_connections(*key) == ref.connections.get(key, 0)
        pair = [edge.source, edge.target]
        assert view.instance_link_count(pair) == ref.link_count(pair)
    for key, count in ref.connections.items():
        assert view.instance_connections(*key) == count
    for member in sorted(ref.instance_classes, key=str) + [absent]:
        assert view.classes_of(member) == frozenset(ref.instance_classes.get(member, ()))


def _versions(seed):
    config = WorldConfig(
        schema=SchemaConfig(n_classes=30, n_properties=20),
        evolution=EvolutionConfig(n_versions=N_VERSIONS, changes_per_version=40),
    )
    return list(generate_world(seed=seed, config=config).kb)


def _retyped(graph, seed):
    """A copy where a third of the instances also get a second class."""
    rng = random.Random(seed)
    view = SchemaView(graph)
    classes = sorted(view.classes(), key=lambda c: c.value)
    members = sorted({m for c in classes for m in view.instances_of(c)}, key=str)
    copy = graph.copy()
    for member in rng.sample(members, len(members) // 3):
        copy.add(Triple(member, RDF_TYPE, rng.choice(classes)))
    return copy


@pytest.mark.parametrize("seed", CHAIN_SEEDS)
def test_chain_views_match_the_term_keyed_reference(seed):
    versions = _versions(seed)
    assert len(versions) == N_VERSIONS
    for version in versions:
        assert_view_matches_reference(version.graph)


@pytest.mark.parametrize("seed", CHAIN_SEEDS[:2])
def test_multi_typed_instances_match_the_term_keyed_reference(seed):
    for index, version in enumerate(_versions(seed)):
        assert_view_matches_reference(_retyped(version.graph, seed * 100 + index))
