"""Schema-level view over a triple graph.

The evolution measures of the paper (Section II) are defined over *classes*
and *properties* of a knowledge base, their subsumption hierarchy, the
properties connecting classes (via ``rdfs:domain`` / ``rdfs:range``) and the
instance data populating them.  :class:`SchemaView` derives all of that from
a plain :class:`~repro.kb.graph.Graph` once, with lazy caching, and exposes
the vocabulary the measures need:

* ``classes()`` / ``properties()`` -- the schema elements,
* ``subclasses`` / ``superclasses`` (direct and transitive),
* ``domain`` / ``range`` and per-class incoming/outgoing properties,
* ``instances_of`` / ``instance_count``,
* ``neighborhood(n)`` -- the classes related to ``n`` via subsumption or via
  a property, exactly the neighbourhood of Section II.b,
* ``class_edges()`` -- the class-level graph used by the structural measures
  of Section II.c.

A :class:`SchemaView` is a *snapshot*: it caches aggressively, pinned to the
graph's mutation counter -- if the underlying graph changes after the view is
taken, every cache (including the ``memo`` artefact store) self-invalidates
on next access, so stale derived values are never served.  Versioned KBs
hand out one view per version and build it with the parent version's view
(:attr:`SchemaView.parent`) when that one is built.  Every derived artefact
computes from the view's own snapshot; the one exception is checked by
content, not by delta: when a version's class graph equals its parent's,
the parent's betweenness is reused (:mod:`repro.measures.structural`).
The parent is held weakly, so no view keeps its ancestors (and their
graphs) alive: once a parent view is released, :attr:`SchemaView.parent`
is None and the betweenness computes cold, with the same bits.

Views are safe to share across threads (the serving layer scores many
concurrent requests against the same immutable version snapshots): every
lazy fill that publishes more than one attribute runs under a per-view
reentrant lock, and :meth:`SchemaView.memoize` gives the artefact layers a
first-fill-once primitive for the ``memo`` store.  Single-attribute fills
stay lock-free double-checked -- under the GIL a racing thread can at worst
recompute the same deterministic value, never observe a torn cache.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.kb.errors import SchemaError
from repro.kb.graph import Graph
from repro.kb.namespaces import (
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
from repro.kb.terms import IRI, Term

_BUILTIN_NAMESPACES = (RDF, RDFS, OWL, XSD)


# Builtin-ness is a pure function of the IRI string, and the schema/measure
# layers ask it for the same handful of vocabulary terms millions of times;
# a bounded memo turns the four-namespace prefix scan into a dict hit
# without growing for the life of a long-running process.
@lru_cache(maxsize=65536)
def _is_builtin_value(value: str) -> bool:
    return any(value.startswith(ns.base) for ns in _BUILTIN_NAMESPACES)


def _is_builtin(iri: IRI) -> bool:
    return _is_builtin_value(iri.value)


@dataclass(frozen=True)
class _LinkIndex:
    """One-pass index over instance-level links (see ``SchemaView._links``).

    ``connection_counts`` maps ``(property, source class, target class)`` to
    the number of instance links; ``subject_links`` / ``object_links`` map
    an instance to the ids of the links it can claim for a member set;
    ``class_links`` pre-unions those per class (every link id any member
    can claim), so the relative-cardinality denominator is a union of a
    few per-class sets instead of a walk over every member -- the semantic
    measures query it once per property edge, and the per-member walk used
    to dominate a cold first evaluation on instance-heavy versions.
    """

    connection_counts: Dict[Tuple[IRI, IRI, IRI], int]
    subject_links: Dict[Term, FrozenSet[int]]
    object_links: Dict[Term, FrozenSet[int]]
    class_links: Dict[IRI, FrozenSet[int]]


@dataclass(frozen=True)
class PropertyEdge:
    """A schema-level edge: property ``prop`` connecting ``source`` -> ``target``.

    ``source`` is a domain class of the property, ``target`` a range class.
    """

    source: IRI
    prop: IRI
    target: IRI


class SchemaView:
    """Derived schema view of a graph (see module docstring)."""

    def __init__(self, graph: Graph, parent: "SchemaView | None" = None) -> None:
        self._graph = graph
        # Weak, so a chain of views never keeps its ancestors alive.
        self._parent = weakref.ref(parent) if parent is not None else None
        # Reentrant: artefact factories running under memoize() call back
        # into locked fills (e.g. betweenness -> class_edges), and the
        # revalidation path can trigger while the lock is already held.
        self._lock = threading.RLock()
        self._reset_caches()

    def _reset_caches(self) -> None:
        """(Re)initialise every lazy cache, pinned to the graph's revision."""
        self._revision = self._graph.revision
        self._classes: FrozenSet[IRI] | None = None
        self._classes_nonbuiltin: FrozenSet[IRI] | None = None
        self._properties: FrozenSet[IRI] | None = None
        self._properties_nonbuiltin: FrozenSet[IRI] | None = None
        self._direct_superclasses: Dict[IRI, Set[IRI]] | None = None
        self._direct_subclasses: Dict[IRI, Set[IRI]] | None = None
        self._domains: Dict[IRI, Set[IRI]] | None = None
        self._ranges: Dict[IRI, Set[IRI]] | None = None
        self._instances: Dict[IRI, Set[Term]] | None = None
        self._instance_classes: Dict[Term, FrozenSet[IRI]] | None = None
        self._property_edges: Tuple[PropertyEdge, ...] | None = None
        self._edges_by_source: Dict[IRI, Tuple[PropertyEdge, ...]] | None = None
        self._edges_by_target: Dict[IRI, Tuple[PropertyEdge, ...]] | None = None
        self._edges_by_prop: Dict[IRI, Tuple[PropertyEdge, ...]] | None = None
        self._link_index: "_LinkIndex | None" = None
        self._neighborhoods: Dict[IRI, FrozenSet[IRI]] = {}
        self._memo: Dict[str, object] = {}

    def _revalidate(self) -> None:
        """Drop every cache if the graph mutated since it was filled.

        A SchemaView is meant to be a snapshot of an immutable graph, but
        nothing stops a caller from mutating the graph after taking a view.
        Comparing the graph's mutation counter on every cache access makes
        that safe: stale derived artefacts (betweenness, centralities,
        relative cardinalities...) are discarded instead of served.
        """
        if self._revision != self._graph.revision:
            with self._lock:
                if self._revision != self._graph.revision:
                    self._reset_caches()

    @property
    def memo(self) -> Dict[str, object]:
        """Scratch cache for derived artefacts computed by higher layers
        (class graphs, betweenness maps, centrality tables...).  Keys are
        namespaced strings; values are caller-defined.  Reading it checks
        the graph's revision, so a mutation after the view was taken can
        never serve stale artefacts.
        """
        self._revalidate()
        return self._memo

    def memoize(self, key: str, factory: Callable[[], object]) -> object:
        """``memo[key]``, filling it with ``factory()`` exactly once.

        The concurrent-first-fill primitive of the artefact layers: when
        many serving threads hit a cold version simultaneously, one thread
        computes the artefact under the view lock and the rest wait and
        reuse it, instead of all recomputing.  ``factory`` may itself write
        additional memo keys (the lock is reentrant).
        """
        memo = self.memo
        value = memo.get(key)
        if value is None:
            with self._lock:
                memo = self.memo  # a revision bump may have swapped the dict
                value = memo.get(key)
                if value is None:
                    value = factory()
                    memo[key] = value
        return value

    @property
    def graph(self) -> Graph:
        """The underlying triple graph."""
        return self._graph

    @property
    def parent(self) -> "SchemaView | None":
        """The parent version's view; None without one or once it is released.

        Wiring only: an artefact layer reuses a parent artefact only after
        checking by content that it applies to this view.  A fill that
        reads the parent should hold it in a local for as long as it
        needs it.
        """
        ref = self._parent
        return ref() if ref is not None else None

    # -- schema elements ----------------------------------------------------

    def classes(self, include_builtin: bool = False) -> FrozenSet[IRI]:
        """All classes of the knowledge base.

        A term counts as a class if it is explicitly typed as
        ``rdfs:Class``/``owl:Class``, appears as an endpoint of
        ``rdfs:subClassOf``, is the object of an ``rdfs:domain``/``rdfs:range``
        assertion, or is the object of any ``rdf:type`` assertion.  Builtin
        vocabulary terms (rdf/rdfs/owl/xsd) are excluded unless requested.
        """
        self._revalidate()
        if self._classes is None:
            found: Set[IRI] = set()
            g = self._graph
            for class_meta in (RDFS_CLASS, OWL_CLASS):
                for s in g.subjects(RDF_TYPE, class_meta):
                    if isinstance(s, IRI):
                        found.add(s)
            for triple in g.match(None, RDFS_SUBCLASSOF, None):
                if isinstance(triple.subject, IRI):
                    found.add(triple.subject)
                if isinstance(triple.object, IRI):
                    found.add(triple.object)
            for pred in (RDFS_DOMAIN, RDFS_RANGE):
                for triple in g.match(None, pred, None):
                    if isinstance(triple.object, IRI):
                        found.add(triple.object)
            for triple in g.match(None, RDF_TYPE, None):
                if isinstance(triple.object, IRI):
                    found.add(triple.object)
            self._classes = frozenset(found)
        if include_builtin:
            return self._classes
        if self._classes_nonbuiltin is None:
            self._classes_nonbuiltin = frozenset(
                c for c in self._classes if not _is_builtin(c)
            )
        return self._classes_nonbuiltin

    def properties(self, include_builtin: bool = False) -> FrozenSet[IRI]:
        """All properties of the knowledge base.

        A term counts as a property if it is typed ``rdf:Property`` /
        ``owl:ObjectProperty``, carries an ``rdfs:domain``/``rdfs:range``,
        appears as an endpoint of ``rdfs:subPropertyOf``, or is used as a
        predicate of a non-vocabulary triple.
        """
        self._revalidate()
        if self._properties is None:
            found: Set[IRI] = set()
            g = self._graph
            for prop_meta in (RDF_PROPERTY, OWL_OBJECT_PROPERTY):
                for s in g.subjects(RDF_TYPE, prop_meta):
                    if isinstance(s, IRI):
                        found.add(s)
            for pred in (RDFS_DOMAIN, RDFS_RANGE):
                for triple in g.match(None, pred, None):
                    if isinstance(triple.subject, IRI):
                        found.add(triple.subject)
            for triple in g.match(None, RDFS_SUBPROPERTYOF, None):
                if isinstance(triple.subject, IRI):
                    found.add(triple.subject)
                if isinstance(triple.object, IRI):
                    found.add(triple.object)
            for triple in g.match(None, None, None):
                if not _is_builtin(triple.predicate):
                    found.add(triple.predicate)
            self._properties = frozenset(found)
        if include_builtin:
            return self._properties
        if self._properties_nonbuiltin is None:
            self._properties_nonbuiltin = frozenset(
                p for p in self._properties if not _is_builtin(p)
            )
        return self._properties_nonbuiltin

    def is_class(self, term: Term) -> bool:
        """True if ``term`` is a (non-builtin) class of this KB."""
        return isinstance(term, IRI) and term in self.classes()

    def is_property(self, term: Term) -> bool:
        """True if ``term`` is a (non-builtin) property of this KB."""
        return isinstance(term, IRI) and term in self.properties()

    # -- subsumption ----------------------------------------------------------

    def _subsumption_maps(self) -> Tuple[Dict[IRI, Set[IRI]], Dict[IRI, Set[IRI]]]:
        # The two maps publish together under the lock: a lock-free reader
        # racing the fill could otherwise observe supers set but subs None.
        self._revalidate()
        if self._direct_superclasses is None:
            with self._lock:
                if self._direct_superclasses is None:
                    supers: Dict[IRI, Set[IRI]] = {}
                    subs: Dict[IRI, Set[IRI]] = {}
                    for triple in self._graph.match(None, RDFS_SUBCLASSOF, None):
                        if isinstance(triple.subject, IRI) and isinstance(
                            triple.object, IRI
                        ):
                            supers.setdefault(triple.subject, set()).add(triple.object)
                            subs.setdefault(triple.object, set()).add(triple.subject)
                    self._direct_subclasses = subs
                    self._direct_superclasses = supers
        assert self._direct_subclasses is not None
        return self._direct_superclasses, self._direct_subclasses

    def superclasses(self, cls: IRI, transitive: bool = False) -> FrozenSet[IRI]:
        """Direct (or transitive) superclasses of ``cls``."""
        supers, _ = self._subsumption_maps()
        if not transitive:
            return frozenset(supers.get(cls, ()))
        return self._closure(cls, supers)

    def subclasses(self, cls: IRI, transitive: bool = False) -> FrozenSet[IRI]:
        """Direct (or transitive) subclasses of ``cls``."""
        _, subs = self._subsumption_maps()
        if not transitive:
            return frozenset(subs.get(cls, ()))
        return self._closure(cls, subs)

    @staticmethod
    def _closure(start: IRI, step: Dict[IRI, Set[IRI]]) -> FrozenSet[IRI]:
        seen: Set[IRI] = set()
        frontier = deque(step.get(start, ()))
        while frontier:
            node = frontier.popleft()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(step.get(node, ()))
        return frozenset(seen)

    def roots(self) -> FrozenSet[IRI]:
        """Classes with no (non-builtin) superclass."""
        return frozenset(
            c for c in self.classes() if not any(not _is_builtin(s) for s in self.superclasses(c))
        )

    def depth(self, cls: IRI) -> int:
        """Length of the shortest superclass chain from ``cls`` to a root.

        Roots have depth 0.  Raises :class:`SchemaError` for unknown classes.
        """
        if cls not in self.classes(include_builtin=True):
            raise SchemaError(f"unknown class: {cls}")
        supers, _ = self._subsumption_maps()
        depth = 0
        frontier: Set[IRI] = {cls}
        seen: Set[IRI] = set(frontier)
        while frontier:
            parents: Set[IRI] = set()
            for node in frontier:
                parents |= {p for p in supers.get(node, ()) if not _is_builtin(p)}
            parents -= seen
            if not parents:
                return depth
            seen |= parents
            frontier = parents
            depth += 1
        return depth

    # -- property structure ---------------------------------------------------

    def _domain_range_maps(self) -> Tuple[Dict[IRI, Set[IRI]], Dict[IRI, Set[IRI]]]:
        self._revalidate()
        if self._domains is None:
            with self._lock:
                if self._domains is None:
                    domains: Dict[IRI, Set[IRI]] = {}
                    ranges: Dict[IRI, Set[IRI]] = {}
                    for triple in self._graph.match(None, RDFS_DOMAIN, None):
                        if isinstance(triple.subject, IRI) and isinstance(
                            triple.object, IRI
                        ):
                            domains.setdefault(triple.subject, set()).add(triple.object)
                    for triple in self._graph.match(None, RDFS_RANGE, None):
                        if isinstance(triple.subject, IRI) and isinstance(
                            triple.object, IRI
                        ):
                            ranges.setdefault(triple.subject, set()).add(triple.object)
                    # Ranges publish first: the fast path checks _domains.
                    self._ranges = ranges
                    self._domains = domains
        assert self._ranges is not None
        return self._domains, self._ranges

    def domain(self, prop: IRI) -> FrozenSet[IRI]:
        """Declared domain classes of ``prop`` (possibly empty)."""
        domains, _ = self._domain_range_maps()
        return frozenset(domains.get(prop, ()))

    def range(self, prop: IRI) -> FrozenSet[IRI]:
        """Declared range classes of ``prop`` (possibly empty)."""
        _, ranges = self._domain_range_maps()
        return frozenset(ranges.get(prop, ()))

    def property_edges(self) -> Tuple[PropertyEdge, ...]:
        """Every (domain class, property, range class) schema edge."""
        self._revalidate()
        if self._property_edges is None:
            edges: List[PropertyEdge] = []
            domains, ranges = self._domain_range_maps()
            for prop in sorted(set(domains) | set(ranges), key=lambda p: p.value):
                if _is_builtin(prop):
                    continue
                for src in sorted(domains.get(prop, ()), key=lambda c: c.value):
                    for dst in sorted(ranges.get(prop, ()), key=lambda c: c.value):
                        edges.append(PropertyEdge(src, prop, dst))
            self._property_edges = tuple(edges)
        return self._property_edges

    def _edge_maps(
        self,
    ) -> Tuple[
        Dict[IRI, Tuple[PropertyEdge, ...]],
        Dict[IRI, Tuple[PropertyEdge, ...]],
        Dict[IRI, Tuple[PropertyEdge, ...]],
    ]:
        """Per-class / per-property edge indexes (edge order preserved).

        The semantic measures ask for the edges of every class of both
        versions; indexing once replaces a full edge scan per query.
        """
        self._revalidate()
        if self._edges_by_source is None:
            with self._lock:
                if self._edges_by_source is None:
                    by_source: Dict[IRI, List[PropertyEdge]] = {}
                    by_target: Dict[IRI, List[PropertyEdge]] = {}
                    by_prop: Dict[IRI, List[PropertyEdge]] = {}
                    for edge in self.property_edges():
                        by_source.setdefault(edge.source, []).append(edge)
                        by_target.setdefault(edge.target, []).append(edge)
                        by_prop.setdefault(edge.prop, []).append(edge)
                    # by_source publishes last: it is the fast-path check.
                    self._edges_by_target = {c: tuple(e) for c, e in by_target.items()}
                    self._edges_by_prop = {p: tuple(e) for p, e in by_prop.items()}
                    self._edges_by_source = {c: tuple(e) for c, e in by_source.items()}
        assert self._edges_by_target is not None and self._edges_by_prop is not None
        return self._edges_by_source, self._edges_by_target, self._edges_by_prop

    def outgoing_properties(self, cls: IRI) -> Tuple[PropertyEdge, ...]:
        """Schema edges whose domain is ``cls``."""
        return self._edge_maps()[0].get(cls, ())

    def incoming_properties(self, cls: IRI) -> Tuple[PropertyEdge, ...]:
        """Schema edges whose range is ``cls``."""
        return self._edge_maps()[1].get(cls, ())

    def edges_of_property(self, prop: IRI) -> Tuple[PropertyEdge, ...]:
        """Schema edges carried by ``prop``."""
        return self._edge_maps()[2].get(prop, ())

    # -- instances --------------------------------------------------------------

    def _instance_map(self) -> Dict[IRI, Set[Term]]:
        self._revalidate()
        if self._instances is None:
            classes = self.classes(include_builtin=True)
            instances: Dict[IRI, Set[Term]] = {}
            for triple in self._graph.match(None, RDF_TYPE, None):
                obj = triple.object
                if isinstance(obj, IRI) and obj in classes and not _is_builtin(obj):
                    if triple.subject not in classes:
                        instances.setdefault(obj, set()).add(triple.subject)
            self._instances = instances
        return self._instances

    def instances_of(self, cls: IRI, transitive: bool = False) -> FrozenSet[Term]:
        """Instances typed ``cls`` (optionally including subclass instances)."""
        inst = self._instance_map()
        result: Set[Term] = set(inst.get(cls, ()))
        if transitive:
            for sub in self.subclasses(cls, transitive=True):
                result |= inst.get(sub, set())
        return frozenset(result)

    def instance_count(self, cls: IRI, transitive: bool = False) -> int:
        """``len(instances_of(cls, transitive))`` without building a frozenset copy."""
        if not transitive:
            return len(self._instance_map().get(cls, ()))
        return len(self.instances_of(cls, transitive=True))

    def total_instances(self) -> int:
        """Number of distinct instance terms across all classes."""
        all_instances: Set[Term] = set()
        for members in self._instance_map().values():
            all_instances |= members
        return len(all_instances)

    def classes_of(self, instance: Term) -> FrozenSet[IRI]:
        """The classes an instance is directly typed with."""
        self._revalidate()
        if self._instance_classes is None:
            reverse: Dict[Term, Set[IRI]] = {}
            for cls, members in self._instance_map().items():
                for member in members:
                    reverse.setdefault(member, set()).add(cls)
            self._instance_classes = {m: frozenset(c) for m, c in reverse.items()}
        return self._instance_classes.get(instance, frozenset())

    # -- neighbourhood (Section II.b) ------------------------------------------

    def neighborhood(self, cls: IRI) -> FrozenSet[IRI]:
        """Classes related to ``cls`` via subsumption or via a property.

        This is the single-version neighbourhood of Section II.b: the classes
        that are either sub/superclasses of ``cls`` or connected with ``cls``
        through some property's domain/range pair.  The union across two
        versions (the paper's ``N_{V1,V2}(n)``) is taken by the measure layer.

        Cached per view: the semantic relevance measure asks for the same
        neighbourhoods once per context, and a version's view serves many
        contexts.
        """
        self._revalidate()
        cached = self._neighborhoods.get(cls)
        if cached is not None:
            return cached
        related: Set[IRI] = set()
        related |= self.superclasses(cls)
        related |= self.subclasses(cls)
        by_source, by_target, _ = self._edge_maps()
        for edge in by_source.get(cls, ()):
            related.add(edge.target)
        for edge in by_target.get(cls, ()):
            if edge.source != cls:
                related.add(edge.source)
        related.discard(cls)
        result = frozenset(c for c in related if not _is_builtin(c))
        self._neighborhoods[cls] = result
        return result

    # -- class-level graph (Section II.c substrate) ------------------------------

    def class_edges(self, include_subsumption: bool = True) -> Set[Tuple[IRI, IRI]]:
        """Undirected class-graph edges used by the structural measures.

        Each subsumption pair and each property (domain, range) pair
        contributes one undirected edge ``(a, b)`` with ``a < b`` by IRI value.
        Self-loops are dropped.
        """
        edges: Set[Tuple[IRI, IRI]] = set()

        def _undirected(a: IRI, b: IRI) -> None:
            if a == b or _is_builtin(a) or _is_builtin(b):
                return
            edges.add((a, b) if a.value <= b.value else (b, a))

        if include_subsumption:
            supers, _ = self._subsumption_maps()
            for cls, parents in supers.items():
                for parent in parents:
                    _undirected(cls, parent)
        for edge in self.property_edges():
            _undirected(edge.source, edge.target)
        return edges

    # -- instance-level connections (Section II.d substrate) ---------------------
    #
    # The semantic measures call these once per (property edge, class) pair;
    # a naive implementation rescans the graph each time and dominated the
    # whole pipeline (experiment E10).  A single pass builds the link index
    # below, after which both queries are dictionary lookups / small unions.

    def _links(self) -> "_LinkIndex":
        self._revalidate()
        if self._link_index is None:
            with self._lock:
                if self._link_index is not None:
                    return self._link_index
                instance_classes: Dict[Term, Tuple[IRI, ...]] = {}
                for cls, members in self._instance_map().items():
                    for member in members:
                        instance_classes[member] = instance_classes.get(member, ()) + (cls,)

                connection_counts: Dict[Tuple[IRI, IRI, IRI], int] = {}
                subject_links: Dict[Term, List[int]] = {}
                object_links: Dict[Term, List[int]] = {}
                link_id = 0
                for triple in self._graph.match(None, None, None):
                    if _is_builtin(triple.predicate):
                        continue
                    obj = triple.object
                    is_instance_object = obj in instance_classes
                    if not isinstance(obj, IRI) and not is_instance_object:
                        continue  # literal attributes / anonymous non-instances
                    # A link counts for a member set when its subject is a member
                    # (IRI objects only, matching the historical semantics) or
                    # its object is a member.
                    if isinstance(obj, IRI):
                        subject_links.setdefault(triple.subject, []).append(link_id)
                    if is_instance_object:
                        object_links.setdefault(obj, []).append(link_id)
                    for src_cls in instance_classes.get(triple.subject, ()):
                        for tgt_cls in instance_classes.get(obj, ()):
                            key = (triple.predicate, src_cls, tgt_cls)
                            connection_counts[key] = connection_counts.get(key, 0) + 1
                    link_id += 1
                subject_sets = {k: frozenset(v) for k, v in subject_links.items()}
                object_sets = {k: frozenset(v) for k, v in object_links.items()}
                empty: FrozenSet[int] = frozenset()
                class_links: Dict[IRI, FrozenSet[int]] = {}
                for cls, members in self._instance_map().items():
                    bucket: Set[int] = set()
                    for member in members:
                        bucket |= subject_sets.get(member, empty)
                        bucket |= object_sets.get(member, empty)
                    class_links[cls] = frozenset(bucket)
                self._link_index = _LinkIndex(
                    connection_counts=connection_counts,
                    subject_links=subject_sets,
                    object_links=object_sets,
                    class_links=class_links,
                )
        return self._link_index

    def instance_connections(self, prop: IRI, source_cls: IRI, target_cls: IRI) -> int:
        """Number of instance-level links ``(x, prop, y)`` with ``x`` an instance
        of ``source_cls`` and ``y`` an instance of ``target_cls``."""
        return self._links().connection_counts.get((prop, source_cls, target_cls), 0)

    def instance_link_count(self, classes: Iterable[IRI]) -> int:
        """Total instance-to-instance property assertions touching instances of
        any class in ``classes`` (used as the relative-cardinality denominator).

        Resolved through the index's pre-unioned per-class link sets --
        identical semantics to walking every member (the per-class sets
        are exactly those unions), at a fraction of the set operations.
        """
        index = self._links()
        class_links = index.class_links
        empty: FrozenSet[int] = frozenset()
        sets = [class_links.get(cls, empty) for cls in classes]
        if not sets:
            return 0
        if len(sets) == 1:
            return len(sets[0])
        return len(sets[0].union(*sets[1:]))
