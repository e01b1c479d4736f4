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

Internally every map is derived from the graph's interned indexes
(:attr:`Graph.predicate_index <repro.kb.graph.Graph.predicate_index>`,
keyed by term id) and is itself keyed by term id, so building a view
hashes integers in C rather than terms in Python.  Terms appear only at
the public methods, which turn ids back into terms through the graph's
:class:`~repro.kb.interning.TermDictionary`.

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
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

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


_IdMap = Dict[int, Set[int]]
_EMPTY: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class _LinkIndex:
    """One-pass index over instance-level links (see ``SchemaView._links``).

    ``connection_counts`` maps ``(property, source class, target class)``
    ids to the number of instance links; ``class_links`` maps a class id
    to the ids of every link one of its instances can claim, so the
    relative-cardinality denominator is a union of a few per-class sets
    instead of a walk over every member.
    """

    connection_counts: Dict[Tuple[int, int, int], int]
    class_links: Dict[int, FrozenSet[int]]


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
        self._terms = graph.dictionary.terms
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
        self._class_ids: FrozenSet[int] | None = None
        self._classes: FrozenSet[IRI] | None = None
        self._classes_nonbuiltin: FrozenSet[IRI] | None = None
        self._property_ids: FrozenSet[int] | None = None
        self._properties: FrozenSet[IRI] | None = None
        self._properties_nonbuiltin: FrozenSet[IRI] | None = None
        self._supers: _IdMap | None = None
        self._subs: _IdMap | None = None
        self._domains: _IdMap | None = None
        self._ranges: _IdMap | None = None
        self._edge_ids: Tuple[Tuple[int, int, int], ...] | None = None
        self._property_edges: Tuple[PropertyEdge, ...] | None = None
        self._edges_by_source: Dict[int, Tuple[PropertyEdge, ...]] | None = None
        self._edges_by_target: Dict[int, Tuple[PropertyEdge, ...]] | None = None
        self._edges_by_prop: Dict[int, Tuple[PropertyEdge, ...]] | None = None
        self._neighbor_ids: _IdMap | None = None
        self._instances: _IdMap | None = None
        self._instance_classes: Dict[int, Tuple[int, ...]] | None = None
        self._transitive_counts: Dict[int, int] = {}
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

    # -- id space -------------------------------------------------------------

    def _id(self, term: Term) -> Optional[int]:
        """The term's id in the graph's dictionary; None if never interned."""
        return self._graph.dictionary.id_of(term)

    def _by_object(self, predicate: IRI) -> Dict[int, Set[int]]:
        """``object id -> subject ids`` of every ``(?, predicate, ?)`` triple."""
        pid = self._id(predicate)
        if pid is None:
            return {}
        return self._graph.predicate_index.get(pid, {})

    def _iri_ids(self, ids: Iterable[int]) -> Set[int]:
        terms = self._terms
        return {i for i in ids if isinstance(terms[i], IRI)}

    def _is_builtin_id(self, tid: int) -> bool:
        return _is_builtin_value(self._terms[tid].value)

    def _to_terms(self, ids: Iterable[int]) -> FrozenSet:
        terms = self._terms
        return frozenset([terms[i] for i in ids])

    # -- schema elements ----------------------------------------------------

    def _classes_by_id(self) -> FrozenSet[int]:
        """Ids of every class, builtin ones included (see :meth:`classes`)."""
        self._revalidate()
        if self._class_ids is None:
            found: Set[int] = set()
            typed = self._by_object(RDF_TYPE)
            for class_meta in (RDFS_CLASS, OWL_CLASS):
                cid = self._id(class_meta)
                if cid is not None:
                    found.update(typed.get(cid, ()))
            subclass_of = self._by_object(RDFS_SUBCLASSOF)
            found.update(subclass_of)
            found.update(*subclass_of.values())
            found.update(self._by_object(RDFS_DOMAIN))
            found.update(self._by_object(RDFS_RANGE))
            found.update(typed)
            self._class_ids = frozenset(self._iri_ids(found))
        return self._class_ids

    def classes(self, include_builtin: bool = False) -> FrozenSet[IRI]:
        """All classes of the knowledge base.

        A term counts as a class if it is explicitly typed as
        ``rdfs:Class``/``owl:Class``, appears as an endpoint of
        ``rdfs:subClassOf``, is the object of an ``rdfs:domain``/``rdfs:range``
        assertion, or is the object of any ``rdf:type`` assertion.  Builtin
        vocabulary terms (rdf/rdfs/owl/xsd) are excluded unless requested.
        """
        self._revalidate()
        if include_builtin:
            if self._classes is None:
                self._classes = self._to_terms(self._classes_by_id())
            return self._classes
        if self._classes_nonbuiltin is None:
            self._classes_nonbuiltin = self._to_terms(
                c for c in self._classes_by_id() if not self._is_builtin_id(c)
            )
        return self._classes_nonbuiltin

    def _properties_by_id(self) -> FrozenSet[int]:
        """Ids of every property, builtin ones included (see :meth:`properties`)."""
        self._revalidate()
        if self._property_ids is None:
            found: Set[int] = set()
            typed = self._by_object(RDF_TYPE)
            for prop_meta in (RDF_PROPERTY, OWL_OBJECT_PROPERTY):
                pid = self._id(prop_meta)
                if pid is not None:
                    found.update(typed.get(pid, ()))
            for pred in (RDFS_DOMAIN, RDFS_RANGE):
                found.update(*self._by_object(pred).values())
            subproperty_of = self._by_object(RDFS_SUBPROPERTYOF)
            found.update(subproperty_of)
            found.update(*subproperty_of.values())
            found.update(
                p for p in self._graph.predicate_index if not self._is_builtin_id(p)
            )
            self._property_ids = frozenset(self._iri_ids(found))
        return self._property_ids

    def properties(self, include_builtin: bool = False) -> FrozenSet[IRI]:
        """All properties of the knowledge base.

        A term counts as a property if it is typed ``rdf:Property`` /
        ``owl:ObjectProperty``, carries an ``rdfs:domain``/``rdfs:range``,
        appears as an endpoint of ``rdfs:subPropertyOf``, or is used as a
        predicate of a non-vocabulary triple.
        """
        self._revalidate()
        if include_builtin:
            if self._properties is None:
                self._properties = self._to_terms(self._properties_by_id())
            return self._properties
        if self._properties_nonbuiltin is None:
            self._properties_nonbuiltin = self._to_terms(
                p for p in self._properties_by_id() if not self._is_builtin_id(p)
            )
        return self._properties_nonbuiltin

    def is_class(self, term: Term) -> bool:
        """True if ``term`` is a (non-builtin) class of this KB."""
        return isinstance(term, IRI) and term in self.classes()

    def is_property(self, term: Term) -> bool:
        """True if ``term`` is a (non-builtin) property of this KB."""
        return isinstance(term, IRI) and term in self.properties()

    # -- subsumption ----------------------------------------------------------

    def _pairs(self, predicate: IRI) -> Tuple[_IdMap, _IdMap]:
        """``(subject -> objects, object -> subjects)`` of the predicate's
        triples whose two ends are both IRIs, by id."""
        forward: _IdMap = {}
        backward: _IdMap = {}
        terms = self._terms
        for o, subjects in self._by_object(predicate).items():
            if not isinstance(terms[o], IRI):
                continue
            for s in subjects:
                if isinstance(terms[s], IRI):
                    forward.setdefault(s, set()).add(o)
                    backward.setdefault(o, set()).add(s)
        return forward, backward

    def _subsumption_maps(self) -> Tuple[_IdMap, _IdMap]:
        """``(direct superclasses, direct subclasses)`` by class id."""
        # The two maps publish together under the lock: a lock-free reader
        # racing the fill could otherwise observe supers set but subs None.
        self._revalidate()
        if self._supers is None:
            with self._lock:
                if self._supers is None:
                    supers, subs = self._pairs(RDFS_SUBCLASSOF)
                    self._subs = subs
                    self._supers = supers
        assert self._subs is not None
        return self._supers, self._subs

    def superclasses(self, cls: IRI, transitive: bool = False) -> FrozenSet[IRI]:
        """Direct (or transitive) superclasses of ``cls``."""
        supers, _ = self._subsumption_maps()
        return self._related(cls, supers, transitive)

    def subclasses(self, cls: IRI, transitive: bool = False) -> FrozenSet[IRI]:
        """Direct (or transitive) subclasses of ``cls``."""
        _, subs = self._subsumption_maps()
        return self._related(cls, subs, transitive)

    def _related(self, cls: IRI, step: _IdMap, transitive: bool) -> FrozenSet[IRI]:
        cid = self._id(cls)
        if cid is None:
            return frozenset()
        if not transitive:
            return self._to_terms(step.get(cid, ()))
        return self._to_terms(self._closure(cid, step))

    @staticmethod
    def _closure(start: int, step: _IdMap) -> Set[int]:
        seen: Set[int] = set()
        frontier = deque(step.get(start, ()))
        while frontier:
            node = frontier.popleft()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(step.get(node, ()))
        return seen

    def roots(self) -> FrozenSet[IRI]:
        """Classes with no (non-builtin) superclass."""
        supers, _ = self._subsumption_maps()
        builtin = self._is_builtin_id
        return self._to_terms(
            c
            for c in self._classes_by_id()
            if not builtin(c) and all(builtin(s) for s in supers.get(c, ()))
        )

    def depth(self, cls: IRI) -> int:
        """Length of the shortest superclass chain from ``cls`` to a root.

        Roots have depth 0.  Raises :class:`SchemaError` for unknown classes.
        """
        if cls not in self.classes(include_builtin=True):
            raise SchemaError(f"unknown class: {cls}")
        supers, _ = self._subsumption_maps()
        cid = self._id(cls)
        depth = 0
        frontier: Set[int] = {cid}
        seen: Set[int] = set(frontier)
        while frontier:
            parents: Set[int] = set()
            for node in frontier:
                parents |= {p for p in supers.get(node, ()) if not self._is_builtin_id(p)}
            parents -= seen
            if not parents:
                return depth
            seen |= parents
            frontier = parents
            depth += 1
        return depth

    # -- property structure ---------------------------------------------------

    def _domain_range_maps(self) -> Tuple[_IdMap, _IdMap]:
        """``(property -> domain classes, property -> range classes)`` by id."""
        self._revalidate()
        if self._domains is None:
            with self._lock:
                if self._domains is None:
                    ranges = self._pairs(RDFS_RANGE)[0]
                    # Ranges publish first: the fast path checks _domains.
                    self._ranges = ranges
                    self._domains = self._pairs(RDFS_DOMAIN)[0]
        assert self._ranges is not None
        return self._domains, self._ranges

    def domain(self, prop: IRI) -> FrozenSet[IRI]:
        """Declared domain classes of ``prop`` (possibly empty)."""
        domains, _ = self._domain_range_maps()
        return self._to_terms(domains.get(self._id(prop), ()))

    def range(self, prop: IRI) -> FrozenSet[IRI]:
        """Declared range classes of ``prop`` (possibly empty)."""
        _, ranges = self._domain_range_maps()
        return self._to_terms(ranges.get(self._id(prop), ()))

    def _edges_by_id(self) -> Tuple[Tuple[int, int, int], ...]:
        """``(source, property, target)`` ids of :meth:`property_edges`, in order."""
        self._revalidate()
        if self._edge_ids is None:
            domains, ranges = self._domain_range_maps()
            terms = self._terms

            def by_value(tid: int) -> str:
                return terms[tid].value

            edges: List[Tuple[int, int, int]] = []
            for prop in sorted(domains.keys() | ranges.keys(), key=by_value):
                if self._is_builtin_id(prop):
                    continue
                targets = sorted(ranges.get(prop, ()), key=by_value)
                for src in sorted(domains.get(prop, ()), key=by_value):
                    edges.extend((src, prop, dst) for dst in targets)
            self._edge_ids = tuple(edges)
        return self._edge_ids

    def property_edges(self) -> Tuple[PropertyEdge, ...]:
        """Every (domain class, property, range class) schema edge."""
        self._revalidate()
        if self._property_edges is None:
            terms = self._terms
            self._property_edges = tuple(
                PropertyEdge(terms[s], terms[p], terms[t]) for s, p, t in self._edges_by_id()
            )
        return self._property_edges

    def _edge_maps(
        self,
    ) -> Tuple[
        Dict[int, Tuple[PropertyEdge, ...]],
        Dict[int, Tuple[PropertyEdge, ...]],
        Dict[int, Tuple[PropertyEdge, ...]],
    ]:
        """Per-class / per-property edge indexes by id (edge order preserved).

        The semantic measures ask for the edges of every class of both
        versions; indexing once replaces a full edge scan per query.
        """
        self._revalidate()
        if self._edges_by_source is None:
            with self._lock:
                if self._edges_by_source is None:
                    by_source: Dict[int, List[PropertyEdge]] = {}
                    by_target: Dict[int, List[PropertyEdge]] = {}
                    by_prop: Dict[int, List[PropertyEdge]] = {}
                    for (s, p, t), edge in zip(self._edges_by_id(), self.property_edges()):
                        by_source.setdefault(s, []).append(edge)
                        by_target.setdefault(t, []).append(edge)
                        by_prop.setdefault(p, []).append(edge)
                    # by_source publishes last: it is the fast-path check.
                    self._edges_by_target = {c: tuple(e) for c, e in by_target.items()}
                    self._edges_by_prop = {p: tuple(e) for p, e in by_prop.items()}
                    self._edges_by_source = {c: tuple(e) for c, e in by_source.items()}
        assert self._edges_by_target is not None and self._edges_by_prop is not None
        return self._edges_by_source, self._edges_by_target, self._edges_by_prop

    def outgoing_properties(self, cls: IRI) -> Tuple[PropertyEdge, ...]:
        """Schema edges whose domain is ``cls``."""
        return self._edge_maps()[0].get(self._id(cls), ())

    def incoming_properties(self, cls: IRI) -> Tuple[PropertyEdge, ...]:
        """Schema edges whose range is ``cls``."""
        return self._edge_maps()[1].get(self._id(cls), ())

    def edges_of_property(self, prop: IRI) -> Tuple[PropertyEdge, ...]:
        """Schema edges carried by ``prop``."""
        return self._edge_maps()[2].get(self._id(prop), ())

    # -- instances --------------------------------------------------------------

    def _instance_map(self) -> _IdMap:
        """``class id -> instance ids`` of every non-builtin class with instances.

        An instance is an ``rdf:type`` subject that is not itself a class.
        """
        self._revalidate()
        if self._instances is None:
            classes = self._classes_by_id()
            instances: _IdMap = {}
            for obj, subjects in self._by_object(RDF_TYPE).items():
                if obj in classes and not self._is_builtin_id(obj):
                    members = subjects - classes
                    if members:
                        instances[obj] = members
            self._instances = instances
        return self._instances

    def _classes_of_instances(self) -> Dict[int, Tuple[int, ...]]:
        """``instance id -> class ids``: the instance map reversed."""
        self._revalidate()
        if self._instance_classes is None:
            reverse: Dict[int, Tuple[int, ...]] = {}
            for cls, members in self._instance_map().items():
                for member in members:
                    reverse[member] = reverse.get(member, ()) + (cls,)
            self._instance_classes = reverse
        return self._instance_classes

    def instances_of(self, cls: IRI, transitive: bool = False) -> FrozenSet[Term]:
        """Instances typed ``cls`` (optionally including subclass instances)."""
        cid = self._id(cls)
        if cid is None:
            return frozenset()
        return self._to_terms(self._members(cid, transitive))

    def _members(self, cid: int, transitive: bool) -> Set[int] | FrozenSet[int]:
        inst = self._instance_map()
        if not transitive:
            return inst.get(cid, _EMPTY)
        _, subs = self._subsumption_maps()
        members = set(inst.get(cid, ()))
        members.update(*(inst.get(sub, _EMPTY) for sub in self._closure(cid, subs)))
        return members

    def instance_count(self, cls: IRI, transitive: bool = False) -> int:
        """``len(instances_of(cls, transitive))`` without building a frozenset copy.

        Transitive counts are memoised per class: the relevance measure
        asks for every class's count once per version.
        """
        self._revalidate()
        cid = self._id(cls)
        if cid is None:
            return 0
        if not transitive:
            return len(self._instance_map().get(cid, ()))
        counts = self._transitive_counts
        count = counts.get(cid)
        if count is None:
            count = counts[cid] = len(self._members(cid, True))
        return count

    def total_instances(self) -> int:
        """Number of distinct instance terms across all classes."""
        return len(self._classes_of_instances())

    def classes_of(self, instance: Term) -> FrozenSet[IRI]:
        """The classes an instance is directly typed with."""
        return self._to_terms(self._classes_of_instances().get(self._id(instance), ()))

    # -- neighbourhood (Section II.b) ------------------------------------------

    def _neighbor_map(self) -> _IdMap:
        """``class id -> ids`` related to it via subsumption or a property edge."""
        self._revalidate()
        if self._neighbor_ids is None:
            related: _IdMap = {}
            supers, _ = self._subsumption_maps()
            pairs = [(cls, parent) for cls, parents in supers.items() for parent in parents]
            pairs += [(s, t) for s, _, t in self._edges_by_id()]
            for a, b in pairs:
                related.setdefault(a, set()).add(b)
                related.setdefault(b, set()).add(a)
            self._neighbor_ids = related
        return self._neighbor_ids

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
        cid = self._id(cls)
        related = self._neighbor_map().get(cid, _EMPTY) if cid is not None else _EMPTY
        result = self._to_terms(
            c for c in related if c != cid and not self._is_builtin_id(c)
        )
        self._neighborhoods[cls] = result
        return result

    # -- class-level graph (Section II.c substrate) ------------------------------

    def class_edges(self, include_subsumption: bool = True) -> Set[Tuple[IRI, IRI]]:
        """Undirected class-graph edges used by the structural measures.

        Each subsumption pair and each property (domain, range) pair
        contributes one undirected edge ``(a, b)`` with ``a < b`` by IRI value.
        Self-loops are dropped.
        """
        pairs: Set[Tuple[int, int]] = set()
        terms = self._terms
        is_builtin = self._is_builtin_id

        def _undirected(a: int, b: int) -> None:
            if a == b or is_builtin(a) or is_builtin(b):
                return
            pairs.add((a, b) if terms[a].value <= terms[b].value else (b, a))

        if include_subsumption:
            supers, _ = self._subsumption_maps()
            for cls, parents in supers.items():
                for parent in parents:
                    _undirected(cls, parent)
        for source, _, target in self._edges_by_id():
            _undirected(source, target)
        return {(terms[a], terms[b]) for a, b in pairs}

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
                instance_classes = self._classes_of_instances()
                terms = self._terms
                connection_counts: Dict[Tuple[int, int, int], int] = {}
                subject_links: Dict[int, List[int]] = {}
                object_links: Dict[int, List[int]] = {}
                link_id = 0
                for pred, by_object in self._graph.predicate_index.items():
                    if self._is_builtin_id(pred):
                        continue
                    for obj, subjects in by_object.items():
                        object_is_iri = isinstance(terms[obj], IRI)
                        target_classes = instance_classes.get(obj)
                        if not object_is_iri and target_classes is None:
                            continue  # literal attributes / anonymous non-instances
                        # A link counts for a member set when its subject is a
                        # member (IRI objects only, matching the historical
                        # semantics) or its object is a member.
                        first = link_id
                        for subj in subjects:
                            if object_is_iri:
                                subject_links.setdefault(subj, []).append(link_id)
                            if target_classes is not None:
                                for src_cls in instance_classes.get(subj, ()):
                                    for tgt_cls in target_classes:
                                        key = (pred, src_cls, tgt_cls)
                                        connection_counts[key] = connection_counts.get(key, 0) + 1
                            link_id += 1
                        if target_classes is not None:
                            object_links.setdefault(obj, []).extend(range(first, link_id))
                class_links: Dict[int, FrozenSet[int]] = {}
                for cls, members in self._instance_map().items():
                    bucket: Set[int] = set()
                    for member in members:
                        bucket.update(subject_links.get(member, ()))
                        bucket.update(object_links.get(member, ()))
                    class_links[cls] = frozenset(bucket)
                self._link_index = _LinkIndex(
                    connection_counts=connection_counts, class_links=class_links
                )
        return self._link_index

    def instance_connections(self, prop: IRI, source_cls: IRI, target_cls: IRI) -> int:
        """Number of instance-level links ``(x, prop, y)`` with ``x`` an instance
        of ``source_cls`` and ``y`` an instance of ``target_cls``."""
        key = (self._id(prop), self._id(source_cls), self._id(target_cls))
        return self._links().connection_counts.get(key, 0)  # type: ignore[arg-type]

    def instance_link_count(self, classes: Iterable[IRI]) -> int:
        """Total instance-to-instance property assertions touching instances of
        any class in ``classes`` (used as the relative-cardinality denominator).

        Resolved through the index's pre-unioned per-class link sets --
        identical semantics to walking every member (the per-class sets
        are exactly those unions), at a fraction of the set operations.
        """
        class_links = self._links().class_links
        sets = [class_links.get(self._id(cls), _EMPTY) for cls in classes]  # type: ignore[arg-type]
        if not sets:
            return 0
        if len(sets) == 1:
            return len(sets[0])
        return len(sets[0].union(*sets[1:]))
