"""An in-memory indexed triple store over interned integer ids.

:class:`Graph` dictionary-encodes every term through a shared
:class:`~repro.kb.interning.TermDictionary` and keeps its three hash indexes
(SPO, POS, OSP) plus a flat triple set entirely in dense integer ids.  Public
queries still speak :class:`~repro.kb.triples.Triple`: matches are
materialised lazily at the API boundary from the dictionary's triple pool, so
yielding a match is a dict lookup, not a dataclass construction.

The columnar layout buys three fast paths that the measure/delta/recommender
layers lean on:

* **set algebra** -- :meth:`difference`, :meth:`__eq__` and bulk
  :meth:`add_all` between graphs sharing a dictionary are C-speed integer-set
  operations (this is what makes low-level delta computation cheap);
* **copy** -- :meth:`copy` is copy-on-write (see below), so a version
  chain's snapshots share every index entry no commit touched and deriving
  a child snapshot costs in proportion to its delta;
* **counting** -- every pattern shape of :meth:`count`, including
  ``(subject, None, object)``, resolves through an index without
  materialising triples.

Pattern matching follows the usual convention: ``None`` is a wildcard.

Copy-on-write.  Each index is a top-level dict of second-level dicts of
leaf sets (``spo[s][p] == {o, ...}``).  A :meth:`copy` gets its own key set
and its own three top-level dicts, and shares every second-level dict and
leaf set with its source.  Whichever of the two graphs first writes to a
shared container copies just that container -- the second-level dict, then
the leaf set -- and records that it now owns it.  Ownership is recorded per
index by key (the top keys and ``(top, second)`` pairs a graph has copied or
created), never by container identity.  Copying clears the source's record
too, since its containers are now shared as well.  A graph that was never
copied from or to (every bulk build, every fresh graph) writes in place.

Threads: any number of threads may read a graph, and copy it, while no
thread mutates it.  A graph must not be mutated while another thread reads
or copies it.  Committed version snapshots are never mutated, so readers,
commits and delta replay may share them freely; a copy's writes never touch
a container its source still holds.

>>> from repro.kb.namespaces import EX, RDF_TYPE, RDFS_CLASS
>>> g = Graph()
>>> _ = g.add(Triple(EX.Person, RDF_TYPE, RDFS_CLASS))
>>> sum(1 for _ in g.match(None, RDF_TYPE, None))
1
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Set, Tuple

import numpy as np

from repro.kb.interning import TermDictionary, TripleKey
from repro.kb.terms import IRI, Term
from repro.kb.triples import Triple

_IntIndex = Dict[int, Dict[int, Set[int]]]


class Graph:
    """A set of triples with interned SPO/POS/OSP indexes.

    The container API (``len``, ``in``, iteration) treats the graph as a set
    of :class:`~repro.kb.triples.Triple`.  Iteration order is unspecified;
    use :meth:`sorted_triples` for canonical order.

    ``dictionary`` is the term-interning dictionary to encode against; by
    default each root graph gets its own, and every graph derived from it
    (:meth:`copy`, :meth:`union`, the version chain) shares it, keeping term
    ids stable across the whole family.
    """

    def __init__(
        self,
        triples: Iterable[Triple] = (),
        dictionary: TermDictionary | None = None,
    ) -> None:
        self._dict = dictionary if dictionary is not None else TermDictionary()
        self._triples: Set[TripleKey] = set()
        self._spo: _IntIndex = {}
        self._pos: _IntIndex = {}
        self._osp: _IntIndex = {}
        # Copy-on-write ownership, one set per index (SPO, POS, OSP): the
        # top keys whose second-level dict and the (top, second) pairs
        # whose leaf set this graph owns.  None until the graph is first
        # copied from or to: it then owns every container and writes in
        # place.
        self._owned: Tuple[Set, Set, Set] | None = None
        # Pattern scans memoised as lists until the next mutation (see
        # match()).
        self._scan_cache: Dict[Tuple[int | None, int | None, int | None], list] = {}
        # Bumped on every effective mutation; snapshot consumers (e.g.
        # SchemaView) compare revisions to detect that their caches went
        # stale because the graph changed underneath them.
        self._revision = 0
        if triples:
            self.add_all(triples)

    @property
    def revision(self) -> int:
        """Monotonic mutation counter (changes iff the triple set changed)."""
        return self._revision

    @property
    def dictionary(self) -> TermDictionary:
        """The term-interning dictionary this graph encodes against."""
        return self._dict

    @property
    def triple_keys(self) -> Set[TripleKey]:
        """The live set of interned ``(s, p, o)`` id-triples.

        Read-only by convention: the bulk serializer and the wire/store
        layers iterate it directly instead of materialising triples.
        """
        return self._triples

    # -- mutation ---------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Add ``triple``; return True if it was not already present."""
        if not isinstance(triple, Triple):
            raise TypeError(f"expected Triple, got {type(triple).__name__}")
        key = self._dict.intern_triple(triple)
        if key in self._triples:
            return False
        self._add_key(key)
        return True

    def _add_key(self, key: TripleKey) -> None:
        """Index an id-triple known to be absent."""
        if self._scan_cache:
            self._scan_cache.clear()
        self._revision += 1
        self._triples.add(key)
        s, p, o = key
        owned = self._owned
        if owned is None:
            self._spo.setdefault(s, {}).setdefault(p, set()).add(o)
            self._pos.setdefault(p, {}).setdefault(o, set()).add(s)
            self._osp.setdefault(o, {}).setdefault(s, set()).add(p)
        else:
            _own_leaf(self._spo, owned[0], s, p).add(o)
            _own_leaf(self._pos, owned[1], p, o).add(s)
            _own_leaf(self._osp, owned[2], o, s).add(p)

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add every triple in ``triples``; return how many were new.

        When ``triples`` is a :class:`Graph` on the same dictionary, the new
        keys are found with one integer-set difference and indexed directly,
        skipping per-triple interning entirely.
        """
        if isinstance(triples, Graph) and triples._dict is self._dict:
            fresh = triples._triples - self._triples
            for key in fresh:
                self._add_key(key)
            return len(fresh)
        return sum(1 for t in triples if self.add(t))

    def remove(self, triple: Triple) -> bool:
        """Remove ``triple``; return True if it was present."""
        key = self._dict.key_of(triple)
        if key is None or key not in self._triples:
            return False
        if self._scan_cache:
            self._scan_cache.clear()
        self._revision += 1
        self._triples.discard(key)
        s, p, o = key
        owned = self._owned or (None, None, None)
        _drop(self._spo, owned[0], s, p, o)
        _drop(self._pos, owned[1], p, o, s)
        _drop(self._osp, owned[2], o, s, p)
        return True

    def remove_all(self, triples: Iterable[Triple]) -> int:
        """Remove every triple in ``triples``; return how many were present."""
        return sum(1 for t in triples if self.remove(t))

    # -- queries ----------------------------------------------------------

    def match(
        self,
        subject: Term | None = None,
        predicate: IRI | None = None,
        object: Term | None = None,
    ) -> Iterator[Triple]:
        """Yield every triple matching the pattern (``None`` = wildcard).

        Each pattern shape uses the index that binds the most terms, so no
        shape degrades to a full scan unless all three positions are
        wildcards.  Yielded triples come from the dictionary's pool -- the
        same :class:`Triple` object every time a given triple matches.

        Scans are memoised per id-pattern until the graph next mutates, so
        repeated scans (schema construction, measure sweeps) iterate a
        materialised list instead of re-walking the indexes.  Consequently a
        match always iterates a *snapshot*: mutating the graph while
        consuming the iterator is safe and does not affect the triples
        already being yielded (only later scans see the mutation).
        """
        id_of = self._dict.id_of
        s = p = o = None
        if subject is not None:
            s = id_of(subject)
            if s is None:
                return
        if predicate is not None:
            p = id_of(predicate)
            if p is None:
                return
        if object is not None:
            o = id_of(object)
            if o is None:
                return
        pattern = (s, p, o)
        cached = self._scan_cache.get(pattern)
        if cached is None:
            cached = list(self._scan(s, p, o))
            # The size cap bounds memory on query-diverse workloads.
            if len(self._scan_cache) < 512:
                self._scan_cache[pattern] = cached
        yield from cached

    def _scan(self, s: int | None, p: int | None, o: int | None) -> Iterator[Triple]:
        """Walk the best index for an id-pattern, yielding pooled triples."""
        cache = self._dict.triple_cache
        if s is not None:
            by_pred = self._spo.get(s, {})
            if p is not None:
                objects = by_pred.get(p, ())
                if o is not None:
                    if o in objects:
                        yield cache[(s, p, o)]
                else:
                    for obj in objects:
                        yield cache[(s, p, obj)]
            elif o is not None:
                for pred in self._osp.get(o, {}).get(s, ()):
                    yield cache[(s, pred, o)]
            else:
                for pred, objects in by_pred.items():
                    for obj in objects:
                        yield cache[(s, pred, obj)]
        elif p is not None:
            by_obj = self._pos.get(p, {})
            if o is not None:
                for subj in by_obj.get(o, ()):
                    yield cache[(subj, p, o)]
            else:
                for obj, subjects in by_obj.items():
                    for subj in subjects:
                        yield cache[(subj, p, obj)]
        elif o is not None:
            for subj, preds in self._osp.get(o, {}).items():
                for pred in preds:
                    yield cache[(subj, pred, o)]
        else:
            for key in self._triples:
                yield cache[key]

    def count(
        self,
        subject: Term | None = None,
        predicate: IRI | None = None,
        object: Term | None = None,
    ) -> int:
        """Number of triples matching the pattern, without materialising them.

        Every shape with at least two bound terms (and the single-bound
        shapes below) is a pure index lookup; only single-wildcard scans over
        one bound term fall through to iteration, and even those never
        materialise a :class:`Triple`.
        """
        id_of = self._dict.id_of
        s = p = o = None
        if subject is not None:
            s = id_of(subject)
            if s is None:
                return 0
        if predicate is not None:
            p = id_of(predicate)
            if p is None:
                return 0
        if object is not None:
            o = id_of(object)
            if o is None:
                return 0
        if s is not None:
            if p is not None:
                leaf = self._spo.get(s, {}).get(p, ())
                if o is not None:
                    return 1 if o in leaf else 0
                return len(leaf)
            if o is not None:
                return len(self._osp.get(o, {}).get(s, ()))
            return sum(len(objs) for objs in self._spo.get(s, {}).values())
        if p is not None:
            if o is not None:
                return len(self._pos.get(p, {}).get(o, ()))
            return sum(len(subjs) for subjs in self._pos.get(p, {}).values())
        if o is not None:
            return sum(len(preds) for preds in self._osp.get(o, {}).values())
        return len(self._triples)

    def subjects(self, predicate: IRI | None = None, object: Term | None = None) -> Iterator[Term]:
        """Distinct subjects of triples matching ``(?, predicate, object)``."""
        if predicate is not None and object is not None:
            p = self._dict.id_of(predicate)
            o = self._dict.id_of(object)
            if p is None or o is None:
                return
            term = self._dict.term
            for s in self._pos.get(p, {}).get(o, ()):
                yield term(s)
        else:
            seen: Set[Term] = set()
            for triple in self.match(None, predicate, object):
                if triple.subject not in seen:
                    seen.add(triple.subject)
                    yield triple.subject

    def objects(self, subject: Term | None = None, predicate: IRI | None = None) -> Iterator[Term]:
        """Distinct objects of triples matching ``(subject, predicate, ?)``."""
        if subject is not None and predicate is not None:
            s = self._dict.id_of(subject)
            p = self._dict.id_of(predicate)
            if s is None or p is None:
                return
            term = self._dict.term
            for o in self._spo.get(s, {}).get(p, ()):
                yield term(o)
        else:
            seen: Set[Term] = set()
            for triple in self.match(subject, predicate, None):
                if triple.object not in seen:
                    seen.add(triple.object)
                    yield triple.object

    def predicates(self, subject: Term | None = None, object: Term | None = None) -> Iterator[IRI]:
        """Distinct predicates of triples matching ``(subject, ?, object)``."""
        if subject is not None and object is not None:
            s = self._dict.id_of(subject)
            o = self._dict.id_of(object)
            if s is None or o is None:
                return
            term = self._dict.term
            for p in self._osp.get(o, {}).get(s, ()):
                yield term(p)  # type: ignore[misc]
        else:
            seen: Set[Term] = set()
            for triple in self.match(subject, None, object):
                if triple.predicate not in seen:
                    seen.add(triple.predicate)
                    yield triple.predicate

    def value(self, subject: Term, predicate: IRI) -> Term | None:
        """The single object of ``(subject, predicate, ?)`` or None.

        Convenience for functional properties; if several objects exist an
        arbitrary one is returned.
        """
        for obj in self.objects(subject, predicate):
            return obj
        return None

    def triples_mentioning(self, term: Term) -> Iterator[Triple]:
        """Every triple with ``term`` in any position (deduplicated)."""
        seen: Set[Triple] = set()
        for pattern in ((term, None, None), (None, term, None), (None, None, term)):
            subj, pred, obj = pattern
            if pred is not None and not isinstance(pred, IRI):
                continue
            for triple in self.match(subj, pred, obj):  # type: ignore[arg-type]
                if triple not in seen:
                    seen.add(triple)
                    yield triple

    # -- set semantics ------------------------------------------------------

    @classmethod
    def from_interned_keys(
        cls, dictionary: TermDictionary, keys: "Iterable[TripleKey] | np.ndarray"
    ) -> "Graph":
        """Build a graph directly from id-triples already interned in ``dictionary``.

        The bulk-load fast path of the binary wire format
        (:mod:`repro.kb.wire`) and the bulk N-Triples codec
        (:func:`repro.kb.ntriples.parse_interned`, which hands over an
        ``(n, 3)`` integer ndarray): every key's three ids must already
        exist in ``dictionary`` (ids out of range raise ``IndexError``).
        Skips per-triple validation and interning entirely -- the terms
        were validated when they first entered the dictionary on the
        encoding side.
        """
        if isinstance(keys, np.ndarray):
            # tolist() materialises plain Python ints: numpy scalars must
            # never leak into the integer indexes (they hash equal but cost
            # more and pickle bigger).
            keys = map(tuple, keys.tolist())
        graph = cls(dictionary=dictionary)
        materialize = dictionary.materialize
        # Inlined _add_key: one tight loop over the three indexes, no
        # per-key method dispatch / scan-cache check (the graph is fresh).
        triples = graph._triples
        spo, pos, osp = graph._spo, graph._pos, graph._osp
        added = 0
        for key in keys:
            # Materialise into the shared pool so match()/iteration can yield
            # this triple with a plain dict index later.
            materialize(key)
            if key in triples:
                continue
            added += 1
            triples.add(key)
            s, p, o = key
            spo.setdefault(s, {}).setdefault(p, set()).add(o)
            pos.setdefault(p, {}).setdefault(o, set()).add(s)
            osp.setdefault(o, {}).setdefault(s, set()).add(p)
        graph._revision = added
        return graph

    def copy(self) -> "Graph":
        """An independent copy of this graph (sharing the term dictionary).

        Copy-on-write: the clone gets its own key set and its own three
        top-level index dicts, and shares every second-level dict and leaf
        set with this graph.  Whichever graph first writes to a shared
        container copies just that container, so a copy costs the key set
        plus one dict entry per distinct term, and each later write costs
        at most the containers it touches.  This graph's ownership record
        is cleared as well: its containers are now shared, and its own
        later writes copy them first.

        Mutating this graph while another thread copies it is not allowed
        (the copy reads its containers); committed snapshots are never
        mutated, so any number of threads may copy one.
        """
        clone = Graph(dictionary=self._dict)
        clone._triples = set(self._triples)
        clone._spo = dict(self._spo)
        clone._pos = dict(self._pos)
        clone._osp = dict(self._osp)
        clone._owned = (set(), set(), set())
        self._owned = (set(), set(), set())
        return clone

    def union(self, other: "Graph") -> "Graph":
        """A new graph holding the triples of both graphs."""
        result = self.copy()
        result.add_all(other)
        return result

    def difference(self, other: "Graph") -> Set[Triple]:
        """The set of triples in ``self`` but not in ``other``.

        Graphs on one shared dictionary diff by a single integer-set
        difference; unrelated graphs fall back to per-triple membership.
        """
        if isinstance(other, Graph) and other._dict is self._dict:
            cache = self._dict.triple_cache
            return {cache[key] for key in self._triples - other._triples}
        return {t for t in self if t not in other}

    def sorted_triples(self) -> list[Triple]:
        """All triples in canonical (term-order) sort."""
        return sorted(self, key=lambda t: t._sort_key())

    # -- container protocol -------------------------------------------------

    def __contains__(self, triple: object) -> bool:
        if not isinstance(triple, Triple):
            return False
        key = self._dict.key_of(triple)
        return key is not None and key in self._triples

    def __iter__(self) -> Iterator[Triple]:
        cache = self._dict.triple_cache
        for key in self._triples:
            yield cache[key]

    def __len__(self) -> int:
        return len(self._triples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if other._dict is self._dict:
            return self._triples == other._triples
        return len(self._triples) == len(other._triples) and all(t in other for t in self)

    def __repr__(self) -> str:
        return f"Graph(<{len(self._triples)} triples>)"


# -- copy-on-write index helpers ----------------------------------------------


def _own_inner(index: _IntIndex, owned: Set, a: int) -> Dict[int, Set[int]]:
    """``index[a]`` made this graph's own: created if absent, else copied unless owned."""
    inner = index.get(a)
    if inner is None:
        inner = index[a] = {}
    elif a in owned:
        return inner
    else:
        inner = index[a] = dict(inner)
    owned.add(a)
    return inner


def _own_leaf(index: _IntIndex, owned: Set, a: int, b: int) -> Set[int]:
    """``index[a][b]`` made this graph's own, its second-level dict first."""
    inner = _own_inner(index, owned, a)
    leaf = inner.get(b)
    pair = (a, b)
    if leaf is None:
        leaf = inner[b] = set()
    elif pair in owned:
        return leaf
    else:
        leaf = inner[b] = set(leaf)
    owned.add(pair)
    return leaf


def _drop(index: _IntIndex, owned: Set | None, a: int, b: int, c: int) -> None:
    """Remove ``c`` (known present) from ``index[a][b]``, pruning empties.

    ``owned`` is the index's ownership set, or None when the graph owns
    every container.  Removing a leaf's last member deletes its entry
    instead of copying the leaf, and removing a second-level dict's last
    entry deletes it from the top level, which the graph always owns.
    """
    inner = index[a]
    if len(inner[b]) > 1:
        leaf = inner[b] if owned is None else _own_leaf(index, owned, a, b)
        leaf.discard(c)
    elif len(inner) > 1:
        if owned is not None:
            inner = _own_inner(index, owned, a)
        del inner[b]
    else:
        del index[a]
