"""Versioned knowledge bases: a delta-chained linear version history.

The paper studies the evolution of a knowledge base "from a version V1 to a
version V2" (Section II.a).  :class:`VersionedKnowledgeBase` models a linear
chain of named versions sharing one term-interning dictionary
(:class:`~repro.kb.interning.TermDictionary`), so term ids are stable across
the whole chain and version-to-version set algebra runs over integers.

Storage is **delta-chained with a materialised-graph cache**: every non-root
:class:`Version` records the low-level changes (added / deleted triples)
against its parent, computed at commit time with the graph layer's
integer-set fast path.  Each version also keeps its full snapshot
:class:`~repro.kb.graph.Graph` so it stays directly queryable.  A child's
snapshot is a copy-on-write :meth:`~repro.kb.graph.Graph.copy` of its
parent's with the delta applied, so snapshots share every index entry no
commit touched.  The snapshot is a *cache*:
:meth:`VersionedKnowledgeBase.compact` drops the cached graphs of middle
versions, and a compacted version transparently rematerialises by
replaying the delta chain from its nearest cached ancestor.  Dropping a
version's cache releases its snapshot graph and its schema view with
every artefact memoised on it (class graph, betweenness, semantic
caches); what stays is the recorded delta, the metadata and the size.
A version's view is linked to its parent's view when that one is built,
so an unchanged class graph reuses the parent's betweenness; the link is
weak, so nothing else keeps a dropped snapshot alive.  The delta layer
(:mod:`repro.deltas`) reads :meth:`Version.delta_from_parent` for free
adjacent-pair deltas instead of re-diffing snapshots.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, Tuple

from repro.kb.errors import VersionError
from repro.kb.graph import Graph
from repro.kb.schema import SchemaView
from repro.kb.triples import Triple

if TYPE_CHECKING:  # deltas sits above kb; imported lazily at runtime.
    from repro.deltas.lowlevel import LowLevelDelta

_Changes = Tuple[FrozenSet[Triple], FrozenSet[Triple]]


class Version:
    """One version of a knowledge base: an id, a snapshot and metadata.

    Constructed either with a concrete ``graph`` (root versions, ad-hoc
    snapshots) or -- by the version chain -- additionally with a ``parent``
    and the ``changes`` ``(added, deleted)`` against it, which makes the
    snapshot droppable and rebuildable.  A version may even be *born*
    without its snapshot (``graph=None`` plus an explicit ``size``): the
    on-disk store's lazy decode appends versions from their recorded
    deltas alone, and the snapshot rematerialises through the same
    delta-replay path a compacted version uses.
    """

    def __init__(
        self,
        version_id: str,
        graph: Graph | None,
        metadata: Dict[str, str] | None = None,
        *,
        parent: "Version | None" = None,
        changes: _Changes | None = None,
        size: int | None = None,
    ) -> None:
        self.version_id = version_id
        self.metadata: Dict[str, str] = metadata if metadata is not None else {}
        self._graph: Graph | None = graph
        if graph is None:
            if parent is None or changes is None or size is None:
                raise VersionError(
                    "a version without a snapshot needs a parent, recorded "
                    "changes and an explicit size"
                )
            self._size = size
        else:
            self._size = len(graph)
        self._schema: SchemaView | None = None
        self._parent = parent
        self._changes = changes
        # Serialises lazy rematerialisation and schema-view construction so
        # concurrent readers of a cold version share one build instead of
        # racing to publish near-identical copies.
        self._build_lock = threading.RLock()

    @property
    def graph(self) -> Graph:
        """This version's snapshot graph (rematerialised if compacted away)."""
        # Single read into a local: a concurrent compact() may null the
        # attribute between a lock-free check and the return.
        graph = self._graph
        if graph is None:
            with self._build_lock:
                graph = self._graph
                if graph is None:
                    graph = self._materialize()
                    self._graph = graph
        return graph

    @property
    def parent(self) -> "Version | None":
        """The previous version in the chain (None for the root)."""
        return self._parent

    def delta_from_parent(self) -> "LowLevelDelta | None":
        """The low-level delta turning the parent into this version.

        None for root versions.  Recorded at commit time, so reading it never
        re-diffs the snapshots.
        """
        if self._changes is None:
            return None
        from repro.deltas.lowlevel import LowLevelDelta

        return LowLevelDelta.from_changes(added=self._changes[0], deleted=self._changes[1])

    def _materialize(self) -> Graph:
        """Rebuild the snapshot by replaying deltas from a cached ancestor."""
        pending: List[Version] = []
        node: Version | None = self
        base: Graph | None = None
        while node is not None:
            base = node._graph  # read once: a concurrent compact() may drop it
            if base is not None:
                break
            if node._changes is None or node._parent is None:
                raise VersionError(
                    f"version {node.version_id!r} has neither a cached graph nor a delta chain"
                )
            pending.append(node)
            node = node._parent
        assert base is not None  # the chain root always keeps its graph
        graph = base.copy()
        for version in reversed(pending):
            added, deleted = version._changes  # type: ignore[misc]
            graph.remove_all(deleted)
            graph.add_all(added)
        # A snapshot is never written again, so the replay's ownership
        # record (an entry per container it created or copied) is dead
        # weight for as long as the version stays cached.
        graph._forget_ownership()
        return graph

    def drop_graph_cache(self) -> bool:
        """Drop the cached snapshot (and schema view) if rebuildable.

        Releases the snapshot graph and the schema view together with the
        artefacts memoised on it; the recorded delta stays, so the next
        :attr:`graph` or :attr:`schema` access rebuilds both
        bit-identically.  Readers that already hold the old graph or view
        keep a valid object; the memory goes when they let go of it.

        Returns True when the cache was dropped; root versions and versions
        committed without a recorded delta keep their graph and return False.
        """
        with self._build_lock:
            if self._parent is None or self._changes is None or self._graph is None:
                return False
            self._graph = None
            self._schema = None
            return True

    @property
    def is_materialized(self) -> bool:
        """True when the snapshot graph is currently cached in memory."""
        return self._graph is not None

    @property
    def schema_if_built(self) -> "SchemaView | None":
        """The cached schema view, or None -- never builds or materialises.

        The warm-handoff path (:mod:`repro.service.replica`) harvests
        derived artefacts only from views a request already paid for;
        probing through :attr:`schema` instead would force compacted
        versions to rematerialise just to report an empty memo.
        """
        return self._schema

    @property
    def schema(self) -> SchemaView:
        """Schema view of this version's snapshot (cached).

        When the parent version's view is already built (the common case:
        evaluation sweeps walk the chain in order), the fresh view is
        linked to it (:attr:`SchemaView.parent`), so an unchanged class
        graph reuses the parent's betweenness.  Every other artefact
        computes from this snapshot.  An unbuilt parent view is never
        forced: the link is simply absent.
        """
        schema = self._schema
        if schema is None:
            with self._build_lock:
                schema = self._schema
                if schema is None:
                    parent = self._parent
                    schema = SchemaView(
                        self.graph, parent._schema if parent is not None else None
                    )
                    self._schema = schema
        return schema

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return (
            f"Version(version_id={self.version_id!r}, graph={self._graph!r}, "
            f"metadata={self.metadata!r})"
        )


class VersionedKnowledgeBase:
    """A linear chain of knowledge-base versions with shared interning.

    >>> kb = VersionedKnowledgeBase("demo")
    >>> v1 = kb.commit(Graph(), version_id="v1")
    >>> kb.latest().version_id
    'v1'
    """

    def __init__(self, name: str = "kb") -> None:
        if not name:
            raise ValueError("knowledge base name must be non-empty")
        self.name = name
        self._versions: List[Version] = []
        self._by_id: Dict[str, Version] = {}
        # Writer lock: commits / compaction are single-writer.  Readers never
        # take it -- committed Version objects are immutable, and the chain
        # only ever grows (list append / dict insert are atomic under the
        # GIL), so concurrent version() / latest() / iteration against a
        # committing writer observe either the old or the new chain head.
        self._write_lock = threading.RLock()

    # -- committing -----------------------------------------------------------

    def commit(
        self,
        graph: Graph,
        version_id: str | None = None,
        metadata: Dict[str, str] | None = None,
        copy: bool = True,
    ) -> Version:
        """Append ``graph`` as the next version and return it.

        ``graph`` is copied by default so later caller-side mutation cannot
        corrupt the chain; pass ``copy=False`` to adopt the graph when the
        caller hands over ownership (the synthetic generators do this).

        The chain's term dictionary is the one of the first committed graph;
        a later graph interned against a *different* dictionary is re-encoded
        onto the chain's (a full copy), so every version always shares one
        dictionary and delta computation stays on the integer fast path.
        """
        with self._write_lock:
            if version_id is None:
                version_id = f"v{len(self._versions) + 1}"
            if version_id in self._by_id:
                raise VersionError(f"duplicate version id: {version_id!r}")
            parent = self._versions[-1] if self._versions else None
            if parent is None:
                snapshot = graph.copy() if copy else graph
                version = Version(version_id, snapshot, dict(metadata or {}))
            else:
                chain_dict = parent.graph.dictionary
                if graph.dictionary is not chain_dict:
                    snapshot = Graph(iter(graph), dictionary=chain_dict)
                elif copy:
                    snapshot = graph.copy()
                else:
                    snapshot = graph
                changes = (
                    frozenset(snapshot.difference(parent.graph)),
                    frozenset(parent.graph.difference(snapshot)),
                )
                version = Version(
                    version_id,
                    snapshot,
                    dict(metadata or {}),
                    parent=parent,
                    changes=changes,
                )
            # The version publishes fully built: the _by_id insert lands
            # before the list append, so an id visible through iteration is
            # always resolvable.
            self._by_id[version_id] = version
            self._versions.append(version)
            return version

    def commit_changes(
        self,
        added: Iterable[Triple] = (),
        deleted: Iterable[Triple] = (),
        version_id: str | None = None,
        metadata: Dict[str, str] | None = None,
    ) -> Version:
        """Derive the next version from the latest one by applying changes."""
        with self._write_lock:
            base = self.latest().graph.copy() if self._versions else Graph()
            base.remove_all(deleted)
            base.add_all(added)
            return self.commit(base, version_id=version_id, metadata=metadata, copy=False)

    def commit_recorded(
        self,
        added: Iterable[Triple] = (),
        deleted: Iterable[Triple] = (),
        version_id: str | None = None,
        metadata: Dict[str, str] | None = None,
        snapshot: Graph | None = None,
    ) -> Version:
        """Append the next version from an *exact* recorded delta, lazily.

        Unlike :meth:`commit_changes` this never diffs and -- by default --
        never materialises the child snapshot: the new version is born
        compacted (delta-only) and rebuilds transparently through the
        delta-replay path on first :attr:`Version.graph` access.  This is
        the O(delta) append the binary store's commit-log replay and the
        wire format's lazy decode ride -- the chain root must already
        exist.  A decoder that has the child's triple set in hand anyway
        may pass ``snapshot`` (trusted to equal parent minus ``deleted``
        plus ``added``, on the chain's dictionary) to adopt it as the
        cached graph -- the wire format does this for the head pair, so a
        freshly booted chain serves its first request without any replay.

        The delta must be exact -- ``deleted`` a subset of the parent,
        ``added`` disjoint from it -- which holds for every delta this
        library records at commit time.  Triples must already be interned
        in the chain's dictionary (deltas decoded from the wire are).
        """
        with self._write_lock:
            if not self._versions:
                raise VersionError(
                    "commit_recorded needs an existing root version "
                    "(commit the root snapshot first)"
                )
            if version_id is None:
                version_id = f"v{len(self._versions) + 1}"
            if version_id in self._by_id:
                raise VersionError(f"duplicate version id: {version_id!r}")
            parent = self._versions[-1]
            changes = (frozenset(added), frozenset(deleted))
            version = Version(
                version_id,
                snapshot,
                dict(metadata or {}),
                parent=parent,
                changes=changes,
                size=len(parent) + len(changes[0]) - len(changes[1]),
            )
            self._by_id[version_id] = version
            self._versions.append(version)
            return version

    def compact(self) -> int:
        """Drop the cached snapshots of all middle versions; returns how many.

        The root and the latest version stay materialised (the root anchors
        the delta chain, the latest is what most queries hit).  Each middle
        version releases its snapshot graph and its schema view with the
        artefacts memoised on it (see :meth:`Version.drop_graph_cache`);
        since child views hold their parents weakly, that memory is freed
        as soon as no reader holds it.  Compacted versions rebuild
        transparently -- and cache again -- on next access.
        """
        with self._write_lock:
            dropped = 0
            for version in self._versions[1:-1]:
                if version.drop_graph_cache():
                    dropped += 1
            return dropped

    @property
    def write_lock(self) -> threading.RLock:
        """The chain's writer lock (reentrant).

        Commits and compaction take it internally; the serving layer also
        holds it as the per-tenant write lock around compound
        read-modify-commit sequences.  Readers never need it.
        """
        return self._write_lock

    # -- access ---------------------------------------------------------------

    def version(self, version_id: str) -> Version:
        """The version named ``version_id`` (raises :class:`VersionError`)."""
        try:
            return self._by_id[version_id]
        except KeyError:
            raise VersionError(
                f"unknown version {version_id!r} (have: {', '.join(self.version_ids()) or 'none'})"
            ) from None

    def latest(self) -> Version:
        """The most recent version (raises on an empty chain)."""
        if not self._versions:
            raise VersionError("knowledge base has no versions yet")
        return self._versions[-1]

    def first(self) -> Version:
        """The oldest version (raises on an empty chain)."""
        if not self._versions:
            raise VersionError("knowledge base has no versions yet")
        return self._versions[0]

    def version_ids(self) -> List[str]:
        """Version ids in chain order."""
        return [v.version_id for v in self._versions]

    def pairs(self) -> Iterator[Tuple[Version, Version]]:
        """Consecutive ``(V_i, V_{i+1})`` version pairs in chain order."""
        for older, newer in zip(self._versions, self._versions[1:]):
            yield older, newer

    def __len__(self) -> int:
        return len(self._versions)

    def __iter__(self) -> Iterator[Version]:
        return iter(self._versions)

    def __contains__(self, version_id: object) -> bool:
        return version_id in self._by_id

    def __repr__(self) -> str:
        return f"VersionedKnowledgeBase({self.name!r}, versions={self.version_ids()})"
