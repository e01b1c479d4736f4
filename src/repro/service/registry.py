"""Multi-tenant knowledge-base registry.

A *tenant* is one curated knowledge base with its human population: a named
:class:`~repro.kb.version.VersionedKnowledgeBase`, the
:class:`~repro.profiles.user.User`\\ s recommendations are produced for, an
optional feedback store, and one shared
:class:`~repro.recommender.engine.RecommenderEngine` whose per-context
caches make repeated requests against the same version pair cheap.

Concurrency contract:

* **Writers serialise per tenant.**  :meth:`Tenant.commit` /
  :meth:`Tenant.commit_changes` run under the chain's write lock (the KB's
  own reentrant :attr:`~repro.kb.version.VersionedKnowledgeBase.write_lock`),
  so there is exactly one evolution writer per tenant at a time.
* **Readers never block.**  Committed versions are immutable snapshots;
  :meth:`Tenant.head_pair` reads the current chain head without a lock and
  in-flight requests keep the pair they were admitted on, so a concurrent
  commit can never change what an admitted request scores.
* **Memory follows the head, not the history.**  After every commit the
  tenant drops the snapshot of each version outside the root and the
  :data:`RESIDENT_VERSIONS` newest ones; an explicit read of an older pair
  rematerialises it through delta replay (same bytes), and the next commit
  drops it again.
"""

from __future__ import annotations

import threading
import warnings
import zlib
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # ops-plane feeding seam; annotation only
    from repro.service.metrics import ServiceMetrics
    from repro.service.respcache import ResponseCache

from repro.kb.graph import Graph
from repro.kb.triples import Triple
from repro.kb.version import Version, VersionedKnowledgeBase
from repro.profiles.feedback import FeedbackEvent, FeedbackStore
from repro.profiles.user import User
from repro.recommender.engine import EngineConfig, RecommenderEngine
from repro.service.errors import ServiceError, UnknownTenantError, UnknownUserError

#: Versions a serving tenant keeps materialised besides the root (which
#: anchors delta replay): the head pair plus the previous head pair, which
#: reads admitted just before a commit may still be filling.
RESIDENT_VERSIONS = 3


class Tenant:
    """One served knowledge base: versions, users and a shared engine."""

    def __init__(
        self,
        name: str,
        kb: VersionedKnowledgeBase,
        users: Iterable[User] = (),
        feedback: FeedbackStore | None = None,
        engine_config: EngineConfig | None = None,
        on_commit: Callable[[Version], None] | None = None,
        on_close: Callable[[], None] | None = None,
        on_population_change: Callable[[], None] | None = None,
        store=None,
    ) -> None:
        if not name:
            raise ServiceError("tenant name must be non-empty")
        self.name = name
        self.kb = kb
        # The tenant's backing BinaryKBStore, when served with --persist:
        # purely informational here (describe() reports its commit-log
        # size) -- the durability work itself runs through on_commit.
        self.store = store
        self._users: Dict[str, User] = {user.user_id: user for user in users}
        #: The tenant's feedback store (None when served without one).
        #: Mutations must go through record_feedback so the population
        #: seam below sees them.
        self.feedback = feedback
        self.engine = RecommenderEngine(
            kb, config=engine_config or EngineConfig(), feedback=feedback
        )
        # Post-commit hook, invoked under the tenant write lock -- the
        # durability seam: ``python -m repro serve --persist`` appends each
        # committed version to the KB's binary store commit log here
        # (O(delta) fsync, see repro.io.store.BinaryKBStore.sync).  Hook
        # failures are warnings, not request failures: the commit is
        # already live in memory, so failing the request would invite the
        # client to re-commit a duplicate, and a sync-style hook catches
        # up on every version still missing at its next success.
        self.on_commit = on_commit
        # Resource-release hook, run exactly once when the tenant leaves
        # serving (eviction via TenantRegistry.remove, or service
        # shutdown): the seam that lets a binary store's lazy memory map
        # close with the tenant instead of lingering until GC.
        self.on_close = on_close
        # Population-change hook, run after any user/feedback mutation --
        # the invalidation seam: all such mutations change what the engine
        # may produce (profiles feed the relatedness scorer, feedback the
        # novelty history), so anything memoising responses must hear
        # about them.  Mirrors on_commit/on_close: failures are warnings,
        # never mutation failures.
        self.on_population_change = on_population_change
        # Ops-plane aggregator (attached by the registry): commits are
        # recorded here, under the tenant write lock, so the /events
        # stream sees every committed version.
        self._metrics: "Optional[ServiceMetrics]" = None
        # Response cache (attached by the registry): population mutations
        # bump this tenant's epoch here, before the user hook runs.
        self._respcache: "Optional[ResponseCache]" = None
        self._closed = False

    def close(self) -> None:
        """Run the tenant's resource-release hook (idempotent).

        Hook failures are warnings, mirroring :meth:`_run_commit_hook`:
        the tenant is leaving service either way, and eviction/shutdown
        must not fail because a backing file was already gone.
        """
        if self._closed:
            return
        self._closed = True
        if self.on_close is None:
            return
        try:
            self.on_close()
        except Exception as exc:
            warnings.warn(
                f"tenant {self.name!r}: close hook failed ({exc})",
                RuntimeWarning,
                stacklevel=2,
            )

    def _run_commit_hook(self, version: Version) -> None:
        if self.on_commit is None:
            return
        try:
            self.on_commit(version)
        except Exception as exc:
            warnings.warn(
                f"tenant {self.name!r}: post-commit hook failed for version "
                f"{version.version_id!r} ({exc}); the version is live in "
                "memory and will be persisted by the next successful hook run",
                RuntimeWarning,
                stacklevel=4,
            )

    def _run_population_hook(self) -> None:
        """Tell the cache + hook the population changed (warning-on-failure).

        The epoch bump is unconditional and first: even if a user hook
        fails, no memoised response for the pre-mutation population may be
        served again.
        """
        if self._respcache is not None:
            self._respcache.bump_epoch(self.name)
        if self.on_population_change is None:
            return
        try:
            self.on_population_change()
        except Exception as exc:
            warnings.warn(
                f"tenant {self.name!r}: population-change hook failed ({exc}); "
                "the mutation itself is live",
                RuntimeWarning,
                stacklevel=3,
            )

    # -- users ----------------------------------------------------------------

    def user(self, user_id: str) -> User:
        """The user named ``user_id`` (raises :class:`UnknownUserError`)."""
        try:
            return self._users[user_id]
        except KeyError:
            raise UnknownUserError(
                f"tenant {self.name!r} has no user {user_id!r} "
                f"(have: {', '.join(sorted(self._users)) or 'none'})"
            ) from None

    def add_user(self, user: User) -> User:
        """Register (or replace) a user.

        ``User`` is frozen, so replacement through here *is* the profile
        mutation path -- which is why this routes through the population
        seam (epoch bump + ``on_population_change``).
        """
        self._users[user.user_id] = user
        self._run_population_hook()
        return user

    def record_feedback(self, event: FeedbackEvent) -> FeedbackEvent:
        """Record one feedback event through the population seam.

        Feedback feeds the relatedness scorer and the novelty history, so
        it changes responses exactly like a profile edit does; mutating
        the store directly would bypass the invalidation seam.
        """
        if self.feedback is None:
            raise ServiceError(
                f"tenant {self.name!r} has no feedback store to record into"
            )
        self.feedback.add(event)
        self._run_population_hook()
        return event

    def user_ids(self) -> List[str]:
        """Registered user ids, sorted."""
        return sorted(self._users)

    # -- versions -------------------------------------------------------------

    @property
    def write_lock(self):
        """The tenant's writer lock (the KB chain's own reentrant lock)."""
        return self.kb.write_lock

    def head_pair(self) -> Tuple[str, str]:
        """The latest adjacent version pair ``(old_id, new_id)``.

        This is the *admission snapshot*: the serving layer captures it when
        a request arrives, and the request scores exactly that pair no
        matter how many versions a writer commits before the worker pool
        gets to it.
        """
        ids = self.kb.version_ids()
        if len(ids) < 2:
            raise ServiceError(
                f"tenant {self.name!r} needs at least two versions to recommend on"
            )
        return ids[-2], ids[-1]

    def _after_commit(self, version: Version) -> Version:
        """The post-commit step of every commit path (write lock held).

        Runs the commit hook, records the commit, then drops the cached
        snapshot of every version but the root and the
        :data:`RESIDENT_VERSIONS` newest, so the tenant's memory tracks
        the head's size instead of the chain's length.
        """
        self._run_commit_hook(version)
        if self._metrics is not None:
            self._metrics.record_commit(self.name)
        versions = list(self.kb)
        for old in versions[1:-RESIDENT_VERSIONS]:
            old.drop_graph_cache()
        return version

    def commit(
        self,
        graph: Graph,
        version_id: str | None = None,
        metadata: Dict[str, str] | None = None,
    ) -> Version:
        """Commit ``graph`` as the tenant's next version (single writer)."""
        with self.write_lock:
            return self._after_commit(
                self.kb.commit(graph, version_id=version_id, metadata=metadata)
            )

    def commit_changes(
        self,
        added: Iterable[Triple] = (),
        deleted: Iterable[Triple] = (),
        version_id: str | None = None,
        metadata: Dict[str, str] | None = None,
    ) -> Version:
        """Commit the next version as latest + changes (single writer)."""
        with self.write_lock:
            return self._after_commit(
                self.kb.commit_changes(
                    added=added, deleted=deleted, version_id=version_id, metadata=metadata
                )
            )

    def commit_recorded(
        self,
        added: Iterable[Triple] = (),
        deleted: Iterable[Triple] = (),
        version_id: str | None = None,
        metadata: Dict[str, str] | None = None,
    ) -> Version:
        """Append an exact recorded delta as the next version (single writer).

        The replica's commit path: a decoded commit record lands through
        :meth:`~repro.kb.version.VersionedKnowledgeBase.commit_recorded`,
        born unmaterialised, and then takes the same post-commit step as
        :meth:`commit_changes`.
        """
        with self.write_lock:
            return self._after_commit(
                self.kb.commit_recorded(
                    added=added, deleted=deleted, version_id=version_id, metadata=metadata
                )
            )

    def persistence_summary(self) -> Optional[Dict[str, object]]:
        """The commit-log gauge block (None for unpersisted tenants).

        Shared by :meth:`describe` and the frozen ``/stats`` payload's
        ``per_tenant.<name>.persistence`` field -- the signal the
        "log-bytes-near-rollup" alert rule watches.
        """
        if self.store is None:
            return None
        records, size = self.store.log_stats()
        return {
            "log_records": records,
            "log_bytes": size,
            "rollup_bytes": self.store.rollup_bytes,
            "rollup_records": self.store.rollup_records,
        }

    def describe(self) -> Dict[str, object]:
        """JSON-friendly summary (the HTTP front-end's ``/tenants`` view)."""
        ids = self.kb.version_ids()
        summary: Dict[str, object] = {
            "name": self.name,
            "versions": ids,
            "latest": ids[-1] if ids else None,
            "users": self.user_ids(),
        }
        persistence = self.persistence_summary()
        if persistence is not None:
            summary["persistence"] = persistence
        return summary

    def __repr__(self) -> str:
        return f"Tenant({self.name!r}, versions={len(self.kb)}, users={len(self._users)})"


class TenantRegistry:
    """Thread-safe name -> :class:`Tenant` map.

    The registry is also the system's shard key space: the tenant name is
    the unit of placement, and :meth:`shard_of` is the one routing function
    every topology layer (the :class:`~repro.service.sharding.ShardSupervisor`,
    the HTTP router, external load balancers) agrees on.
    """

    def __init__(self) -> None:
        self._tenants: Dict[str, Tenant] = {}
        self._lock = threading.Lock()
        self._metrics: "Optional[ServiceMetrics]" = None
        self._respcache: "Optional[ResponseCache]" = None

    def attach_response_cache(self, cache: "ResponseCache") -> None:
        """Wire the response cache into this registry.

        Mirrors :meth:`attach_metrics`: every tenant (current and future)
        bumps its cache epoch on population mutations, and eviction purges
        the tenant's entries.  Called by ``RecommendationService`` when
        its config enables the cache.
        """
        with self._lock:
            self._respcache = cache
            tenants = list(self._tenants.values())
        for tenant in tenants:
            tenant._respcache = cache

    def attach_metrics(self, metrics: "ServiceMetrics") -> None:
        """Wire the ops-plane aggregator into this registry.

        Every already-registered tenant and every tenant added later
        records its commits into ``metrics``; eviction drops the
        tenant's counters.  Called by ``RecommendationService`` so a
        caller-supplied registry joins the service's ops plane too.
        """
        with self._lock:
            self._metrics = metrics
            tenants = list(self._tenants.values())
        for tenant in tenants:
            tenant._metrics = metrics

    # -- shard routing --------------------------------------------------------

    @staticmethod
    def shard_of(name: str, n_shards: int) -> int:
        """The shard index owning tenant ``name`` out of ``n_shards``.

        Stable across processes, hosts and Python versions (CRC-32 of the
        UTF-8 name, *not* the salted builtin ``hash``), so a router and its
        shard processes always agree on placement without coordination.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        return zlib.crc32(name.encode("utf-8")) % n_shards

    def shard_map(self, n_shards: int) -> Dict[int, List[str]]:
        """Registered tenant names grouped by owning shard (sorted names)."""
        mapping: Dict[int, List[str]] = {shard: [] for shard in range(n_shards)}
        for name in self.names():
            mapping[self.shard_of(name, n_shards)].append(name)
        return mapping

    def add(
        self,
        name: str,
        kb: VersionedKnowledgeBase,
        users: Iterable[User] = (),
        feedback: FeedbackStore | None = None,
        engine_config: EngineConfig | None = None,
        on_commit: Callable[[Version], None] | None = None,
        on_close: Callable[[], None] | None = None,
        on_population_change: Callable[[], None] | None = None,
        store=None,
    ) -> Tenant:
        """Register a tenant; duplicate names are rejected."""
        tenant = Tenant(
            name,
            kb,
            users,
            feedback,
            engine_config,
            on_commit,
            on_close,
            on_population_change=on_population_change,
            store=store,
        )
        with self._lock:
            if name in self._tenants:
                raise ServiceError(f"duplicate tenant name: {name!r}")
            tenant._metrics = self._metrics
            tenant._respcache = self._respcache
            self._tenants[name] = tenant
        return tenant

    def get(self, name: str) -> Tenant:
        """The tenant named ``name`` (raises :class:`UnknownTenantError`)."""
        tenant = self._tenants.get(name)
        if tenant is None:
            raise UnknownTenantError(
                f"unknown tenant {name!r} (have: {', '.join(self.names()) or 'none'})"
            )
        return tenant

    def remove(self, name: str) -> Optional[Tenant]:
        """Deregister a tenant, run its close hook, return it (None if absent)."""
        with self._lock:
            tenant = self._tenants.pop(name, None)
            metrics = self._metrics
            respcache = self._respcache
        if tenant is not None:
            tenant.close()
            if metrics is not None:
                # A re-registered name is a *new* tenant (the admission
                # key already says so); its counters must start at zero.
                metrics.forget(name)
            if respcache is not None:
                # Same rule for cached bodies: a new KB under the old name
                # may even reuse version ids, so nothing may survive.
                respcache.forget_tenant(name)
        return tenant

    def close_all(self) -> None:
        """Run every registered tenant's close hook (tenants stay registered).

        The service-shutdown half of the resource-lifetime contract: a
        closed service keeps answering introspection (``tenants()``) but
        releases what its tenants held open (lazy store maps, etc.).
        """
        with self._lock:
            tenants = list(self._tenants.values())
        for tenant in tenants:
            tenant.close()

    def names(self) -> List[str]:
        """Registered tenant names, sorted."""
        return sorted(self._tenants)

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: object) -> bool:
        return name in self._tenants

    def __iter__(self):
        return iter([self._tenants[name] for name in self.names()])
